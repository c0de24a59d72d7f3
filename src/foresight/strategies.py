"""Forecasting strategies executed as recorded multi-step prompt chains."""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, fields, is_dataclass
from datetime import date
from functools import cache, partial
from itertools import takewhile
from json.encoder import encode_basestring
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .events import Event, InputError, parse_date
from .llm import (
    BackendError,
    CompletionBackend,
    CompletionRequest,
    DEFAULT_TEMPERATURE,
    FINAL_SAMPLE_COUNT,
    complete,
    fan_out,
)
from .metrics import MEAN_TOLERANCE, ForecastRecord
from .news import NewsClient, NewsError, QueryWindow, format_headlines, query_headlines
from .prompts import (
    ExtractionFailed,
    PredictionWindowError,
    SampleExtraction,
    aggregate_probabilities,
    bindings,
    extract_probability,
    get_template,
    render,
)

__all__ = [
    "CHAINS",
    "DEFAULT_KEYWORD_COUNT",
    "DEFAULT_PERSONA_COUNT",
    "NO_HEADLINES_TEXT",
    "STRATEGY_IDS",
    "ChainError",
    "ChainTrace",
    "FailedTrace",
    "InvalidParam",
    "PredictionWindowError",
    "SampleExtraction",
    "StepRecord",
    "UnknownStrategy",
    "check_params",
    "load_trace",
    "run_strategy",
    "save_partial_trace",
    "save_trace",
    "trace_to_forecast",
    "waits_on_network",
]

DEFAULT_PERSONA_COUNT = 8
DEFAULT_KEYWORD_COUNT = 3
NO_HEADLINES_TEXT = "No relevant headlines were found."


class UnknownStrategy(InputError):
    """Raised when a strategy id is not registered."""

    def __init__(self, strategy_id: str):
        self.strategy_id = strategy_id
        super().__init__(f"unknown strategy: {strategy_id!r}")


class InvalidParam(InputError):
    """Raised when a strategy is given a parameter it does not accept."""


@dataclass(frozen=True)
class StepRecord:
    """One chain step: the exact prompt sent and everything that came back."""

    step_id: str
    prompt: str | None
    responses: tuple[str, ...]
    parsed: object = None
    extractions: tuple[SampleExtraction, ...] = ()
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.step_id:
            raise ValueError("step_id must be non-empty")
        # prompt None marks a step that made no model call
        if self.prompt is not None and not self.responses:
            raise ValueError(f"step {self.step_id!r} has a prompt but no responses")
        if self.prompt is None and self.responses:
            raise ValueError(f"step {self.step_id!r} has responses but no prompt")


@dataclass(frozen=True)
class ChainTrace:
    """Complete audit record of one strategy run on one event."""

    event_id: str
    strategy: str
    prediction_date: date
    steps: tuple[StepRecord, ...]
    final_samples: tuple[float, ...]
    final_probability: float

    def __post_init__(self):
        if not self.steps:
            raise ValueError("a trace must contain at least one step")
        if not self.final_samples:
            raise ValueError("a trace must carry the sampled probabilities")
        if not 0.0 <= self.final_probability <= 1.0:
            raise ValueError(f"final probability out of range: {self.final_probability!r}")
        mean = math.fsum(self.final_samples) / len(self.final_samples)
        if abs(mean - self.final_probability) > MEAN_TOLERANCE:
            raise ValueError(
                f"final probability {self.final_probability!r} does not match "
                f"sample mean {mean!r}"
            )


@dataclass(frozen=True)
class FailedTrace:
    """Audit record of a chain that failed: the step that failed, why, and
    the steps completed before it."""

    event_id: str
    strategy: str
    prediction_date: date
    failed_step: str
    error: str
    steps: tuple[StepRecord, ...]


class ChainError(RuntimeError):
    """Raised when a chain step fails; carries the failed run's record."""

    def __init__(self, trace: FailedTrace):
        self.trace = trace
        super().__init__(trace.error)


class _Outcome(NamedTuple):
    """A step's outcome before it is recorded."""

    step_id: str
    step: StepRecord | None  # None when sampling failed
    failure: BackendError | ExtractionFailed | None = None
    drop_failed: bool = False


def waits_on_network(*parts: object) -> bool:
    """Whether a chain's backend or one of its news clients waits on the network."""
    return any(getattr(part, "waits_on_network", False) for part in parts)


class _ChainBuilder:
    """Accumulates step records while a chain runs."""

    def __init__(
        self,
        strategy_id: str,
        event: Event,
        today: date,
        backend: CompletionBackend,
        *clients: NewsClient | None,
    ):
        self.strategy_id = strategy_id
        self.event = event
        self.today = today
        self.backend = backend
        # raises PredictionWindowError before any call when the window is closed
        self.bindings = bindings(event, today)
        self.steps: list[StepRecord] = []
        self.parallel = waits_on_network(backend, *clients)

    def each(self, fn: Callable, items: Iterable) -> Iterable:
        """``fn`` over ``items``: all at once through :func:`fan_out` when a
        part of the chain waits on the network, else one by one as the caller
        iterates, so a caller that stops early makes no further calls."""
        return fan_out(fn, items) if self.parallel else map(fn, items)

    def fail(self, step_id: str, message: str) -> ChainError:
        error = f"event {self.event.id!r} failed at step {step_id!r}: {message}"
        return ChainError(FailedTrace(
            self.event.id, self.strategy_id, self.today, step_id, error, tuple(self.steps)
        ))

    def _sample(self, template_id: str, extra: Mapping[str, str] | None, n_samples: int):
        """Render a step's prompt and sample it; returns the template, the
        prompt and the replies, and raises what the backend raises."""
        template = get_template(template_id)
        prompt = render(template, self.bindings if not extra else {**self.bindings, **extra})
        request = CompletionRequest(prompt=prompt, temperature=DEFAULT_TEMPERATURE, n_samples=n_samples)
        return template, prompt, complete(self.backend, request).texts

    def intermediate(
        self,
        step_id: str,
        template_id: str,
        extra: Mapping[str, str] | None = None,
        parse: Callable[..., tuple[object, tuple[str, ...]]] | None = None,
        n_samples: int = 1,
    ) -> _Outcome:
        """A step whose replies later steps read: sample ``n_samples``
        replies; its value is ``parse(*replies)``, which gives (value,
        warnings), or without ``parse`` the reply.  Nothing is recorded, so
        that independent steps can run at once."""
        try:
            _, prompt, replies = self._sample(template_id, extra, n_samples)
        except BackendError as exc:
            return _Outcome(step_id, None, exc)
        parsed, warnings = parse(*replies) if parse else (replies[0], ())
        return _Outcome(step_id, StepRecord(step_id, prompt, replies, parsed=parsed, warnings=warnings))

    def non_llm(self, step_id: str, parsed: object, warnings: Sequence[str] = ()) -> _Outcome:
        """A step that made no model call, unrecorded."""
        return _Outcome(step_id, StepRecord(step_id, None, (), parsed=parsed, warnings=tuple(warnings)))

    def predict(self, *args, **kwargs) -> tuple[float, tuple[float, ...]]:
        """A recorded :meth:`prediction`; returns its mean and samples."""
        step = self.record(self.prediction(*args, **kwargs))
        return step.parsed, tuple(extraction.probability for extraction in step.extractions)

    def prediction(
        self,
        step_id: str,
        template_id: str,
        extra: Mapping[str, str] | None = None,
        *,
        n_samples: int = FINAL_SAMPLE_COUNT,
        drop_failed: bool = False,
    ) -> _Outcome:
        """A prediction step: sample, extract each reply, aggregate; nothing
        is recorded, so that independent predictions can run at once.

        A reply with no probability fails the chain; with ``drop_failed`` the
        step is recorded as dropped instead, its value None.
        """
        try:
            template, prompt, replies = self._sample(template_id, extra, n_samples)
        except BackendError as exc:
            return _Outcome(step_id, None, exc, drop_failed)

        def extract(item: tuple[int, str]):
            index, raw = item
            try:
                return extract_probability(
                    raw, scale=template.scale, extractor=self.backend, sample_index=index
                )[1]
            except ExtractionFailed as exc:
                return exc

        extractions: list[SampleExtraction] = []
        warnings: list[str] = []
        failure: ExtractionFailed | None = None
        for index, outcome in enumerate(self.each(extract, enumerate(replies))):
            if isinstance(outcome, ExtractionFailed):
                failure = outcome
                label = "dropped" if drop_failed else f"sample {index}"
                warnings.append(f"{label}: {outcome}")
                break
            extractions.append(outcome)
            if outcome.error:
                warnings.append(f"sample {index}: {outcome.error}")
        samples = [extraction.probability for extraction in extractions]
        mean = aggregate_probabilities(samples) if failure is None else None
        step = StepRecord(step_id, prompt, replies, mean, tuple(extractions), tuple(warnings))
        return _Outcome(step_id, step, failure, drop_failed)

    def record(self, outcome: _Outcome) -> StepRecord:
        """Append a step and return it; raises :class:`ChainError` for a
        failed step unless it is a dropped prediction."""
        failure = outcome.failure
        if outcome.step is not None:
            self.steps.append(outcome.step)
        if failure is None or (isinstance(failure, ExtractionFailed) and outcome.drop_failed):
            return outcome.step
        raise self.fail(outcome.step_id, str(failure)) from failure

    def trace(self, samples: tuple[float, ...], final: float) -> ChainTrace:
        return ChainTrace(
            event_id=self.event.id,
            strategy=self.strategy_id,
            prediction_date=self.today,
            steps=tuple(self.steps),
            final_samples=samples,
            final_probability=final,
        )


_SEQUENCE_MARKER = re.compile(r"^\[PATH TO (?:POSITIVE|NEGATIVE) OUTCOME\]\s*$")
_TAG_LINE = re.compile(r"^\[[A-Z][A-Z ]*\]")


def _parse_sequence_blocks(reply: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Split a reply into outcome paths, reading no further than END."""
    kept: list[str] = []
    for line in reply.splitlines():
        if line.strip() == "END":
            break
        kept.append(line)
    blocks: list[str] = []
    current: list[str] | None = None
    for line in kept:
        if _SEQUENCE_MARKER.match(line.strip()):
            if current:
                blocks.append("\n".join(current).strip())
            current = []
        elif current is not None:
            current.append(line)
    if current:
        blocks.append("\n".join(current).strip())
    blocks = [block for block in blocks if block]
    if not blocks:
        body = "\n".join(kept).strip()
        if body:
            blocks = [body]
    warnings = () if blocks else ("no sequences parsed from the reply",)
    return tuple(blocks), warnings


def _parse_opposite_reply(reply: str) -> tuple[str, tuple[str, ...]]:
    """Pull the reworded event out of a rewording reply."""
    text = ""
    for line in reply.splitlines():
        line = line.strip()
        if not line:
            continue
        if line == "[END]":
            break
        if line.startswith("[OPPOSITE]"):
            text = line[len("[OPPOSITE]"):].strip()
            break
        if _TAG_LINE.match(line):
            continue
        text = line
        break
    warnings = () if text else ("could not parse a reworded event from the reply",)
    return text, warnings


def _compose_sequences(blocks: Sequence[str], *, positive: bool) -> str:
    if not blocks:
        return "None"
    label = "Potential Sequence {i} :" if positive else "Potential Sequence {i}:"
    return "\n".join(
        label.format(i=index) + "\n" + block for index, block in enumerate(blocks, start=1)
    )


class Step(NamedTuple):
    """One row of a chain table: a prompt step and what it reads."""

    step_id: str
    # {placeholder: earlier step id}; that step's shown value fills it
    reads: Mapping[str, str] = MappingProxyType({})
    template: str | None = None  # default "<strategy>/<step_id>"
    # reply -> (value, warnings); without it the value is the reply
    parse: Callable[[str], tuple[object, tuple[str, ...]]] | None = None
    show: Callable[[object], str] | None = None  # value -> text later steps read
    empty_error: str | None = None  # an empty value fails the chain with this
    complement: bool = False  # prediction row: the trace reports 1 - each sample


# The opposite-rewording step that sequences and reversed share.
_OPPOSITE = Step(
    "opposite",
    template="sequences/opposite",
    parse=_parse_opposite_reply,
    empty_error="reworded event text was empty",
)

# Each chain strategy as rows in the order its trace records them:
# single-sample steps, then the prediction as the last row.  A row runs after
# the rows it reads; on the network, rows that read none of each other run
# at once.
CHAINS: dict[str, tuple[Step, ...]] = {
    # basic asks directly, forecaster adds the persona preamble, and
    # basic_with_rationale asks for reasoning before the number.
    "basic": (Step("predict"),),
    "forecaster": (Step("predict"),),
    "base_rate": (
        Step("question"),
        Step("answer", {"base rate question": "question"}),
        Step("predict", {"base rate": "answer"}),
    ),
    "both_sides": (
        Step("pros"),
        Step("cons"),
        Step("predict", {"pros": "pros", "cons": "cons"}),
    ),
    "basic_with_rationale": (Step("predict"),),
    # paths toward the event and toward its opposite, then weigh them
    "sequences": (
        Step("positive", parse=_parse_sequence_blocks, show=partial(_compose_sequences, positive=True)),
        _OPPOSITE,
        Step(
            "negative",
            {"Opposite Event": "opposite"},
            parse=_parse_sequence_blocks,
            show=partial(_compose_sequences, positive=False),
        ),
        Step("predict", {"positive sequences": "positive", "negative sequences": "negative"}),
    ),
    # predict the opposite event with basic's question, then complement
    "reversed": (
        _OPPOSITE,
        Step("predict", {"condition": "opposite"}, template="basic/predict", complement=True),
    ),
}


def _run_chain(strategy_id: str, event: Event, today: date, backend: CompletionBackend) -> ChainTrace:
    """Run the rows ``CHAINS`` lists for ``strategy_id``."""
    builder = _ChainBuilder(strategy_id, event, today, backend)
    *steps, last = CHAINS[strategy_id]
    shown: dict[str, object] = {}

    def bind(step: Step) -> tuple[str, dict[str, object]]:
        template = step.template or f"{strategy_id}/{step.step_id}"
        return template, {placeholder: shown[source] for placeholder, source in step.reads.items()}

    def sample(step: Step) -> _Outcome:
        return builder.intermediate(step.step_id, *bind(step), parse=step.parse)

    done = 0
    while done < len(steps):
        # A wave: the next row and the rows after it that read only earlier
        # waves.  Its rows sample n = 1, as fan_out on a pool thread sends n
        # one by one; the prediction's n samples go from the chain's thread.
        wave = steps[done:done + 1]
        wave += takewhile(lambda step: shown.keys() >= set(step.reads.values()), steps[done + 1:])
        # the rows run at once, but are recorded in row order
        for step, outcome in zip(wave, builder.each(sample, wave)):
            value = builder.record(outcome).parsed
            if step.empty_error and not value:
                raise builder.fail(step.step_id, step.empty_error)
            shown[step.step_id] = step.show(value) if step.show else value
        done += len(wave)
    mean, samples = builder.predict(last.step_id, *bind(last))
    if last.complement:
        # the prediction step's parsed value keeps the raw, unflipped mean
        samples = tuple(1.0 - value for value in samples)
        mean = aggregate_probabilities(samples)
    return builder.trace(samples, mean)


def _parse_jobs(*replies: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Each reply's expert description; "" where a reply names none."""
    jobs = []
    for reply in replies:
        lines = [line.strip() for line in reply.splitlines() if line.strip()]
        job = lines[0] if lines else ""
        job = job.strip("\"'").strip()
        if job.lower().startswith("i choose to talk to"):
            job = job[len("i choose to talk to"):].strip()
        jobs.append(job.rstrip(".").strip())
    return tuple(jobs), ()


def run_crowd(
    event: Event,
    today: date,
    backend: CompletionBackend,
    *,
    persona_count: int = DEFAULT_PERSONA_COUNT,
) -> ChainTrace:
    """Pick experts, ask each for a windowed probability, average them."""
    builder = _ChainBuilder("crowd", event, today, backend)
    expert = builder.intermediate("expert", "crowd/expert", parse=_parse_jobs, n_samples=persona_count)
    jobs = builder.record(expert).parsed

    def persona(item: tuple[int, str]) -> _Outcome:
        index, job = item
        if not job:
            return builder.non_llm(f"persona_{index}", None, warnings=("dropped: empty expert description",))
        return builder.prediction(
            f"persona_{index}", "crowd/predict", {"job": job}, n_samples=1, drop_failed=True
        )

    values: list[float] = []
    # the personas run at once, but their steps are recorded in persona order
    for outcome in builder.each(persona, enumerate(jobs)):
        value = builder.record(outcome).parsed
        if value is not None:
            values.append(value)
    if not values:
        raise builder.fail("predict", "every persona prediction failed")
    final = aggregate_probabilities(values)
    return builder.trace(tuple(values), final)


def _parse_keywords(reply: str, limit: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    terms: list[str] = []
    for line in reply.splitlines():
        line = line.strip()
        if line.startswith("*") or line.startswith("-"):
            line = line[1:].strip()
        if not line or line.endswith(":"):
            continue
        terms.append(line)
        if len(terms) == limit:
            break
    warnings = () if terms else ("no search terms parsed from the reply",)
    return tuple(terms), warnings


def _fetch_headlines(
    builder: _ChainBuilder, step_id: str, client: NewsClient | None, window: QueryWindow
) -> tuple[_Outcome, str]:
    """A fetch step, unrecorded, and the formatted headlines, "" when none."""
    headlines: tuple = ()
    warnings: tuple[str, ...] = ()
    if client is None:
        warnings = ("no headline client configured",)
    else:
        try:
            headlines = query_headlines(client, window)
        except NewsError as exc:
            # A service fault degrades to no headlines; the chain still runs.
            warnings = (f"headline fetch failed: {exc}",)
        except BackendError as exc:
            # A cache fault (replay miss, corrupt entry) fails the chain.
            return _Outcome(step_id, None, exc), ""
    text = format_headlines(headlines)
    return builder.non_llm(step_id, text or NO_HEADLINES_TEXT, warnings=warnings), text


def _is_none_reply(reply: str) -> bool:
    return not reply.strip() or reply.strip().upper() == "NONE"


def run_news(
    event: Event,
    today: date,
    backend: CompletionBackend,
    *,
    hn_client: NewsClient | None = None,
    nyt_client: NewsClient | None = None,
    keyword_count: int = DEFAULT_KEYWORD_COUNT,
) -> ChainTrace:
    """Search the news up to the prediction date, then predict from it."""
    builder = _ChainBuilder("news", event, today, backend, hn_client, nyt_client)
    terms = builder.record(builder.intermediate(
        "keywords",
        "news/keywords",
        {"number of terms": str(keyword_count)},
        parse=lambda reply: _parse_keywords(reply, keyword_count),
    )).parsed
    if not terms:
        raise builder.fail("keywords", "no search terms parsed from the reply")
    window = QueryWindow(terms=tuple(terms), until=today)
    # Each headline branch: its fetch step, its client, the news/predict
    # placeholder its text fills, and its filter steps in order, each as
    # (step id, placeholder the text before it fills).  An empty fetch or a
    # NONE reply ends the branch.
    branches = (
        ("hn_fetch", hn_client, "filtered Hackernews headlines", (
            ("hn_filter", "Hackernews headlines"),
        )),
        ("nyt_fetch", nyt_client, "summarized NYT headlines", (
            ("nyt_extract", "NYT headlines"),
            ("nyt_paraphrase", "filtered NYT headlines"),
        )),
    )

    def branch(row: tuple) -> tuple[list[_Outcome], str]:
        """A branch's unrecorded steps, up to a failure, and the text it found."""
        fetch_id, client, _, filters = row
        outcome, text = _fetch_headlines(builder, fetch_id, client, window)
        outcomes = [outcome]
        for step_id, placeholder in filters:
            if not text:
                break
            outcomes.append(builder.intermediate(step_id, f"news/{step_id}", {placeholder: text}))
            reply = outcomes[-1].step.parsed if outcomes[-1].step else ""
            text = "" if _is_none_reply(reply) else reply
        return outcomes, text

    found: dict[str, str] = {}
    # the branches run at once, but their steps are recorded in branch order
    for (_, _, found_placeholder, _), (outcomes, text) in zip(branches, builder.each(branch, branches)):
        for outcome in outcomes:
            builder.record(outcome)
        found[found_placeholder] = text or NO_HEADLINES_TEXT
    mean, samples = builder.predict("predict", "news/predict", found)
    return builder.trace(samples, mean)


STRATEGY_IDS = (*CHAINS, "crowd", "news")

# The parameters each strategy accepts.
_ALLOWED_PARAMS: dict[str, frozenset[str]] = {
    **dict.fromkeys(CHAINS, frozenset()),
    "crowd": frozenset({"persona_count"}),
    "news": frozenset({"keyword_count"}),
}


def check_params(strategy_id: str, params: Mapping[str, int] | None) -> None:
    """Raise unless ``strategy_id`` is registered and ``params`` suit it."""
    allowed = _ALLOWED_PARAMS.get(strategy_id)
    if allowed is None:
        raise UnknownStrategy(strategy_id)
    params = params or {}
    unknown = set(params) - allowed
    if unknown:
        names = ", ".join(sorted(unknown))
        raise InvalidParam(f"strategy {strategy_id!r} does not accept: {names}")
    for name, value in params.items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise InvalidParam(f"{name} must be a positive integer, got {value!r}")


def run_strategy(
    strategy_id: str,
    event: Event,
    today: date,
    backend: CompletionBackend,
    *,
    hn_client: NewsClient | None = None,
    nyt_client: NewsClient | None = None,
    params: Mapping[str, int] | None = None,
) -> ChainTrace:
    """Dispatch to a registered strategy, validating its parameters.

    Every step, extraction included, completes against ``backend``.
    """
    check_params(strategy_id, params)
    if strategy_id == "crowd":
        return run_crowd(event, today, backend, **(params or {}))
    if strategy_id == "news":
        return run_news(
            event, today, backend, hn_client=hn_client, nyt_client=nyt_client, **(params or {})
        )
    return _run_chain(strategy_id, event, today, backend)


def trace_to_forecast(trace: ChainTrace, *, trace_ref: str | None = None) -> ForecastRecord:
    """The trace's bottom line as a scoreable forecast record."""
    return ForecastRecord(
        event_id=trace.event_id,
        strategy=trace.strategy,
        prediction_date=trace.prediction_date,
        probability=trace.final_probability,
        samples=trace.final_samples,
        trace_ref=trace_ref,
    )


def _float_text(value: float) -> str:
    if math.isfinite(value):
        return float.__repr__(value)
    return "NaN" if value != value else ("Infinity" if value > 0 else "-Infinity")


# How _encode writes a value of exactly one of these types.
_LEAF_TEXT: dict[type, Callable[[object], str]] = {
    str: encode_basestring, float: _float_text, int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__, type(None): {None: "null"}.__getitem__,
}
# How _encode writes a tuple of only items of one of these types in one pass.
_ONE_PASS: dict[type, Callable[[object], str]] = {str: encode_basestring, float: float.__repr__}


@cache
def _keys(cls: type) -> tuple[tuple[str, str], ...]:
    # each field name in sorted order, with its encoded '"name": ' text
    return tuple((name, encode_basestring(name) + ": ") for name in sorted(f.name for f in fields(cls)))


def _encode(value: object, indent: str, out: list[str]) -> None:
    """Append a trace record or one of its values to ``out`` as
    ``json.dumps(json_data(value), indent=2, sort_keys=True,
    ensure_ascii=False)`` writes it at nesting ``indent``.

    That call runs the pure-Python encoder (``indent`` rules out the C one)
    and walks every record twice; this walks it once.
    """
    if isinstance(value, str):
        out.append(encode_basestring(value))
    elif isinstance(value, float):
        out.append(_float_text(value))
    elif isinstance(value, (tuple, list)):
        if not value:
            out.append("[]")
            return
        inner = "\n" + indent + "  "
        encode = _ONE_PASS.get(type(value[0]))
        if encode is not None:
            try:
                text = ("," + inner).join(map(encode, value))
            except TypeError:  # a later item of another type
                pass
            else:
                # no finite float's repr, and no separator, has an "n"; "nan" and "inf" do
                if encode is encode_basestring or "n" not in text:
                    out.append("[" + inner + text + "\n" + indent + "]")
                    return
        for i, item in enumerate(value):
            out.append(("," if i else "[") + inner)
            _encode(item, inner[1:], out)
        out.append("\n" + indent + "]")
    elif value is None or isinstance(value, bool):
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, date):
        out.append(encode_basestring(value.isoformat()))
    elif is_dataclass(value):  # every record has fields
        members = vars(value)
        inner = "\n" + indent + "  "
        opening = "{" + inner
        for name, key_text in _keys(type(value)):
            member = members[name]
            leaf = _LEAF_TEXT.get(type(member))
            if leaf is None:
                out.append(opening + key_text)
                _encode(member, inner[1:], out)
            else:  # written in place, without a call of its own
                out.append(opening + key_text + leaf(member))
            opening = "," + inner
        out.append("\n" + indent + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_json(record: object, path: str | Path) -> None:
    """Write ``record`` as 2-space indented JSON with sorted keys, non-ASCII
    text unescaped and one trailing newline."""
    out: list[str] = []
    _encode(record, "", out)
    # encoded before the file is made, so that a lone surrogate leaves no file
    data = ("".join(out) + "\n").encode("utf-8")
    path = Path(path)
    try:
        path.write_bytes(data)
    except FileNotFoundError:
        # only the first write into a new directory creates it
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def save_trace(trace: ChainTrace, path: str | Path) -> None:
    """Write a trace as stable, diffable JSON whose keys are the field names
    of :class:`ChainTrace`, :class:`StepRecord` and :class:`SampleExtraction`."""
    _write_json(trace, path)


def _tuples(payload: dict) -> dict:
    # JSON arrays come back as the tuples the records hold
    return {name: tuple(value) if isinstance(value, list) else value for name, value in payload.items()}


def load_trace(path: str | Path) -> ChainTrace:
    payload = _tuples(json.loads(Path(path).read_text(encoding="utf-8")))
    steps = []
    for step in map(_tuples, payload["steps"]):
        extractions = tuple(SampleExtraction(**item) for item in step.get("extractions", ()))
        steps.append(StepRecord(**{**step, "extractions": extractions}))
    return ChainTrace(**{
        **payload,
        "prediction_date": parse_date(payload["prediction_date"], "prediction_date"),
        "steps": tuple(steps),
    })


def save_partial_trace(error: ChainError, path: str | Path) -> None:
    """Write a failed chain's :class:`FailedTrace` for later inspection, its
    keys the record's field names, as :func:`save_trace` does."""
    _write_json(error.trace, path)
