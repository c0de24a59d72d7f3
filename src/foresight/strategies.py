"""Forecasting strategies executed as recorded multi-step prompt chains."""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, fields, is_dataclass, replace
from datetime import date
from functools import cache, partial
from json.encoder import encode_basestring
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

from .events import Event, InputError, parse_date, write_file
from .llm import (
    BackendError,
    CacheFault,
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
    Scale,
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


def waits_on_network(*parts: object) -> bool:
    """Whether a chain's backend or one of its news clients waits on the network."""
    return any(getattr(part, "waits_on_network", False) for part in parts)


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


class Step(NamedTuple):
    """One row of a chain table: a step and what it reads."""

    step_id: str
    # {placeholder: earlier step id or parameter}; that value fills it
    reads: Mapping[str, str] = MappingProxyType({})
    template: str | None = None  # default "<strategy>/<step_id>"
    # replies -> (value, warnings); without it the value is the reply
    parse: Callable[..., tuple[object, tuple[str, ...]]] | None = None
    show: Callable[[object], str] | None = None  # value -> text later steps read
    empty_error: str | None = None  # an empty value fails the chain with this
    samples: str | None = None  # a parameter: sample that many replies, not one
    limit: str | None = None  # a parameter: passed to ``parse`` as ``limit``
    # fetch row: the news client it queries, for the QueryWindow fields it reads
    fetch: str | None = None
    # skipped when a row it reads found no headlines; a NONE reply finds none
    guard: bool = False
    # prediction row: predict once per item of the value it reads, as steps
    # "<items>_<i>" that sample once, and drop an item that fails
    items: str | None = None
    complement: bool = False  # prediction row: the trace reports 1 - each sample
    scale: Scale = Scale.PERCENT  # prediction row: the scale its prompt asks the answer on


def _beside(*branches: Step | tuple[Step, ...]) -> tuple[tuple[Step, ...], ...]:
    """Branches that run at once on the network, each its rows in order."""
    return tuple((branch,) if isinstance(branch, Step) else branch for branch in branches)


# The opposite-rewording step that sequences and reversed share.
_OPPOSITE = Step(
    "opposite",
    template="sequences/opposite",
    parse=_parse_opposite_reply,
    empty_error="reworded event text was empty",
)

# Each strategy as rows in the order its trace records them, the prediction
# last.  A row runs after the rows before it; the branches of a _beside group
# run at once when a part of the chain waits on the network.
CHAINS: dict[str, tuple[Step | tuple[tuple[Step, ...], ...], ...]] = {
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
        _beside(Step("pros"), Step("cons")),
        Step("predict", {"pros": "pros", "cons": "cons"}),
    ),
    "basic_with_rationale": (Step("predict"),),
    # paths toward the event and toward its opposite, then weigh them
    "sequences": (
        _beside(
            Step("positive", parse=_parse_sequence_blocks, show=partial(_compose_sequences, positive=True)),
            _OPPOSITE,
        ),
        Step(
            "negative",
            {"Opposite Event": "opposite"},
            parse=_parse_sequence_blocks,
            show=partial(_compose_sequences, positive=False),
        ),
        Step("predict", {"positive sequences": "positive", "negative sequences": "negative"}, scale=Scale.UNIT),
    ),
    # predict the opposite event with basic's question, then complement
    "reversed": (
        _OPPOSITE,
        Step("predict", {"condition": "opposite"}, template="basic/predict", complement=True),
    ),
    # pick experts, ask each for a windowed probability, average them
    "crowd": (
        Step("expert", samples="persona_count", parse=_parse_jobs),
        Step("predict", {"job": "expert"}, items="persona", scale=Scale.UNIT),
    ),
    # search the news up to the prediction date, filter it, predict from it
    "news": (
        Step(
            "keywords",
            {"number of terms": "keyword_count"},
            parse=_parse_keywords,
            limit="keyword_count",
            empty_error="no search terms parsed from the reply",
        ),
        _beside(
            (
                Step("hn_fetch", {"terms": "keywords"}, fetch="hn_client"),
                Step("hn_filter", {"Hackernews headlines": "hn_fetch"}, guard=True),
            ),
            (
                Step("nyt_fetch", {"terms": "keywords"}, fetch="nyt_client"),
                Step("nyt_extract", {"NYT headlines": "nyt_fetch"}, guard=True),
                Step("nyt_paraphrase", {"filtered NYT headlines": "nyt_extract"}, guard=True),
            ),
        ),
        Step("predict", {
            "filtered Hackernews headlines": "hn_filter",
            "summarized NYT headlines": "nyt_paraphrase",
        }),
    ),
}

STRATEGY_IDS = tuple(CHAINS)

# The parameters each strategy accepts, with their defaults.
_PARAMS: dict[str, Mapping[str, int]] = {
    "crowd": {"persona_count": DEFAULT_PERSONA_COUNT},
    "news": {"keyword_count": DEFAULT_KEYWORD_COUNT},
}


def check_params(strategy_id: str, params: Mapping[str, int] | None) -> None:
    """Raise unless ``strategy_id`` is registered and ``params`` suit it."""
    if strategy_id not in CHAINS:
        raise UnknownStrategy(strategy_id)
    params = params or {}
    unknown = params.keys() - _PARAMS.get(strategy_id, {}).keys()
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
    """Run the rows ``CHAINS`` lists for ``strategy_id``, validating its
    parameters.  Every step, extraction included, completes against
    ``backend``."""
    check_params(strategy_id, params)
    params = {**_PARAMS.get(strategy_id, {}), **(params or {})}
    clients = {"hn_client": hn_client, "nyt_client": nyt_client}
    # raises PredictionWindowError before any call when the window is closed
    context = bindings(event, today)
    # fn over items all at once when a part of the chain waits on the network,
    # else one by one as the caller iterates, so a chain that stops early
    # makes no further calls
    each = fan_out if waits_on_network(backend, hn_client, nyt_client) else map
    *groups, last = CHAINS[strategy_id]
    steps: list[StepRecord] = []
    # what later rows read: parameters as text, then each row's shown value
    shown: dict[str, object] = {name: str(value) for name, value in params.items()}
    found_none: set[str] = set()

    def fail(step_id: str, message: str) -> ChainError:
        error = f"event {event.id!r} failed at step {step_id!r}: {message}"
        return ChainError(FailedTrace(event.id, strategy_id, today, step_id, error, tuple(steps)))

    def record(step_id: str, step: StepRecord | None, failure: Exception | None) -> StepRecord | None:
        """Append ``step`` (None when sampling failed) and return it; raise
        :class:`ChainError` for ``failure``."""
        if step is not None:
            steps.append(step)
        if failure is not None:
            raise fail(step_id, str(failure)) from failure
        return step

    def bind(row: Step) -> dict[str, object]:
        return {placeholder: shown[source] for placeholder, source in row.reads.items()}

    def sample(row: Step, extra: Mapping[str, object], n_samples: int):
        """Render ``row``'s prompt and sample it; returns the prompt and the
        replies, and raises what the backend raises."""
        template = get_template(row.template or f"{strategy_id}/{row.step_id}")
        prompt = render(template, {**context, **extra} if extra else context)
        request = CompletionRequest(prompt=prompt, temperature=DEFAULT_TEMPERATURE, n_samples=n_samples)
        return prompt, complete(backend, request).texts

    def predict(step_id: str, extra: Mapping[str, object], n_samples: int = FINAL_SAMPLE_COUNT):
        """The last row's prediction step, unrecorded, and its failure:
        sample, extract each reply, aggregate.  A reply with no probability
        or a cache fault in extraction fails it."""
        try:
            prompt, replies = sample(last, extra, n_samples)
        except BackendError as exc:
            return None, exc

        def extract(item: tuple[int, str]):
            index, raw = item
            try:
                return extract_probability(raw, scale=last.scale, extractor=backend, sample_index=index)[1]
            except (ExtractionFailed, CacheFault) as exc:
                return exc

        extractions: list[SampleExtraction] = []
        warnings: list[str] = []
        failure: Exception | None = None
        for index, outcome in enumerate(each(extract, enumerate(replies))):
            if isinstance(outcome, Exception):
                failure = outcome
                warnings.append(f"sample {index}: {outcome}")
                break
            extractions.append(outcome)
            if outcome.error:
                warnings.append(f"sample {index}: {outcome.error}")
        mean = aggregate_probabilities([e.probability for e in extractions]) if failure is None else None
        return StepRecord(step_id, prompt, replies, mean, tuple(extractions), tuple(warnings)), failure

    def run_row(row: Step) -> tuple[StepRecord | None, Exception | None] | None:
        """A row's step, unrecorded, and its failure, with its shown value
        noted; None when its guard skips it."""
        if row.guard and not found_none.isdisjoint(row.reads.values()):
            found_none.add(row.step_id)
            shown[row.step_id] = NO_HEADLINES_TEXT
            return None
        extra = bind(row)
        if row.fetch:
            client, headlines, warnings = clients[row.fetch], (), ()
            if client is None:
                warnings = ("no headline client configured",)
            else:
                try:
                    headlines = query_headlines(client, QueryWindow(**extra, until=today))
                except NewsError as exc:
                    # A service fault degrades to no headlines; the chain still runs.
                    warnings = (f"headline fetch failed: {exc}",)
                except CacheFault as exc:
                    # A replay miss or a corrupt entry fails the chain.
                    return None, exc
            step = StepRecord(row.step_id, None, (), format_headlines(headlines) or NO_HEADLINES_TEXT, (), warnings)
        else:
            try:
                prompt, replies = sample(row, extra, params.get(row.samples, 1))
            except BackendError as exc:
                return None, exc
            parse = partial(row.parse, limit=params[row.limit]) if row.limit else row.parse
            parsed, warnings = parse(*replies) if parse else (replies[0], ())
            step = StepRecord(row.step_id, prompt, replies, parsed, (), warnings)
        value = step.parsed
        if row.empty_error and not value:
            return step, ValueError(row.empty_error)
        if (value == NO_HEADLINES_TEXT) if row.fetch else (row.guard and value.strip().upper() in ("", "NONE")):
            # a headline row that found none: later rows read NO_HEADLINES_TEXT
            found_none.add(row.step_id)
            value = NO_HEADLINES_TEXT
        shown[row.step_id] = row.show(value) if row.show else value
        return step, None

    def run_branch(rows: tuple[Step, ...]) -> list[tuple]:
        """A branch's (step id, step, failure) outcomes, unrecorded, up to
        the first failure."""
        outcomes = []
        for row in rows:
            outcome = run_row(row)
            if outcome is not None:
                outcomes.append((row.step_id, *outcome))
                if outcome[1] is not None:
                    break
        return outcomes

    for group in groups:
        # The branches run at once, but are recorded in table order.  Only a
        # group's single row may sample n > 1: fan_out runs it inline on the
        # chain's thread, where the backend can send its samples at once.
        for outcomes in each(run_branch, _beside(group) if isinstance(group, Step) else group):
            for outcome in outcomes:
                record(*outcome)
    if last.items:
        ((placeholder, source),) = last.reads.items()

        def predict_item(item: tuple[int, str]) -> tuple[StepRecord | None, Exception | None]:
            index, value = item
            step_id = f"{last.items}_{index}"
            if not value:
                return StepRecord(step_id, None, (), warnings=(f"dropped: empty {source} description",)), None
            step, failure = predict(step_id, {placeholder: value}, 1)
            if isinstance(failure, ExtractionFailed):
                # a reply with no probability drops its item; a backend or
                # cache fault still fails the chain
                return replace(step, warnings=(f"dropped: {failure}",)), None
            return step, failure

        # the items run at once, but are recorded in item order
        outcomes = enumerate(each(predict_item, enumerate(shown[source])))
        kept = [record(f"{last.items}_{index}", *outcome) for index, outcome in outcomes]
        samples = tuple(step.parsed for step in kept if step.parsed is not None)
        if not samples:
            raise fail(last.step_id, f"every {last.items} prediction failed")
        mean = aggregate_probabilities(samples)
    else:
        step = record(last.step_id, *predict(last.step_id, bind(last)))
        mean, samples = step.parsed, tuple(extraction.probability for extraction in step.extractions)
        if last.complement:
            # the prediction step's parsed value keeps the raw, unflipped mean
            samples = tuple(1.0 - value for value in samples)
            mean = aggregate_probabilities(samples)
    return ChainTrace(event.id, strategy_id, today, tuple(steps), samples, mean)


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


def save_trace(record: ChainTrace | FailedTrace, path: str | Path) -> None:
    """Write a trace, or a failed chain's record, as stable, diffable JSON:
    2-space indented, keys sorted, non-ASCII text unescaped, one trailing
    newline.  Its keys are the field names of the records it holds."""
    out: list[str] = []
    _encode(record, "", out)
    # encoded before the file is made, so that a lone surrogate leaves no file
    write_file(path, ("".join(out) + "\n").encode("utf-8"))


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
