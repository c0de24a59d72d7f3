"""Tests for the forecasting prompt chains and their trace records."""

import dataclasses
import itertools
import json
import math
import tempfile
import threading
import time
from datetime import date
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import foresight.strategies
from foresight.events import Category, Event, json_data, load_dataset
from foresight.llm import CachedBackend, HttpBackend, HttpReply, MockBackend, MockRule, NullBackend, ProviderError
from foresight.news import HackerNewsClient, Headline, NewsError, QueryWindow, Source
from foresight.prompts import (
    EXTRACTION_TEMPLATE_ID,
    aggregate_probabilities,
    bindings,
    extract_probability,
    get_template,
    load_templates,
)
from foresight.strategies import (
    CHAINS,
    ChainError,
    ChainTrace,
    FailedTrace,
    InvalidParam,
    NO_HEADLINES_TEXT,
    PredictionWindowError,
    STRATEGY_IDS,
    SampleExtraction,
    Step,
    StepRecord,
    UnknownStrategy,
    load_trace,
    run_strategy,
    save_trace,
    trace_to_forecast,
)

from counting import Counting
from make_goldens import GOLDEN_TRACE_DIR, write_traces

FIXTURES = Path(__file__).parent / "fixtures"
TODAY = date(2022, 8, 1)


def mock_backend():
    return MockBackend.from_file(FIXTURES / "mock.rules")


def tesla_event():
    return load_dataset(FIXTURES / "events_val.jsonl").event_by_id("evt-01")


def run(strategy, *, backend=None, **kwargs):
    return run_strategy(strategy, tesla_event(), TODAY, backend or mock_backend(), **kwargs)


class ScriptedNews:
    def __init__(self, source, headlines=(), error=None):
        self.source = source
        self.headlines = tuple(headlines)
        self.error = error
        self.calls = 0

    def search(self, window):
        self.calls += 1
        if self.error is not None:
            raise self.error
        return self.headlines


HN_HEADLINES = (
    Headline("Tesla expands FSD beta to more testers", date(2022, 7, 20), Source.HACKERNEWS),
    Headline("FUTURE LEAK: Tesla achieves L3 everywhere", date(2022, 9, 9), Source.HACKERNEWS),
)
NYT_HEADLINES = (
    Headline("Tesla reports progress toward L3 but no regulatory approval", date(2022, 7, 18), Source.NYT),
)


def news_clients():
    return {
        "hn_client": ScriptedNews(Source.HACKERNEWS, HN_HEADLINES),
        "nyt_client": ScriptedNews(Source.NYT, NYT_HEADLINES),
    }


EXPECTED_FINALS = {
    "basic": (0.1, 1),
    "forecaster": (0.2, 1),
    "base_rate": (0.3, 3),
    "both_sides": (0.25, 3),
    "sequences": (0.2, 4),
    "crowd": (0.3, 9),
    "news": (0.15, 7),
    "reversed": (0.09999999999999998, 2),
    "basic_with_rationale": (0.4, 1),
}


def test_every_strategy_runs_against_scripted_backend():
    for strategy in STRATEGY_IDS:
        kwargs = news_clients() if strategy == "news" else {}
        trace = run(strategy, **kwargs)
        expected_p, expected_steps = EXPECTED_FINALS[strategy]
        assert trace.final_probability == expected_p, strategy
        assert len(trace.steps) == expected_steps, strategy
        assert trace.event_id == "evt-01"
        assert trace.strategy == strategy
        assert trace.prediction_date == TODAY
        assert len(trace.final_samples) == 8
        mean = math.fsum(trace.final_samples) / len(trace.final_samples)
        assert abs(trace.final_probability - mean) <= 1e-9


def test_final_step_records_extractions(monkeypatch):
    returned = []

    def recording_extract(*args, **kwargs):
        value, extraction = extract_probability(*args, **kwargs)
        returned.append(extraction)
        return value, extraction

    monkeypatch.setattr(foresight.strategies, "extract_probability", recording_extract)
    trace = run("basic")
    (step,) = trace.steps
    assert step.step_id == "predict"
    assert len(step.responses) == 8
    assert len(step.extractions) == 8
    # each entry is the record extract_probability returned for that sample
    assert step.extractions == tuple(returned)
    for i, extraction in enumerate(step.extractions):
        assert extraction.sample_index == i
        assert extraction.probability == 0.1
        # the scripted extractor answers with an empty string, so the
        # deterministic parser supplies the value
        assert extraction.fallback_used


def test_base_rate_chain_feeds_intermediate_answers_forward():
    trace = run("base_rate")
    question, answer, predict = trace.steps
    assert question.step_id == "question"
    assert answer.step_id == "answer"
    assert question.responses[0] in answer.prompt
    assert answer.responses[0] in predict.prompt


def test_both_sides_chain_quotes_both_arguments():
    trace = run("both_sides")
    pros, cons, predict = trace.steps
    assert pros.responses[0] in predict.prompt
    assert cons.responses[0] in predict.prompt


def test_sequences_chain_composes_numbered_paths():
    trace = run("sequences")
    positive, opposite, negative, predict = trace.steps
    assert positive.step_id == "positive"
    assert opposite.step_id == "opposite"
    assert negative.step_id == "negative"
    assert opposite.parsed == "Tesla does not reach L3 autonomy by the end of 2022"
    assert opposite.parsed in negative.prompt
    assert "Potential Sequence 1 :" in predict.prompt
    assert "Potential Sequence 1:" in predict.prompt


@pytest.mark.parametrize(
    "parse, reply, parsed",
    [
        # a second marker closes the path before it; nothing after END counts
        (foresight.strategies._parse_sequence_blocks,
         "[PATH TO POSITIVE OUTCOME]\nfirst\n[PATH TO NEGATIVE OUTCOME]\nsecond\nEND\nthird",
         ("first", "second")),
        # tag lines before the reworded event are skipped
        (foresight.strategies._parse_opposite_reply, "\n[EVENT OPPOSITE]\nTesla misses L3\nmore", "Tesla misses L3"),
        (foresight.strategies._parse_opposite_reply, "Tesla misses L3\n[END]", "Tesla misses L3"),
        (foresight.strategies._parse_jobs, "I choose to talk to an economist.", ("an economist",)),
        # a heading and blank lines are not search terms
        (lambda reply: foresight.strategies._parse_keywords(reply, 2), "Entities:\n\n- Tesla\n* FSD\n* L3",
         ("Tesla", "FSD")),
    ],
    ids=["sequences", "opposite-after-tag", "opposite-bare", "jobs", "keywords"],
)
def test_reply_parsers(parse, reply, parsed):
    assert parse(reply) == (parsed, ())


def test_no_sequences_compose_to_none():
    assert foresight.strategies._compose_sequences((), positive=True) == "None"


def assert_opposite_failure_aborts(strategy, partial_ids):
    backend = mock_backend()
    # the opposite-rewording step replies with only whitespace
    rules = [MockRule("substring", "NOT happen", "   \n"), *backend.rules]
    with pytest.raises(ChainError) as info:
        run(strategy, backend=MockBackend(rules))
    assert info.value.trace.failed_step == "opposite"
    assert str(info.value).endswith("reworded event text was empty")
    assert [s.step_id for s in info.value.trace.steps] == partial_ids


def test_sequences_opposite_failure_aborts_chain():
    assert_opposite_failure_aborts("sequences", ["positive", "opposite"])


def test_reversed_opposite_failure_aborts_chain():
    assert_opposite_failure_aborts("reversed", ["opposite"])


def test_chain_table_is_consistent():
    standard = set(bindings(tesla_event(), TODAY))
    window_fields = {field.name for field in dataclasses.fields(QueryWindow)}
    templates = {EXTRACTION_TEMPLATE_ID}
    for strategy, groups in CHAINS.items():
        params = set(foresight.strategies._PARAMS.get(strategy, {}))
        earlier, used = set(), set()
        for group in groups:
            branches = ((group,),) if isinstance(group, Step) else group
            for branch in branches:
                # a branch reads none of the rows that run beside it
                beside = {step.step_id for other in branches if other is not branch for step in other}
                for step in branch:
                    case = (strategy, step.step_id)
                    assert step.step_id not in earlier | params, case
                    assert set(step.reads.values()) <= earlier | params, case
                    assert not set(step.reads.values()) & beside, case
                    # the parameters a row samples by or parses with are its strategy's
                    assert {step.samples, step.limit} - {None} <= params, case
                    if step.fetch:
                        # a fetch row queries a client run_strategy takes, with window fields
                        assert step.fetch in ("hn_client", "nyt_client"), case
                        assert set(step.reads) <= window_fields, case
                        assert step.template is step.parse is None, case
                    else:
                        template = get_template(step.template or f"{strategy}/{step.step_id}")
                        unbound = set(template.placeholders) - standard - set(step.reads)
                        assert not unbound, (*case, unbound)
                        # each value a row reads fills a placeholder of its template
                        assert set(step.reads) <= set(template.placeholders), case
                        templates.add(template.template_id)
                    earlier.add(step.step_id)
                    used.update((*step.reads.values(), step.samples, step.limit))
        # every parameter is used by a row
        assert params <= used, strategy
    # every template file is some row's, or the extractor's
    assert templates == set(load_templates())


def test_crowd_chain_one_prediction_per_persona():
    trace = run("crowd")
    expert = trace.steps[0]
    assert expert.step_id == "expert"
    assert len(expert.responses) == 8
    persona_steps = trace.steps[1:]
    assert [s.step_id for s in persona_steps] == [f"persona_{i}" for i in range(8)]
    values = [s.parsed for s in persona_steps]
    assert trace.final_samples == tuple(values)
    assert trace.final_probability == math.fsum(values) / len(values)


def test_crowd_respects_persona_count_param():
    trace = run("crowd", params={"persona_count": 3})
    assert len(trace.steps) == 4
    assert len(trace.final_samples) == 3


def test_crowd_drops_failed_personas_with_warning():
    backend = mock_backend()
    # persona predictions fail to parse; expert job suggestions still work
    rules = [MockRule("substring", "Using your expertise", "no number here"), *backend.rules]
    with pytest.raises(ChainError):
        run("crowd", backend=MockBackend(rules))

    # a single unusable persona is dropped, the rest carry the forecast
    flaky = [
        MockRule(
            "substring",
            "You must ask an expert",
            ("an engineer", "", "a regulator"),
        ),
        *backend.rules,
    ]
    trace = run("crowd", backend=MockBackend(flaky), params={"persona_count": 3})
    dropped = [s for s in trace.steps[1:] if s.parsed is None]
    assert len(dropped) == 1
    assert dropped[0].warnings
    assert len(trace.final_samples) == 2


def test_news_chain_with_headlines(tmp_path):
    clients = news_clients()
    trace = run("news", **clients)
    by_id = {s.step_id: s for s in trace.steps}
    assert set(by_id) == {
        "keywords",
        "hn_fetch",
        "hn_filter",
        "nyt_fetch",
        "nyt_extract",
        "nyt_paraphrase",
        "predict",
    }
    assert clients["hn_client"].calls == 1
    assert clients["nyt_client"].calls == 1
    # the cutoff guard keeps the future-dated headline out of every prompt
    save_trace(trace, tmp_path / "trace.json")
    assert "FUTURE LEAK" not in (tmp_path / "trace.json").read_text(encoding="utf-8")
    # fetch steps make no completion call; their text lands in parsed
    assert by_id["hn_fetch"].prompt is None
    assert "Tesla expands FSD beta" in by_id["hn_fetch"].parsed


def test_news_chain_degrades_without_clients():
    trace = run("news")
    # with nothing fetched there is nothing to filter or paraphrase
    assert [s.step_id for s in trace.steps] == ["keywords", "hn_fetch", "nyt_fetch", "predict"]
    by_id = {s.step_id: s for s in trace.steps}
    assert by_id["hn_fetch"].parsed == NO_HEADLINES_TEXT
    assert by_id["hn_fetch"].warnings
    assert by_id["nyt_fetch"].parsed == NO_HEADLINES_TEXT
    assert NO_HEADLINES_TEXT in by_id["predict"].prompt
    assert trace.final_probability == 0.15


def test_news_chain_degrades_on_client_error():
    clients = {
        "hn_client": ScriptedNews(Source.HACKERNEWS, error=NewsError("api down")),
        "nyt_client": ScriptedNews(Source.NYT, NYT_HEADLINES),
    }
    trace = run("news", **clients)
    by_id = {s.step_id: s for s in trace.steps}
    assert by_id["hn_fetch"].parsed == NO_HEADLINES_TEXT
    assert by_id["hn_fetch"].warnings
    assert "no regulatory approval" in by_id["nyt_fetch"].parsed


class NotJsonSession:
    """Answers every GET with a page that is not JSON."""

    def get(self, **kwargs):
        return HttpReply(200, {}, b"<html>busy</html>")


def test_news_chain_degrades_on_a_reply_that_is_not_json():
    hn_client = HackerNewsClient("http://hn.test/search", session=NotJsonSession())
    trace = run("news", hn_client=hn_client, nyt_client=ScriptedNews(Source.NYT, NYT_HEADLINES))
    by_id = {s.step_id: s for s in trace.steps}
    assert by_id["hn_fetch"].parsed == NO_HEADLINES_TEXT
    (warning,) = by_id["hn_fetch"].warnings
    assert warning.startswith("headline fetch failed: news service returned 200: invalid json")
    assert "no regulatory approval" in by_id["nyt_fetch"].parsed
    assert trace.final_probability == 0.15


HN_FILTERED = "Headline 1 -- 2022-07-20: Tesla expands FSD beta to more testers"
NYT_SUMMARY = "2022-07-18: Tesla progressing toward L3 without approval yet"
ALL_NEWS_STEPS = ["keywords", "hn_fetch", "hn_filter", "nyt_fetch", "nyt_extract", "nyt_paraphrase", "predict"]


# id -> (hn_headlines, none_prompt, step_ids, filtered_hn, summarized_nyt)
NEWS_BRANCH_EXITS = {
    "empty_hn_fetch": ((), None, [s for s in ALL_NEWS_STEPS if s != "hn_filter"], NO_HEADLINES_TEXT, NYT_SUMMARY),
    "hn_filter_none": (
        HN_HEADLINES, "remove any which are totally irrelevant", ALL_NEWS_STEPS, NO_HEADLINES_TEXT, NYT_SUMMARY
    ),
    "nyt_extract_none": (
        HN_HEADLINES,
        "pull all information from the headlines",
        [s for s in ALL_NEWS_STEPS if s != "nyt_paraphrase"],
        HN_FILTERED,
        NO_HEADLINES_TEXT,
    ),
    "nyt_paraphrase_none": (
        HN_HEADLINES, "paraphrase each one as it relates", ALL_NEWS_STEPS, HN_FILTERED, NO_HEADLINES_TEXT
    ),
}


@pytest.mark.parametrize(
    "hn_headlines, none_prompt, step_ids, filtered_hn, summarized_nyt, concurrent",
    [
        pytest.param(*case, concurrent, id=name + ("-concurrent" if concurrent else ""))
        for concurrent in (False, True)
        for name, case in NEWS_BRANCH_EXITS.items()
    ],
)
def test_news_branch_exits(hn_headlines, none_prompt, step_ids, filtered_hn, summarized_nyt, concurrent):
    rules = mock_backend().rules
    if none_prompt is not None:
        rules = (MockRule("substring", none_prompt, "NONE"), *rules)

    def clients():
        return {
            "hn_client": ScriptedNews(Source.HACKERNEWS, hn_headlines),
            "nyt_client": ScriptedNews(Source.NYT, NYT_HEADLINES),
        }

    # concurrent, the two branches note their exits from their own threads
    trace = run("news", backend=Networked(MockBackend(rules), concurrent=concurrent), **clients())
    assert trace == run("news", backend=MockBackend(rules), **clients())
    assert [s.step_id for s in trace.steps] == step_ids
    # the two branch placeholders of news/predict, in template order
    hn_part, nyt_part = trace.steps[-1].prompt.split(
        "Here are recent headlines from the New York Times on the topic.\n"
    )
    assert hn_part.endswith(f"Here are recent headlines from Hackernews on the topic.\n{filtered_hn}\n\n")
    assert nyt_part.startswith(f"{summarized_nyt}\n\n")


def test_news_keyword_count_param():
    clients = news_clients()
    trace = run("news", params={"keyword_count": 2}, **clients)
    keywords = trace.steps[0]
    assert keywords.step_id == "keywords"
    assert isinstance(keywords.parsed, tuple)
    assert len(keywords.parsed) == 2


def test_reversed_chain_complements_samples():
    trace = run("reversed")
    opposite, predict = trace.steps
    assert opposite.parsed == "Tesla does not reach L3 autonomy by the end of 2022"
    assert opposite.parsed in predict.prompt
    assert predict.parsed == 0.9  # raw mean before complementing
    for sample, extraction in zip(trace.final_samples, predict.extractions):
        assert sample == 1.0 - extraction.probability
    assert trace.final_probability == pytest.approx(0.1)


def test_prediction_window_checked_before_any_call():
    backend = Counting(mock_backend())
    with pytest.raises(PredictionWindowError):
        run_strategy("basic", tesla_event(), date(2022, 12, 31), backend)
    with pytest.raises(PredictionWindowError):
        run_strategy("basic", tesla_event(), date(2023, 6, 1), backend)
    assert backend.calls == 0


def test_unknown_strategy_and_bad_params():
    backend = mock_backend()
    event = tesla_event()
    with pytest.raises(UnknownStrategy):
        run_strategy("oracle", event, TODAY, backend)
    with pytest.raises(InvalidParam):
        run_strategy("basic", event, TODAY, backend, params={"persona_count": 4})
    with pytest.raises(InvalidParam):
        run_strategy("crowd", event, TODAY, backend, params={"persona_count": 0})
    with pytest.raises(InvalidParam):
        run_strategy("crowd", event, TODAY, backend, params={"persona_count": True})
    with pytest.raises(InvalidParam):
        run_strategy("crowd", event, TODAY, backend, params={"keyword_count": 3})


def test_backend_failure_carries_partial_steps(tmp_path):
    # no rules at all: the first completion call fails
    with pytest.raises(ChainError) as info:
        run("base_rate", backend=MockBackend([]))
    err = info.value
    assert err.trace.event_id == "evt-01"
    assert (err.trace.strategy, err.trace.prediction_date) == ("base_rate", TODAY)
    assert err.trace.failed_step == "question"
    assert err.trace.steps == ()

    path = tmp_path / "partial.json"
    save_trace(err.trace, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["event_id"] == "evt-01"
    assert payload["strategy"] == "base_rate"
    assert payload["prediction_date"] == TODAY.isoformat()
    assert payload["failed_step"] == "question"
    assert payload["steps"] == []


def test_extraction_failure_is_a_chain_error():
    backend = mock_backend()
    rules = [MockRule("substring", "Predict the likelihood", "no digits at all"), *backend.rules]
    with pytest.raises(ChainError) as info:
        run("basic", backend=MockBackend(rules))
    assert info.value.trace.failed_step == "predict"
    # the failing step is preserved with the raw responses for debugging
    assert info.value.trace.steps[-1].responses


def test_trace_round_trip_byte_identical(tmp_path):
    trace = run("sequences")
    path = tmp_path / "trace.json"
    save_trace(trace, path)
    again = load_trace(path)
    assert again == trace
    second = tmp_path / "second.json"
    save_trace(again, second)
    assert path.read_bytes() == second.read_bytes()


# Text with non-ASCII letters, quotes, newlines and control characters.
_TEXT = st.text(
    alphabet=st.one_of(st.characters(max_codepoint=0x7F), st.sampled_from("éü中ж 😀")),
    max_size=12,
)
_PROBABILITY = st.floats(min_value=0.0, max_value=1.0)
_PARSED = st.one_of(
    st.none(),
    _TEXT,
    _PROBABILITY,
    st.tuples(_TEXT, _TEXT),
    st.lists(_PROBABILITY, max_size=3).map(tuple),
)
_EXTRACTION = st.builds(
    SampleExtraction,
    sample_index=st.integers(0, 7),
    prompt=st.none() | _TEXT,
    response=st.none() | _TEXT,
    probability=_PROBABILITY,
    fallback_used=st.booleans(),
    error=st.none() | _TEXT,
)


@st.composite
def _steps(draw, parsed=_PARSED):
    if draw(st.booleans()):
        prompt, responses = None, ()  # a step that made no model call
    else:
        prompt, responses = draw(_TEXT), tuple(draw(st.lists(_TEXT, min_size=1, max_size=3)))
    return StepRecord(
        draw(_TEXT.filter(bool)),
        prompt,
        responses,
        parsed=draw(parsed),
        extractions=tuple(draw(st.lists(_EXTRACTION, max_size=3))),
        warnings=tuple(draw(st.lists(_TEXT, max_size=2))),
    )


@st.composite
def _traces(draw, steps=_steps()):
    samples = tuple(draw(st.lists(_PROBABILITY, min_size=1, max_size=8)))
    return ChainTrace(
        event_id=draw(_TEXT),
        strategy=draw(_TEXT),
        prediction_date=draw(st.dates()),
        steps=tuple(draw(st.lists(steps, min_size=1, max_size=4))),
        final_samples=samples,
        final_probability=aggregate_probabilities(samples),
    )


def _field_names(record_type) -> set[str]:
    return {field.name for field in dataclasses.fields(record_type)}


@settings(max_examples=100, deadline=None)
@given(_traces())
def test_trace_codec_round_trips(trace):
    with tempfile.TemporaryDirectory() as scratch:
        first, second = Path(scratch) / "first.json", Path(scratch) / "second.json"
        save_trace(trace, first)
        # the file's keys are the records' field names, at every level
        saved = json.loads(first.read_text(encoding="utf-8"))
        assert set(saved) == _field_names(ChainTrace)
        for step in saved["steps"]:
            assert set(step) == _field_names(StepRecord)
            for extraction in step["extractions"]:
                assert set(extraction) == _field_names(SampleExtraction)
        loaded = load_trace(first)
        assert loaded == trace
        save_trace(loaded, second)
        assert first.read_bytes() == second.read_bytes()


_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.integers(-10**6, 10**6).map(float)
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0]) | _TEXT
)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# The writer encodes a tuple of only strings, or of only finite floats, in
# one pass. These tuples start as one of those and may stop being one at
# any later item.
_ONE_PASS_PREFIXES = st.builds(
    lambda first, rest: (first, *rest),
    _TEXT | _FINITE,
    st.lists(_TEXT | _FINITE | _LEAVES, max_size=3),
)
# Any value a step may carry as ``parsed``: the floats (integer-valued, NaN,
# infinite) and ints and bools that a writer could confuse with one another.
_ANY_PARSED = st.recursive(
    _LEAVES | _ONE_PASS_PREFIXES,
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=6,
)
# Each one-pass kind and each way out of it, written whatever the draws.
# _TEXT's alphabet holds control characters, which JSON escapes, and U+2028,
# which it leaves as it is.
_PARSED_EXAMPLES = [
    ("a", "b\u2028\x01\"\\"),
    ("a", 1), ("a", None), ("a", ("b",)), ("a", 0.5),
    (0.5, -0.0, 1e16), (0.5, math.nan), (0.5, math.inf), (0.5, -math.inf),
    (0.5, 1), (0.5, True), (0.5, "a"), (0.5, None),
    (True, 0.5), (1, 0.5), (-0.0,), (math.nan, 0.5),
]
_FAILED_TRACES = st.builds(
    FailedTrace,
    event_id=_TEXT,
    strategy=_TEXT,
    prediction_date=st.dates(),
    failed_step=_TEXT,
    error=_TEXT,
    steps=st.lists(_steps(_ANY_PARSED), max_size=3).map(tuple),
)


@settings(max_examples=100, deadline=None)
@given(st.one_of(_traces(_steps(_ANY_PARSED)), _FAILED_TRACES))
@example(FailedTrace(
    "evt", "basic", date(2022, 8, 1), "predict", "e",
    tuple(StepRecord(f"s{i}", "p", ("r",), parsed) for i, parsed in enumerate(_PARSED_EXAMPLES)),
))
def test_trace_writer_matches_json_dumps(record):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "record.json"
        save_trace(record, path)
        text = json.dumps(json_data(record), indent=2, sort_keys=True, ensure_ascii=False)
        assert path.read_bytes() == (text + "\n").encode("utf-8")


def test_trace_that_is_not_unicode_leaves_no_file(tmp_path):
    path = tmp_path / "trace.json"
    # a lone surrogate, which UTF-8 cannot hold
    with pytest.raises(UnicodeEncodeError):
        save_trace(dataclasses.replace(run("basic"), event_id="evt-\udc80"), path)
    assert not path.exists()


def test_trace_dict_rejects_inconsistent_payloads(tmp_path):
    path = tmp_path / "trace.json"
    save_trace(run("basic"), path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    # no longer the sample mean
    path.write_text(json.dumps({**payload, "final_probability": 0.9}), encoding="utf-8")
    with pytest.raises(ValueError):
        load_trace(path)
    del payload["steps"]
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises((KeyError, ValueError, TypeError)):
        load_trace(path)


def test_trace_to_forecast():
    trace = run("crowd")
    record = trace_to_forecast(trace, trace_ref="traces/crowd/evt-01.json")
    assert record.event_id == "evt-01"
    assert record.strategy == "crowd"
    assert record.probability == trace.final_probability
    assert record.samples == trace.final_samples
    assert record.trace_ref == "traces/crowd/evt-01.json"


def test_step_record_invariants():
    StepRecord("s", "prompt", ("reply",))
    with pytest.raises(ValueError):
        StepRecord("s", "prompt", ())  # prompt implies responses
    with pytest.raises(ValueError):
        StepRecord("s", None, ("reply",))  # responses imply a prompt


def test_chain_trace_mean_invariant():
    with pytest.raises(ValueError):
        ChainTrace(
            event_id="e",
            strategy="basic",
            prediction_date=TODAY,
            steps=(StepRecord("s", "p", ("r",)),),
            final_samples=(0.2, 0.4),
            final_probability=0.5,
        )


class Networked:
    """A backend that says it waits on the network, so chains fan out its
    calls; ``concurrent=False`` keeps them serial.  Each call first sleeps
    ``delay(prompt)`` seconds; a prompt holding ``fail_on`` raises
    ProviderError, else ``inner`` answers.  ``prompts`` lists the prompts
    in the order the calls arrived."""

    def __init__(self, inner, *, delay=lambda prompt: 0.0, fail_on=None, concurrent=True):
        self.inner = inner
        self.backend_id = inner.backend_id
        self.waits_on_network = concurrent
        self.delay = delay
        self.fail_on = fail_on
        self.prompts = []
        self.in_flight = self.peak_in_flight = 0
        self._lock = threading.Lock()

    def complete(self, request):
        with self._lock:
            self.prompts.append(request.prompt)
            self.in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
        try:
            time.sleep(self.delay(request.prompt))
            if self.fail_on is not None and self.fail_on in request.prompt:
                raise ProviderError(503, "persona service down")
            return self.inner.complete(request)
        finally:
            with self._lock:
                self.in_flight -= 1


class Rendezvous(Networked):
    """A Networked backend whose call holding ``waiter`` waits, for at most
    ``bound`` seconds, until a call holding ``arriver`` has arrived; ``met``
    says whether it did.  A serial backend does not wait, since there the
    other call cannot arrive first."""

    def __init__(self, inner, waiter, arriver, *, bound=5.0, **kwargs):
        super().__init__(inner, **kwargs)
        self.waiter, self.arriver, self.bound = waiter, arriver, bound
        self.arrived = threading.Event()
        self.met = False

    def complete(self, request):
        if self.arriver in request.prompt:
            self.arrived.set()
        if self.waiter in request.prompt and self.waits_on_network:
            self.met = self.arrived.wait(self.bound)
        return super().complete(request)


PROS = "detailing all evidence that the event will happen"
CONS = "detailing all evidence that the event will not happen"
POSITIVE = "cause an event to happen"
OPPOSITE = "[OPPOSITE]"
HN_FILTER = "remove any which are totally irrelevant"
NYT_EXTRACT = "pull all information from the headlines"


@pytest.mark.parametrize(
    "strategy, waiter, arriver",
    [("both_sides", PROS, CONS), ("sequences", POSITIVE, OPPOSITE), ("news", HN_FILTER, NYT_EXTRACT)],
    ids=["both_sides", "sequences", "news"],
)
def test_independent_steps_overlap(strategy, waiter, arriver):
    backend = Rendezvous(mock_backend(), waiter, arriver)
    kwargs = news_clients() if strategy == "news" else {}
    trace = run(strategy, backend=backend, **kwargs)
    # the waiting call holds until its sibling is sent, which a serial chain never does
    assert backend.met
    assert trace == run(strategy, **kwargs)


def reverse_arrivals(marker, count, step=0.02):
    """A delay under which each run of ``count`` calls whose prompt holds
    ``marker`` finishes in the reverse of the order the calls arrived."""
    arrivals = itertools.count()

    def delay(prompt):
        return step * (count - next(arrivals) % count) if marker in prompt else 0.0

    return delay


def test_parallel_chains_reproduce_golden_traces(tmp_path):
    wrapped = []

    def networked(backend):
        wrapped.append(Networked(backend, delay=reverse_arrivals("Using your expertise", 8)))
        return wrapped[-1]

    names = write_traces(tmp_path, wrap=networked)
    assert len(names) == len(STRATEGY_IDS) + 2
    for name in names:
        assert (tmp_path / name).read_bytes() == (GOLDEN_TRACE_DIR / name).read_bytes(), name
    assert max(backend.peak_in_flight for backend in wrapped) > 1


CROWD_JOBS = ("an astronomer", "a banker", "a chemist", "a diver")


def crowd_rules():
    return [
        MockRule("substring", "You must ask an expert", CROWD_JOBS),
        *(MockRule("substring", job, f"Within the window, 0.{i + 1}") for i, job in enumerate(CROWD_JOBS)),
        *mock_backend().rules,
    ]


def test_parallel_crowd_records_personas_in_index_order():
    serial = run("crowd", backend=MockBackend(crowd_rules()), params={"persona_count": 4})
    assert serial.final_samples == (0.1, 0.2, 0.3, 0.4)
    # the first persona answers last
    backend = Networked(MockBackend(crowd_rules()), delay=lambda prompt: 0.1 * ("an astronomer" in prompt))
    parallel = run("crowd", backend=backend, params={"persona_count": 4})
    assert parallel == serial
    assert backend.peak_in_flight > 1


def fixture_rules():
    return mock_backend().rules


# strategy, its rules, the prompt marker that raises ProviderError, the
# rendezvous (waiter, arriver), the failed step, a marker of its prompt, and
# the steps recorded before it fails
FAILING_WAVES = [
    (
        "crowd", crowd_rules, "a banker", ("a banker", "a diver"),
        "persona_1", "a banker", ["expert", "persona_0"],
    ),
    ("sequences", fixture_rules, POSITIVE, (POSITIVE, OPPOSITE), "positive", POSITIVE, []),
    (
        "sequences", lambda: [MockRule("substring", OPPOSITE, "[END]"), *fixture_rules()], None,
        (POSITIVE, OPPOSITE), "opposite", OPPOSITE, ["positive", "opposite"],
    ),
    ("both_sides", fixture_rules, CONS, (PROS, CONS), "cons", CONS, ["pros"]),
    ("news", fixture_rules, HN_FILTER, (HN_FILTER, NYT_EXTRACT), "hn_filter", HN_FILTER, ["keywords", "hn_fetch"]),
]


# (strategy, failed step) of each FAILING_WAVES case -> the backend calls a
# serial chain and a concurrent one make before they fail, extractions
# included.  A concurrent chain finishes what runs beside the failed step, and
# starts nothing after it.
FAILING_WAVE_CALLS = {
    ("crowd", "persona_1"): (4, 8),
    ("sequences", "positive"): (1, 2),
    ("sequences", "opposite"): (2, 2),
    ("both_sides", "cons"): (2, 2),
    ("news", "hn_filter"): (2, 4),
}


def test_persona_backend_error_fails_parallel_chain_like_serial(tmp_path):
    assert set(FAILING_WAVE_CALLS) == {(case[0], case[4]) for case in FAILING_WAVES}
    for strategy, rules, fail_on, rendezvous, failed_step, failed_marker, step_ids in FAILING_WAVES:
        case = (strategy, failed_step)
        partial = {}
        for concurrent in (False, True):
            backend = Rendezvous(MockBackend(rules()), *rendezvous, fail_on=fail_on, concurrent=concurrent)
            kwargs = {"crowd": {"params": {"persona_count": 4}}, "news": news_clients()}.get(strategy, {})
            with pytest.raises(ChainError) as info:
                run(strategy, backend=backend, **kwargs)
            path = tmp_path / f"{strategy}-{failed_step}-{concurrent}.json"
            save_trace(info.value.trace, path)
            partial[concurrent] = path.read_bytes()
            assert len(backend.prompts) == FAILING_WAVE_CALLS[case][concurrent], (case, concurrent)
            if not concurrent:
                # a serial chain makes no call after the step that failed
                assert failed_marker in backend.prompts[-1], case
        assert partial[True] == partial[False], case
        payload = json.loads(partial[True])
        assert payload["failed_step"] == failed_step, case
        assert [step["step_id"] for step in payload["steps"]] == step_ids, case
        # the failing call and its sibling were in flight together
        assert backend.met, case


class ChatSession:
    """A fake provider behind ``HttpSession.post``, 20 ms per POST: "10%"
    to every forecast prompt, and a new reply to each extraction prompt, as
    a sampling model might give."""

    def __init__(self):
        self.posts = self.extractions = 0
        self.in_flight = self.peak_in_flight = 0
        self._lock = threading.Lock()

    def post(self, **kwargs):
        with self._lock:
            self.posts += 1
            self.in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
            text = "10%"
            if "emit only the final probability value" in kwargs["json"]["messages"][0]["content"]:
                self.extractions += 1
                text = f"0.1{self.extractions}"
        time.sleep(0.02)
        with self._lock:
            self.in_flight -= 1
        return HttpReply(200, {}, json.dumps({"choices": [{"message": {"content": text}}]}).encode("utf-8"))


def test_identical_parallel_samples_replay_byte_identical(tmp_path):
    session = ChatSession()
    http = HttpBackend("m", base_url="http://provider.test/v1", requests_per_second=10000.0, session=session)
    recorded = run("basic", backend=CachedBackend(tmp_path / "cache", http))
    # the 8 identical replies share one extraction call
    assert session.posts == 9
    assert session.peak_in_flight > 1
    assert {extraction.response for extraction in recorded.steps[-1].extractions} == {"0.11"}

    replay = CachedBackend(tmp_path / "cache", NullBackend(http.backend_id), replay_only=True)
    replayed = run("basic", backend=replay)
    save_trace(recorded, tmp_path / "recorded.json")
    save_trace(replayed, tmp_path / "replayed.json")
    assert (tmp_path / "recorded.json").read_bytes() == (tmp_path / "replayed.json").read_bytes()
