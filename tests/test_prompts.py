"""Tests for template loading, rendering, and probability extraction."""

import random
import re
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foresight.events import Category, Event
from foresight.llm import BackendError, CompletionRequest, CompletionResponse
from foresight.metrics import EmptyInput
from foresight.prompts import (
    EXTRACTION_TEMPLATE_ID,
    ExtractionFailed,
    NoProbabilityFound,
    PredictionWindowError,
    PromptTemplate,
    Scale,
    TemplateError,
    UnboundPlaceholder,
    aggregate_probabilities,
    bindings,
    days_remaining,
    extract_probability,
    get_template,
    load_templates,
    parse_probability,
    render,
    substitute,
)
from foresight.strategies import CHAINS

EXPECTED_TEMPLATE_IDS = {
    "basic/predict",
    "forecaster/predict",
    "base_rate/question",
    "base_rate/answer",
    "base_rate/predict",
    "both_sides/pros",
    "both_sides/cons",
    "both_sides/predict",
    "sequences/positive",
    "sequences/opposite",
    "sequences/negative",
    "sequences/predict",
    "crowd/expert",
    "crowd/predict",
    "news/keywords",
    "news/hn_filter",
    "news/nyt_extract",
    "news/nyt_paraphrase",
    "news/predict",
    "basic_with_rationale/predict",
    "extract/probability",
}


def make_event(**overrides):
    base = dict(
        id="e1",
        name="Example",
        condition="Example happens",
        description="An example event.",
        category=Category.MISC,
        created=date(2022, 6, 1),
        expires=date(2022, 12, 31),
    )
    base.update(overrides)
    return Event(**base)


def test_registry_contents():
    registry = load_templates()
    assert set(registry) == EXPECTED_TEMPLATE_IDS
    with pytest.raises(TypeError):
        registry["new/id"] = None  # read-only view
    for template in registry.values():
        assert template.body
        for name in template.placeholders:
            assert f"[{name}]" in template.body


def test_registry_scales():
    # a template's answer is read on the scale of the prediction row that
    # sends it; every other step's reply is text, not a probability
    unit = {"sequences/predict", "crowd/predict"}
    scales = {}
    for strategy, groups in CHAINS.items():
        predict = groups[-1]
        template_id = predict.template or f"{strategy}/{predict.step_id}"
        scales.setdefault(template_id, set()).add(predict.scale)
    assert set(scales) == {t for t in EXPECTED_TEMPLATE_IDS if t.endswith("/predict")}
    for template_id, found in scales.items():
        expected = Scale.UNIT if template_id in unit else Scale.PERCENT
        assert found == {expected}, template_id
    # the extractor's prompt asks for 0 to 1 whatever the row's scale: its
    # bare "35" is no probability, so the raw reply is parsed instead
    value, detail = extract_probability("surely 60%", scale=Scale.PERCENT, extractor=ScriptedExtractor("35"))
    assert value == pytest.approx(0.60)
    assert detail.fallback_used


def test_expert_preamble_inlined():
    # the shared forecaster framing is baked into final-step bodies at load
    assert get_template("forecaster/predict").body.startswith("In this chat, you are")
    for template in load_templates().values():
        assert "[Forecaster Text]" not in template.body
        assert "Forecaster Text" not in template.placeholders


def test_get_template_unknown_id():
    with pytest.raises(TemplateError):
        get_template("missing/template")


def test_placeholders_come_from_the_body():
    # a key with a lowercase letter is a placeholder, listed once, in order
    # of first use; an all-capitals token is prompt text
    template = PromptTemplate("t", "[EVENT] [name] [END] [number of days] [name] [NYT headlines] [A1]")
    assert template.placeholders == ("name", "number of days", "NYT headlines")
    assert PromptTemplate("t", "no tokens, [] or [42]").placeholders == ()
    # a key holds no bracket: the token is the innermost pair
    assert PromptTemplate("t", "[a]b] [[c]").placeholders == ("a", "c")
    with pytest.raises(TemplateError, match="empty body"):
        PromptTemplate("t", "")


def test_days_remaining():
    assert days_remaining(make_event(), date(2022, 8, 1)) == 152
    assert days_remaining(make_event(expires=date(2022, 8, 2)), date(2022, 8, 1)) == 1
    closed = make_event(expires=date(2022, 8, 1))
    with pytest.raises(PredictionWindowError) as info:
        days_remaining(closed, date(2022, 8, 1))  # window must be open
    assert info.value.event_id == "e1"
    with pytest.raises(PredictionWindowError):
        days_remaining(closed, date(2022, 8, 2))


def test_render_context_bindings():
    assert bindings(make_event(), date(2022, 8, 1)) == {
        "name": "Example",
        "condition": "Example happens",
        "description": "An example event.",
        "expiry": "2022-12-31",
        "today": "2022-08-01",
        "number of days": "152",
    }


def test_substitute_is_single_pass():
    assert substitute("A [x] B", {"x": "[y]", "y": "BAD"}) == "A [y] B"
    assert substitute("[a][a]", {"a": "1"}) == "11"
    # unknown placeholders survive untouched
    assert substitute("keep [unknown]", {"x": "1"}) == "keep [unknown]"


def test_substitute_longest_key_first():
    out = substitute("[base rate] [base rate question]", {
        "base rate": "30%",
        "base rate question": "How often?",
    })
    assert out == "30% How often?"


def substitute_by_regex(body, bindings):
    """The reference: one alternation of every bound token, longest key first."""
    if not bindings:
        return body
    keys = sorted(bindings, key=len, reverse=True)
    pattern = re.compile("|".join(re.escape(f"[{key}]") for key in keys))
    return pattern.sub(lambda m: bindings[m.group(0)[1:-1]], body)


# Keys are short so that one is often a prefix of another; they hold no
# bracket, as no token's key can.
_KEY = st.text(alphabet="ab ", max_size=3)
_PIECE = st.one_of(
    st.text(alphabet="ab []x\n", max_size=6),
    _KEY.map(lambda key: f"[{key}]"),
)
_BODY = st.lists(_PIECE, max_size=8).map("".join)
_VALUE = st.lists(_PIECE, max_size=3).map("".join)
_BINDINGS = st.dictionaries(_KEY, _VALUE, max_size=4)


@settings(max_examples=200, deadline=None)
@given(_BODY, _BINDINGS, _BINDINGS)
def test_substitute_matches_regex_reference(body, first, second):
    # the same body under two key sets, each alone and merged
    for bound in (first, second, {**first, **second}, {}):
        assert substitute(body, bound) == substitute_by_regex(body, bound)


def test_render_binds_event_fields():
    template = get_template("basic/predict")
    prompt = render(template, bindings(make_event(), date(2022, 8, 1)))
    assert "Example happens" in prompt
    assert "2022-12-31" in prompt
    assert "[condition]" not in prompt
    assert "[expiry]" not in prompt


def test_render_missing_placeholder():
    template = PromptTemplate("t", "needs [job]")
    with pytest.raises(UnboundPlaceholder) as info:
        render(template, {"other": "x"})
    assert info.value.missing == ("job",)
    assert info.value.template_id == "t"
    assert render(template, {"job": "an analyst"}) == "needs an analyst"


def test_render_tolerates_unused_bindings():
    template = PromptTemplate("t", "[condition]")
    merged = {**bindings(make_event(), date(2022, 8, 1)), "condition": "the opposite"}
    assert render(template, merged) == "the opposite"


PARSE_CASES = [
    ("42%", Scale.PERCENT, 0.42),
    ("42", Scale.PERCENT, 0.42),
    ("0.42", Scale.PERCENT, 0.42),
    ("I will say 25%.", Scale.PERCENT, 0.25),
    ("maybe 30%, maybe 40%", Scale.PERCENT, 0.40),
    ("0.65", Scale.UNIT, 0.65),
    ("1", Scale.UNIT, 1.0),
    ("0", Scale.UNIT, 0.0),
    (".5", Scale.UNIT, 0.5),
    ("100%", Scale.PERCENT, 1.0),
    ("around 5 percent", Scale.PERCENT, 0.05),
    ("1,200 people attended; odds are 10%", Scale.PERCENT, 0.10),
    ("the chance is 0.3.", Scale.UNIT, 0.3),
    ("90%\n", Scale.PERCENT, 0.9),
]

PARSE_REJECTS = [
    ("no numbers here", Scale.PERCENT),
    ("", Scale.PERCENT),
    ("version 3.2.1 shipped", Scale.PERCENT),
    ("150", Scale.PERCENT),
    ("1.5", Scale.UNIT),
    ("-20%", Scale.PERCENT),
    ("item-3", Scale.PERCENT),
]


def test_parse_probability_table():
    for text, scale, expected in PARSE_CASES:
        assert parse_probability(text, scale=scale) == pytest.approx(expected), text
    for text, scale in PARSE_REJECTS:
        with pytest.raises(NoProbabilityFound):
            parse_probability(text, scale=scale)


def test_parse_probability_last_value_wins_randomized():
    rng = random.Random(8080)
    for _ in range(100):
        values = [rng.randrange(0, 101) for _ in range(rng.randrange(2, 6))]
        text = " then ".join(f"{v}%" for v in values)
        assert parse_probability(text, scale=Scale.PERCENT) == pytest.approx(values[-1] / 100)


class ScriptedExtractor:
    def __init__(self, reply):
        self.reply = reply
        self.backend_id = "scripted"
        self.prompts = []

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        self.prompts.append(request.prompt)
        if isinstance(self.reply, Exception):
            raise self.reply
        return CompletionResponse(texts=(self.reply,) * request.n_samples, backend_id=self.backend_id)


def test_extract_probability_with_extractor():
    extractor = ScriptedExtractor("0.35")
    value, detail = extract_probability(
        "a long ramble ending in 35 percent", scale=Scale.PERCENT, extractor=extractor
    )
    assert value == pytest.approx(0.35)
    assert not detail.fallback_used
    assert "a long ramble ending in 35 percent" in detail.prompt
    body = get_template(EXTRACTION_TEMPLATE_ID).body
    assert detail.prompt.startswith(body.split("[response]")[0])


def test_extract_probability_extractor_failure_falls_back():
    for broken in (ScriptedExtractor(""), ScriptedExtractor(BackendError("down"))):
        value, detail = extract_probability("surely 60%", scale=Scale.PERCENT, extractor=broken)
        assert value == pytest.approx(0.60)
        assert detail.fallback_used
        assert detail.error is not None


def test_extract_probability_both_routes_fail():
    with pytest.raises(ExtractionFailed) as info:
        extract_probability("nothing numeric", scale=Scale.PERCENT, extractor=ScriptedExtractor("nope"))
    assert info.value.raw == "nothing numeric"


def test_aggregate_probabilities():
    samples = [i / 10 for i in range(8)]  # 0.0 .. 0.7
    assert aggregate_probabilities(samples) == 0.35
    with pytest.raises(EmptyInput):
        aggregate_probabilities([])
    with pytest.raises(ValueError):
        aggregate_probabilities([0.5, 1.5])


def test_aggregate_probabilities_randomized_matches_fsum():
    import math

    rng = random.Random(60)
    for _ in range(100):
        samples = [rng.random() for _ in range(rng.randrange(1, 12))]
        assert aggregate_probabilities(samples) == math.fsum(samples) / len(samples)
