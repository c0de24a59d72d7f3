"""Tests for scoring arithmetic and forecast file handling."""

import math
import random
from datetime import date
from pathlib import Path

import pytest

from foresight.events import Category, DuplicateId, MalformedRecord, json_data, load_dataset
from foresight.metrics import (
    EmptyClass,
    EmptyInput,
    ForecastRecord,
    MismatchedEventSets,
    MissingSnapshot,
    ScoreReport,
    UnknownEvent,
    bias,
    brier,
    load_forecasts,
    market_forecast_records,
    parse_forecasts,
    prediction_shift,
    render_report,
    report_to_dict,
    round4,
    score,
    serialize_forecasts,
    weighted_brier,
)

FIXTURES = Path(__file__).parent / "fixtures"


def brier_by_loop(pairs):
    total = 0.0
    for p, o in pairs:
        total += (p - o) ** 2
    return total / len(pairs)


def test_brier_simple_values():
    assert brier([(1.0, 1)]) == 0.0
    assert brier([(0.0, 1)]) == 1.0
    assert brier([(0.5, 0), (0.5, 1)]) == pytest.approx(0.25)


def test_brier_validates_inputs():
    with pytest.raises(EmptyInput):
        brier([])
    with pytest.raises(ValueError):
        brier([(1.2, 1)])
    with pytest.raises(ValueError):
        brier([(-0.1, 0)])
    with pytest.raises(ValueError):
        brier([(0.5, 2)])
    with pytest.raises(ValueError):
        brier([(math.nan, 1)])
    with pytest.raises(ValueError):
        brier([(0.5, math.nan)])


def test_brier_matches_loop_oracle_randomized():
    rng = random.Random(1304)
    for _ in range(300):
        pairs = [(rng.random(), rng.randrange(2)) for _ in range(rng.randrange(1, 40))]
        assert brier(pairs) == pytest.approx(brier_by_loop(pairs), abs=1e-12)


def test_weighted_brier_averages_classes():
    yes = [(0.8, 1), (0.4, 1)]
    no = [(0.1, 0), (0.3, 0), (0.2, 0)]
    expected = (brier(yes) + brier(no)) / 2.0
    assert weighted_brier(yes, no) == pytest.approx(expected, abs=1e-15)
    with pytest.raises(EmptyClass):
        weighted_brier([], no)
    with pytest.raises(EmptyClass):
        weighted_brier(yes, [])


def test_weighted_brier_randomized():
    rng = random.Random(77)
    for _ in range(200):
        yes = [(rng.random(), 1) for _ in range(rng.randrange(1, 20))]
        no = [(rng.random(), 0) for _ in range(rng.randrange(1, 20))]
        expected = (brier_by_loop(yes) + brier_by_loop(no)) / 2.0
        assert weighted_brier(yes, no) == pytest.approx(expected, abs=1e-12)


def test_score_hand_forecasts_against_fixture():
    split = load_dataset(FIXTURES / "events_val.jsonl")
    forecasts = load_forecasts(FIXTURES / "forecasts_val_hand.jsonl")
    report = score(forecasts, split)
    assert report.n_total == 10
    assert report.n_yes == 4
    assert report.n_no == 6
    assert report.brier == pytest.approx(0.08225, abs=1e-12)
    assert report.brier_yes == pytest.approx(0.115, abs=1e-12)
    assert report.brier_no == pytest.approx(0.060416666666666667, abs=1e-12)
    assert report.weighted_brier == pytest.approx(0.087708333333333333, abs=1e-12)
    assert report.mean_prediction == pytest.approx(0.405, abs=1e-12)
    count, value = report.per_category[Category.TECH]
    assert count == 3
    assert value == pytest.approx(0.0375, abs=1e-12)


def test_score_rejects_unknown_and_unresolved_events():
    split = load_dataset(FIXTURES / "events_val.jsonl")
    stranger = ForecastRecord("ghost", "hand", date(2022, 8, 1), 0.5)
    with pytest.raises(UnknownEvent):
        score([stranger], split)
    with pytest.raises(EmptyInput):
        score([], split)

    small = load_dataset(FIXTURES / "events_small.jsonl")
    unresolved = ForecastRecord("e3", "hand", date(2022, 8, 1), 0.5)
    with pytest.raises(ValueError):
        score([unresolved], small)


def test_score_counts_each_strategy_event_pair_once():
    split = load_dataset(FIXTURES / "events_val.jsonl")
    forecasts = load_forecasts(FIXTURES / "forecasts_val_hand.jsonl")
    with pytest.raises(DuplicateId, match="duplicate event id 'evt-01'"):
        score([*forecasts, forecasts[0]], split)
    # the same event under two strategies is two forecasts, scored pooled
    other = ForecastRecord("evt-01", "other", date(2022, 8, 1), 0.9)
    pooled = score([forecasts[0], other], split)
    assert pooled.n_total == 2
    assert pooled.brier == pytest.approx((0.1**2 + 0.9**2) / 2, abs=1e-12)


def test_score_randomized_against_naive_recompute():
    split = load_dataset(FIXTURES / "events_val.jsonl")
    resolved = [e for e in split.events if e.resolved]
    rng = random.Random(95)
    for _ in range(50):
        chosen = rng.sample(resolved, rng.randrange(2, len(resolved) + 1))
        forecasts = [
            ForecastRecord(e.id, "rand", date(2022, 8, 1), round(rng.random(), 6))
            for e in chosen
        ]
        report = score(forecasts, split)
        pairs = [
            (f.probability, 1 if split.event_by_id(f.event_id).resolution.value == "yes" else 0)
            for f in forecasts
        ]
        assert report.brier == pytest.approx(brier_by_loop(pairs), abs=1e-12)
        assert report.mean_prediction == pytest.approx(
            math.fsum(p for p, _ in pairs) / len(pairs), abs=1e-12
        )
        yes = [pair for pair in pairs if pair[1] == 1]
        no = [pair for pair in pairs if pair[1] == 0]
        if yes and no:
            assert report.weighted_brier == pytest.approx(
                (brier_by_loop(yes) + brier_by_loop(no)) / 2.0, abs=1e-12
            )
        else:
            assert report.weighted_brier is None


def test_score_report_invariants():
    with pytest.raises(ValueError):
        ScoreReport(3, 1, 1, 0.1, 0.1, 0.1, 0.1, 0.5)
    with pytest.raises(ValueError):
        ScoreReport(2, 2, 0, 0.1, None, None, None, 0.5)  # yes present, score absent
    with pytest.raises(ValueError):
        ScoreReport(2, 2, 0, 0.1, 0.1, None, 0.1, 0.5)  # weighted needs both classes


def forecast_set(*pairs):
    return [ForecastRecord(event_id, "s", date(2022, 8, 1), p) for event_id, p in pairs]


def test_bias_report_undoes_the_reversed_complement():
    report = bias(forecast_set(("a", 0.2), ("b", 0.3)), forecast_set(("b", 0.5), ("a", 0.3)))
    assert report.n == 2
    assert report.mean_forward == pytest.approx(0.25, abs=1e-15)
    assert report.mean_reversed == pytest.approx(0.4, abs=1e-15)
    assert report.implied_opposite == pytest.approx(0.6, abs=1e-15)
    assert report.coherence_sum == pytest.approx(0.85, abs=1e-15)
    assert list(json_data(report)) == [
        "n", "mean_forward", "mean_reversed", "implied_opposite", "coherence_sum"
    ]
    coherent = bias(forecast_set(("a", 0.5)), forecast_set(("a", 0.5)))
    assert coherent.coherence_sum == 1.0


def test_prediction_shift_rows_sorted_by_event():
    just = forecast_set(("b", 0.2), ("a", 0.1))
    rationale = forecast_set(("a", 0.4), ("b", 0.15))
    rows, mean_delta = prediction_shift(just, rationale)
    assert rows == [
        ("a", 0.1, 0.4, pytest.approx(0.3)),
        ("b", 0.2, 0.15, pytest.approx(-0.05)),
    ]
    assert mean_delta == pytest.approx(0.125)


def test_prediction_shift_rejects_mismatch_and_duplicates():
    with pytest.raises(MismatchedEventSets) as info:
        prediction_shift(forecast_set(("a", 0.1)), forecast_set(("b", 0.2)))
    assert info.value.missing_ids == {"a", "b"}
    with pytest.raises(DuplicateId):
        prediction_shift(forecast_set(("a", 0.1), ("a", 0.2)), forecast_set(("a", 0.3)))
    with pytest.raises(EmptyInput):
        prediction_shift(forecast_set(), forecast_set())


def test_market_forecast_records_midpoints():
    split = load_dataset(FIXTURES / "events_small.jsonl")
    records = market_forecast_records([split.event_by_id("e1")], date(2022, 8, 1))
    assert len(records) == 1
    assert records[0].probability == pytest.approx(0.6)
    assert records[0].strategy == "market"
    with pytest.raises(MissingSnapshot):
        market_forecast_records([split.event_by_id("e1")], date(2022, 8, 2))


def test_forecast_record_mean_invariant():
    ForecastRecord("e", "s", date(2022, 8, 1), 0.35, samples=(0.3, 0.4))
    with pytest.raises(ValueError):
        ForecastRecord("e", "s", date(2022, 8, 1), 0.5, samples=(0.3, 0.4))
    with pytest.raises(ValueError):
        ForecastRecord("e", "s", date(2022, 8, 1), 1.5)
    with pytest.raises(ValueError):
        ForecastRecord("e", "s", date(2022, 8, 1), 0.5, samples=(0.5, 1.5))


def test_forecast_serialization_round_trip_randomized():
    rng = random.Random(31337)
    for _ in range(40):
        records = []
        for i in range(rng.randrange(1, 10)):
            n = rng.choice([0, 8])
            samples = tuple(round(rng.random(), 6) for _ in range(n))
            prob = math.fsum(samples) / n if n else round(rng.random(), 6)
            records.append(
                ForecastRecord(
                    event_id=f"ev-{i}",
                    strategy="rand",
                    prediction_date=date(2022, 8, 1),
                    probability=prob,
                    samples=samples,
                    trace_ref=f"traces/rand/ev-{i}.json" if rng.random() < 0.5 else None,
                )
            )
        text = serialize_forecasts(records)
        assert parse_forecasts(text) == records
        assert serialize_forecasts(parse_forecasts(text)) == text


def test_parse_forecasts_rejects_malformed():
    good = serialize_forecasts([ForecastRecord("e", "s", date(2022, 8, 1), 0.5)]).strip()
    for bad in [
        "not json",
        "[]",
        good.replace('"probability": 0.5', '"probability": 1.7'),
        good.replace('"strategy"', '"strategery"'),
        good.replace("2022-08-01", "20220801"),
        good.replace("2022-08-01", "2022-W31-1"),
        good + "\n" + good.replace("0.5", "0.5, \"surprise\": 1"),
    ]:
        with pytest.raises((MalformedRecord, ValueError)):
            parse_forecasts(bad)
    # each of these has the right keys but a field of the wrong JSON type
    for bad in [
        good.replace('"probability": 0.5', '"probability": true'),
        good.replace('"probability": 0.5', '"probability": "0.5"'),
        good.replace('"probability": 0.5', '"probability": 1.0, "samples": "11"'),
        good.replace('"probability": 0.5', '"probability": 1.0, "samples": [true]'),
        good.replace('"probability": 0.5', '"probability": 0.5, "trace_ref": 7'),
        good.replace('"event_id": "e"', '"event_id": 7'),
        good.replace('"strategy": "s"', '"strategy": null'),
    ]:
        with pytest.raises(MalformedRecord, match="^line 1: "):
            parse_forecasts(bad)
    # null is the trace_ref default, written out
    assert parse_forecasts(good.replace("0.5", '0.5, "trace_ref": null'))[0].trace_ref is None


def test_render_report_layout():
    split = load_dataset(FIXTURES / "events_val.jsonl")
    forecasts = load_forecasts(FIXTURES / "forecasts_val_hand.jsonl")
    text = render_report(score(forecasts, split), title="Scores for hand")
    assert text == (
        "Scores for hand\n"
        "n = 10 (resolve yes 4, resolve no 6)\n"
        "Brier Score           0.0822\n"
        "Brier (resolve yes)   0.1150\n"
        "Brier (resolve no)    0.0604\n"
        "Weighted Brier Score  0.0877\n"
        "Mean prediction       0.4050\n"
        "Per category:\n"
        "  covid19    n=3    brier 0.0700\n"
        "  finance    n=3    brier 0.0833\n"
        "  tech       n=3    brier 0.0375\n"
        "  misc       n=1    brier 0.2500\n"
        "Lower is better.\n"
    )


def test_report_to_dict_full_precision():
    split = load_dataset(FIXTURES / "events_val.jsonl")
    forecasts = load_forecasts(FIXTURES / "forecasts_val_hand.jsonl")
    data = report_to_dict(score(forecasts, split))
    assert data["brier"] == pytest.approx(0.08225, abs=1e-15)
    assert data["weighted_brier"] == pytest.approx(0.0877083333333333, abs=1e-12)
    assert sorted(data["per_category"]) == ["covid19", "finance", "misc", "tech"]
    assert data["per_category"]["misc"]["count"] == 1


def test_round4_is_half_even():
    assert round4(0.12345) == 0.1234
    assert round4(0.12355) == 0.1236
    assert round4(0.00005) == 0.0
    assert round4(0.00015) == 0.0002
    assert round4(0.8563999999999999) == 0.8564
