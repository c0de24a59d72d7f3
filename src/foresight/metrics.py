"""Forecast scoring and bias-analysis arithmetic.

Brier score is the mean squared error between probabilities and 0/1 outcomes;
the weighted variant averages the per-class (resolved-yes, resolved-no) Brier
scores so the rarer class counts equally.  Values are stored at full float
precision; rendering rounds half-even to 4 decimals.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from datetime import date
from decimal import ROUND_HALF_EVEN, Decimal
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .events import (
    Category,
    DatasetSplit,
    DuplicateId,
    Event,
    InputError,
    json_data,
    market_point_prediction,
    outcome_indicator,
    parse_date,
    parse_number,
    read_json_lines,
    read_text,
    require_strings,
    write_text_atomic,
)

__all__ = [
    "ForecastRecord",
    "ScoreReport",
    "BiasReport",
    "EmptyInput",
    "EmptyClass",
    "UnknownEvent",
    "MismatchedEventSets",
    "MissingSnapshot",
    "brier",
    "weighted_brier",
    "score",
    "bias",
    "join_by_event",
    "prediction_shift",
    "market_forecast_records",
    "parse_forecasts",
    "load_forecasts",
    "serialize_forecasts",
    "save_forecasts",
    "render_report",
    "report_to_dict",
    "round4",
]

MEAN_TOLERANCE = 1e-9


class EmptyInput(InputError):
    """A scoring operation received no data points."""


class EmptyClass(InputError):
    """One side of a class-weighted score has no members."""

    def __init__(self, which: str):
        super().__init__(f"no forecasts for events resolving {which}")
        self.which = which


class UnknownEvent(InputError):
    def __init__(self, event_id: str):
        super().__init__(f"forecast references unknown event {event_id!r}")
        self.event_id = event_id


class MismatchedEventSets(InputError):
    """Two forecast sets that must cover identical events do not."""

    def __init__(self, missing_ids: Iterable[str]):
        self.missing_ids = frozenset(missing_ids)
        listed = ", ".join(sorted(self.missing_ids))
        super().__init__(f"event sets differ; ids present on one side only: {listed}")


class MissingSnapshot(InputError):
    def __init__(self, event_id: str, on: date):
        super().__init__(f"event {event_id!r} has no market snapshot dated {on}")
        self.event_id = event_id
        self.date = on


@dataclass(frozen=True)
class ForecastRecord:
    """One strategy's probability for one event on one prediction date.

    When per-sample values are kept, the stored probability must be their mean
    (within ``MEAN_TOLERANCE``).
    """

    event_id: str
    strategy: str
    prediction_date: date
    probability: float
    samples: tuple[float, ...] = ()
    trace_ref: str | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError(f"probability {self.probability} outside [0, 1]")
        for s in self.samples:
            if not (0.0 <= s <= 1.0):
                raise ValueError(f"sample {s} outside [0, 1]")
        if self.samples:
            mean = math.fsum(self.samples) / len(self.samples)
            if abs(self.probability - mean) > MEAN_TOLERANCE:
                raise ValueError(
                    f"probability {self.probability} is not the mean of samples ({mean})"
                )


@dataclass(frozen=True)
class ScoreReport:
    """Scores for one batch of forecasts against resolved outcomes."""

    n_total: int
    n_yes: int
    n_no: int
    brier: float
    brier_yes: float | None
    brier_no: float | None
    weighted_brier: float | None
    mean_prediction: float
    per_category: Mapping[Category, tuple[int, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_total != self.n_yes + self.n_no:
            raise ValueError("n_total must equal n_yes + n_no")
        if (self.brier_yes is None) != (self.n_yes == 0):
            raise ValueError("brier_yes must be present exactly when n_yes > 0")
        if (self.brier_no is None) != (self.n_no == 0):
            raise ValueError("brier_no must be present exactly when n_no > 0")
        if (self.weighted_brier is None) != (self.brier_yes is None or self.brier_no is None):
            raise ValueError("weighted_brier must be present exactly when both classes are")


@dataclass(frozen=True)
class BiasReport:
    """Forward against reversed forecasts of the same events.  A reversed run
    reports ``1 - P(opposite)``; ``implied_opposite`` undoes that complement,
    and a coherent forecaster's ``coherence_sum`` (forward mean plus implied
    opposite) is 1.0: an event and its negation split the probability mass."""

    n: int
    mean_forward: float
    mean_reversed: float
    implied_opposite: float
    coherence_sum: float


def brier(pairs: Sequence[tuple[float, int]]) -> float:
    """Mean squared error of (probability, outcome) pairs.  Outcomes are 0/1."""
    if len(pairs) == 0:
        raise EmptyInput("brier needs at least one (probability, outcome) pair")
    for p, o in pairs:
        if not 0.0 <= p <= 1.0:
            raise ValueError("probabilities must lie in [0, 1]")
        if o not in (0, 1):
            raise ValueError("outcomes must be 0 or 1")
    return math.fsum((p - o) ** 2 for p, o in pairs) / len(pairs)


def weighted_brier(
    yes_pairs: Sequence[tuple[float, int]], no_pairs: Sequence[tuple[float, int]]
) -> float:
    """Average of the per-class Brier scores.  Both classes must be nonempty."""
    if len(yes_pairs) == 0:
        raise EmptyClass("yes")
    if len(no_pairs) == 0:
        raise EmptyClass("no")
    return (brier(yes_pairs) + brier(no_pairs)) / 2.0


def score(forecasts: Sequence[ForecastRecord], split: DatasetSplit) -> ScoreReport:
    """Score forecasts against the split's resolved outcomes.

    Every forecast must reference a known, resolved event, once per strategy;
    violations raise rather than silently dropping or reweighting rows.
    """
    if len(forecasts) == 0:
        raise EmptyInput("no forecasts to score")
    seen: set[tuple[str, str]] = set()
    pairs: list[tuple[float, int]] = []
    yes_pairs: list[tuple[float, int]] = []
    no_pairs: list[tuple[float, int]] = []
    by_category: dict[Category, list[tuple[float, int]]] = {}
    for f in forecasts:
        _claim(seen, (f.strategy, f.event_id), f.event_id)
        event = split.event_by_id(f.event_id)
        if event is None:
            raise UnknownEvent(f.event_id)
        outcome = outcome_indicator(event)
        pair = (f.probability, outcome)
        pairs.append(pair)
        (yes_pairs if outcome == 1 else no_pairs).append(pair)
        by_category.setdefault(event.category, []).append(pair)

    brier_yes = brier(yes_pairs) if yes_pairs else None
    brier_no = brier(no_pairs) if no_pairs else None
    weighted = weighted_brier(yes_pairs, no_pairs) if yes_pairs and no_pairs else None
    per_category = {
        cat: (len(cat_pairs), brier(cat_pairs)) for cat, cat_pairs in by_category.items()
    }
    return ScoreReport(
        n_total=len(pairs),
        n_yes=len(yes_pairs),
        n_no=len(no_pairs),
        brier=brier(pairs),
        brier_yes=brier_yes,
        brier_no=brier_no,
        weighted_brier=weighted,
        mean_prediction=math.fsum(f.probability for f in forecasts) / len(forecasts),
        per_category=per_category,
    )


def bias(forward: Sequence[ForecastRecord], flipped: Sequence[ForecastRecord]) -> BiasReport:
    """Compare forward forecasts with reversed-framing ones on the same events
    (joined by :func:`join_by_event`)."""
    rows = join_by_event(forward, flipped)
    mean_forward = math.fsum(row[1] for row in rows) / len(rows)
    mean_reversed = math.fsum(row[2] for row in rows) / len(rows)
    opposite = 1.0 - mean_reversed
    return BiasReport(len(rows), mean_forward, mean_reversed, opposite, mean_forward + opposite)


def join_by_event(
    left: Sequence[ForecastRecord], right: Sequence[ForecastRecord]
) -> list[tuple[str, float, float]]:
    """Join two forecast sets into ``(event_id, p_left, p_right)`` rows by event id.

    Each side may list an event once (``DuplicateId``), both sides must cover
    the same events (``MismatchedEventSets``), and they may not be empty
    (``EmptyInput``).
    """
    lhs = _by_event(left)
    rhs = _by_event(right)
    if set(lhs) != set(rhs):
        raise MismatchedEventSets(set(lhs) ^ set(rhs))
    if not lhs:
        raise EmptyInput("no forecasts to compare")
    return [(event_id, lhs[event_id], rhs[event_id]) for event_id in sorted(lhs)]


def _claim(seen: set, key: object, event_id: str) -> None:
    """Add ``key`` to ``seen``; a key already there is a repeated forecast."""
    if key in seen:
        raise DuplicateId(event_id)
    seen.add(key)


def _by_event(records: Sequence[ForecastRecord]) -> dict[str, float]:
    seen: set[str] = set()
    for record in records:
        _claim(seen, record.event_id, record.event_id)
    return {record.event_id: record.probability for record in records}


def prediction_shift(
    just_answer: Sequence[ForecastRecord], with_rationale: Sequence[ForecastRecord]
) -> tuple[list[tuple[str, float, float, float]], float]:
    """Join two forecast sets on event id (:func:`join_by_event`); return rows
    ``(event_id, p_just, p_rationale, delta)`` sorted by event id, where
    ``delta = p_rationale - p_just``, and the mean delta."""
    rows = [
        (event_id, p_just, p_rationale, p_rationale - p_just)
        for event_id, p_just, p_rationale in join_by_event(just_answer, with_rationale)
    ]
    return rows, math.fsum(row[3] for row in rows) / len(rows)


def market_forecast_records(events: Iterable[Event], on: date) -> list[ForecastRecord]:
    """Build forecasts from market spread midpoints on a single date.

    An event without a snapshot dated ``on`` is an error, not a skip.
    """
    records = []
    for event in events:
        snapshot = next((s for s in event.market if s.date == on), None)
        if snapshot is None:
            raise MissingSnapshot(event.id, on)
        records.append(
            ForecastRecord(
                event_id=event.id,
                strategy="market",
                prediction_date=on,
                probability=market_point_prediction(snapshot),
            )
        )
    return records


# a forecast line may leave out these fields; an absent key means the default
_FORECAST_DEFAULTS = {f.name: f.default for f in fields(ForecastRecord) if f.default is not MISSING}
_FORECAST_REQUIRED = [f.name for f in fields(ForecastRecord) if f.name not in _FORECAST_DEFAULTS]


def _forecast_record(obj: dict) -> ForecastRecord:
    require_strings(obj, ("event_id", "strategy"))
    samples = obj.get("samples", [])
    if not isinstance(samples, list):
        raise ValueError("field 'samples' must be a list")
    if not isinstance(obj.get("trace_ref"), (str, type(None))):
        raise ValueError("field 'trace_ref' must be a string")
    return ForecastRecord(**{
        **obj,
        "prediction_date": parse_date(obj["prediction_date"], "prediction_date"),
        "probability": parse_number(obj["probability"], "probability"),
        "samples": tuple(parse_number(s, "each sample") for s in samples),
    })


def parse_forecasts(text: str) -> list[ForecastRecord]:
    """Parse a JSON-lines forecast file."""
    return read_json_lines(text, _forecast_record, _FORECAST_REQUIRED, _FORECAST_DEFAULTS)


def load_forecasts(path: str | Path) -> list[ForecastRecord]:
    return parse_forecasts(read_text(path))


def serialize_forecasts(records: Sequence[ForecastRecord]) -> str:
    """One JSON line per record, keyed by its fields; a field left at its
    default is left out."""
    lines = []
    for record in records:
        data = json_data(record)
        for name, default in _FORECAST_DEFAULTS.items():
            if getattr(record, name) == default:
                del data[name]
        lines.append(json.dumps(data, ensure_ascii=False))
    return "".join(line + "\n" for line in lines)


def save_forecasts(records: Sequence[ForecastRecord], path: str | Path) -> None:
    """Write the forecast file whole or not at all: an earlier file at
    ``path`` stays as it was when the write fails."""
    write_text_atomic(Path(path), serialize_forecasts(records))


def round4(value: float) -> float:
    """Round half-even to 4 decimal places (display convention)."""
    return float(Decimal(repr(value)).quantize(Decimal("0.0001"), rounding=ROUND_HALF_EVEN))


def _fmt(value: float | None) -> str:
    return "   n/a" if value is None else f"{round4(value):.4f}"


def render_report(report: ScoreReport, *, title: str | None = None) -> str:
    """Plain-text score table.  Lower is better for every Brier row."""
    lines = []
    if title:
        lines.append(title)
    lines.append(f"n = {report.n_total} (resolve yes {report.n_yes}, resolve no {report.n_no})")
    lines.append(f"Brier Score           {_fmt(report.brier)}")
    lines.append(f"Brier (resolve yes)   {_fmt(report.brier_yes)}")
    lines.append(f"Brier (resolve no)    {_fmt(report.brier_no)}")
    lines.append(f"Weighted Brier Score  {_fmt(report.weighted_brier)}")
    lines.append(f"Mean prediction       {_fmt(report.mean_prediction)}")
    if report.per_category:
        lines.append("Per category:")
        for cat in Category:
            if cat in report.per_category:
                count, value = report.per_category[cat]
                lines.append(f"  {cat.value:<10} n={count:<4} brier {_fmt(value)}")
    lines.append("Lower is better.")
    return "\n".join(lines) + "\n"


def report_to_dict(report: ScoreReport) -> dict:
    """Full-precision structured dump of a report."""
    data = json_data(report)
    data["per_category"] = {
        cat.value: {"count": count, "brier": value}
        for cat, (count, value) in sorted(report.per_category.items(), key=lambda kv: kv[0].value)
    }
    return data
