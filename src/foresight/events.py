"""Binary-event data model and dataset ingestion.

Events are yes/no questions with a lifecycle window (created .. expires) and an
optional resolution date.  A dataset file is UTF-8 JSON-lines, one event per
line, each optionally carrying prediction-market snapshots under a "market"
key.  Parsing is strict: one malformed line rejects the whole file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import date
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, Mapping

__all__ = [
    "Category",
    "Resolution",
    "Event",
    "MarketSnapshot",
    "DatasetSplit",
    "DatasetError",
    "MalformedRecord",
    "DuplicateId",
    "UnresolvedEvent",
    "parse_dataset",
    "load_dataset",
    "serialize_dataset",
    "active_events",
    "market_point_prediction",
    "outcome_indicator",
]


class Category(Enum):
    COVID19 = "covid19"
    FINANCE = "finance"
    TECH = "tech"
    MISC = "misc"


class Resolution(Enum):
    YES = "yes"
    NO = "no"
    UNRESOLVED = "unresolved"


class DatasetError(ValueError):
    """Base class for event-file schema violations."""


class MalformedRecord(DatasetError):
    """A line of the dataset file violates the record schema."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class DuplicateId(DatasetError):
    def __init__(self, event_id: str):
        super().__init__(f"duplicate event id {event_id!r}")
        self.event_id = event_id


class UnresolvedEvent(ValueError):
    """Raised when an operation needs an outcome the event does not have."""

    def __init__(self, event_id: str):
        super().__init__(f"event {event_id!r} has not resolved")
        self.event_id = event_id


@dataclass(frozen=True)
class Event:
    """One forecastable yes/no question.

    ``resolution`` and ``resolved_at`` travel together: an event is unresolved
    exactly when it has no resolution date.
    """

    id: str
    name: str
    condition: str
    description: str
    category: Category
    created: date
    expires: date
    resolved_at: date | None = None
    resolution: Resolution = Resolution.UNRESOLVED

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("event id must be nonempty")
        if self.created > self.expires:
            raise ValueError(
                f"event {self.id!r}: created {self.created} is after expires {self.expires}"
            )
        unresolved = self.resolution is Resolution.UNRESOLVED
        if unresolved != (self.resolved_at is None):
            raise ValueError(
                f"event {self.id!r}: resolution {self.resolution.value!r} is inconsistent "
                f"with resolved_at {self.resolved_at}"
            )
        if self.resolved_at is not None and not (self.created <= self.resolved_at <= self.expires):
            raise ValueError(
                f"event {self.id!r}: resolved_at {self.resolved_at} outside "
                f"[{self.created}, {self.expires}]"
            )

    @property
    def resolved(self) -> bool:
        return self.resolution is not Resolution.UNRESOLVED


@dataclass(frozen=True)
class MarketSnapshot:
    """A prediction-market spread for one event on one day."""

    event_id: str
    date: date
    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.lower <= self.upper <= 1.0):
            raise ValueError(
                f"snapshot for {self.event_id!r} on {self.date}: "
                f"need 0 <= lower <= upper <= 1, got [{self.lower}, {self.upper}]"
            )


@dataclass(frozen=True)
class DatasetSplit:
    """An ordered collection of events plus their market snapshots.

    ``label`` is free-form ("val", "test", or any custom name).  Every snapshot
    must reference an event in the split and fall inside that event's market
    window [created, resolved_at or expires].
    """

    label: str
    events: tuple[Event, ...]
    snapshots: tuple[MarketSnapshot, ...] = ()

    def __post_init__(self) -> None:
        by_id = {e.id: e for e in self.events}
        if len(by_id) != len(self.events):
            seen: set[str] = set()
            for e in self.events:
                if e.id in seen:
                    raise DuplicateId(e.id)
                seen.add(e.id)
        for s in self.snapshots:
            event = by_id.get(s.event_id)
            if event is None:
                raise ValueError(f"snapshot references unknown event {s.event_id!r}")
            last = event.resolved_at if event.resolved_at is not None else event.expires
            if not (event.created <= s.date <= last):
                raise ValueError(
                    f"snapshot for {s.event_id!r} dated {s.date} outside market window "
                    f"[{event.created}, {last}]"
                )

    @cached_property
    def _by_id(self) -> Mapping[str, Event]:
        return {e.id: e for e in self.events}

    def event_by_id(self, event_id: str) -> Event | None:
        return self._by_id.get(event_id)

    def snapshots_for(self, event_id: str) -> tuple[MarketSnapshot, ...]:
        return tuple(s for s in self.snapshots if s.event_id == event_id)

    def snapshot_on(self, event_id: str, on: date) -> MarketSnapshot | None:
        for s in self.snapshots:
            if s.event_id == event_id and s.date == on:
                return s
        return None


_EVENT_KEYS = (
    "id",
    "name",
    "condition",
    "description",
    "category",
    "created",
    "expires",
    "resolved_at",
    "resolution",
)
_SNAPSHOT_KEYS = ("date", "lower", "upper")
_CATEGORY_BY_VALUE = {c.value: c for c in Category}


def _parse_date(value: object, field: str) -> date:
    if not isinstance(value, str):
        raise ValueError(f"field {field!r} must be an ISO date string")
    try:
        return date.fromisoformat(value)
    except ValueError:
        raise ValueError(f"field {field!r} is not a valid ISO date: {value!r}") from None


def _parse_record(obj: object) -> tuple[Event, list[MarketSnapshot]]:
    if not isinstance(obj, dict):
        raise ValueError("record is not a JSON object")
    missing = [k for k in _EVENT_KEYS if k not in obj]
    if missing:
        raise ValueError(f"missing field {missing[0]!r}")
    extra = [k for k in obj if k not in _EVENT_KEYS and k != "market"]
    if extra:
        raise ValueError(f"unexpected field {extra[0]!r}")
    for key in ("id", "name", "condition", "description"):
        if not isinstance(obj[key], str):
            raise ValueError(f"field {key!r} must be a string")
    category = _CATEGORY_BY_VALUE.get(obj["category"])
    if category is None:
        raise ValueError(f"unknown category {obj['category']!r}")
    created = _parse_date(obj["created"], "created")
    expires = _parse_date(obj["expires"], "expires")
    resolved_raw = obj["resolved_at"]
    resolved_at = None if resolved_raw is None else _parse_date(resolved_raw, "resolved_at")
    resolution_raw = obj["resolution"]
    if resolution_raw is None:
        resolution = Resolution.UNRESOLVED
    elif resolution_raw in ("yes", "no"):
        resolution = Resolution(resolution_raw)
    else:
        raise ValueError(f"resolution must be \"yes\", \"no\", or null, got {resolution_raw!r}")
    event = Event(
        id=obj["id"],
        name=obj["name"],
        condition=obj["condition"],
        description=obj["description"],
        category=category,
        created=created,
        expires=expires,
        resolved_at=resolved_at,
        resolution=resolution,
    )

    snapshots: list[MarketSnapshot] = []
    market = obj.get("market")
    if market is not None:
        if not isinstance(market, list):
            raise ValueError("field 'market' must be a list")
        for i, entry in enumerate(market):
            if not isinstance(entry, dict) or sorted(entry) != sorted(_SNAPSHOT_KEYS):
                raise ValueError(f"market entry {i} must have exactly keys {_SNAPSHOT_KEYS}")
            for bound in ("lower", "upper"):
                if isinstance(entry[bound], bool) or not isinstance(entry[bound], (int, float)):
                    raise ValueError(f"market entry {i}: {bound!r} must be a number")
            snapshots.append(
                MarketSnapshot(
                    event_id=event.id,
                    date=_parse_date(entry["date"], "market.date"),
                    lower=float(entry["lower"]),
                    upper=float(entry["upper"]),
                )
            )
    return event, snapshots


def parse_dataset(source: str | IO[str], *, label: str = "custom") -> DatasetSplit:
    """Parse a JSON-lines event file into a :class:`DatasetSplit`.

    The whole file is rejected on the first malformed line (``MalformedRecord``
    carries the 1-based line number) or repeated event id (``DuplicateId``).
    """
    text = source if isinstance(source, str) else source.read()
    events: list[Event] = []
    snapshots: list[MarketSnapshot] = []
    seen: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedRecord(lineno, f"invalid JSON: {exc.msg}") from None
        try:
            event, event_snapshots = _parse_record(obj)
        except ValueError as exc:
            raise MalformedRecord(lineno, str(exc)) from None
        if event.id in seen:
            raise DuplicateId(event.id)
        seen.add(event.id)
        for s in event_snapshots:
            last = event.resolved_at if event.resolved_at is not None else event.expires
            if not (event.created <= s.date <= last):
                raise MalformedRecord(
                    lineno,
                    f"snapshot dated {s.date} outside market window [{event.created}, {last}]",
                )
        events.append(event)
        snapshots.extend(event_snapshots)
    return DatasetSplit(label=label, events=tuple(events), snapshots=tuple(snapshots))


def load_dataset(path: str | Path, *, label: str | None = None) -> DatasetSplit:
    path = Path(path)
    return parse_dataset(path.read_text(encoding="utf-8"), label=label or path.stem)


def _event_record(event: Event, snapshots: Iterable[MarketSnapshot]) -> dict:
    record: dict = {
        "id": event.id,
        "name": event.name,
        "condition": event.condition,
        "description": event.description,
        "category": event.category.value,
        "created": event.created.isoformat(),
        "expires": event.expires.isoformat(),
        "resolved_at": None if event.resolved_at is None else event.resolved_at.isoformat(),
        "resolution": None if not event.resolved else event.resolution.value,
    }
    market = [
        {"date": s.date.isoformat(), "lower": s.lower, "upper": s.upper} for s in snapshots
    ]
    if market:
        record["market"] = market
    return record


def serialize_dataset(split: DatasetSplit) -> str:
    """Render a split back to canonical JSON-lines (fixed key order, UTF-8).

    ``parse_dataset(serialize_dataset(s))`` reproduces ``s``; serializing again
    reproduces the same bytes.
    """
    lines = []
    for event in split.events:
        record = _event_record(event, split.snapshots_for(event.id))
        lines.append(json.dumps(record, ensure_ascii=False))
    return "".join(line + "\n" for line in lines)


def active_events(split: DatasetSplit, on: date) -> tuple[Event, ...]:
    """Events open for forecasting on ``on``: already created, not yet expired,
    and not yet resolved (an event resolving on ``on`` is no longer active).
    Order follows the split."""
    return tuple(
        e
        for e in split.events
        if e.created <= on and (e.resolved_at is None or e.resolved_at > on) and e.expires > on
    )


def market_point_prediction(snapshot: MarketSnapshot) -> float:
    """Collapse a market spread to its midpoint."""
    return (snapshot.lower + snapshot.upper) / 2.0


def outcome_indicator(event: Event) -> int:
    """1 for a Yes resolution, 0 for No; unresolved events have no outcome."""
    if event.resolution is Resolution.YES:
        return 1
    if event.resolution is Resolution.NO:
        return 0
    raise UnresolvedEvent(event.id)
