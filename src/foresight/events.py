"""Binary-event data model and dataset ingestion.

Events are yes/no questions with a lifecycle window (created .. expires) and an
optional resolution date.  A dataset file is UTF-8 JSON-lines, one event per
line, each optionally carrying prediction-market snapshots under a "market"
key.  Parsing is strict: one malformed line rejects the whole file.
"""

from __future__ import annotations

import json
import os
import re
import threading
from dataclasses import dataclass, fields, is_dataclass
from datetime import date
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Callable, Collection, Iterable, TypeVar

__all__ = [
    "Category",
    "Resolution",
    "Event",
    "MarketSnapshot",
    "DatasetSplit",
    "InputError",
    "DatasetError",
    "MalformedRecord",
    "DuplicateId",
    "UnresolvedEvent",
    "json_data",
    "parse_date",
    "parse_number",
    "read_json_lines",
    "read_text",
    "write_file",
    "write_text_atomic",
    "require_strings",
    "parse_dataset",
    "load_dataset",
    "serialize_dataset",
    "active_events",
    "market_point_prediction",
    "outcome_indicator",
]

_T = TypeVar("_T")


class Category(Enum):
    COVID19 = "covid19"
    FINANCE = "finance"
    TECH = "tech"
    MISC = "misc"


class Resolution(Enum):
    YES = "yes"
    NO = "no"
    UNRESOLVED = "unresolved"


class InputError(ValueError):
    """Input the caller got wrong; raised out of a command, it makes the
    command exit 2."""


class DatasetError(InputError):
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


class UnresolvedEvent(InputError):
    """Raised when an operation needs an outcome the event does not have."""

    def __init__(self, event_id: str):
        super().__init__(f"event {event_id!r} has not resolved")
        self.event_id = event_id


@dataclass(frozen=True, slots=True)
class MarketSnapshot:
    """A prediction-market spread on one day; its event is the one holding it."""

    date: date
    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.lower <= self.upper <= 1.0):
            raise ValueError(
                f"snapshot on {self.date}: need 0 <= lower <= upper <= 1, "
                f"got [{self.lower}, {self.upper}]"
            )


@dataclass(frozen=True)
class Event:
    """One forecastable yes/no question.

    ``resolution`` and ``resolved_at`` travel together: an event is unresolved
    exactly when it has no resolution date.  ``market`` holds at most one
    snapshot per date, each inside the window [created, resolved_at or expires].
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
    market: tuple[MarketSnapshot, ...] = ()

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
        last = self.expires if unresolved else self.resolved_at
        dates: set[date] = set()
        for s in self.market:
            if not (self.created <= s.date <= last):
                raise ValueError(
                    f"event {self.id!r}: snapshot dated {s.date} outside market window "
                    f"[{self.created}, {last}]"
                )
            if s.date in dates:
                raise ValueError(f"event {self.id!r} has two snapshots dated {s.date}")
            dates.add(s.date)

    @property
    def resolved(self) -> bool:
        return self.resolution is not Resolution.UNRESOLVED


@dataclass(frozen=True)
class DatasetSplit:
    """An ordered collection of events with unique ids."""

    events: tuple[Event, ...]

    def __post_init__(self) -> None:
        by_id: dict[str, Event] = {}
        for e in self.events:
            if e.id in by_id:
                raise DuplicateId(e.id)
            by_id[e.id] = e
        object.__setattr__(self, "_by_id", by_id)

    def event_by_id(self, event_id: str) -> Event | None:
        return self._by_id.get(event_id)


_EVENT_KEYS = tuple(f.name for f in fields(Event) if f.name != "market")
_SNAPSHOT_KEYS = {f.name for f in fields(MarketSnapshot)}
_set_date, _set_lower, _set_upper = (getattr(MarketSnapshot, n).__set__ for n in MarketSnapshot.__slots__)
_CATEGORY_BY_VALUE = {c.value: c for c in Category}


_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


@lru_cache(maxsize=4096)
def _iso_date(text: str) -> date | None:
    # From Python 3.11 the standard ISO parser also takes other ISO 8601 forms
    # (``20220801``, ``2022-W31-1``), so the shape is checked first.
    if _ISO_DATE.fullmatch(text):
        try:
            return date.fromisoformat(text)
        except ValueError:
            pass
    return None


def parse_date(value: object, name: str = "date") -> date:
    """A calendar date written exactly ``YYYY-MM-DD``."""
    # the type test stays outside the cache: an unhashable value is a ValueError too
    parsed = _iso_date(value) if isinstance(value, str) else None
    if parsed is None:
        raise InputError(f"{name} must be a YYYY-MM-DD date, got {value!r}")
    return parsed


def parse_number(value: object, name: str) -> float:
    """A JSON number as a float; ``true`` and ``false`` are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number")
    return float(value)


def require_strings(obj: dict, keys: Iterable[str]) -> None:
    """Raise ``ValueError`` unless each of ``obj``'s ``keys`` holds a string UTF-8 can encode."""
    for key in keys:
        if not isinstance(obj[key], str):
            raise ValueError(f"field {key!r} must be a string")
        obj[key].encode("utf-8")  # a lone surrogate raises UnicodeEncodeError, a ValueError


def read_text(path: str | Path) -> str:
    """The UTF-8 text of an input file; bytes that do not decode raise
    :class:`DatasetError` naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def write_file(path: str | Path, data: bytes) -> None:
    """Create or truncate ``path`` and write ``data``, making its directory on
    the first write into it.  Every output file reaches disk here, whole or
    not at all: a write, close or interrupt that fails removes the file."""
    try:
        handle = open(path, "wb")
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        handle = open(path, "wb")
    try:
        with handle:
            handle.write(data)
    except BaseException:
        os.unlink(path)
        raise


def write_text_atomic(path: str | Path, text: str) -> None:
    """Replace ``path`` with the UTF-8 ``text``: :func:`write_file` on a temp
    file in the same directory, then a rename.  A reader finds the old file or
    the new one, and a failed write leaves the old file and no temp file."""
    # unique among the writers running at once, and short whatever the target's name
    tmp = os.path.join(os.path.dirname(path), f".{os.getpid()}-{threading.get_ident()}.tmp")
    write_file(tmp, text.encode("utf-8"))
    try:
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_json_lines(
    text: str,
    build: Callable[[dict], _T],
    required: Collection[str],
    optional: Collection[str] = (),
) -> list[_T]:
    """Parse strict JSON lines: one object per nonblank line, built by ``build``.

    Invalid JSON, a non-object, a missing ``required`` field, a field that is
    neither required nor ``optional``, and a ``ValueError`` or ``TypeError``
    from ``build`` all raise :class:`MalformedRecord` with the 1-based line.
    """
    records: list[_T] = []
    # Only "\n" ends a record: JSON strings may hold U+2028 and other
    # characters that str.splitlines would also break on.
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedRecord(lineno, f"invalid JSON: {exc.msg}") from None
        if not isinstance(obj, dict):
            raise MalformedRecord(lineno, "record is not a JSON object")
        missing = [k for k in required if k not in obj]
        if missing:
            raise MalformedRecord(lineno, f"missing field {missing[0]!r}")
        extra = [k for k in obj if k not in required and k not in optional]
        if extra:
            raise MalformedRecord(lineno, f"unexpected field {extra[0]!r}")
        try:
            records.append(build(obj))
        except (TypeError, ValueError) as exc:
            raise MalformedRecord(lineno, str(exc)) from None
    return records


def _parse_record(obj: dict) -> Event:
    require_strings(obj, ("id", "name", "condition", "description"))
    category = _CATEGORY_BY_VALUE.get(obj["category"])
    if category is None:
        raise ValueError(f"unknown category {obj['category']!r}")
    dates = {key: parse_date(obj[key], key) for key in ("created", "expires")}
    if obj["resolved_at"] is not None:
        dates["resolved_at"] = parse_date(obj["resolved_at"], "resolved_at")
    resolution = obj["resolution"]
    if resolution not in (None, "yes", "no"):
        raise ValueError(f"resolution must be \"yes\", \"no\", or null, got {resolution!r}")
    market = obj.get("market")
    if not isinstance(market, (list, type(None))):
        raise ValueError("field 'market' must be a list")
    snapshots = []
    for i, entry in enumerate(market or ()):
        # The common entry is checked and built in one pass, without __init__: three keys
        # found holding the types it needs are exactly date, lower and upper.  Any other
        # entry goes through the checks below, which word its error.
        if (type(entry) is dict and len(entry) == 3
                and type(lower := entry.get("lower")) is float
                and type(upper := entry.get("upper")) is float
                and 0.0 <= lower <= upper <= 1.0
                and type(day := entry.get("date")) is str and (day := _iso_date(day)) is not None):
            snapshot = object.__new__(MarketSnapshot)
            _set_date(snapshot, day)
            _set_lower(snapshot, lower)
            _set_upper(snapshot, upper)
            snapshots.append(snapshot)
            continue
        if not isinstance(entry, dict) or entry.keys() != _SNAPSHOT_KEYS:
            raise ValueError(f"market entry {i} must have exactly keys date, lower, upper")
        try:
            snapshots.append(MarketSnapshot(
                date=parse_date(entry["date"], "market.date"),
                lower=parse_number(entry["lower"], "'lower'"),
                upper=parse_number(entry["upper"], "'upper'"),
            ))
        except ValueError as exc:
            raise ValueError(f"market entry {i}: {exc}") from None
    return Event(**{
        **obj,
        **dates,
        "category": category,
        "resolution": Resolution(resolution) if resolution else Resolution.UNRESOLVED,
        "market": tuple(snapshots),
    })


def parse_dataset(text: str) -> DatasetSplit:
    """Parse a JSON-lines event file into a :class:`DatasetSplit`.

    The whole file is rejected on the first malformed line (``MalformedRecord``
    carries the 1-based line number) or repeated event id (``DuplicateId``).
    """
    return DatasetSplit(tuple(read_json_lines(text, _parse_record, _EVENT_KEYS, ("market",))))


def load_dataset(path: str | Path) -> DatasetSplit:
    return parse_dataset(read_text(path))


def json_data(value: object) -> object:
    """``value`` as ``json.dumps`` input: a dataclass record as the dict of its
    fields, a tuple as a list, a date as ISO text and an enum as its value, at
    every depth."""
    # the common leaves first: is_dataclass is the slowest test
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, tuple):
        return [json_data(item) for item in value]
    if is_dataclass(value):
        names = getattr(value, "__slots__", None) or vars(value)
        return {name: json_data(getattr(value, name)) for name in names}
    if isinstance(value, date):
        return value.isoformat()
    if isinstance(value, Enum):
        return value.value
    return value


def serialize_dataset(split: DatasetSplit) -> str:
    """Render a split back to canonical JSON-lines (fixed key order, UTF-8).

    ``parse_dataset(serialize_dataset(s))`` reproduces ``s``; serializing again
    reproduces the same bytes.
    """
    lines = []
    for event in split.events:
        record = json_data(event)
        if not event.resolved:
            record["resolution"] = None
        if not event.market:
            del record["market"]
        lines.append(json.dumps(record, ensure_ascii=False) + "\n")
    return "".join(lines)


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
