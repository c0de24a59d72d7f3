"""Tests for the event data model and dataset ingestion."""

import json
import random
import re
from datetime import date, timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foresight import events
from foresight.events import (
    Category,
    DatasetSplit,
    DuplicateId,
    Event,
    InputError,
    MalformedRecord,
    MarketSnapshot,
    Resolution,
    UnresolvedEvent,
    active_events,
    load_dataset,
    market_point_prediction,
    outcome_indicator,
    parse_dataset,
    parse_date,
    read_json_lines,
    serialize_dataset,
)

from foresight.metrics import (
    EmptyClass,
    EmptyInput,
    MismatchedEventSets,
    MissingSnapshot,
    UnknownEvent,
)
from foresight.strategies import InvalidParam, UnknownStrategy

FIXTURES = Path(__file__).parent / "fixtures"


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


def test_load_small_fixture():
    split = load_dataset(FIXTURES / "events_small.jsonl")
    assert [e.id for e in split.events] == ["e1", "e2", "e3"]
    e1 = split.event_by_id("e1")
    assert e1.category is Category.COVID19
    assert e1.resolution is Resolution.YES
    assert e1.resolved_at == date(2022, 11, 15)
    assert split.event_by_id("e3").resolution is Resolution.UNRESOLVED
    assert [(s.date, s.lower, s.upper) for s in e1.market] == [
        (date(2022, 7, 1), 0.3, 0.5),
        (date(2022, 8, 1), 0.55, 0.65),
    ]
    assert split.event_by_id("e3").market == ()


def test_event_validation_rejects_bad_lifecycles():
    with pytest.raises(ValueError):
        make_event(created=date(2023, 1, 1))  # created after expires
    with pytest.raises(ValueError):
        make_event(resolution=Resolution.YES)  # resolution without a date
    with pytest.raises(ValueError):
        make_event(resolved_at=date(2022, 7, 1))  # date without a resolution
    with pytest.raises(ValueError):
        make_event(resolved_at=date(2023, 2, 1), resolution=Resolution.NO)  # after expires
    with pytest.raises(ValueError):
        make_event(id="")


def test_snapshot_bounds_checked():
    MarketSnapshot(date(2022, 7, 1), 0.0, 1.0)
    with pytest.raises(ValueError):
        MarketSnapshot(date(2022, 7, 1), 0.6, 0.4)
    with pytest.raises(ValueError):
        MarketSnapshot(date(2022, 7, 1), -0.1, 0.5)
    with pytest.raises(ValueError):
        MarketSnapshot(date(2022, 7, 1), 0.5, 1.2)


def test_event_rejects_out_of_window_and_repeated_snapshots():
    make_event(market=(MarketSnapshot(date(2022, 6, 1), 0.1, 0.2),))
    make_event(market=(MarketSnapshot(date(2022, 12, 31), 0.1, 0.2),))
    with pytest.raises(ValueError, match="outside market window"):
        make_event(market=(MarketSnapshot(date(2022, 5, 1), 0.1, 0.2),))
    # window closes at resolution, not expiry
    with pytest.raises(ValueError, match="outside market window"):
        make_event(
            resolved_at=date(2022, 9, 1),
            resolution=Resolution.NO,
            market=(MarketSnapshot(date(2022, 10, 1), 0.1, 0.2),),
        )
    twice = (
        MarketSnapshot(date(2022, 8, 1), 0.1, 0.2),
        MarketSnapshot(date(2022, 8, 1), 0.5, 0.6),
    )
    with pytest.raises(ValueError, match="two snapshots dated 2022-08-01"):
        make_event(market=twice)


def test_split_rejects_duplicate_ids():
    with pytest.raises(DuplicateId):
        DatasetSplit((make_event(), make_event()))


def test_parse_rejects_malformed_lines_with_line_numbers():
    good = serialize_dataset(DatasetSplit((make_event(),))).strip()
    snapshot = '{"date": "2022-08-01", "lower": 0.1, "upper": 0.2}'
    resolved = good.replace(
        '"resolved_at": null, "resolution": null', '"resolved_at": "2022-09-01", "resolution": "no"'
    )
    cases = [
        "not json",
        "[1, 2]",
        json.dumps({"id": "x"}),
        good.replace('"misc"', '"politics"'),
        good.replace('"resolution": null', '"resolution": "maybe"'),
        good.replace('"2022-06-01"', '"June first"'),
        good.replace('"2022-06-01"', '"20220601"'),
        good.replace('"2022-12-31"', '"2022-W52-6"'),
        good[:-1] + ', "market": [' + snapshot.replace("2022-08-01", "20220801") + "]}",
        good[:-1] + ', "market": [' + snapshot + ", " + snapshot + "]}",
        good[:-1] + ', "market": 0}',
        # outside the event's window: before it opens, after it resolves
        good[:-1] + ', "market": [' + snapshot.replace("2022-08-01", "2022-05-31") + "]}",
        resolved[:-1] + ', "market": [' + snapshot.replace("2022-08-01", "2022-09-02") + "]}",
    ]
    for bad in cases:
        with pytest.raises(MalformedRecord) as info:
            parse_dataset(good + "\n" + bad + "\n")
        assert info.value.line == 2

    with pytest.raises(DuplicateId):
        parse_dataset(good + "\n" + good + "\n")


def test_null_market_is_no_market():
    good = serialize_dataset(DatasetSplit((make_event(),))).strip()
    split = parse_dataset(good[:-1] + ', "market": null}')
    assert split.events[0].market == ()
    assert split == parse_dataset(good)


def test_parse_rejects_unknown_fields():
    record = json.loads(serialize_dataset(DatasetSplit((make_event(),))))
    record["surprise"] = 1
    with pytest.raises(MalformedRecord):
        parse_dataset(json.dumps(record))


def test_blank_lines_are_skipped():
    text = serialize_dataset(DatasetSplit((make_event(),)))
    split = parse_dataset("\n" + text + "\n\n")
    assert len(split.events) == 1


def test_serialize_round_trip_is_stable():
    split = load_dataset(FIXTURES / "events_small.jsonl")
    text = serialize_dataset(split)
    again = parse_dataset(text)
    assert again == split
    assert serialize_dataset(again) == text


# Any text but lone surrogates, which UTF-8 cannot encode.
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)


@st.composite
def datasets(draw):
    events = []
    for i in range(draw(st.integers(1, 6))):
        created = date(2022, 1, 1) + timedelta(days=draw(st.integers(0, 90)))
        expires = created + timedelta(days=draw(st.integers(30, 400)))
        resolved_at = None
        resolution = Resolution.UNRESOLVED
        if draw(st.booleans()):
            resolved_at = created + timedelta(days=draw(st.integers(0, (expires - created).days)))
            resolution = draw(st.sampled_from([Resolution.YES, Resolution.NO]))
        last = resolved_at if resolved_at is not None else expires
        days = draw(st.lists(st.integers(0, (last - created).days), unique=True, max_size=4))
        market = []
        for day in days:
            lower = draw(st.floats(0.0, 1.0))
            upper = draw(st.floats(lower, 1.0))
            market.append(MarketSnapshot(created + timedelta(days=day), lower, upper))
        event = Event(
            id=f"{i}{draw(_TEXT)}",
            name=draw(_TEXT),
            condition=draw(_TEXT),
            description=draw(_TEXT),
            category=draw(st.sampled_from(list(Category))),
            created=created,
            expires=expires,
            resolved_at=resolved_at,
            resolution=resolution,
            market=tuple(market),
        )
        events.append(event)
    return DatasetSplit(tuple(events))


@settings(max_examples=150, deadline=None)
@given(datasets())
def test_round_trip_random_datasets(split):
    text = serialize_dataset(split)
    again = parse_dataset(text)
    assert again == split  # snapshot order included
    assert serialize_dataset(again) == text


class _Entry(dict):
    """A market entry the parser's one-pass build does not take (not exactly a
    dict), so it goes through parse_date, parse_number and the constructor."""


def _checked_parse(text):
    """``parse_dataset`` with every snapshot built through the constructor."""

    def build(obj):
        if isinstance(obj.get("market"), list):
            obj = {**obj, "market": [_Entry(e) if type(e) is dict else e for e in obj["market"]]}
        return events._parse_record(obj)

    return DatasetSplit(tuple(read_json_lines(text, build, events._EVENT_KEYS, ("market",))))


def _outcome(parse, text):
    try:
        split = parse(text)
    except MalformedRecord as exc:
        return ("error", exc.line, str(exc))
    return ("ok", split, serialize_dataset(split))


# Entries inside the event's window [2022-06-01, 2022-12-31], and the same
# entries with one part changed: a date, a bound, a key, or not a dict at all.
_VALID_ENTRIES = st.builds(
    lambda day, bounds: {"date": day.isoformat(), "lower": min(bounds), "upper": max(bounds)},
    st.dates(date(2022, 6, 1), date(2022, 12, 31)),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
_DATES = st.one_of(
    st.dates(date(2022, 5, 30), date(2023, 1, 2)).map(date.isoformat),
    st.sampled_from(["2022-8-1", "20220801", "2022-W31-1", "2022-02-30", "", 20220801, None, []]),
)
_BOUNDS = st.one_of(
    st.sampled_from([0, 1, True, False, -0.0, 0.0, 1.0, 2, -1, "0.5", None]),
    st.floats(-0.5, 1.5),
    st.floats(allow_nan=True, allow_infinity=True),
)
_ENTRIES = st.one_of(
    _VALID_ENTRIES,
    st.builds(lambda e, day: {**e, "date": day}, _VALID_ENTRIES, _DATES),
    st.builds(lambda e, lower: {**e, "lower": lower}, _VALID_ENTRIES, _BOUNDS),
    st.builds(lambda e, upper: {**e, "upper": upper}, _VALID_ENTRIES, _BOUNDS),
    st.builds(lambda e, key: {**e, key: 0.5}, _VALID_ENTRIES, st.sampled_from(["volume", "Date"])),
    st.builds(lambda e, key: {k: v for k, v in e.items() if k != key}, _VALID_ENTRIES,
              st.sampled_from(["date", "lower", "upper"])),
    st.sampled_from([None, 1, 0.5, "2022-08-01", ["2022-08-01", 0.1, 0.2]]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ENTRIES, max_size=3))
def test_one_pass_snapshots_match_the_constructor_path(market):
    good = serialize_dataset(DatasetSplit((make_event(),)))
    record = json.loads(good)
    record.update(id="e2", market=market)
    text = good + json.dumps(record) + "\n"  # the generated market sits on line 2
    fast = _outcome(parse_dataset, text)
    assert fast == _outcome(_checked_parse, text)
    if fast[0] == "ok":
        assert all(not hasattr(s, "__dict__") for e in fast[1].events for s in e.market)


def test_integer_bounds_serialize_as_floats():
    record = json.loads(serialize_dataset(DatasetSplit((make_event(),))))
    record["market"] = [
        {"date": "2022-08-01", "lower": 0, "upper": 1},
        {"date": "2022-08-02", "lower": 0, "upper": 0.5},
        {"date": "2022-08-03", "lower": 0.5, "upper": 1},
    ]
    (event,) = parse_dataset(json.dumps(record)).events
    assert not any(hasattr(s, "__dict__") for s in event.market)
    assert [(type(s.lower), type(s.upper)) for s in event.market] == [(float, float)] * 3
    assert '"market": [{"date": "2022-08-01", "lower": 0.0, "upper": 1.0}, ' in serialize_dataset(
        DatasetSplit((event,))
    )


def test_round_trip_keeps_unicode_line_separators():
    # json.dumps leaves U+2028, U+2029 and U+0085 unescaped; a reader that
    # split on them as line breaks would cut the record in two.
    split = DatasetSplit((make_event(name="a\u2028b\u2029c\x85d"),))
    assert parse_dataset(serialize_dataset(split)) == split


@pytest.mark.parametrize("text", ["2022-08-01", "2024-02-29"])
def test_parse_date_accepts_calendar_dates(text):
    assert parse_date(text) == date.fromisoformat(text)


@pytest.mark.parametrize(
    "value",
    ["20220801", "2022-W31-1", "2022-213", "2022-8-1", " 2022-08-01", "2022-08-01T00:00",
     "2023-02-29", "\uff12\uff10\uff12\uff12-08-01", "", None, 20220801],
)
def test_parse_date_rejects_everything_else(value):
    with pytest.raises(ValueError, match="YYYY-MM-DD"):
        parse_date(value, "created")


@pytest.mark.parametrize("value", ["2022-13-01", "2022-02-30", "20220801", ["2022-08-01"], None])
def test_parse_date_rejects_each_repeat_with_its_field(value):
    # invalid results are memoised too, and an unhashable value never reaches the cache
    for name in ("created", "created", "market.date"):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be a YYYY-MM-DD date, got "):
            parse_date(value, name)


@pytest.mark.parametrize(
    "error",
    [DuplicateId, MalformedRecord, UnresolvedEvent, EmptyClass, EmptyInput, MismatchedEventSets,
     MissingSnapshot, UnknownEvent, InvalidParam, UnknownStrategy],
)
def test_input_errors_share_one_base_and_stay_value_errors(error):
    assert issubclass(error, InputError) and issubclass(error, ValueError)


def test_parse_date_raises_an_input_error():
    with pytest.raises(InputError, match="^--date must be a YYYY-MM-DD date, got 'yesterday'$"):
        parse_date("yesterday", "--date")


def test_parse_date_repeats_give_equal_dates():
    assert parse_date("2022-08-01", "created") == parse_date("2022-08-01", "expires") == date(2022, 8, 1)


def test_active_window_boundaries():
    split = load_dataset(FIXTURES / "events_small.jsonl")
    # e1: created 2022-06-01, resolved 2022-11-15, expires 2022-12-31
    assert "e1" in {e.id for e in active_events(split, date(2022, 6, 1))}
    assert "e1" not in {e.id for e in active_events(split, date(2022, 5, 31))}
    assert "e1" in {e.id for e in active_events(split, date(2022, 11, 14))}
    # resolving on the query date closes the event
    assert "e1" not in {e.id for e in active_events(split, date(2022, 11, 15))}
    # e3 expires 2024-01-01 and never resolves
    assert "e3" in {e.id for e in active_events(split, date(2023, 12, 31))}
    assert "e3" not in {e.id for e in active_events(split, date(2024, 1, 1))}


def test_active_events_preserve_split_order():
    split = load_dataset(FIXTURES / "events_val.jsonl")
    ids = [e.id for e in active_events(split, date(2022, 8, 1))]
    assert ids == [f"evt-{i:02d}" for i in range(1, 11)]


def test_active_random_agrees_with_direct_predicate():
    rng = random.Random(11)
    split = load_dataset(FIXTURES / "events_small.jsonl")
    start = date(2022, 1, 1)
    for _ in range(200):
        on = start + timedelta(days=rng.randrange(0, 700))
        expected = {
            e.id
            for e in split.events
            if e.created <= on
            and (e.resolved_at is None or e.resolved_at > on)
            and e.expires > on
        }
        assert {e.id for e in active_events(split, on)} == expected


def test_market_point_prediction_is_midpoint():
    snap = MarketSnapshot(date(2022, 8, 1), 0.55, 0.65)
    assert market_point_prediction(snap) == pytest.approx(0.6)
    rng = random.Random(2)
    for _ in range(100):
        lo = rng.random()
        hi = lo + rng.random() * (1 - lo)
        got = market_point_prediction(MarketSnapshot(date(2022, 1, 1), lo, hi))
        assert got == (lo + hi) / 2.0


def test_outcome_indicator():
    yes = make_event(resolved_at=date(2022, 9, 1), resolution=Resolution.YES)
    no = make_event(resolved_at=date(2022, 9, 1), resolution=Resolution.NO)
    assert outcome_indicator(yes) == 1
    assert outcome_indicator(no) == 0
    with pytest.raises(UnresolvedEvent):
        outcome_indicator(make_event())


def test_parse_keeps_market_file_order():
    record = json.loads(serialize_dataset(DatasetSplit((make_event(),))))
    record["market"] = [
        {"date": "2022-09-01", "lower": 0.1, "upper": 0.2},
        {"date": "2022-07-01", "lower": 0.5, "upper": 0.6},
    ]
    text = json.dumps(record) + "\n"
    (event,) = parse_dataset(text).events
    assert [s.date for s in event.market] == [date(2022, 9, 1), date(2022, 7, 1)]
    assert serialize_dataset(parse_dataset(text)) == text
