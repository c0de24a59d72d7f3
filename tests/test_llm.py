"""Tests for completion backends, the content store and its two cache
wrappers, and rate limiting."""

import base64
import contextvars
import errno
import json
import os
import random
import sys
import threading
import time
from collections.abc import MutableMapping
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foresight import cli, llm
from foresight.events import MalformedRecord
from foresight.llm import (
    FINAL_SAMPLE_COUNT,
    BackendError,
    BackendUnavailable,
    CacheCorrupt,
    CachedBackend,
    CompletionRequest,
    CompletionResponse,
    ContentStore,
    HttpBackend,
    HttpSession,
    MockBackend,
    MockRule,
    NoRuleMatched,
    NullBackend,
    ProviderError,
    RateLimited,
    ReplayMiss,
    TokenBucket,
    TransportError,
    _canonical_json,
    collecting_entries,
    complete,
    fan_out,
    key_digest,
)
from foresight.news import CachedNewsClient, Headline, QueryWindow, Source
from counting import Counting
from stubserver import StubProvider


def test_request_validation():
    CompletionRequest("p")
    with pytest.raises(ValueError):
        CompletionRequest("p", n_samples=0)
    with pytest.raises(ValueError):
        CompletionRequest("p", temperature=-0.1)
    with pytest.raises(ValueError):
        CompletionRequest("p", max_tokens=0)


def test_mock_rule_kinds():
    sub = MockRule("substring", "needle", "hit")
    assert sub.matches("hay needle stack")
    assert not sub.matches("haystack")
    rex = MockRule("regex", r"\d{4}", "year")
    assert rex.matches("in 2022 maybe")
    assert not rex.matches("no digits")
    anything = MockRule("any", None, "default")
    assert anything.matches("")
    with pytest.raises(ValueError):
        MockRule("glob", "x", "r")
    with pytest.raises(ValueError):
        MockRule("substring", None, "r")
    with pytest.raises(ValueError):
        MockRule("any", "x", "r")
    with pytest.raises(ValueError):
        MockRule("any", None, ())


def test_mock_rule_sample_cycling():
    rule = MockRule("any", None, ("a", "b", "c"))
    assert rule.sample_texts(5) == ("a", "b", "c", "a", "b")
    flat = MockRule("any", None, "same")
    assert flat.sample_texts(3) == ("same", "same", "same")


def test_mock_backend_first_match_wins():
    backend = Counting(MockBackend(
        [
            MockRule("substring", "alpha", "first"),
            MockRule("substring", "alpha beta", "never reached"),
            MockRule("any", None, "fallback"),
        ]
    ))
    assert complete(backend, CompletionRequest("alpha beta")).texts == ("first",)
    assert complete(backend, CompletionRequest("gamma")).texts == ("fallback",)
    assert backend.calls == 2


def test_mock_backend_no_match_raises():
    backend = MockBackend([MockRule("substring", "x", "r")])
    with pytest.raises(NoRuleMatched):
        backend.complete(CompletionRequest("y"))


def test_mock_backend_from_file(tmp_path):
    script = tmp_path / "rules.jsonl"
    script.write_text(
        "# comment line\n"
        "\n"
        '{"pattern": "hello", "response": "hi"}\n'
        '{"match": "regex", "pattern": "\\\\bend\\\\b", "response": ["a", "b"]}\n'
        '{"response": "default"}\n',
        encoding="utf-8",
    )
    backend = MockBackend.from_file(script)
    assert [r.match for r in backend.rules] == ["substring", "regex", "any"]
    assert complete(backend, CompletionRequest("the end here", n_samples=3)).texts == (
        "a",
        "b",
        "a",
    )

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"response": "ok"}\n# comment\nnot json\n', encoding="utf-8")
    with pytest.raises(ValueError) as info:
        MockBackend.from_file(bad)
    assert "line 3" in str(info.value)


def test_mock_backend_from_file_keeps_unicode_line_separators(tmp_path):
    script = tmp_path / "rules.jsonl"
    script.write_text('{"pattern": "a\u2028b", "response": "x\u2029y"}\n', encoding="utf-8")
    (rule,) = MockBackend.from_file(script).rules
    assert (rule.pattern, rule.response) == ("a\u2028b", "x\u2029y")


@pytest.mark.parametrize(
    "line, reason",
    [
        ('{"match": "any"}', "missing field 'response'"),
        ('{"response": "r", "weight": 2}', "unexpected field 'weight'"),
        ('{"response": 5}', "response must be a string or a list of strings"),
        ('{"pattern": 5, "response": "r"}', "pattern must be a string"),
    ],
)
def test_mock_backend_from_file_rejects_bad_rules(tmp_path, line, reason):
    script = tmp_path / "rules.jsonl"
    script.write_text(f'# comment\n{line}\n', encoding="utf-8")
    with pytest.raises(MalformedRecord) as info:
        MockBackend.from_file(script)
    assert str(info.value) == f"line 2: {reason}"


def test_complete_enforces_sample_count():
    class Shorting:
        backend_id = "short"

        def complete(self, request):
            return CompletionResponse(texts=("only one",), backend_id=self.backend_id)

    with pytest.raises(BackendError):
        complete(Shorting(), CompletionRequest("p", n_samples=3))


def entry_files(root):
    return sorted(Path(root).glob("*/*.json"))


def test_canonical_request_is_stable_and_sensitive(tmp_path):
    def record(backend_id, request):
        inner = MockBackend([MockRule("any", None, "r")], backend_id=backend_id)
        CachedBackend(tmp_path, inner).complete(request)

    req = CompletionRequest("p", temperature=0.5, n_samples=2, max_tokens=64, stop=("X",))
    record("b", req)
    # pinned: recorded caches stay readable only while the key is unchanged
    pinned = "cad1b9354dae23dfda0fb1f50e6308c86ff6e80e6704c340b1259dd531e02dd2"
    assert entry_files(tmp_path) == [tmp_path / pinned[:2] / f"{pinned}.json"]
    assert pinned == key_digest({
        "backend_id": "b",
        "max_tokens": 64,
        "n_samples": 2,
        "prompt": "p",
        "stop": ["X"],
        "temperature": 0.5,
    })
    record("c", req)
    for variant in (
        CompletionRequest("q", temperature=0.5, n_samples=2, max_tokens=64, stop=("X",)),
        CompletionRequest("p", temperature=0.6, n_samples=2, max_tokens=64, stop=("X",)),
        CompletionRequest("p", temperature=0.5, n_samples=3, max_tokens=64, stop=("X",)),
        CompletionRequest("p", temperature=0.5, n_samples=2, max_tokens=65, stop=("X",)),
        CompletionRequest("p", temperature=0.5, n_samples=2, max_tokens=64),
    ):
        record("b", variant)
    assert len(entry_files(tmp_path)) == 7


# Any JSON value a cache key could hold, lone surrogates (Cs) and NaN included.
_KEY_TEXT = st.text(st.characters(categories=["Cs", "Cc", "L", "N", "P", "S", "Z"]))
_KEY_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _KEY_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEY_TEXT, inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(_KEY_VALUES)
def test_canonical_json_is_json_dumps(key):
    assert _canonical_json(key) == json.dumps(key, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def test_cached_backend_records_then_replays(tmp_path):
    inner = Counting(MockBackend([MockRule("any", None, ("r1", "r2"))]))
    cache = CachedBackend(tmp_path, inner)
    req = CompletionRequest("prompt", n_samples=2)

    first = cache.complete(req)
    assert first.texts == ("r1", "r2")
    assert not first.cached
    assert (cache.store.hits, cache.store.misses) == (0, 1)

    second = cache.complete(req)
    assert second.texts == ("r1", "r2")
    assert second.cached
    assert (cache.store.hits, cache.store.misses) == (1, 1)
    assert inner.calls == 1

    (stored,) = entry_files(tmp_path)
    record = json.loads(stored.read_text(encoding="utf-8"))
    assert stored == tmp_path / record["digest"][:2] / f"{record['digest']}.json"
    # the entry carries the key it was hashed from, then only the response
    assert set(record) == {"digest", "key", "response", "timestamp"}
    assert key_digest(record["key"]) == record["digest"]
    assert record["key"]["prompt"] == "prompt"
    assert record["response"] == {"texts": ["r1", "r2"], "backend_id": "mock"}


def test_cached_backend_replay_only(tmp_path):
    inner = MockBackend([MockRule("any", None, "r")])
    CachedBackend(tmp_path, inner).complete(CompletionRequest("known"))

    null = Counting(NullBackend("mock"))
    replay = CachedBackend(tmp_path, null, replay_only=True)
    assert replay.complete(CompletionRequest("known")).texts == ("r",)
    with pytest.raises(ReplayMiss):
        replay.complete(CompletionRequest("unknown"))
    assert null.calls == 0


def test_cached_backend_waits_on_network_unless_replaying(tmp_path):
    live = HttpBackend("m", base_url="http://127.0.0.1:9/v1")
    assert CachedBackend(tmp_path, live).waits_on_network is True
    # a replay-only cache reads files only, so its chains need no pool
    assert CachedBackend(tmp_path, live, replay_only=True).waits_on_network is False


def test_cached_backend_corrupt_entry(tmp_path):
    inner = MockBackend([MockRule("any", None, "r")])
    cache = CachedBackend(tmp_path, inner)
    req = CompletionRequest("p")
    cache.complete(req)
    (entry,) = entry_files(tmp_path)
    entry.write_text("{broken", encoding="utf-8")
    with pytest.raises(CacheCorrupt):
        cache.complete(req)
    entry.write_text('{"response": {"texts": ["r"]}}', encoding="utf-8")  # no backend_id
    with pytest.raises(CacheCorrupt):
        cache.complete(req)


def test_cached_backend_rejects_mistyped_texts(tmp_path):
    cache = CachedBackend(tmp_path, MockBackend([MockRule("any", None, ("a", "b"))]))
    req = CompletionRequest("p", n_samples=2)
    cache.complete(req)
    (entry,) = entry_files(tmp_path)
    record = json.loads(entry.read_text(encoding="utf-8"))
    # a string of two characters must not pass for two replies
    for texts in ("ab", ["a", 2]):
        entry.write_text(json.dumps({**record, "response": {**record["response"], "texts": texts}}), encoding="utf-8")
        with pytest.raises(CacheCorrupt):
            cache.complete(req)


@pytest.mark.parametrize("replay_only", [False, True])
def test_cached_backend_rejects_text_utf8_cannot_hold(tmp_path, replay_only):
    inner = MockBackend([MockRule("any", None, ("a", "b"))])
    req = CompletionRequest("p", n_samples=2)
    CachedBackend(tmp_path, inner).complete(req)
    (entry,) = entry_files(tmp_path)
    record = json.loads(entry.read_text(encoding="utf-8"))
    record["response"]["texts"][1] += "\udc80"  # the JSON escape decodes to a lone surrogate
    entry.write_text(json.dumps(record), encoding="utf-8")
    with pytest.raises(CacheCorrupt):
        CachedBackend(tmp_path, NullBackend("mock"), replay_only=replay_only).complete(req)


def test_cached_complete_round_trip_randomized(tmp_path):
    rng = random.Random(5150)
    inner = MockBackend([MockRule("any", None, ("alpha", "beta", "gamma"))])
    for i in range(30):
        req = CompletionRequest(
            prompt=f"prompt {rng.randrange(10)}",
            temperature=rng.choice([0.01, 0.7]),
            n_samples=rng.randrange(1, 5),
        )
        live = CachedBackend(tmp_path, inner).complete(req)
        replayed = CachedBackend(tmp_path, NullBackend("mock"), replay_only=True).complete(req)
        assert replayed.texts == live.texts
        assert replayed.cached


def test_null_backend_always_fails():
    null = Counting(NullBackend("x"))
    with pytest.raises(BackendUnavailable):
        null.complete(CompletionRequest("p"))
    assert null.calls == 1


def test_token_bucket_paces_with_fake_clock():
    now = [0.0]
    sleeps = []

    def clock():
        return now[0]

    def sleep(seconds):
        sleeps.append(seconds)
        now[0] += seconds

    bucket = TokenBucket(rate=2.0, clock=clock, sleep=sleep)
    bucket.acquire()  # the first call does not wait
    bucket.acquire()  # must wait 1/rate
    assert sleeps == [pytest.approx(0.5)]
    now[0] += 10.0  # an idle spell earns no burst
    bucket.acquire()
    bucket.acquire()
    assert sleeps == [pytest.approx(0.5), pytest.approx(0.5)]
    with pytest.raises(ValueError):
        TokenBucket(rate=0.0)


def test_token_bucket_schedules_callers_under_a_frozen_clock():
    sleeps = []

    def sleep(seconds):
        # a limiter that polls the clock would sleep here forever
        assert len(sleeps) < 10, "the limiter keeps sleeping under a frozen clock"
        sleeps.append(seconds)

    bucket = TokenBucket(rate=2.0, clock=lambda: 0.0, sleep=sleep)
    for _ in range(4):
        bucket.acquire()
    # the first call starts at once, the next three one each at 0.5, 1.0 and 1.5
    assert sleeps == [pytest.approx(0.5), pytest.approx(1.0), pytest.approx(1.5)]


def test_token_bucket_spaces_concurrent_callers_with_one_sleep_each():
    rate, threads = 100.0, 8
    local = threading.local()  # what the limiter did on each calling thread
    starts = []
    barrier = threading.Barrier(threads)

    def clock():
        local.now = time.monotonic()
        return local.now

    def sleep(seconds):
        local.sleeps.append(seconds)
        time.sleep(seconds)

    bucket = TokenBucket(rate, clock=clock, sleep=sleep)

    def caller():
        local.sleeps = []
        barrier.wait()
        bucket.acquire()
        returned = time.monotonic()
        assert len(local.sleeps) <= 1
        # the start the limiter gave this caller: the clock it read plus its wait
        start = local.now + sum(local.sleeps)
        assert returned >= start - 1e-3
        starts.append(start)

    workers = [threading.Thread(target=caller) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    starts.sort()
    assert len(starts) == threads  # every caller passed its checks
    assert all(later - earlier >= 1 / rate - 1e-6 for earlier, later in zip(starts, starts[1:]))


class FakeResponse:
    def __init__(self, status_code=200, payload=None, headers=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.headers = headers or {}
        self.text = text if payload is None else json.dumps(payload)

    def json(self):
        if self._payload is None:
            raise ValueError("no JSON")
        return self._payload


class FakeSession:
    """Scripted stand-in for :class:`HttpSession`; records each POST payload.

    Concurrent POSTs take the scripted replies in the order they arrive.
    """

    def __init__(self, responses, *, delay=0.0):
        self.responses = list(responses)
        self.posts = []
        self.delay = delay
        self.in_flight = self.peak_in_flight = 0
        self._lock = threading.Lock()

    def post(self, json=None, headers=None, timeout=None):
        with self._lock:
            self.posts.append({"payload": json, "headers": headers})
            item = self.responses.pop(0)
            self.in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
        time.sleep(self.delay)
        with self._lock:
            self.in_flight -= 1
        if isinstance(item, Exception):
            raise item
        return item


def chat_payload(*texts):
    return {"choices": [{"message": {"content": t}} for t in texts]}


def make_backend(session, **kwargs):
    kwargs.setdefault("base_url", "http://fake.test/v1")
    kwargs.setdefault("requests_per_second", 10000.0)
    kwargs.setdefault("sleep", lambda s: None)
    return HttpBackend("test-model", session=session, **kwargs)


def test_http_backend_requires_base_url(monkeypatch):
    monkeypatch.delenv("FORESIGHT_LLM_BASE_URL", raising=False)
    with pytest.raises(ValueError):
        HttpBackend("m", session=FakeSession([]))
    monkeypatch.setenv("FORESIGHT_LLM_BASE_URL", "http://env.test/v1")
    backend = HttpBackend("m", session=FakeSession([]))
    assert backend.url == "http://env.test/v1/chat/completions"


def test_http_backend_single_sample():
    session = FakeSession([FakeResponse(payload=chat_payload("hello"))])
    backend = make_backend(session, api_key="sk-test")
    resp = complete(backend, CompletionRequest("hi", temperature=0.3, stop=("END",)))
    assert resp.texts == ("hello",)
    assert resp.backend_id == "http:test-model"
    assert backend.url == "http://fake.test/v1/chat/completions"
    post = session.posts[0]
    assert post["payload"]["messages"] == [{"role": "user", "content": "hi"}]
    assert post["payload"]["temperature"] == 0.3
    assert post["payload"]["stop"] == ["END"]
    assert post["headers"]["Authorization"] == "Bearer sk-test"


def test_http_backend_fans_out_samples():
    session = FakeSession([FakeResponse(payload=chat_payload(f"t{i}")) for i in range(3)])
    backend = make_backend(session)
    resp = complete(backend, CompletionRequest("p", n_samples=3))
    # the samples go out concurrently, so which reply lands at which index is
    # not fixed here; test_fan_out_returns_index_order covers the order
    assert sorted(resp.texts) == ["t0", "t1", "t2"]
    assert [p["payload"]["n"] for p in session.posts] == [1, 1, 1]


def test_http_backend_samples_overlap():
    session = FakeSession([FakeResponse(payload=chat_payload("t")) for _ in range(8)], delay=0.05)
    backend = make_backend(session)
    started = time.perf_counter()
    assert complete(backend, CompletionRequest("p", n_samples=8)).texts == ("t",) * 8
    assert time.perf_counter() - started < 0.5 * 8 * 0.05
    assert session.peak_in_flight > 1
    assert len(session.posts) == 8


def test_backend_call_counts_are_exact_across_threads():
    session = FakeSession([FakeResponse(payload=chat_payload("t")) for _ in range(200)])
    http = make_backend(session)
    null = Counting(NullBackend("x"))

    def hammer():
        for _ in range(25):
            http.complete(CompletionRequest("p"))
            with pytest.raises(BackendUnavailable):
                null.complete(CompletionRequest("p"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(session.posts) == 200
    assert null.calls == 200


def test_http_backend_native_multi_sample():
    session = FakeSession([FakeResponse(payload=chat_payload("a", "b", "c"))])
    backend = make_backend(session, supports_multi_sample=True)
    resp = complete(backend, CompletionRequest("p", n_samples=3))
    assert resp.texts == ("a", "b", "c")
    assert session.posts[0]["payload"]["n"] == 3


def test_http_backend_retries_rate_limit_then_succeeds():
    sleeps = []
    session = FakeSession(
        [
            FakeResponse(status_code=429, headers={"Retry-After": "2.5"}, text="slow down"),
            FakeResponse(payload=chat_payload("ok")),
        ]
    )
    backend = make_backend(session, sleep=sleeps.append)
    assert complete(backend, CompletionRequest("p")).texts == ("ok",)
    assert sleeps == [2.5]


def test_http_backend_rate_limit_exhausted():
    session = FakeSession([FakeResponse(status_code=429, text="no") for _ in range(3)])
    backend = make_backend(session, max_retries=2)
    with pytest.raises(RateLimited):
        backend.complete(CompletionRequest("p"))
    assert len(session.posts) == 3


@pytest.mark.parametrize(
    "failure",
    [
        lambda: FakeResponse(status_code=503, text="busy"),
        lambda: TransportError("refused"),
    ],
    ids=["503", "connection-error"],
)
def test_http_backend_retries_transient_failures(failure):
    sleeps = []
    session = FakeSession([failure(), failure(), FakeResponse(payload=chat_payload("ok"))])
    backend = make_backend(session, sleep=sleeps.append)
    assert complete(backend, CompletionRequest("p")).texts == ("ok",)
    assert sleeps == [0.5, 1.0]
    assert len(session.posts) == 3


@pytest.mark.parametrize("content", [None, 7, ["a"]])
def test_http_backend_rejects_non_string_content(content):
    backend = make_backend(FakeSession([FakeResponse(payload={"choices": [{"message": {"content": content}}]})]))
    with pytest.raises(ProviderError, match="unexpected response shape"):
        backend.complete(CompletionRequest("p"))


def test_http_backend_rejects_content_that_is_not_unicode():
    # the JSON escape decodes to a lone surrogate, which UTF-8 cannot hold
    payload = json.loads('{"choices": [{"message": {"content": "ok \\udc80"}}]}')
    backend = make_backend(FakeSession([FakeResponse(payload=payload)]))
    with pytest.raises(ProviderError, match="unexpected response shape"):
        backend.complete(CompletionRequest("p"))


def test_null_content_fails_the_event_and_records_nothing(tmp_path, monkeypatch, capsys):
    events = tmp_path / "one.jsonl"
    lines = (Path(__file__).parent / "fixtures" / "events_val.jsonl").read_text(encoding="utf-8")
    events.write_text(lines.splitlines(keepends=True)[0], encoding="utf-8")
    null = {"choices": [{"message": {"content": None}}]}
    session = FakeSession([FakeResponse(payload=null) for _ in range(FINAL_SAMPLE_COUNT)])
    monkeypatch.setattr(cli, "build_backend", lambda spec, config: make_backend(session))
    out, cache = tmp_path / "out", tmp_path / "cache"
    argv = ["run", "--events", str(events), "--strategy", "basic", "--date", "2022-08-01",
            "--backend", "live", "--cache", str(cache), "--out", str(out)]
    assert cli.main(argv) == 1
    failed = json.loads((out / "traces" / "basic" / "evt-01.failed.json").read_text(encoding="utf-8"))
    assert failed["failed_step"] == "predict"
    assert "unexpected response shape" in failed["error"]
    assert "Traceback" not in capsys.readouterr().err
    assert len(session.posts) == FINAL_SAMPLE_COUNT
    assert not list((cache / "llm").rglob("*.json"))


def test_http_backend_error_paths():
    session = FakeSession([FakeResponse(status_code=500, text="boom") for _ in range(2)])
    backend = make_backend(session, max_retries=1)
    with pytest.raises(ProviderError) as info:
        backend.complete(CompletionRequest("p"))
    assert info.value.status == 500
    assert len(session.posts) == 2

    session = FakeSession([TransportError("refused") for _ in range(2)])
    backend = make_backend(session, max_retries=1)
    with pytest.raises(BackendUnavailable):
        backend.complete(CompletionRequest("p"))
    assert len(session.posts) == 2

    session = FakeSession([FakeResponse(status_code=400, text="bad request")])
    backend = make_backend(session)
    with pytest.raises(ProviderError) as info:
        backend.complete(CompletionRequest("p"))
    assert info.value.status == 400
    assert len(session.posts) == 1  # other 4xx are never retried

    backend = make_backend(FakeSession([FakeResponse(payload={"weird": 1})]))
    with pytest.raises(ProviderError):
        backend.complete(CompletionRequest("p"))

    backend = make_backend(
        FakeSession([FakeResponse(payload=chat_payload("a", "b"))]),
        supports_multi_sample=True,
    )
    with pytest.raises(ProviderError):
        backend.complete(CompletionRequest("p", n_samples=3))


class ScriptedNews:
    source = Source.HACKERNEWS

    def search(self, window):
        return (Headline("story", date(2022, 7, 1), Source.HACKERNEWS),)


def _llm_cache(tmp_path):
    cache = CachedBackend(tmp_path, MockBackend([MockRule("any", None, "r")]))
    return cache, lambda: cache.complete(CompletionRequest("warm"))


def _news_cache(tmp_path):
    cache = CachedNewsClient(tmp_path, ScriptedNews())
    window = QueryWindow(terms=("warm",), until=date(2022, 8, 1))
    return cache, lambda: cache.search(window)


@pytest.mark.parametrize("make_cache", [_llm_cache, _news_cache], ids=["llm", "news"])
def test_cached_backend_thread_safe_counters(tmp_path, make_cache):
    cache, lookup = make_cache(tmp_path)
    lookup()

    def hammer():
        for _ in range(50):
            lookup()

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert cache.store.hits == 200
    assert cache.store.misses == 1


def record(store, key, value):
    """``value`` recorded in ``store`` as the entry of ``key``, payload ``{"value": value}``."""
    return store.get_or_compute(key, lambda: value, decode=lambda entry: entry["value"],
                                encode=lambda value: {"value": value})


def test_store_layout_and_entry_format(tmp_path):
    store = ContentStore(tmp_path / "root")
    digest = key_digest("k")
    assert record(store, "k", ["é"]) == ["é"]
    path = tmp_path / "root" / digest[:2] / f"{digest}.json"
    assert store.path(digest) == str(path)
    assert list(path.parent.iterdir()) == [path]  # no temp file left behind
    text = path.read_text(encoding="utf-8")
    assert text.startswith(f'{{"digest": "{digest}", "key": "k", "value": ["é"], "timestamp": "')
    assert store.load(digest, lambda entry: entry["value"]) == ["é"]
    assert (store.hits, store.misses) == (1, 1)


def test_store_replay_only_miss_and_corrupt_entry(tmp_path):
    store = ContentStore(tmp_path, replay_only=True)
    with pytest.raises(ReplayMiss) as info:
        store.load("cd" + "1" * 62, dict)
    assert info.value.digest == "cd" + "1" * 62
    assert (store.hits, store.misses) == (0, 0)
    digest = "ef" + "2" * 62
    path = Path(store.path(digest))
    path.parent.mkdir()
    path.write_text("[1, 2", encoding="utf-8")
    with pytest.raises(CacheCorrupt):
        store.load(digest, dict)
    path.write_text("{}", encoding="utf-8")
    with pytest.raises(CacheCorrupt):
        store.load(digest, lambda entry: entry["missing"])


@pytest.mark.parametrize("replay_only", [False, True])
def test_store_unreadable_entry_is_corrupt(tmp_path, replay_only):
    store = ContentStore(tmp_path, replay_only=replay_only)
    digest = "ab" + "3" * 62
    Path(store.path(digest)).mkdir(parents=True)  # a directory where the entry goes
    with pytest.raises(CacheCorrupt) as info:
        store.load(digest, dict)
    assert info.value.path == str(tmp_path / "ab" / f"{digest}.json")
    assert (store.hits, store.misses) == (0, 0)


def test_store_path_text_is_the_pathlib_join(tmp_path, monkeypatch):
    digest = "cd" + "4" * 62
    monkeypatch.chdir(tmp_path)
    for root in (".", "cache/", tmp_path, tmp_path / "a" / ".." / "b"):
        store = ContentStore(root, replay_only=True)
        with pytest.raises(ReplayMiss):
            store.load(digest, dict)
        assert store.path(digest) == str(Path(root) / digest[:2] / f"{digest}.json")


def test_entries_in_the_older_format_still_replay(tmp_path):
    # Earlier versions listed the request or query beside the value and
    # wrote no "key"; only the value is read back.
    request_key = {
        "backend_id": "mock",
        "max_tokens": 1024,
        "n_samples": 2,
        "prompt": "old prompt",
        "stop": None,
        "temperature": 0.01,
    }
    request = {name: value for name, value in request_key.items() if name != "backend_id"}
    query_key = {"max_results": 25, "source": "hackernews", "terms": ["old"], "until": "2022-08-01"}
    entries = [
        (tmp_path / "llm", request_key,
         {"request": request, "response": {"texts": ["a", "b"], "backend_id": "mock"}}),
        (tmp_path / "news", query_key,
         {"query": query_key, "headlines": [{"title": "old story", "date": "2022-07-01", "source": "hackernews"}]}),
    ]
    for root, key, payload in entries:
        digest = key_digest(key)
        path = root / digest[:2] / f"{digest}.json"
        path.parent.mkdir(parents=True)
        entry = {"digest": digest, **payload, "timestamp": "2024-06-01T00:00:00Z"}
        path.write_text(json.dumps(entry), encoding="utf-8")

    null = Counting(NullBackend("mock"))
    response = CachedBackend(tmp_path / "llm", null, replay_only=True).complete(
        CompletionRequest("old prompt", n_samples=2)
    )
    assert (response.texts, response.backend_id, response.cached) == (("a", "b"), "mock", True)
    assert null.calls == 0
    # ScriptedNews would answer "story", not the recorded "old story"
    news = CachedNewsClient(tmp_path / "news", ScriptedNews(), replay_only=True)
    headlines = news.search(QueryWindow(terms=("old",), until=date(2022, 8, 1)))
    assert headlines == (Headline("old story", date(2022, 7, 1), Source.HACKERNEWS),)


def test_fan_out_returns_index_order():
    def finish_in_reverse(index):
        time.sleep(0.01 * (8 - index))
        return index

    assert fan_out(finish_in_reverse, range(8)) == list(range(8))
    assert fan_out(finish_in_reverse, []) == []


def test_fan_out_raises_first_failure_by_index_after_every_item():
    finished = []

    def task(index):
        time.sleep(0.01 * (8 - index))
        finished.append(index)
        if index in (3, 5):
            raise ValueError(f"item {index}")
        return index

    with pytest.raises(ValueError, match="item 3"):
        fan_out(task, range(8))
    assert sorted(finished) == list(range(8))


def test_fan_out_nests_without_deadlock_and_keeps_context():
    var = contextvars.ContextVar("var", default="unset")
    var.set("caller")
    result = []
    # more outer items than pool threads, each fanning out again
    worker = threading.Thread(
        target=lambda: result.append(fan_out(lambda i: fan_out(lambda j: (i, j, var.get()), range(3)), range(40)))
    )
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    # a thread starts with an empty context, so the tasks see its default
    assert result == [[[(i, j, "unset") for j in range(3)] for i in range(40)]]
    assert fan_out(lambda i: var.get(), range(4)) == ["caller"] * 4


class SlowMock(MockBackend):
    """The scripted mock, taking ``delay`` seconds per call."""

    def __init__(self, rules, delay):
        super().__init__(rules)
        self.delay = delay

    def complete(self, request):
        time.sleep(self.delay)
        return super().complete(request)


def run_together(fn, count=8):
    """``fn()`` on ``count`` threads released at once; their results or errors."""
    barrier = threading.Barrier(count)
    outcomes = [None] * count

    def run(index):
        barrier.wait(timeout=30)
        try:
            outcomes[index] = fn()
        except Exception as exc:
            outcomes[index] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    return outcomes


def test_store_single_flights_concurrent_misses(tmp_path):
    inner = Counting(SlowMock([MockRule("any", None, "r")], delay=0.1))
    cache = CachedBackend(tmp_path, inner)
    outcomes = run_together(lambda: cache.complete(CompletionRequest("same")).texts)
    assert outcomes == [("r",)] * 8
    assert inner.calls == 1
    assert (cache.store.hits, cache.store.misses) == (7, 1)

    replay = CachedBackend(tmp_path, Counting(NullBackend("mock")), replay_only=True)
    outcomes = run_together(lambda: replay.complete(CompletionRequest("never recorded")))
    assert all(isinstance(outcome, ReplayMiss) for outcome in outcomes)
    assert replay.backend.calls == 0


def test_store_keeps_collected_entries_pending_until_written(tmp_path):
    inner = Counting(SlowMock([MockRule("any", None, "r")], delay=0.05))
    cache = CachedBackend(tmp_path, inner)
    with collecting_entries() as entries:
        # fan-out tasks note into the caller's dict; the repeat single-flights
        # and reads the pending entry, which is noted once
        fan_out(lambda prompt: cache.complete(CompletionRequest(prompt)), ["a", "b", "a"])
        cache.complete(CompletionRequest("c"))
        cache.complete(CompletionRequest("b"))
    digests = [key_digest({"backend_id": "mock", **vars(CompletionRequest(prompt))}) for prompt in "abc"]
    # in the order of first use: "a" and "b" were noted before "c", in either order
    assert sorted(entries) == [(cache.store, digest) for digest in sorted(digests)]
    assert list(entries)[2] == (cache.store, digests[2])
    assert (inner.calls, cache.store.misses, cache.store.hits) == (3, 3, 2)
    assert list(tmp_path.rglob("*.json")) == []
    # a pending entry answers an identical request from memory, as a hit
    assert cache.complete(CompletionRequest("a")).cached
    assert (inner.calls, cache.store.hits) == (3, 3)
    for store, digest in entries:
        store.flush(digest)
    assert len(list(tmp_path.rglob("*.json"))) == 3
    replay = CachedBackend(tmp_path, NullBackend("mock"), replay_only=True)
    assert [replay.complete(CompletionRequest(prompt)).texts for prompt in "abc"] == [("r",)] * 3
    # outside the block an entry is flushed where it is computed
    cache.complete(CompletionRequest("d"))
    assert len(list(tmp_path.rglob("*.json"))) == 4


def test_store_keeps_an_entry_whose_flush_failed_pending(tmp_path, monkeypatch):
    inner = Counting(MockBackend([MockRule("any", None, "r")]))
    cache = CachedBackend(tmp_path, inner)
    with collecting_entries() as entries:
        cache.complete(CompletionRequest("a"))
    [(store, digest)] = entries

    def full(source, target):
        raise OSError(errno.ENOSPC, "No space left on device")

    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", full)
        with pytest.raises(OSError) as info:
            store.flush(digest)
    assert info.value.errno == errno.ENOSPC
    assert list(tmp_path.rglob("*")) == [tmp_path / digest[:2]]  # no entry, no temp file
    # still pending: read from memory, with no second inner call, and noted again
    with collecting_entries() as again:
        assert cache.complete(CompletionRequest("a")).cached
    assert list(again) == [(store, digest)]
    assert (inner.calls, store.hits, store.misses) == (1, 1, 1)
    store.flush(digest)
    assert [path.name for path in tmp_path.rglob("*.json")] == [f"{digest}.json"]
    replay = CachedBackend(tmp_path, NullBackend("mock"), replay_only=True)
    assert replay.complete(CompletionRequest("a")).texts == ("r",)


def test_store_flushes_each_entry_once(tmp_path, monkeypatch):
    store = ContentStore(tmp_path)
    keys = list(range(8, 0, -1))
    with collecting_entries() as entries:
        for key in keys:
            record(store, key, key)
            record(store, keys[0], "read again")  # a pending hit, noted once
    # in the order of first use, whatever the hash seed
    assert list(entries) == [(store, key_digest(key)) for key in keys]
    probed, written = [], []
    real_exists = os.path.exists
    monkeypatch.setattr(os.path, "exists", lambda path: (probed.append(path), real_exists(path))[1])
    monkeypatch.setattr(llm, "write_text_atomic", lambda path, text: written.append(path))
    for _ in range(2):  # a second event that noted the same entries finds nothing left to do
        for _, digest in entries:
            store.flush(digest)
    assert probed == written == [store.path(key_digest(key)) for key in keys]


def test_store_creates_a_shard_directory_once(tmp_path, monkeypatch):
    # keys whose digests share the shard of key 0, and one of another shard
    shard = key_digest(0)[:2]
    same = [key for key in range(4096) if key_digest(key)[:2] == shard][:4]
    other = next(key for key in range(4096) if key_digest(key)[:2] != shard)
    store = ContentStore(tmp_path)
    record(store, same[0], 0)
    made = []
    original = os.mkdir
    monkeypatch.setattr(os, "mkdir", lambda *args, **kwargs: (made.append(args), original(*args, **kwargs)))
    for key in same[1:]:
        record(store, key, key)
    assert made == []
    assert sorted(path.name for path in (tmp_path / shard).iterdir()) == sorted(
        f"{key_digest(key)}.json" for key in same)
    record(store, other, 0)
    assert len(made) == 1


class WatchedEnviron(MutableMapping):
    """A copy of ``os.environ`` that records every variable looked up."""

    def __init__(self, data):
        self.data = dict(data)
        self.lookups = []

    def __getitem__(self, name):
        self.lookups.append(name)
        return self.data[name]

    def __iter__(self):
        self.lookups.append("*")
        return iter(self.data)

    def __len__(self):
        return len(self.data)

    def __setitem__(self, name, value):
        self.data[name] = value

    def __delitem__(self, name):
        del self.data[name]


def test_http_backend_reads_proxy_environment_once(monkeypatch):
    with StubProvider() as provider:
        backend = HttpBackend("m", base_url=provider.url + "/v1", requests_per_second=10000.0)
        environ = WatchedEnviron(os.environ)
        monkeypatch.setattr(os, "environ", environ)
        for _ in range(3):
            assert complete(backend, CompletionRequest("p", n_samples=4)).texts == ("ok",) * 4
    assert provider.count("POST") == 12
    assert environ.lookups == []


def _clear_proxy_environment(monkeypatch):
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


@pytest.mark.parametrize(
    "url, proxy, auth",
    [
        ("https://provider.test/v1/chat/completions", ("proxy.test", 3128), ("user", "secret")),
        ("https://internal.test/v1/chat/completions", None, None),
    ],
    ids=["proxied", "no-proxy"],
)
def test_http_session_resolves_environment_like_requests(monkeypatch, tmp_path, url, proxy, auth):
    _clear_proxy_environment(monkeypatch)
    monkeypatch.setenv("HTTPS_PROXY", "http://proxy.test:3128")
    monkeypatch.setenv("NO_PROXY", "internal.test")
    monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(tmp_path / "bundle.pem"))
    netrc = tmp_path / "netrc"
    netrc.write_text("machine provider.test login user password secret\n", encoding="utf-8")
    netrc.chmod(0o600)
    monkeypatch.setenv("NETRC", str(netrc))

    session = HttpSession(url)
    assert session.proxy == proxy
    assert session.ca_bundle == str(tmp_path / "bundle.pem")
    if auth is None:
        assert session.auth is None
    else:
        assert session.auth == "Basic " + base64.b64encode(":".join(auth).encode()).decode()

    monkeypatch.delenv("REQUESTS_CA_BUNDLE")
    monkeypatch.setenv("CURL_CA_BUNDLE", str(tmp_path / "curl.pem"))
    assert HttpSession(url).ca_bundle == str(tmp_path / "curl.pem")
    monkeypatch.delenv("CURL_CA_BUNDLE")
    assert HttpSession(url).ca_bundle is None  # the default verify paths
