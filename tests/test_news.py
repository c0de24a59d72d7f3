"""Tests for headline retrieval, the date-cutoff guard, and the news cache."""

import json
from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foresight.llm import CacheCorrupt
from foresight.news import (
    CachedNewsClient,
    HackerNewsClient,
    Headline,
    NYTClient,
    NYT_API_KEY_ENV,
    NetworkError,
    NewsError,
    QueryWindow,
    ReplayMiss,
    Source,
    UpstreamError,
    format_headlines,
    query_headlines,
)
from stubserver import StubNewsServer, hn_hit, nyt_doc

UNTIL = date(2022, 8, 1)


def window(*terms, until=UNTIL, max_results=25):
    return QueryWindow(terms=terms or ("tesla",), until=until, max_results=max_results)


def test_query_window_joins_terms():
    assert window("tesla", "fsd").query == "tesla fsd"


@pytest.mark.parametrize(
    "terms, max_results",
    [((), 25), (("tesla", " "), 25), (("tesla",), 0)],
    ids=["no-terms", "blank-term", "no-results"],
)
def test_query_window_rejects_blank_terms_and_no_results(terms, max_results):
    with pytest.raises(ValueError):
        QueryWindow(terms=terms, until=UNTIL, max_results=max_results)


def test_headline_guard_filters_sorts_dedups_truncates():
    client_output = [
        Headline("old", date(2022, 7, 1), Source.HACKERNEWS),
        Headline("dup", date(2022, 7, 10), Source.HACKERNEWS),
        Headline("dup", date(2022, 7, 10), Source.HACKERNEWS),
        Headline("future", date(2022, 8, 2), Source.HACKERNEWS),
        Headline("cutoff day", date(2022, 8, 1), Source.HACKERNEWS),
    ]

    class Scripted:
        source = Source.HACKERNEWS

        def search(self, w):
            return tuple(client_output)

    got = query_headlines(Scripted(), window())
    assert [h.title for h in got] == ["cutoff day", "dup", "old"]
    assert all(h.date <= UNTIL for h in got)


_headline = st.builds(
    Headline,
    title=st.sampled_from(["a", "b", "story", "Ünïcode \u2028 title"]),
    date=st.dates(min_value=UNTIL - timedelta(days=5), max_value=UNTIL + timedelta(days=5)),
    source=st.sampled_from(Source),
)
# every list also repeats some of its own headlines, in arbitrary order
_service_output = st.lists(_headline, max_size=30).flatmap(
    lambda items: st.permutations(items + items[::3])
)


@settings(max_examples=200, deadline=None)
@given(headlines=_service_output, limit=st.integers(min_value=1, max_value=12))
def test_headline_guard_randomized_leak_check(headlines, limit):
    class Scripted:
        source = Source.NYT

        def search(self, w):
            return tuple(headlines)

    got = query_headlines(Scripted(), window(max_results=limit))
    assert all(h.date <= UNTIL for h in got)
    assert [h.date for h in got] == sorted((h.date for h in got), reverse=True)
    keys = [(h.title, h.date) for h in got]
    assert len(set(keys)) == len(keys)
    eligible = {(h.title, h.date) for h in headlines if h.date <= UNTIL}
    assert len(got) == min(limit, len(eligible))


def test_hackernews_client_query_shape():
    hits = [
        hn_hit("A regular story", "2022-07-20T10:00:00Z"),
        hn_hit(None, "2022-07-19T10:00:00Z"),  # comment-style hit, title elsewhere
    ]
    hits[1]["story_title"] = "A story title fallback"
    with StubNewsServer(hn_hits=hits) as server:
        client = HackerNewsClient(server.hn_endpoint)
        got = client.search(window("tesla", "fsd"))
        assert [h.title for h in got] == ["A regular story", "A story title fallback"]
        assert got[0].date == date(2022, 7, 20)
        assert all(h.source is Source.HACKERNEWS for h in got)
        params = server.params_for("/hn")[0]
        assert params["query"] == "tesla fsd"
        assert params["tags"] == "story"
        # numeric filter pins results at or before the end of the cutoff day
        assert params["numericFilters"] == "created_at_i<=1659398399"


def test_hackernews_client_retries_server_errors():
    with StubNewsServer(hn_hits=[hn_hit("t", "2022-07-01T00:00:00Z")]) as server:
        server.hn_fail_times = 2
        client = HackerNewsClient(server.hn_endpoint, sleep=lambda s: None)
        got = client.search(window())
        assert len(got) == 1
        assert server.count("/hn") == 3


def test_hackernews_client_gives_up_after_retries():
    with StubNewsServer() as server:
        server.hn_fail_times = 5
        client = HackerNewsClient(server.hn_endpoint, max_retries=1, sleep=lambda s: None)
        with pytest.raises(UpstreamError) as info:
            client.search(window())
        assert info.value.status == 500
        assert server.count("/hn") == 2


def test_hackernews_client_client_errors_not_retried():
    with StubNewsServer() as server:
        server.hn_fail_times = 1
        server.fail_status = 403
        client = HackerNewsClient(server.hn_endpoint, sleep=lambda s: None)
        with pytest.raises(UpstreamError):
            client.search(window())
        assert server.count("/hn") == 1


class ScriptedSession:
    """Stand-in for :class:`~foresight.llm.HttpSession` that answers GETs from a script."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.gets = 0

    def get(self, params=None, timeout=None):
        self.gets += 1
        return self.responses.pop(0)


class ScriptedResponse:
    def __init__(self, status_code, payload, headers=None):
        self.status_code = status_code
        self.headers = headers or {}
        self.text = json.dumps(payload)
        self._payload = payload

    def json(self):
        return self._payload


@pytest.mark.parametrize(
    "make_client, payload",
    [
        (HackerNewsClient, {"hits": [hn_hit("t", "2022-07-01T00:00:00Z")]}),
        (lambda **kw: NYTClient("test-key", **kw),
         {"response": {"docs": [nyt_doc("t", "2022-07-01T00:00:00+0000")]}}),
    ],
    ids=["hn", "nyt"],
)
def test_news_clients_honour_retry_after(make_client, payload):
    sleeps = []
    session = ScriptedSession(
        [
            ScriptedResponse(429, {"error": "slow down"}, headers={"Retry-After": "3"}),
            ScriptedResponse(503, {"error": "busy"}),
            ScriptedResponse(200, payload),
        ]
    )
    client = make_client(session=session, sleep=sleeps.append)
    assert [h.title for h in client.search(window())] == ["t"]
    assert sleeps == [3.0, 1.0]  # Retry-After, then the backoff of the second attempt
    assert session.gets == 3


def test_news_clients_skip_malformed_items():
    hits = [
        7,
        hn_hit("numeric date", 20220801),
        hn_hit("unparsed date", "July 2022"),
        hn_hit("kept", "2022-07-01T00:00:00Z"),
    ]
    docs = [
        {"headline": None, "pub_date": "2022-07-02T00:00:00+0000"},
        nyt_doc("unparsed date", "2022-13-01T00:00:00+0000"),
        nyt_doc("kept", "2022-07-01T00:00:00+0000"),
    ]
    with StubNewsServer(hn_hits=hits, nyt_docs=docs) as server:
        assert [h.title for h in HackerNewsClient(server.hn_endpoint).search(window())] == ["kept"]
        nyt = NYTClient("test-key", server.nyt_endpoint)
        assert [h.title for h in nyt.search(window())] == ["kept"]


@pytest.mark.parametrize(
    "make_client, payload",
    [
        (HackerNewsClient, [hn_hit("t", "2022-07-01T00:00:00Z")]),
        (HackerNewsClient, {"hits": {"0": hn_hit("t", "2022-07-01T00:00:00Z")}}),
        (lambda **kw: NYTClient("test-key", **kw), "docs"),
        (lambda **kw: NYTClient("test-key", **kw), {"response": [nyt_doc("t", "2022-07-01")]}),
        (lambda **kw: NYTClient("test-key", **kw), {"response": {"docs": 3}}),
    ],
    ids=["hn-list", "hn-hits-object", "nyt-string", "nyt-response-list", "nyt-docs-number"],
)
def test_news_clients_reject_malformed_replies(make_client, payload):
    client = make_client(session=ScriptedSession([ScriptedResponse(200, payload)]))
    with pytest.raises(UpstreamError, match="malformed reply"):
        client.search(window())


@pytest.mark.parametrize(
    "make_client, payload",
    [
        (HackerNewsClient, '{"hits": [{"title": "ok \\udc80", "created_at": "2022-07-01T00:00:00Z"}]}'),
        (lambda **kw: NYTClient("test-key", **kw),
         '{"response": {"docs": [{"headline": {"main": "ok \\udc80"}, "pub_date": "2022-07-01"}]}}'),
    ],
    ids=["hn", "nyt"],
)
def test_news_clients_reject_titles_that_are_not_unicode(make_client, payload):
    # the JSON escape decodes to a lone surrogate, which UTF-8 cannot hold
    client = make_client(session=ScriptedSession([ScriptedResponse(200, json.loads(payload))]))
    with pytest.raises(UpstreamError, match="not valid Unicode"):
        client.search(window())


def test_hackernews_client_network_error():
    client = HackerNewsClient("http://127.0.0.1:9/hn", timeout=0.2, max_retries=0)
    with pytest.raises(NetworkError):
        client.search(window())


def test_nyt_client_requires_key():
    # without a key the client does not wait on the network and sends nothing
    with StubNewsServer(nyt_docs=[nyt_doc("Article", "2022-07-01T00:00:00+0000")]) as server:
        client = NYTClient(None, server.nyt_endpoint)
        assert client.waits_on_network is False
        with pytest.raises(NewsError, match=f"set {NYT_API_KEY_ENV} to query the New York Times"):
            client.search(window())
        assert server.count("/nyt") == 0


def test_nyt_client_query_shape_and_pagination():
    docs = [nyt_doc(f"Article {i:02d}", f"2022-07-{(i % 28) + 1:02d}T00:00:00+0000") for i in range(23)]
    with StubNewsServer(nyt_docs=docs) as server:
        client = NYTClient("test-key", server.nyt_endpoint)
        got = client.search(window("inflation", max_results=23))
        assert len(got) == 23
        assert got[0].source is Source.NYT
        pages = [int(p["page"]) for p in server.params_for("/nyt")]
        assert pages == [0, 1, 2]
        first = server.params_for("/nyt")[0]
        assert first["q"] == "inflation"
        assert first["end_date"] == "20220801"
        assert first["api-key"] == "test-key"


def test_nyt_client_stops_at_max_results():
    docs = [nyt_doc(f"Article {i}", "2022-07-01T00:00:00+0000") for i in range(30)]
    with StubNewsServer(nyt_docs=docs) as server:
        client = NYTClient("test-key", server.nyt_endpoint)
        got = client.search(window(max_results=10))
        assert len(got) == 10
        assert server.count("/nyt") == 1


def test_nyt_client_stops_on_short_page():
    docs = [nyt_doc(f"Article {i}", "2022-07-01T00:00:00+0000") for i in range(4)]
    with StubNewsServer(nyt_docs=docs) as server:
        client = NYTClient("test-key", server.nyt_endpoint)
        got = client.search(window(max_results=25))
        assert len(got) == 4
        assert server.count("/nyt") == 1


def test_cached_news_client_records_then_replays(tmp_path):
    with StubNewsServer(hn_hits=[hn_hit("cached story", "2022-07-01T00:00:00Z")]) as server:
        live = CachedNewsClient(tmp_path, HackerNewsClient(server.hn_endpoint))
        first = live.search(window())
        second = live.search(window())
        assert first == second
        assert server.count("/hn") == 1
        assert (live.store.hits, live.store.misses) == (1, 1)
    # pinned: recorded caches stay readable only while the key is unchanged
    digest = "e21c607099848b81f68fe2b9df6e49f92307a7ccaec2d2942fef4b330e53f3e9"
    entry = json.loads((tmp_path / digest[:2] / f"{digest}.json").read_text(encoding="utf-8"))
    assert set(entry) == {"digest", "headlines", "key", "timestamp"}
    assert entry["key"]["terms"] == list(window().terms)

    # replay needs no server at all
    class Exploding:
        source = Source.HACKERNEWS

        def search(self, w):
            raise AssertionError("replay must not call through")

    replay = CachedNewsClient(tmp_path, Exploding(), replay_only=True)
    assert [h.title for h in replay.search(window())] == ["cached story"]
    with pytest.raises(ReplayMiss):
        replay.search(window("different", "terms"))


def test_cached_news_client_rejects_mistyped_title(tmp_path):
    class Fixed:
        source = Source.HACKERNEWS

        def search(self, w):
            return (Headline("story", date(2022, 7, 1), Source.HACKERNEWS),)

    cached = CachedNewsClient(tmp_path, Fixed())
    cached.search(window())
    (entry,) = tmp_path.glob("*/*.json")
    record = json.loads(entry.read_text(encoding="utf-8"))
    record["headlines"][0]["title"] = 7
    entry.write_text(json.dumps(record), encoding="utf-8")
    with pytest.raises(CacheCorrupt):
        cached.search(window())


def test_cached_news_client_rejects_title_utf8_cannot_hold(tmp_path):
    class Fixed:
        source = Source.HACKERNEWS

        def search(self, w):
            return (Headline("story", date(2022, 7, 1), Source.HACKERNEWS),)

    cached = CachedNewsClient(tmp_path, Fixed())
    cached.search(window())
    (entry,) = tmp_path.glob("*/*.json")
    record = json.loads(entry.read_text(encoding="utf-8"))
    record["headlines"][0]["title"] += "\udc80"  # the JSON escape decodes to a lone surrogate
    entry.write_text(json.dumps(record), encoding="utf-8")
    assert "\\udc80" in entry.read_text(encoding="utf-8")
    with pytest.raises(CacheCorrupt):
        cached.search(window())


def test_cached_news_client_distinguishes_windows(tmp_path):
    with StubNewsServer(hn_hits=[hn_hit("story", "2022-07-01T00:00:00Z")]) as server:
        cached = CachedNewsClient(tmp_path, HackerNewsClient(server.hn_endpoint))
        cached.search(window("a"))
        cached.search(window("a", until=date(2022, 8, 2)))
        cached.search(window("a", max_results=5))
        assert server.count("/hn") == 3
        assert cached.store.misses == 3


def test_format_headlines_layout():
    headlines = (
        Headline("Tesla expands FSD beta", date(2022, 7, 20), Source.HACKERNEWS),
        Headline("Progress, but: no approval -- yet", date(2022, 7, 18), Source.HACKERNEWS),
    )
    text = format_headlines(headlines)
    assert text == (
        "Headline 1 -- 2022-07-20: Tesla expands FSD beta\n"
        "Headline 2 -- 2022-07-18: Progress, but: no approval -- yet"
    )


def test_format_headlines_empty():
    assert format_headlines(()) == ""
