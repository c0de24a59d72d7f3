"""Tests for the keep-alive HTTP transport behind the live backend and the
news clients, against local stdlib servers."""

import os
import ssl
import subprocess
import sys
import threading
import time
from datetime import date
from pathlib import Path

import pytest

from foresight.llm import (
    FAN_OUT_THREADS,
    BackendUnavailable,
    CompletionRequest,
    HttpBackend,
    HttpReply,
    HttpSession,
    ProviderError,
    TransportError,
    complete,
)
from foresight.news import HackerNewsClient, NYTClient, QueryWindow, UpstreamError
from stubserver import StubProvider

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True)
def no_proxy(monkeypatch):
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


def backend_for(provider, **options):
    options.setdefault("requests_per_second", 10000.0)
    return HttpBackend("m", base_url=provider.url + "/v1", **options)


def test_sequential_calls_reuse_one_connection():
    with StubProvider() as provider:
        backend = backend_for(provider)
        for _ in range(5):
            assert complete(backend, CompletionRequest("p")).texts == ("ok",)
    assert provider.count("POST") == 5
    assert provider.connections == 1


def test_pooled_connection_takes_the_next_requests_timeout():
    with StubProvider(delay=0.2) as provider:
        session = HttpSession(provider.url + "/v1/chat/completions")
        assert session.post(json={}, timeout=5.0).status_code == 200
        with pytest.raises(TransportError, match="timed out"):
            session.post(json={}, timeout=0.05)
    assert provider.connections == 1


def test_connection_closed_while_idle_costs_no_retry():
    sleeps = []
    with StubProvider(idle_timeout=0.05) as provider:
        backend = backend_for(provider, sleep=sleeps.append)
        for _ in range(3):
            assert complete(backend, CompletionRequest("p")).texts == ("ok",)
            time.sleep(0.2)  # the server closes the idle connection meanwhile
    assert sleeps == []
    assert provider.count("POST") == 3
    assert provider.connections == 3


def test_read_timeout_is_unavailable_after_max_retries():
    sleeps = []
    with StubProvider(delay=0.5) as provider:
        backend = backend_for(provider, timeout=0.1, max_retries=1, sleep=sleeps.append)
        with pytest.raises(BackendUnavailable, match="TimeoutError"):
            backend.complete(CompletionRequest("p"))
    assert provider.count("POST") == 2
    assert sleeps == [0.5]


def test_redirect_is_not_followed():
    with StubProvider(status=302, headers={"Location": "/elsewhere"}) as provider:
        with pytest.raises(ProviderError, match="status 302") as info:
            backend_for(provider).complete(CompletionRequest("p"))
        assert info.value.status == 302
        with pytest.raises(UpstreamError) as news_info:
            HackerNewsClient(provider.url + "/hn").search(QueryWindow(("q",), date(2022, 8, 1)))
        assert news_info.value.status == 302
    # one request each: neither went on to the Location
    assert [seen[1].split("?")[0] for seen in provider.seen] == ["/v1/chat/completions", "/hn"]


def test_request_sends_no_accept_encoding():
    with StubProvider() as provider:
        backend_for(provider, api_key="sk-test").complete(CompletionRequest("p"))
    (_, _, headers), = provider.seen
    assert "Accept-Encoding" not in headers
    assert headers["Authorization"] == "Bearer sk-test"


def test_netrc_credentials_yield_to_an_api_key(monkeypatch, tmp_path):
    netrc = tmp_path / "netrc"
    netrc.write_text("machine 127.0.0.1 login user password secret\n", encoding="utf-8")
    netrc.chmod(0o600)
    monkeypatch.setenv("NETRC", str(netrc))
    with StubProvider() as provider:
        backend_for(provider).complete(CompletionRequest("p"))
        backend_for(provider, api_key="sk-test").complete(CompletionRequest("p"))
    assert [headers["Authorization"] for _, _, headers in provider.seen] == [
        "Basic dXNlcjpzZWNyZXQ=",  # user:secret
        "Bearer sk-test",
    ]


def test_malformed_netrc_gives_no_credentials(monkeypatch, tmp_path):
    netrc = tmp_path / "netrc"
    netrc.write_text("machine 127.0.0.1 login user password secret stray\n", encoding="utf-8")
    netrc.chmod(0o600)
    monkeypatch.setenv("NETRC", str(netrc))
    assert HttpSession("http://127.0.0.1/v1").auth is None


def test_ca_bundle_directory_is_loaded_as_capath(monkeypatch, tmp_path):
    made = []
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
    monkeypatch.setattr(ssl, "create_default_context", lambda **kwargs: made.append(kwargs) or context)
    for bundle in (tmp_path, tmp_path / "bundle.pem"):
        monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(bundle))
        # a connection opens no socket before its first request
        HttpSession("https://provider.test/v1")._connect(timeout=5).close()
    assert made == [{"capath": str(tmp_path)}, {"cafile": str(tmp_path / "bundle.pem")}]


def test_checkin_beyond_the_idle_limit_closes_the_connection():
    class Connection:
        closed = False

        def close(self):
            self.closed = True

    session = HttpSession("http://127.0.0.1:9/v1")
    connections = [Connection() for _ in range(FAN_OUT_THREADS + 1)]
    for connection in connections:
        session._checkin(connection)
    assert [connection.closed for connection in connections] == [False] * FAN_OUT_THREADS + [True]
    assert session._checkout() is connections[-2]  # the most recently used first


def test_http_target_goes_to_the_proxy_in_absolute_form(monkeypatch):
    with StubProvider() as proxy:
        monkeypatch.setenv("HTTP_PROXY", proxy.url)
        session = HttpSession("http://provider.test/v1/chat/completions")
        reply = session.post(json={}, timeout=5)
    assert reply.status_code == 200
    (method, target, headers), = proxy.seen
    assert (method, target, headers["Host"]) == ("POST", "http://provider.test/v1/chat/completions", "provider.test")


def test_https_target_is_tunnelled_with_connect(monkeypatch):
    with StubProvider() as proxy:
        monkeypatch.setenv("HTTPS_PROXY", proxy.url.replace("http://", "http://user:pa%20ss@"))
        session = HttpSession("https://provider.test/v1/chat/completions")
        with pytest.raises(TransportError, match="403"):
            session.post(json={}, timeout=5)
    (method, target, headers), = proxy.seen
    assert (method, target) == ("CONNECT", "provider.test:443")
    assert headers["Proxy-Authorization"] == "Basic dXNlcjpwYSBzcw=="  # user:pa ss


def test_no_proxy_for_a_bypassed_host(monkeypatch):
    monkeypatch.setenv("HTTP_PROXY", "http://proxy.test:3128")
    monkeypatch.setenv("NO_PROXY", "provider.test")
    assert HttpSession("http://provider.test/v1").proxy is None
    assert HttpSession("http://other.test/v1").proxy == ("proxy.test", 3128)


def test_session_needs_an_http_url():
    with pytest.raises(ValueError, match="http or https"):
        HttpSession("ftp://provider.test/v1")


class ScriptedSession:
    def __init__(self, replies):
        self.replies = list(replies)
        self.calls = 0

    def post(self, **kwargs):
        return self.get()

    def get(self, **kwargs):
        self.calls += 1
        return self.replies.pop(0)


# an HTTP-date is valid Retry-After, but only a number of seconds is used
UNUSABLE_RETRY_AFTER = ["inf", "nan", "-1", "1e300", str(threading.TIMEOUT_MAX),
                        "Wed, 21 Oct 2015 07:28:00 GMT"]


@pytest.mark.parametrize("retry_after", UNUSABLE_RETRY_AFTER)
def test_unusable_retry_after_falls_back_to_backoff(retry_after):
    ok = HttpReply(200, {}, b'{"choices": [{"message": {"content": "ok"}}]}')
    session = ScriptedSession([HttpReply(429, {"Retry-After": retry_after}, b""), ok])
    sleeps = []
    backend = HttpBackend("m", base_url="http://provider.test/v1", requests_per_second=10000.0,
                          session=session, sleep=sleeps.append)
    assert complete(backend, CompletionRequest("p")).texts == ("ok",)
    assert sleeps == [0.5]

    found = HttpReply(200, {}, b'{"response": {"docs": []}}')
    session = ScriptedSession([HttpReply(503, {"Retry-After": retry_after}, b""), found])
    sleeps = []
    client = NYTClient("key", "http://nyt.test/search", session=session, sleep=sleeps.append)
    assert client.search(QueryWindow(("q",), date(2022, 8, 1))) == ()
    assert sleeps == [0.5]


def test_import_loads_no_third_party_http_stack():
    forbidden = ("requests", "urllib3", "charset_normalizer", "idna", "certifi")
    # A site hook may have loaded one of them before the import; only what
    # the import itself adds counts.
    code = (
        "import sys; before = set(sys.modules); import foresight.cli; "
        f"print(sorted((set(sys.modules) - before) & set({forbidden!r})))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                            env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert result.stdout.strip() == "[]"
