"""Completion backends behind one small interface.

Three implementations: a live HTTP backend speaking a chat/completions-style
JSON API, a deterministic scripted mock for offline runs, and a
content-addressed record/replay cache that wraps either.  Cache keys are the
SHA-256 of the backend id plus the canonicalized request, so any change to
prompt or sampling parameters is a distinct entry.  The cache's
:class:`ContentStore`, the HTTP retry policy of :func:`send_with_retries` and
the keep-alive transport :class:`HttpSession` also serve the news clients.
Calls that do not depend on each other go out concurrently through
:func:`fan_out`.
"""

from __future__ import annotations

import base64
import contextlib
import contextvars
import hashlib
import http.client
import json
import netrc
import os
import re
import ssl
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Protocol, Sequence, TypeVar
from urllib.parse import SplitResult, unquote, urlencode, urlsplit

from .events import InputError, json_data, read_json_lines, write_text_atomic

__all__ = [
    "CompletionRequest",
    "CompletionResponse",
    "CompletionBackend",
    "BackendError",
    "BackendUnavailable",
    "RateLimited",
    "ProviderError",
    "NoRuleMatched",
    "CacheFault",
    "ReplayMiss",
    "CacheCorrupt",
    "complete",
    "key_digest",
    "MockRule",
    "MockBackend",
    "HttpBackend",
    "NullBackend",
    "CachedBackend",
    "ContentStore",
    "collecting_entries",
    "TokenBucket",
    "send_with_retries",
    "fan_out",
    "HttpSession",
    "HttpReply",
    "split_url",
    "TransportError",
    "DEFAULT_TEMPERATURE",
    "FINAL_SAMPLE_COUNT",
]

DEFAULT_TEMPERATURE = 0.01
FINAL_SAMPLE_COUNT = 8
DEFAULT_MAX_TOKENS = 1024

_T = TypeVar("_T")
_R = TypeVar("_R")

BASE_URL_ENV = "FORESIGHT_LLM_BASE_URL"
API_KEY_ENV = "FORESIGHT_LLM_API_KEY"


class BackendError(RuntimeError):
    """Base class for completion-backend failures."""


class BackendUnavailable(BackendError):
    """The provider endpoint could not be reached."""


class RateLimited(BackendError):
    def __init__(self, retry_after: float):
        super().__init__(f"rate limited; retry after {retry_after}s")
        self.retry_after = retry_after


class ProviderError(BackendError):
    def __init__(self, status: int, body: str):
        super().__init__(f"provider returned status {status}: {body[:200]}")
        self.status = status
        self.body = body


class NoRuleMatched(BackendError):
    """The scripted mock has no rule covering a prompt."""

    def __init__(self, prompt: str):
        super().__init__(f"no mock rule matches prompt starting {prompt[:80]!r}")
        self.prompt = prompt


class CacheFault(BackendError):
    """A cache entry is missing on replay or unreadable: not the provider's
    answer, so nothing may fall back from it."""


class ReplayMiss(CacheFault):
    """Replay-only cache lookup found no recorded entry."""

    def __init__(self, digest: str):
        super().__init__(f"no cached response for digest {digest}")
        self.digest = digest


class CacheCorrupt(CacheFault):
    def __init__(self, path: str | Path):
        super().__init__(f"cache file unreadable: {path}")
        self.path = str(path)


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str
    temperature: float = DEFAULT_TEMPERATURE
    n_samples: int = 1
    max_tokens: int = DEFAULT_MAX_TOKENS
    stop: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")


@dataclass(frozen=True)
class CompletionResponse:
    texts: tuple[str, ...]
    backend_id: str
    cached: bool = False


class CompletionBackend(Protocol):
    """What every backend offers.  A backend whose calls wait on the network
    also sets ``waits_on_network = True``; strategies then send its
    independent calls concurrently through :func:`fan_out`."""

    backend_id: str

    def complete(self, request: CompletionRequest) -> CompletionResponse: ...


# Sorted keys fix the order, so logically equal keys serialize identically.
# One encoder serves every call: json.dumps would build a new one each time.
_canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True).encode


def key_digest(key: object) -> str:
    """SHA-256 hex digest of ``key`` as canonical JSON: the one cache-key hash."""
    return hashlib.sha256(_canonical_json(key).encode("utf-8")).hexdigest()


def complete(backend: CompletionBackend, request: CompletionRequest) -> CompletionResponse:
    """Run a request against a backend, checking the sample-count contract."""
    response = backend.complete(request)
    if len(response.texts) != request.n_samples:
        raise BackendError(
            f"backend {response.backend_id!r} returned {len(response.texts)} texts "
            f"for n_samples={request.n_samples}"
        )
    return response


FAN_OUT_THREADS = 32

_pool_thread = threading.local()
# Threads start on first use, not at import.
_fan_out_pool = ThreadPoolExecutor(
    max_workers=FAN_OUT_THREADS,
    thread_name_prefix="foresight-fan-out",
    initializer=lambda: setattr(_pool_thread, "active", True),
)


def fan_out(fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
    """``[fn(item) for item in items]``, run concurrently on one shared pool
    of ``FAN_OUT_THREADS`` threads.

    Results come back in index order.  Every item runs to its end, then the
    first failure by index is re-raised.  Each task runs in a copy of the
    caller's context variables.  With at most one item, or on a pool thread,
    the items run inline, one after another, stopping at the first failure,
    so that a nested fan-out never waits on the pool it runs in.
    """
    items = list(items)
    if len(items) <= 1 or getattr(_pool_thread, "active", False):
        return [fn(item) for item in items]
    futures = [_fan_out_pool.submit(contextvars.copy_context().run, fn, item) for item in items]
    wait(futures)
    return [future.result() for future in futures]


@dataclass(frozen=True)
class MockRule:
    """One scripted response.  ``match`` is "substring", "regex", or "any".

    ``response`` may be a sequence of texts; sample i receives entry
    ``i % len(response)``, which is how a single request can yield a spread of
    different sample texts.
    """

    match: str
    pattern: str | None
    response: str | tuple[str, ...]

    def __post_init__(self) -> None:
        if self.match not in ("substring", "regex", "any"):
            raise ValueError(f"unknown match kind {self.match!r}")
        if self.match == "any":
            if self.pattern is not None:
                raise ValueError("catch-all rules take no pattern")
        elif not self.pattern:
            raise ValueError(f"{self.match} rules need a pattern")
        if not isinstance(self.response, str) and len(self.response) == 0:
            raise ValueError("response list must be nonempty")

    def matches(self, prompt: str) -> bool:
        if self.match == "any":
            return True
        if self.match == "substring":
            return self.pattern in prompt  # type: ignore[operator]
        return re.search(self.pattern, prompt) is not None  # type: ignore[arg-type]

    def sample_texts(self, n: int) -> tuple[str, ...]:
        if isinstance(self.response, str):
            return (self.response,) * n
        return tuple(self.response[i % len(self.response)] for i in range(n))


def _rule_from_object(obj: dict) -> MockRule:
    pattern = obj.get("pattern")
    match = obj.get("match", "substring" if pattern is not None else "any")
    response = obj["response"]
    if isinstance(response, list):
        response = tuple(response)
    texts = response if isinstance(response, tuple) else (response,)
    if not all(isinstance(text, str) for text in texts):
        raise ValueError("response must be a string or a list of strings")
    for text in texts:
        text.encode("utf-8")  # a lone surrogate raises UnicodeEncodeError, a ValueError
    if not isinstance(pattern, (str, type(None))):
        raise ValueError("pattern must be a string")
    return MockRule(match=match, pattern=pattern, response=response)


class MockBackend:
    """Deterministic scripted backend: ordered rules, first match wins."""

    def __init__(self, rules: Sequence[MockRule], *, backend_id: str = "mock"):
        self.rules = tuple(rules)
        self.backend_id = backend_id

    @classmethod
    def from_file(cls, path: str | Path, *, backend_id: str = "mock") -> "MockBackend":
        """Load rules from a JSON-lines script; lines starting ``#`` are comments.

        Each line is ``{"match": ..., "pattern": ..., "response": ...}``, where
        only ``response`` is required; ``match`` defaults to "substring" when a
        pattern is given, else "any".  A bad line raises
        :class:`~foresight.events.MalformedRecord` with its line number.
        """
        lines = Path(path).read_text(encoding="utf-8").split("\n")
        # Blank, not drop, comment lines, so that line numbers match the file.
        text = "\n".join("" if line.lstrip().startswith("#") else line for line in lines)
        rules = read_json_lines(text, _rule_from_object, ("response",), ("match", "pattern"))
        return cls(rules, backend_id=backend_id)

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        for rule in self.rules:
            if rule.matches(request.prompt):
                return CompletionResponse(
                    texts=rule.sample_texts(request.n_samples),
                    backend_id=self.backend_id,
                )
        raise NoRuleMatched(request.prompt)


class TokenBucket:
    """Blocking limiter: each :meth:`acquire` takes the next start time, now
    or ``1 / rate`` seconds after the one before, whichever is later, and
    sleeps once until it.  Callers start in arrival order, the first without
    waiting, and an idle spell earns no burst (GCRA with a burst of one)."""

    def __init__(
        self,
        rate: float,
        *,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self._clock = clock
        self._sleep = sleep
        self._next = clock()  # the earliest time the next call may start
        self._lock = threading.Lock()

    def acquire(self) -> None:
        with self._lock:
            now = self._clock()
            start = max(now, self._next)
            self._next = start + 1.0 / self.rate
        if start > now:
            self._sleep(start - now)


class NullBackend:
    """Backend that must never be called; pairs with a replay-only cache."""

    def __init__(self, backend_id: str):
        self.backend_id = backend_id

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        raise BackendUnavailable("replay backend cannot issue live calls")


class TransportError(Exception):
    """An HTTP request got no reply: the connection failed, broke or timed out."""


@dataclass(frozen=True)
class HttpReply:
    """A complete HTTP reply, its body read."""

    status_code: int
    headers: Mapping[str, str]  # case-insensitive for replies that come off the wire
    content: bytes

    @property
    def text(self) -> str:
        return self.content.decode("utf-8", errors="replace")

    def json(self):
        """The body parsed as JSON; ``ValueError`` when it is not JSON."""
        return json.loads(self.content)


# What a request line cannot carry: a space or a control character.
_UNSENDABLE = re.compile(r"[\x00-\x20\x7f]")


def split_url(url: str, name: str = "URL") -> SplitResult:
    """``url`` split, when :class:`HttpSession` can send to it: an http or
    https URL with a host, a port that parses and is not 0 (no server listens
    there), and no space or control character.  Otherwise ``ValueError``,
    naming ``url`` as ``name``."""
    try:
        parts = urlsplit(url)
        valid = parts.scheme in ("http", "https") and bool(parts.hostname) and not _UNSENDABLE.search(url)
        valid = valid and parts.port != 0  # .port raises ValueError when out of range or not a number
    except ValueError:  # also an unbalanced IPv6 bracket
        valid = False
    if not valid:
        raise ValueError(
            f"{name} must be an http or https URL with a host, a valid port "
            f"and no space or control character, got {url!r}"
        )
    return parts


def _basic_auth(user: str, password: str) -> str:
    return "Basic " + base64.b64encode(f"{user}:{password}".encode("utf-8")).decode("ascii")


def _netrc_auth(host: str) -> str | None:
    """Basic credentials for ``host`` from the netrc file that ``requests``
    would read: ``$NETRC``, else the first of ``~/.netrc`` and ``~/_netrc``
    that exists.  An unreadable or malformed file gives none."""
    named = os.environ.get("NETRC")
    paths = [named] if named else [os.path.expanduser("~/.netrc"), os.path.expanduser("~/_netrc")]
    for path in paths:
        if os.path.exists(path):
            try:
                entry = netrc.netrc(path).authenticators(host)
            except (OSError, netrc.NetrcParseError):
                return None
            return None if entry is None else _basic_auth(entry[0] or entry[1], entry[2] or "")
    return None


class HttpSession:
    """Keep-alive HTTP/1.1 requests to one URL.

    The proxy, the TLS trust store and netrc credentials for ``url`` are read
    from the environment once, when the session is built, as ``requests``
    reads them:

    - the proxy from :func:`urllib.request.getproxies` (``HTTPS_PROXY``,
      ``HTTP_PROXY``, ``ALL_PROXY``) unless :func:`urllib.request.proxy_bypass`
      exempts the host (``NO_PROXY``); an https target is tunnelled through
      it with ``CONNECT``, and a proxy port that does not parse, or is 0, is
      an :class:`~foresight.events.InputError` naming the variable;
    - the CA bundle from ``REQUESTS_CA_BUNDLE`` or ``CURL_CA_BUNDLE``, else
      the default verify paths;
    - Basic credentials for the host from netrc, sent when a request sets no
      ``Authorization`` header of its own.

    No socket opens before the first request.  Each request checks out an
    idle connection for itself alone, the most recently used first, or opens
    a new one; at most ``FAN_OUT_THREADS`` idle connections are kept.  When
    the server has closed a pooled connection the request goes out once more
    on a fresh one, which is not an attempt of :func:`send_with_retries`.
    Redirects are not followed and no compressed reply is asked for.  A
    request that gets no reply raises :class:`TransportError`.
    """

    def __init__(self, url: str):
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()
        parts = split_url(url)
        self.scheme = parts.scheme
        self.host = parts.hostname
        self.port = parts.port if parts.port is not None else 443 if parts.scheme == "https" else 80
        self._target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        proxies = urllib.request.getproxies()
        kind = next((kind for kind in (self.scheme, "all") if proxies.get(kind)), None)
        self.proxy: tuple[str, int] | None = None
        self._headers = {"User-Agent": "foresight", "Accept": "*/*"}
        self._tunnel_headers: dict[str, str] = {}
        if kind and not urllib.request.proxy_bypass(self.host):
            proxy = proxies[kind]
            proxy_parts = urlsplit(proxy if "://" in proxy else "http://" + proxy)
            try:
                port = proxy_parts.port
            except ValueError:  # out of range or not a number
                port = 0
            if port == 0:
                # named, never shown: the proxy's URL may hold credentials
                variable = f"{kind}_proxy" if f"{kind}_proxy" in os.environ else f"{kind.upper()}_PROXY"
                raise InputError(f"{variable} must give the proxy a valid port")
            self.proxy = (proxy_parts.hostname or "", 80 if port is None else port)
            if proxy_parts.username is not None:
                # an https request sends the proxy's credentials with its CONNECT
                sent_with = self._tunnel_headers if self.scheme == "https" else self._headers
                sent_with["Proxy-Authorization"] = _basic_auth(
                    unquote(proxy_parts.username), unquote(proxy_parts.password or "")
                )
            if self.scheme == "http":  # a proxy takes the absolute form
                self._target = f"http://{parts.netloc.rpartition('@')[2]}{self._target}"
        self.ca_bundle = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
        self.auth = _netrc_auth(self.host)
        self._tls: ssl.SSLContext | None = None

    def __del__(self) -> None:
        # the idle connections' sockets close with the session, not whenever
        # the collector reaches them
        for connection in self._idle:
            connection.close()

    def post(self, *, json: object, headers: Mapping[str, str] | None = None, timeout: float) -> HttpReply:
        """POST ``json`` encoded as the JSON body."""
        fields = {"Content-Type": "application/json", **(headers or {})}
        return self._request("POST", self._target, _json_body(json), fields, timeout)

    def get(self, *, params: Mapping[str, str] | None = None, timeout: float) -> HttpReply:
        """GET with ``params`` added to the URL's query."""
        target = self._target
        if params:
            target += ("&" if "?" in target else "?") + urlencode(params)
        return self._request("GET", target, None, {}, timeout)

    def _request(self, method: str, target: str, body: bytes | None, headers: Mapping[str, str],
                 timeout: float) -> HttpReply:
        fields = {**self._headers, **headers}
        if self.auth is not None:
            fields.setdefault("Authorization", self.auth)
        if body is not None:
            fields["Content-Length"] = str(len(body))
        connection = self._checkout()
        pooled = connection is not None
        if connection is None:
            connection = self._connect(timeout)
        elif connection.timeout != timeout:
            connection.timeout = timeout
            connection.sock.settimeout(timeout)
        try:
            try:
                response = _exchange(connection, method, target, body, fields)
            except ConnectionError:  # the server closed the pooled connection while it sat idle
                if not pooled:
                    raise
                connection.close()
                connection = self._connect(timeout)
                response = _exchange(connection, method, target, body, fields)
            content = response.read()
        except (OSError, http.client.HTTPException) as exc:
            connection.close()
            raise TransportError(f"{type(exc).__name__}: {exc}") from exc
        if response.will_close:
            connection.close()
        else:
            self._checkin(connection)
        return HttpReply(response.status, response.headers, content)

    def _checkout(self) -> http.client.HTTPConnection | None:
        with self._lock:
            return self._idle.pop() if self._idle else None

    def _checkin(self, connection: http.client.HTTPConnection) -> None:
        with self._lock:
            if len(self._idle) < FAN_OUT_THREADS:
                self._idle.append(connection)
                return
        connection.close()

    def _connect(self, timeout: float) -> http.client.HTTPConnection:
        """A new connection; its socket opens with its first request."""
        host, port = self.proxy or (self.host, self.port)
        if self.scheme == "http":
            return http.client.HTTPConnection(host, port, timeout=timeout)
        if self._tls is None:  # two threads racing here only build it twice
            if self.ca_bundle and os.path.isdir(self.ca_bundle):
                self._tls = ssl.create_default_context(capath=self.ca_bundle)
            else:
                self._tls = ssl.create_default_context(cafile=self.ca_bundle)
        connection = http.client.HTTPSConnection(host, port, timeout=timeout, context=self._tls)
        if self.proxy is not None:
            connection.set_tunnel(self.host, self.port, headers=self._tunnel_headers)
        return connection


def _json_body(payload: object) -> bytes:
    return json.dumps(payload).encode("utf-8")


def _exchange(connection: http.client.HTTPConnection, method: str, target: str, body: bytes | None,
              fields: Mapping[str, str]) -> http.client.HTTPResponse:
    """Send one request on ``connection`` and read the reply's head."""
    connection.putrequest(method, target, skip_accept_encoding=True)
    for name, value in fields.items():
        connection.putheader(name, value)
    connection.endheaders(body)
    return connection.getresponse()


def _retry_delay(response: HttpReply | None, attempt: int) -> float:
    """Seconds to wait after failed attempt ``attempt`` (0-based): the
    response's Retry-After when it gives a usable number of seconds, else
    0.5 * 2**attempt.  A negative, infinite or NaN value, or one that
    :func:`time.sleep` cannot take, counts as not given."""
    header = None if response is None else response.headers.get("Retry-After")
    if header is not None:
        try:
            delay = float(header)
        except ValueError:
            pass
        else:
            if 0.0 <= delay < threading.TIMEOUT_MAX:  # False for NaN
                return delay
    return 0.5 * 2**attempt


def send_with_retries(
    send: Callable[[], HttpReply],
    *,
    max_retries: int,
    sleep: Callable[[float], None],
) -> HttpReply:
    """Call ``send`` until its outcome is final; the one HTTP retry policy.

    A :class:`TransportError` (the connection failed or timed out), HTTP 429
    and HTTP 5xx are retried up to ``max_retries`` times, each after
    :func:`_retry_delay`.  Returns the last reply, whatever its status, or
    re-raises the last transport error; the caller maps either to its own
    error types.
    """
    attempt = 0
    while True:
        response = None
        try:
            response = send()
        except TransportError:
            if attempt >= max_retries:
                raise
        else:
            status = response.status_code
            if attempt >= max_retries or not (status == 429 or status >= 500):
                return response
        sleep(_retry_delay(response, attempt))
        attempt += 1


class HttpBackend:
    """Live backend over a chat/completions-style HTTP JSON endpoint.

    The provider is assumed to lack native multi-sample support, so an
    ``n_samples > 1`` request issues one HTTP call per sample (set
    ``supports_multi_sample=True`` to send a single call with ``n``); those
    calls go out concurrently through :func:`fan_out`.  A token bucket paces
    every attempt; :func:`send_with_retries` retries connection errors, 429
    and 5xx up to ``max_retries`` times before surfacing
    ``BackendUnavailable``, ``RateLimited`` or ``ProviderError``; a redirect
    is a ``ProviderError`` too.  Without a ``session`` it builds an
    :class:`HttpSession` for its URL.
    """

    waits_on_network = True

    def __init__(
        self,
        model: str,
        *,
        base_url: str | None = None,
        api_key: str | None = None,
        timeout: float = 30.0,
        requests_per_second: float = 1.0,
        max_retries: int = 3,
        supports_multi_sample: bool = False,
        session: HttpSession | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        base_url = base_url or os.environ.get(BASE_URL_ENV)
        if not base_url:
            raise ValueError(f"no base URL: pass base_url or set {BASE_URL_ENV}")
        self.model = model
        self.url = base_url.rstrip("/") + "/chat/completions"
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self.timeout = timeout
        self.max_retries = max_retries
        self.supports_multi_sample = supports_multi_sample
        self.backend_id = f"http:{model}"
        self._session = session or HttpSession(self.url)
        self._headers = {"Authorization": f"Bearer {self.api_key}"} if self.api_key else {}
        self._sleep = sleep
        self._bucket = TokenBucket(requests_per_second)

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        if self.supports_multi_sample:
            texts = self._call(request, request.n_samples)
        else:
            texts = fan_out(lambda _: self._call(request, 1)[0], range(request.n_samples))
        return CompletionResponse(texts=tuple(texts), backend_id=self.backend_id)

    def _call(self, request: CompletionRequest, n: int) -> list[str]:
        payload: dict = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
            "n": n,
        }
        if request.stop is not None:
            payload["stop"] = list(request.stop)

        def send() -> HttpReply:
            self._bucket.acquire()
            return self._session.post(json=payload, headers=self._headers, timeout=self.timeout)

        try:
            resp = send_with_retries(send, max_retries=self.max_retries, sleep=self._sleep)
        except TransportError as exc:
            raise BackendUnavailable(f"request to {self.url} failed: {exc}") from exc
        if resp.status_code == 429:
            raise RateLimited(_retry_delay(resp, self.max_retries))
        if resp.status_code >= 300:  # redirects are not followed
            raise ProviderError(resp.status_code, resp.text)
        try:
            choices = resp.json()["choices"]
            texts = [c["message"]["content"] for c in choices]
            if not all(isinstance(text, str) for text in texts):
                raise TypeError("a choice's content is not a string")
            "".join(texts).encode("utf-8")  # a lone surrogate raises UnicodeEncodeError, a ValueError
        except (ValueError, KeyError, TypeError):
            raise ProviderError(resp.status_code, f"unexpected response shape: {resp.text[:200]}")
        if len(texts) != n:
            raise ProviderError(resp.status_code, f"expected {n} choices, got {len(texts)}")
        return texts


class ContentStore:
    """Content-addressed JSON entries, shared by the completion and news caches.

    Layout: ``<root>/<first 2 hex>/<digest>.json``, one file per key digest
    (:func:`key_digest`), written atomically (temp file + rename).  In
    replay-only mode a miss raises :class:`ReplayMiss`, so the caller never
    computes a fresh value; a recording store's :meth:`get_or_compute` is
    single-flight.

    The store owns every fresh entry until :meth:`flush` writes it: until
    then it is pending, and :meth:`load` reads it from memory.  Inside
    :func:`collecting_entries` the entries a block records or reads pending
    are noted for its caller to flush; outside, an entry is flushed where it
    is computed.  An entry whose write failed stays pending, and readable,
    until the store is gone, and the next flush of it tries again.
    """

    def __init__(self, root: str | Path, *, replay_only: bool = False):
        self.root = Path(root)
        if not replay_only:  # a replay-only store never writes
            self.root.mkdir(parents=True, exist_ok=True)
        self.replay_only = replay_only
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._in_flight: dict[str, threading.Lock] = {}
        self._pending: dict[str, str] = {}  # digest -> the text its file will hold
        self._prefix = str(self.root / "_")[:-1]  # what ``root / name`` puts before ``name``

    def path(self, digest: str) -> str:
        return f"{self._prefix}{digest[:2]}{os.sep}{digest}.json"

    def load(self, digest: str, decode: Callable[[dict], _T]) -> _T | None:
        """The decoded entry for ``digest``, pending or on disk, or None on a
        miss to be recorded.

        An entry that cannot be read (a directory, EACCES, EIO), that is not
        JSON or that ``decode`` cannot read (KeyError, TypeError, ValueError)
        raises :class:`CacheCorrupt`.
        """
        path = self.path(digest)
        text = self._pending.get(digest)
        if text is None:
            try:
                with open(path, "rb") as handle:
                    raw = handle.read()
            except FileNotFoundError:
                if self.replay_only:
                    raise ReplayMiss(digest) from None
                with self._lock:
                    self.misses += 1
                return None
            except OSError:
                raise CacheCorrupt(path) from None
        elif (entries := _collected.get()) is not None:
            # the reader's trace must not reach disk before this entry does
            entries[self, digest] = None
        try:
            value = decode(json.loads(raw.decode("utf-8") if text is None else text))
        except (ValueError, KeyError, TypeError):
            raise CacheCorrupt(path) from None
        with self._lock:
            self.hits += 1
        return value

    def flush(self, digest: str) -> None:
        """Write the entry pending under ``digest`` unless its file is there
        already, then drop it from memory; an entry not pending is left
        alone.  A write that fails raises, and the entry stays pending."""
        if (text := self._pending.get(digest)) is not None:
            if not os.path.exists(path := self.path(digest)):  # else another process went first
                write_text_atomic(path, text)
            # only once its file is there, so that a reader finds the entry in one place or the other
            self._pending.pop(digest, None)

    def get_or_compute(
        self,
        key: object,
        compute: Callable[[], _T],
        *,
        decode: Callable[[dict], _T],
        encode: Callable[[_T], dict],
    ) -> _T:
        """The entry recorded for ``key``, or ``compute()`` recorded as one.

        ``decode`` reads a stored entry back; ``encode`` turns a fresh value
        into the entry's payload, which also records ``key`` itself as
        ``"key"``, its digest and a timestamp.  The fresh entry is pending
        and noted for the caller of :func:`collecting_entries`, or, outside
        one, flushed here.  A caller whose digest is in flight in another
        thread waits for it, then looks the digest up again: it finds the
        entry that caller recorded, or takes the same error path.  So
        concurrent callers make one ``compute()`` call, and hits and misses
        count as in a serial run.
        """
        digest = key_digest(key)
        if self.replay_only:  # never computes, so nothing is in flight
            return self.load(digest, decode)  # type: ignore[return-value]
        while True:
            with self._lock:
                flight = self._in_flight.get(digest)
                if flight is None:
                    # held until this caller is done with the digest
                    self._in_flight[digest] = done = threading.Lock()
                    done.acquire()
                    break
            with flight:
                pass
        try:
            stored = self.load(digest, decode)
            if stored is not None:
                return stored
            value = compute()
            entry = {"digest": digest, "key": key, **encode(value),
                     "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
            self._pending[digest] = json.dumps(entry, ensure_ascii=False)
            if (entries := _collected.get()) is None:
                self.flush(digest)
            else:
                entries[self, digest] = None
            return value
        finally:
            with self._lock:
                del self._in_flight[digest]
            done.release()


# The entries a collecting caller has noted; see collecting_entries.
_collected: contextvars.ContextVar[dict[tuple[ContentStore, str], None] | None] = contextvars.ContextVar(
    "collected_entries", default=None
)


@contextlib.contextmanager
def collecting_entries() -> Iterator[dict[tuple[ContentStore, str], None]]:
    """Within the block, in this thread and in the tasks it hands to
    :func:`fan_out`, each entry a :class:`ContentStore` records, and each
    pending entry one reads, stays pending and joins the yielded dict as
    ``(store, digest)``, once, in the order of first use.  The caller
    flushes them when it chooses; an entry whose flush fails stays pending,
    and readable from memory, until the store is gone."""
    entries: dict[tuple[ContentStore, str], None] = {}
    token = _collected.set(entries)
    try:
        yield entries
    finally:
        _collected.reset(token)


def _response_from_entry(entry: dict) -> CompletionResponse:
    response = entry["response"]
    texts = response["texts"]
    if not isinstance(texts, list) or not all(isinstance(text, str) for text in texts):
        raise TypeError(f"cached texts are not a list of strings: {texts!r}")
    "".join(texts).encode("utf-8")  # a lone surrogate raises UnicodeEncodeError, a ValueError
    return CompletionResponse(**{**response, "texts": tuple(texts), "cached": True})


def _entry_from_response(response: CompletionResponse) -> dict:
    stored = json_data(response)
    del stored["cached"]  # how this response was obtained, not part of it
    return {"response": stored}


class CachedBackend:
    """Record/replay wrapper around another backend, over a :class:`ContentStore`.

    In replay-only mode a miss is an error and the inner backend is never
    called.  A response recorded inside :func:`collecting_entries` is pending
    until the collecting caller flushes it; until then identical requests
    read it from memory.
    """

    def __init__(self, cache_dir: str | Path, backend: CompletionBackend, *, replay_only: bool = False):
        self.store = ContentStore(cache_dir, replay_only=replay_only)
        self.backend = backend
        self.backend_id = backend.backend_id

    @property
    def waits_on_network(self) -> bool:
        # a replay-only cache never passes a request on
        return not self.store.replay_only and getattr(self.backend, "waits_on_network", False)

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        return self.store.get_or_compute(
            {"backend_id": self.backend_id, **vars(request)},
            lambda: complete(self.backend, request),
            decode=_response_from_entry,
            encode=_entry_from_response,
        )
