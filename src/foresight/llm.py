"""Completion backends behind one small interface.

Three implementations: a live HTTP backend speaking a chat/completions-style
JSON API, a deterministic scripted mock for offline runs, and a
content-addressed record/replay cache that wraps either.  Cache keys are the
SHA-256 of the backend id plus the canonicalized request, so any change to
prompt or sampling parameters is a distinct entry.  The cache's
:class:`ContentStore`, the HTTP retry policy of :func:`send_with_retries` and
the sessions of :func:`http_session` also serve the news clients.  Calls that
do not depend on each other go out concurrently through :func:`fan_out`.
"""

from __future__ import annotations

import contextvars
import hashlib
import json
import os
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Protocol, Sequence, TypeVar

import requests
from requests.adapters import HTTPAdapter

from .events import json_data, read_json_lines, write_text_atomic

__all__ = [
    "CompletionRequest",
    "CompletionResponse",
    "CompletionBackend",
    "BackendError",
    "BackendUnavailable",
    "RateLimited",
    "ProviderError",
    "NoRuleMatched",
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
    "TokenBucket",
    "send_with_retries",
    "fan_out",
    "http_session",
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


class ReplayMiss(BackendError):
    """Replay-only cache lookup found no recorded entry."""

    def __init__(self, digest: str):
        super().__init__(f"no cached response for digest {digest}")
        self.digest = digest


class CacheCorrupt(BackendError):
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


def _canonical_json(key: object) -> str:
    # Sorted keys fix the order, so logically equal keys serialize identically.
    return json.dumps(key, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


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
    if not isinstance(pattern, (str, type(None))):
        raise ValueError("pattern must be a string")
    return MockRule(match=match, pattern=pattern, response=response)


class MockBackend:
    """Deterministic scripted backend: ordered rules, first match wins."""

    def __init__(self, rules: Sequence[MockRule], *, backend_id: str = "mock"):
        self.rules = tuple(rules)
        self.backend_id = backend_id
        self.calls = 0
        self._lock = threading.Lock()

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
        with self._lock:
            self.calls += 1
        for rule in self.rules:
            if rule.matches(request.prompt):
                return CompletionResponse(
                    texts=rule.sample_texts(request.n_samples),
                    backend_id=self.backend_id,
                )
        raise NoRuleMatched(request.prompt)


class TokenBucket:
    """Blocking token bucket holding at most one token.  ``rate`` is tokens
    added per second."""

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
        self._tokens = 1.0
        self._updated = clock()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = self._clock()
                self._tokens = min(1.0, self._tokens + (now - self._updated) * self.rate)
                self._updated = now
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    return
                wait = (1.0 - self._tokens) / self.rate
            self._sleep(wait)


class NullBackend:
    """Backend that must never be called; pairs with a replay-only cache."""

    def __init__(self, backend_id: str):
        self.backend_id = backend_id
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        with self._lock:
            self.calls += 1
        raise BackendUnavailable("replay backend cannot issue live calls")


def _retry_delay(response: requests.Response | None, attempt: int) -> float:
    """Seconds to wait after failed attempt ``attempt`` (0-based): the
    response's Retry-After when it gives one, else 0.5 * 2**attempt."""
    header = None if response is None else response.headers.get("Retry-After")
    if header is not None:
        try:
            return max(0.0, float(header))
        except ValueError:
            pass
    return 0.5 * 2**attempt


def send_with_retries(
    send: Callable[[], requests.Response],
    *,
    max_retries: int,
    sleep: Callable[[float], None],
) -> requests.Response:
    """Call ``send`` until its outcome is final; the one HTTP retry policy.

    A connection error or timeout, HTTP 429 and HTTP 5xx are retried up to
    ``max_retries`` times, each after :func:`_retry_delay`.  Returns the last
    response, whatever its status, or re-raises the last connection error;
    the caller maps either to its own error types.
    """
    attempt = 0
    while True:
        response = None
        try:
            response = send()
        except (requests.ConnectionError, requests.Timeout):
            if attempt >= max_retries:
                raise
        else:
            status = response.status_code
            if attempt >= max_retries or not (status == 429 or status >= 500):
                return response
        sleep(_retry_delay(response, attempt))
        attempt += 1


def http_session(url: str) -> requests.Session:
    """A session for requests to ``url`` that reads the environment once.

    ``requests`` looks up proxies, the CA bundle and netrc credentials in the
    environment on every request.  This session resolves them for ``url``
    when it is built, as ``requests`` would, and then stops looking.  Its
    connection pool holds one connection per :func:`fan_out` thread.
    """
    session = requests.Session()
    settings = session.merge_environment_settings(url, {}, None, None, None)
    session.proxies = settings["proxies"]
    session.verify = settings["verify"]
    session.auth = requests.utils.get_netrc_auth(url)
    session.trust_env = False
    adapter = HTTPAdapter(pool_maxsize=FAN_OUT_THREADS)
    session.mount("http://", adapter)
    session.mount("https://", adapter)
    return session


class HttpBackend:
    """Live backend over a chat/completions-style HTTP JSON endpoint.

    The provider is assumed to lack native multi-sample support, so an
    ``n_samples > 1`` request issues one HTTP call per sample (set
    ``supports_multi_sample=True`` to send a single call with ``n``); those
    calls go out concurrently through :func:`fan_out`.  A token bucket paces
    every attempt; :func:`send_with_retries` retries connection errors, 429
    and 5xx up to ``max_retries`` times before surfacing
    ``BackendUnavailable``, ``RateLimited`` or ``ProviderError``.  Without a
    ``session`` it builds one with :func:`http_session`.
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
        session: requests.Session | None = None,
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
        self.calls = 0
        self._calls_lock = threading.Lock()
        self._session = session or http_session(self.url)
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
        headers = {}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"

        def send() -> requests.Response:
            self._bucket.acquire()
            with self._calls_lock:
                self.calls += 1
            return self._session.post(self.url, json=payload, headers=headers, timeout=self.timeout)

        try:
            resp = send_with_retries(send, max_retries=self.max_retries, sleep=self._sleep)
        except requests.RequestException as exc:
            raise BackendUnavailable(str(exc)) from exc
        if resp.status_code == 429:
            raise RateLimited(_retry_delay(resp, self.max_retries))
        if resp.status_code >= 400:
            raise ProviderError(resp.status_code, resp.text)
        try:
            choices = resp.json()["choices"]
            texts = [c["message"]["content"] for c in choices]
            if not all(isinstance(text, str) for text in texts):
                raise TypeError("a choice's content is not a string")
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
    computes a fresh value.  :meth:`get_or_compute` is single-flight.
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

    def path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.json"

    def load(self, digest: str, decode: Callable[[dict], _T]) -> _T | None:
        """The decoded entry for ``digest``, or None on a miss to be recorded.

        An entry that is not JSON or that ``decode`` cannot read (KeyError,
        TypeError, ValueError) raises :class:`CacheCorrupt`.
        """
        path = self.path(digest)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            if self.replay_only:
                raise ReplayMiss(digest) from None
            with self._lock:
                self.misses += 1
            return None
        try:
            value = decode(json.loads(raw.decode("utf-8")))
        except (ValueError, KeyError, TypeError):
            raise CacheCorrupt(path) from None
        with self._lock:
            self.hits += 1
        return value

    def save(self, digest: str, payload: dict) -> None:
        """Write ``payload`` under ``digest``, with the digest and a timestamp."""
        record = {
            "digest": digest,
            **payload,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        path = self.path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_text_atomic(path, json.dumps(record, ensure_ascii=False))

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
        into the payload :meth:`save` writes, which also records ``key``
        itself as ``"key"``.  A caller whose digest is in flight in another
        thread waits for it, then looks the digest up again: it finds the
        entry that caller recorded, or takes the same error path.  So concurrent callers make one ``compute()`` call, and
        hits and misses count as in a serial run.
        """
        digest = key_digest(key)
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
            self.save(digest, {"key": key, **encode(value)})
            return value
        finally:
            with self._lock:
                del self._in_flight[digest]
            done.release()


def _response_from_entry(entry: dict) -> CompletionResponse:
    response = entry["response"]
    texts = response["texts"]
    if not isinstance(texts, list) or not all(isinstance(text, str) for text in texts):
        raise TypeError(f"cached texts are not a list of strings: {texts!r}")
    return CompletionResponse(**{**response, "texts": tuple(texts), "cached": True})


def _entry_from_response(response: CompletionResponse) -> dict:
    stored = json_data(response)
    del stored["cached"]  # how this response was obtained, not part of it
    return {"response": stored}


class CachedBackend:
    """Record/replay wrapper around another backend, over a :class:`ContentStore`.

    In replay-only mode a miss is an error and the inner backend is never
    called.
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
