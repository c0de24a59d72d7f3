"""Headline retrieval with a snapshot-date cutoff for news-aware forecasts."""

from __future__ import annotations

import time
from dataclasses import dataclass
from datetime import date, datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Callable, Protocol, Sequence

from .events import json_data, parse_date
from .llm import ContentStore, HttpSession, ReplayMiss, TransportError, send_with_retries

__all__ = [
    "DEFAULT_HN_ENDPOINT",
    "DEFAULT_MAX_RESULTS",
    "DEFAULT_NYT_ENDPOINT",
    "CachedNewsClient",
    "HackerNewsClient",
    "Headline",
    "NYTClient",
    "NYT_API_KEY_ENV",
    "NetworkError",
    "NewsClient",
    "NewsError",
    "QueryWindow",
    "ReplayMiss",
    "Source",
    "UpstreamError",
    "format_headlines",
    "query_headlines",
]

DEFAULT_HN_ENDPOINT = "https://hn.algolia.com/api/v1/search_by_date"
DEFAULT_NYT_ENDPOINT = "https://api.nytimes.com/svc/search/v2/articlesearch.json"
NYT_API_KEY_ENV = "FORESIGHT_NYT_API_KEY"
DEFAULT_MAX_RESULTS = 25
DEFAULT_TIMEOUT = 10.0

# NYT article search returns at most this many documents per page.
_NYT_PAGE_SIZE = 10
_NYT_MAX_PAGES = 100


class NewsError(RuntimeError):
    """Base class for headline retrieval failures."""


class NetworkError(NewsError):
    """Raised when a headline service cannot be reached."""


class UpstreamError(NewsError):
    """Raised when a headline service answers with an error."""

    def __init__(self, status: int, body: str):
        self.status = status
        self.body = body
        super().__init__(f"news service returned {status}: {body}")


class Source(Enum):
    HACKERNEWS = "hackernews"
    NYT = "nyt"


@dataclass(frozen=True)
class Headline:
    """One dated headline from a single source."""

    title: str
    date: date
    source: Source

    def __post_init__(self):
        if not isinstance(self.title, str) or not self.title:
            raise ValueError(f"headline title must be non-empty text, got {self.title!r}")
        self.title.encode("utf-8")  # a lone surrogate raises UnicodeEncodeError, a ValueError


@dataclass(frozen=True)
class QueryWindow:
    """Search terms plus the latest publication date allowed in results."""

    terms: tuple[str, ...]
    until: date
    max_results: int = DEFAULT_MAX_RESULTS

    def __post_init__(self):
        if not self.terms or any(not term.strip() for term in self.terms):
            raise ValueError("query terms must be non-empty")
        if self.max_results <= 0:
            raise ValueError("max_results must be positive")

    @property
    def query(self) -> str:
        return " ".join(self.terms)


class NewsClient(Protocol):
    """What every news client offers.  A client whose searches wait on the
    network also sets ``waits_on_network = True``, as a completion backend
    does; ``foresight run`` then runs events concurrently."""

    source: Source

    def search(self, window: QueryWindow) -> tuple[Headline, ...]: ...


class _JsonService:
    """GET of a JSON search endpoint under the HTTP retry policy of
    :func:`~foresight.llm.send_with_retries`, failing with :class:`NewsError`
    (a redirect too); without a ``session`` it builds an
    :class:`~foresight.llm.HttpSession` for ``endpoint``."""

    waits_on_network = True

    def __init__(
        self,
        endpoint: str,
        *,
        timeout: float = DEFAULT_TIMEOUT,
        max_retries: int = 2,
        session: HttpSession | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.endpoint = endpoint
        self.timeout = timeout
        self.max_retries = max_retries
        self.session = session or HttpSession(endpoint)
        self._sleep = sleep

    def _get_json(self, params: dict):
        try:
            response = send_with_retries(
                lambda: self.session.get(params=params, timeout=self.timeout),
                max_retries=self.max_retries,
                sleep=self._sleep,
            )
        except TransportError as exc:
            raise NetworkError(f"request to {self.endpoint} failed: {exc}") from None
        if response.status_code != 200:
            raise UpstreamError(response.status_code, response.text[:200])
        try:
            return response.json()
        except ValueError as exc:
            raise UpstreamError(response.status_code, f"invalid json: {exc}") from None


def _reply_part(obj: object, key: str, kind: type[list] | type[dict]) -> list | dict:
    """``obj[key]``, empty when absent; any other reply shape is an UpstreamError."""
    value = obj.get(key, kind()) if isinstance(obj, dict) else None
    if not isinstance(value, kind):
        raise UpstreamError(200, f"malformed reply: no {kind.__name__} under {key!r}")
    return value


def _headline(title: object, published: object, source: Source) -> Headline | None:
    """One search result's headline; None when its title or date is unusable.
    A title that is not valid Unicode fails the search as an UpstreamError."""
    if not title or not isinstance(title, str) or not isinstance(published, str):
        return None
    try:
        title.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate, from an escape such as "\udc80"
        raise UpstreamError(200, f"headline title is not valid Unicode: {title!r}") from None
    try:
        # timestamps vary by service; only the calendar date matters
        return Headline(title=title, date=parse_date(published[:10]), source=source)
    except ValueError:
        return None


class HackerNewsClient(_JsonService):
    """Story search against the Hacker News Algolia API."""

    source = Source.HACKERNEWS

    def __init__(self, endpoint: str = DEFAULT_HN_ENDPOINT, **options):
        super().__init__(endpoint, **options)

    def search(self, window: QueryWindow) -> tuple[Headline, ...]:
        cutoff = int(
            datetime(
                window.until.year,
                window.until.month,
                window.until.day,
                23,
                59,
                59,
                tzinfo=timezone.utc,
            ).timestamp()
        )
        params = {
            "query": window.query,
            "tags": "story",
            "hitsPerPage": str(window.max_results),
            "numericFilters": f"created_at_i<={cutoff}",
        }
        hits = _reply_part(self._get_json(params), "hits", list)
        headlines = (
            _headline(hit.get("title") or hit.get("story_title"), hit.get("created_at"), self.source)
            for hit in hits
            if isinstance(hit, dict)
        )
        return tuple(headline for headline in headlines if headline is not None)


class NYTClient(_JsonService):
    """Article search against the New York Times archive.  Without an API key
    every search fails with :class:`NewsError` before any request is sent."""

    source = Source.NYT

    def __init__(self, api_key: str | None, endpoint: str = DEFAULT_NYT_ENDPOINT, **options):
        super().__init__(endpoint, **options)
        self.api_key = api_key
        self.waits_on_network = bool(api_key)

    def search(self, window: QueryWindow) -> tuple[Headline, ...]:
        if not self.api_key:
            raise NewsError(f"set {NYT_API_KEY_ENV} to query the New York Times")
        headlines: list[Headline] = []
        page = 0
        while len(headlines) < window.max_results and page < _NYT_MAX_PAGES:
            params = {
                "q": window.query,
                "end_date": window.until.strftime("%Y%m%d"),
                "api-key": self.api_key,
                "page": str(page),
            }
            response = _reply_part(self._get_json(params), "response", dict)
            docs = _reply_part(response, "docs", list)
            if not docs:
                break
            for doc in docs:
                if isinstance(doc, dict) and isinstance(doc.get("headline"), dict):
                    headline = _headline(doc["headline"].get("main"), doc.get("pub_date"), self.source)
                    if headline is not None:
                        headlines.append(headline)
            if len(docs) < _NYT_PAGE_SIZE:
                break
            page += 1
        return tuple(headlines)


def _normalize(headlines: Sequence[Headline], window: QueryWindow) -> tuple[Headline, ...]:
    # Sole cutoff guard: nothing published after the window may survive,
    # whatever the service returned.
    kept = [headline for headline in headlines if headline.date <= window.until]
    kept.sort(key=lambda headline: headline.date, reverse=True)
    seen = set()
    unique = []
    for headline in kept:
        key = (headline.title, headline.date)
        if key in seen:
            continue
        seen.add(key)
        unique.append(headline)
    return tuple(unique[: window.max_results])


def query_headlines(client: NewsClient, window: QueryWindow) -> tuple[Headline, ...]:
    """Search plus cutoff filtering, deduplication, and newest-first ordering."""
    return _normalize(client.search(window), window)


def _headlines_from_entry(entry: dict) -> tuple[Headline, ...]:
    return tuple(
        Headline(**{**item, "date": parse_date(item["date"]), "source": Source(item["source"])})
        for item in entry["headlines"]
    )


class CachedNewsClient:
    """Record/replay cache over another news client, in the completion cache's
    :class:`~foresight.llm.ContentStore` format."""

    def __init__(self, cache_dir: str | Path, client: NewsClient, *, replay_only: bool = False):
        self.store = ContentStore(cache_dir, replay_only=replay_only)
        self.client = client
        self.source = client.source

    @property
    def waits_on_network(self) -> bool:
        # a replay-only cache never passes a search on
        return not self.store.replay_only and getattr(self.client, "waits_on_network", False)

    def search(self, window: QueryWindow) -> tuple[Headline, ...]:
        return self.store.get_or_compute(
            {"source": self.client.source.value, **json_data(window)},
            lambda: self.client.search(window),
            decode=_headlines_from_entry,
            encode=lambda headlines: {"headlines": json_data(headlines)},
        )


def format_headlines(headlines: Sequence[Headline]) -> str:
    """Render headlines one per line as 'Headline N -- date: title'."""
    return "\n".join(
        f"Headline {index} -- {headline.date.isoformat()}: {headline.title}"
        for index, headline in enumerate(headlines, start=1)
    )
