"""Spans around the calls into each foresight module, installed from outside.

The tracer replaces the module and class attributes through which the
program calls each layer (``foresight.cli.run_strategy``,
``foresight.strategies.render``, ``HttpBackend.complete``, ...) with timing
wrappers and puts the originals back on :meth:`Tracer.uninstall`. Nothing
under ``src/`` knows about it. Each span records its name, start, end, parent
span and event id; spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict

import requests

import foresight.cli
import foresight.llm
import foresight.news
import foresight.prompts
import foresight.strategies

# (owner, attribute, span name). Span names follow the module that owns the code.
_TARGETS = (
    (foresight.cli, "load_dataset", "events.load_dataset"),
    (foresight.cli, "run_strategy", "strategies.run_strategy"),
    (foresight.cli, "save_trace", "strategies.save_trace"),
    (foresight.cli, "save_forecasts", "metrics.save_forecasts"),
    (foresight.cli, "load_forecasts", "metrics.load_forecasts"),
    (foresight.cli, "market_forecast_records", "metrics.market_forecast_records"),
    (foresight.cli, "score", "metrics.score"),
    (foresight.strategies, "render", "prompts.render"),
    (foresight.prompts, "render", "prompts.render"),
    (foresight.strategies, "extract_probability", "prompts.extract_probability"),
    (foresight.prompts, "parse_probability", "prompts.parse_probability"),
    (foresight.strategies, "complete", "llm.complete"),
    (foresight.prompts, "complete", "llm.complete"),
    (foresight.llm.CachedBackend, "complete", "llm.CachedBackend.complete"),
    (foresight.llm.HttpBackend, "complete", "llm.HttpBackend.complete"),
    (foresight.llm.TokenBucket, "acquire", "llm.TokenBucket.acquire"),
    (requests.Session, "post", "llm.http.post"),
    (foresight.news.CachedNewsClient, "search", "news.search"),
    (foresight.news.HackerNewsClient, "search", "news.search"),
    (foresight.news.NYTClient, "search", "news.search"),
)

# Counters that do not depend on timing; every traced round must repeat them.
DETERMINISTIC = (
    "prompts.render.calls",
    "prompts.extract_probability.calls",
    "prompts.parse_probability.calls",
    "prompts.extractor_success_share",
    "strategies.run_strategy.calls",
    "strategies.save_trace.bytes_per_event",
    "llm.requests_per_event",
    "llm.sample_calls_per_event",
    "llm.distinct_requests_per_event",
    "llm.http.posts_per_event",
    "llm.cache.hits",
    "llm.cache.misses",
    "llm.cache.files_read_per_event",
    "llm.cache.files_written_per_event",
    "news.search.calls",
    "news.cache.hits",
    "news.cache.misses",
    "provider_calls_per_event",
    "news_calls_per_event",
)


class Tracer:
    """Collects the spans and call facts of one traced round."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, event_id)
        self.notes: list[tuple] = []  # (fact, event_id, value)
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Worker threads start with an empty stack; their spans hang off the
        # `cli` invocation that submitted them.
        self._root = (0, None, "")
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current(self) -> tuple:
        stack = self._stack()
        return stack[-1] if stack else self._root

    def call(self, name, fn, args=(), kwargs=None, *, event_id=None, root=False):
        """Run ``fn`` inside a span named ``name`` and return its result."""
        parent, parent_event, _ = self._current()
        span_id = next(self._ids)
        event = event_id if event_id is not None else parent_event
        frame = (span_id, event, name)
        stack = self._stack()
        stack.append(frame)
        if root:
            self._root = frame
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
            if root:
                self._root = (0, None, "")
            self.spans.append((span_id, name, start, end, parent, event))

    def note(self, fact: str, value=1) -> None:
        self.notes.append((fact, self._current()[1], value))

    def _wrapper(self, name, original):
        tracer = self
        local = self._local

        def plain(*args, **kwargs):
            return tracer.call(name, original, args, kwargs)

        def run_strategy(*args, **kwargs):
            event = _argument(args, kwargs, 1, "event")
            return tracer.call(name, original, args, kwargs, event_id=event.id)

        def save_trace(*args, **kwargs):
            result = tracer.call(name, original, args, kwargs)
            tracer.note("save_trace.bytes", os.path.getsize(_argument(args, kwargs, 1, "path")))
            return result

        def complete(*args, **kwargs):
            tracer.note("llm.request", _request_identity(_argument(args, kwargs, 1, "request")))
            return tracer.call(name, original, args, kwargs)

        def extract_probability(*args, **kwargs):
            value, detail = tracer.call(name, original, args, kwargs)
            if detail.prompt is not None:
                tracer.note("extractor.request")
                if not detail.fallback_used:
                    tracer.note("extractor.success")
            return value, detail

        def cached_backend_complete(*args, **kwargs):
            try:
                response = tracer.call(name, original, args, kwargs)
            except foresight.llm.ReplayMiss:
                tracer.note("llm.cache.miss")
                raise
            tracer.note("llm.cache.hit" if response.cached else "llm.cache.miss")
            return response

        def news_search(*args, **kwargs):
            if isinstance(args[0], foresight.news.CachedNewsClient):
                local.fetched = False
                result = tracer.call(name, original, args, kwargs)
                tracer.note("news.cache.miss" if local.fetched else "news.cache.hit")
                return result
            if tracer._current()[2] == name:
                # a cache miss going through to the service
                local.fetched = True
                return tracer.call("news.fetch", original, args, kwargs)
            return tracer.call(name, original, args, kwargs)

        wrapped = {
            "strategies.run_strategy": run_strategy,
            "strategies.save_trace": save_trace,
            "llm.complete": complete,
            "prompts.extract_probability": extract_probability,
            "llm.CachedBackend.complete": cached_backend_complete,
            "news.search": news_search,
        }.get(name, plain)
        wrapped.__wrapped__ = original
        return wrapped

    def install(self) -> None:
        """Wrap every target; a target that was moved or renamed is an error."""
        for owner, attribute, name in _TARGETS:
            if attribute not in owner.__dict__:
                raise LookupError(f"cannot trace {name}: {owner.__name__}.{attribute} is gone")
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrapper(name, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()

    def write(self, handle) -> None:
        for span_id, name, start, end, parent, event in self.spans:
            record = {"id": span_id, "name": name, "start": start, "end": end,
                      "parent": parent, "event": event}
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def _argument(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _request_identity(request) -> tuple[int, str]:
    key = json.dumps(
        [request.prompt, request.temperature, request.n_samples, request.max_tokens, request.stop],
        separators=(",", ":"),
    )
    return request.n_samples, hashlib.sha256(key.encode("utf-8")).hexdigest()


def _covered(interval: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    total = 0.0
    reach = lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _groups(intervals: list[tuple[float, float]]) -> int:
    """Number of groups of overlapping intervals."""
    groups = 0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if start >= reach:
            groups += 1
        reach = max(reach, end)
    return groups


def round_summary(tracer: Tracer) -> dict:
    """Per-layer figures of one traced round, before averaging over rounds.

    Durations listed under ``_samples`` are pooled across rounds for
    percentiles by :func:`combine`.
    """
    by_name: dict[str, list[tuple]] = defaultdict(list)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in tracer.spans:
        span_id, name, start, end, parent, event = span
        by_name[name].append(span)
        children[parent].append((start, end))

    def total(name):
        return sum(end - start for _, _, start, end, _, _ in by_name[name])

    def self_time(name):
        return sum(
            (end - start) - _covered((start, end), children[span_id])
            for span_id, _, start, end, _, _ in by_name[name]
        )

    facts: dict[str, list] = defaultdict(list)
    for fact, event, value in tracer.notes:
        facts[fact].append((event, value))

    events = len(by_name["strategies.run_strategy"])
    per_event = (lambda value: value / events) if events else (lambda value: 0.0)
    distinct = defaultdict(set)
    for event, (_, digest) in facts["llm.request"]:
        distinct[event].add(digest)
    posts_by_event = defaultdict(list)
    for _, _, start, end, _, event in by_name["llm.http.post"]:
        posts_by_event[event].append((start, end))
    requests_made = len(facts["extractor.request"])
    hits, misses = len(facts["llm.cache.hit"]), len(facts["llm.cache.miss"])

    return {
        "cli.run.self_s": self_time("cli.run"),
        "events.load_dataset.s": total("events.load_dataset"),
        "prompts.render.calls": len(by_name["prompts.render"]),
        "prompts.render.s": total("prompts.render"),
        "prompts.extract_probability.calls": len(by_name["prompts.extract_probability"]),
        "prompts.extract_probability.self_s": self_time("prompts.extract_probability"),
        "prompts.parse_probability.calls": len(by_name["prompts.parse_probability"]),
        "prompts.parse_probability.s": total("prompts.parse_probability"),
        "prompts.extractor_success_share":
            len(facts["extractor.success"]) / requests_made if requests_made else 0.0,
        "strategies.run_strategy.calls": events,
        "strategies.save_trace.s": total("strategies.save_trace"),
        "strategies.save_trace.bytes_per_event":
            per_event(sum(value for _, value in facts["save_trace.bytes"])),
        "llm.requests_per_event": per_event(len(facts["llm.request"])),
        "llm.sample_calls_per_event": per_event(sum(n for _, (n, _) in facts["llm.request"])),
        "llm.distinct_requests_per_event": per_event(sum(len(keys) for keys in distinct.values())),
        "llm.http.posts_per_event": per_event(len(by_name["llm.http.post"])),
        "llm.http.round_trip_depth_per_event":
            per_event(sum(_groups(spans) for spans in posts_by_event.values())),
        "llm.HttpBackend.complete.s": total("llm.HttpBackend.complete"),
        "llm.TokenBucket.wait_s": total("llm.TokenBucket.acquire"),
        "llm.cache.hits": hits,
        "llm.cache.misses": misses,
        "llm.cache.hit_share": hits / (hits + misses) if hits + misses else 0.0,
        "llm.CachedBackend.complete.self_s": self_time("llm.CachedBackend.complete"),
        "llm.cache.files_read_per_event": per_event(hits),
        "news.search.calls": len(by_name["news.search"]),
        "news.search.s": total("news.search"),
        "news.cache.hits": len(facts["news.cache.hit"]),
        "news.cache.misses": len(facts["news.cache.miss"]),
        "metrics.market_forecast_records.s": total("metrics.market_forecast_records"),
        "metrics.score.s": total("metrics.score"),
        "metrics.save_forecasts.s": total("metrics.save_forecasts"),
        "metrics.load_forecasts.s": total("metrics.load_forecasts"),
        "_samples": {
            "run_strategy_ms": [1000 * (end - start) for _, _, start, end, _, _ in by_name["strategies.run_strategy"]],
            "post_ms": [1000 * (end - start) for _, _, start, end, _, _ in by_name["llm.http.post"]],
        },
    }
