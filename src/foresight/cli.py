"""Command line interface for running, scoring, and analyzing forecasts."""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import re
import signal
import sys
import threading
import traceback
from concurrent.futures import Future, ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Callable, Iterator

from .events import (
    Event, InputError, active_events, json_data, load_dataset, parse_date, write_text_atomic
)
from .llm import (
    API_KEY_ENV,
    BASE_URL_ENV,
    CachedBackend,
    CompletionBackend,
    HttpBackend,
    MockBackend,
    NullBackend,
    collecting_entries,
    split_url,
)
from .metrics import (
    ForecastRecord,
    bias,
    load_forecasts,
    market_forecast_records,
    prediction_shift,
    render_report,
    report_to_dict,
    round4,
    save_forecasts,
    score,
)
from .news import (
    DEFAULT_HN_ENDPOINT,
    DEFAULT_NYT_ENDPOINT,
    CachedNewsClient,
    HackerNewsClient,
    NYTClient,
    NYT_API_KEY_ENV,
    NewsClient,
)
from .strategies import (
    STRATEGY_IDS,
    ChainError,
    ChainTrace,
    FailedTrace,
    check_params,
    run_strategy,
    save_trace,
    trace_to_forecast,
    waits_on_network,
)

__all__ = ["EXIT_CONFIG", "EXIT_OK", "EXIT_RUN_FAILURES", "build_parser", "main"]

EXIT_OK = 0
EXIT_RUN_FAILURES = 1
EXIT_CONFIG = 2


# --config key -> (parser, check of the parsed value, what the check expects).
# A wait over threading.TIMEOUT_MAX would fail every event with OverflowError.
_CONFIG_KEYS = {
    "model": (str, bool, "a non-empty name"),
    "replay_backend_id": (str, bool, "a non-empty id"),
    "requests_per_second": (float, lambda value: value > 0 and 0 < 1 / value < threading.TIMEOUT_MAX,
                            f"a number above 1/{threading.TIMEOUT_MAX:.0f}"),
    "timeout": (float, lambda value: 0 < value <= threading.TIMEOUT_MAX,
                f"a positive number of seconds up to {threading.TIMEOUT_MAX:.0f}"),
    "max_retries": (int, lambda value: value >= 0, "a non-negative integer"),
    "supports_multi_sample": ({"0": False, "1": True}.__getitem__, None, "0 or 1"),
}

def _check_endpoint(flag: str, url: str | None) -> None:
    """A given endpoint must be a URL the HTTP transport can send to."""
    if url is not None:
        try:
            split_url(url, flag)
        except ValueError as exc:
            raise InputError(str(exc)) from None


def _parse_config(items) -> dict:
    """--config KEY=VALUE items, each parsed and range-checked by _CONFIG_KEYS."""
    config = {}
    for item in items or ():
        key, sep, text = item.partition("=")
        key, text = key.strip(), text.strip()
        if not sep or not key:
            raise InputError(f"--config expects KEY=VALUE, got {item!r}")
        if key not in _CONFIG_KEYS:
            raise InputError(f"unknown --config key {key!r}; known: {', '.join(_CONFIG_KEYS)}")
        parse, check, expected = _CONFIG_KEYS[key]
        try:
            value = parse(text)
        except (KeyError, ValueError):
            value = None
        if value is None or (check is not None and not check(value)):
            raise InputError(f"--config {key} must be {expected}, got {text!r}")
        config[key] = value
    return config


def build_backend(spec: str, config: dict) -> CompletionBackend:
    """Turn a --backend spec (live, mock:PATH, replay:DIR) into a backend."""
    if spec == "live":
        model = config.get("model")
        if not model:
            raise InputError("the live backend needs --config model=NAME")
        if not os.environ.get(BASE_URL_ENV):
            raise InputError(f"the live backend needs {BASE_URL_ENV} set")
        _check_endpoint(BASE_URL_ENV, os.environ[BASE_URL_ENV])
        # the key goes out in a header; the error never shows it
        if any(char in "\r\n" or char > "\xff" for char in os.environ.get(API_KEY_ENV, "")):
            raise InputError(f"{API_KEY_ENV} must hold no line break and only Latin-1 characters")
        # every other key set is the HttpBackend option of its name
        options = {key: config[key] for key in config.keys() - {"model", "replay_backend_id"}}
        return HttpBackend(model, **options)
    if spec.startswith("mock:"):
        path = spec[len("mock:"):]
        if not path:
            raise InputError("the mock backend needs a rules file: mock:PATH")
        try:
            return MockBackend.from_file(path)
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot load mock rules from {path}: {exc}") from None
    if spec.startswith("replay:"):
        # the inner backend only; cmd_run wraps it in the replay-only cache
        return NullBackend(config.get("replay_backend_id", "mock"))
    raise InputError(f"unknown backend spec {spec!r}; use live, mock:PATH, or replay:DIR")


def _build_news_clients(args, cache_dir: Path | None, replay_only: bool):
    def cached(client):
        if cache_dir is None:
            return client
        return CachedNewsClient(cache_dir / "news", client, replay_only=replay_only)

    # both built, and so their proxy checked, before a cache directory is made
    hn = HackerNewsClient(args.hn_endpoint or DEFAULT_HN_ENDPOINT)
    nyt = NYTClient(os.environ.get(NYT_API_KEY_ENV), args.nyt_endpoint or DEFAULT_NYT_ENDPOINT)
    # Never cached without a key: it records nothing, so a replay without the
    # key must take this same path to reproduce the run.
    return cached(hn), cached(nyt) if nyt.api_key else nyt


_UNSAFE_ID = re.compile(r"[^A-Za-z0-9._-]")
# The longest trace name whose ".failed.json" file still fits a 255-byte name.
_MAX_NAME = 255 - len(".failed.json")


def _safe_filename(event_id: str, taken: dict[str, str]) -> str:
    """The trace name of ``event_id``: safe characters only, at most
    ``_MAX_NAME`` long, and unique among ``taken`` (case-folded name -> id),
    as a case-insensitive filesystem compares names."""
    base = _UNSAFE_ID.sub("_", event_id) or "event"
    name = base
    counter = 2
    while True:
        if len(name) > _MAX_NAME:
            # a cut name ends in a digest of the whole id, which no other id shares
            name = name[:_MAX_NAME - 13] + "-" + hashlib.sha256(event_id.encode("utf-8")).hexdigest()[:12]
        if taken.setdefault(name.casefold(), event_id) == event_id:
            return name
        name = f"{base}_{counter}"
        counter += 1


def _cache_location(args) -> tuple[Path | None, bool]:
    """The cache directory of a run, if any, and whether it is replay-only."""
    if not args.backend.startswith("replay:"):
        return (Path(args.cache) if args.cache else None), False
    if args.cache:
        raise InputError("replay:DIR already reads a cache; do not combine it with --cache")
    directory = args.backend[len("replay:"):]
    if not (directory and Path(directory).is_dir()):
        raise InputError(f"nothing to replay: no cache directory {directory!r}")
    return Path(directory), True


# Offline runs of at least this many active events fork worker processes.
# Below it, starting the pool costs more than a second CPU saves: on 2 CPUs
# the cheapest chain (basic) breaks even at about 96 events, crowd at about 56.
_MIN_PROCESS_EVENTS = 96
# Events a forked worker takes per hand-off, to spread the cost of each
# hand-off while keeping the workers' last chunks short.
_PROCESS_CHUNK = 8


@dataclass(frozen=True)
class _Run:
    """What each event of one ``run`` needs: the chain's inputs and the trace's
    file name."""

    strategy: str
    today: date
    backend: CompletionBackend
    hn_client: NewsClient | None
    nyt_client: NewsClient | None
    params: dict[str, int]
    events: list[Event]
    names: list[str]
    out: Path


@dataclass(slots=True)
class _Outcome:
    """One event's finished chain, and what of it is left to write."""

    index: int  # the event's input index
    record: ForecastRecord | None  # None when the event failed
    failure: str | None
    details: str  # the traceback text of a fault outside the chain
    writers: list[Callable[[], None]]  # one per cache entry the chain recorded or read
    trace: ChainTrace | FailedTrace | None = None
    path: Path | None = None


def _run_event(run: _Run, index: int) -> _Outcome:
    """Run event ``index``'s chain, writing nothing."""
    event, ref = run.events[index], f"traces/{run.strategy}/{run.names[index]}"
    with collecting_entries() as writers:
        try:
            trace = run_strategy(
                run.strategy,
                event,
                run.today,
                run.backend,
                hn_client=run.hn_client,
                nyt_client=run.nyt_client,
                params=run.params,
            )
        except ChainError as exc:
            return _Outcome(index, None, str(exc), "", writers, exc.trace, run.out / f"{ref}.failed.json")
        except Exception as exc:
            # One event's unexpected fault must not cost the other events' results.
            details = "".join(traceback.format_exception(exc))
            return _Outcome(index, None, f"{type(exc).__name__}: {exc}", details, writers)
    name = f"{ref}.json"
    return _Outcome(index, trace_to_forecast(trace, trace_ref=name), None, "", writers, trace, run.out / name)


def _write_outcome(outcome: _Outcome) -> _Outcome:
    """Write every cache entry ``outcome``'s chain recorded or read, then its
    trace, so a trace on disk means those entries are; a write that fails
    fails the event.  Return ``outcome``, left with nothing to write."""
    fault = None
    for write in outcome.writers:  # each, so that a rerun recomputes only what failed
        try:
            write()
        except (OSError, UnicodeEncodeError) as exc:
            fault = fault or f"cache entry not written: {exc}"
    if fault is None and outcome.trace is not None:
        try:
            save_trace(outcome.trace, outcome.path)
        except (OSError, UnicodeEncodeError) as exc:
            fault = f"trace not written: {exc}"
    if fault is not None:
        # a write that fails fails its event, not the run
        outcome.record, outcome.failure = None, "; ".join(filter(None, (outcome.failure, fault)))
    outcome.writers, outcome.trace, outcome.path = [], None, None
    return outcome


def _run_events(run: _Run, indices) -> list[_Outcome]:
    """:func:`_run_event` of each of ``indices``: a batch of outcomes."""
    return [_run_event(run, index) for index in indices]


def _in_turn(run: _Run, unwritten: set[Future]) -> Iterator[Future]:
    """Run each event of ``run`` on this thread in turn, and give it as a done
    future of a one-outcome batch that also goes into ``unwritten``."""
    for index in range(len(run.events)):
        future = Future()
        future.set_result([_run_event(run, index)])
        unwritten.add(future)
        yield future


_forked_run: _Run | None = None  # set in each forked worker by _adopt


def _adopt(run: _Run) -> None:
    """Start a forked worker of ``run``; Ctrl-C is the parent's to handle."""
    global _forked_run
    _forked_run = run
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _forked_events(indices: range) -> list[_Outcome]:
    """:func:`_run_event` of each of ``indices`` in this forked worker's run,
    written here as its chain ends."""
    return [_write_outcome(_run_event(_forked_run, index)) for index in indices]


def _fork_pool(run: _Run, workers: int):
    """A pool of ``workers`` forked processes that run ``run``'s events, or
    None where the platform cannot fork. Forked, the workers inherit the
    backend and news clients rather than rebuilding them from the flags."""
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    context = multiprocessing.get_context("fork")
    return ProcessPoolExecutor(workers, mp_context=context, initializer=_adopt, initargs=(run,))


def cmd_run(args) -> int:
    config = _parse_config(args.config)
    today = parse_date(args.date, "--date")
    _check_endpoint("--hn-endpoint", args.hn_endpoint)
    _check_endpoint("--nyt-endpoint", args.nyt_endpoint)
    if args.workers < 1:
        raise InputError(f"--workers must be positive, got {args.workers}")
    params: dict[str, int] = {}
    if args.persona_count is not None:
        params["persona_count"] = args.persona_count
    if args.keyword_count is not None:
        params["keyword_count"] = args.keyword_count
    check_params(args.strategy, params)  # once, before any event runs
    cache_dir, replay_only = _cache_location(args)

    split = load_dataset(args.events)
    backend = build_backend(args.backend, config)
    hn_client = nyt_client = None
    if args.strategy == "news":
        hn_client, nyt_client = _build_news_clients(args, cache_dir, replay_only)
    if cache_dir is not None:
        # completions live under DIR/llm, headlines under DIR/news
        backend = CachedBackend(cache_dir / "llm", backend, replay_only=replay_only)

    active = active_events(split, today)
    skipped = len(split.events) - len(active)
    out = Path(args.out)
    trace_dir = out / "traces" / args.strategy
    taken: dict[str, str] = {}
    names = [_safe_filename(event.id, taken) for event in active]
    try:
        # a rerun into the same --out keeps no trace of an earlier outcome
        stale = set(os.listdir(trace_dir))
    except FileNotFoundError:
        stale = set()
    for old_name in stale & {name + suffix for name in names for suffix in (".json", ".failed.json")}:
        (trace_dir / old_name).unlink(missing_ok=True)
    run = _Run(args.strategy, today, backend, hn_client, nyt_client, params, active, names, out)
    pool = None
    unwritten: set[Future] = set()  # each batch of events that may have run, until it is written
    outcomes: list[_Outcome | None] = [None] * len(active)  # each event's written outcome, by input index
    indices = range(len(active))
    chunks = [indices[start:start + _PROCESS_CHUNK] for start in indices[::_PROCESS_CHUNK]]
    # a fork pool starts all its workers at once: at most one per CPU, and
    # none that would find no chunk of events to take
    processes = min(args.workers, os.cpu_count() or 1, len(chunks))
    try:
        if waits_on_network(backend, hn_client, nyt_client):
            # threads pay only while a chain waits on the network; they only
            # compute, and this thread writes each outcome as its chain ends
            pool = ThreadPoolExecutor(max_workers=args.workers)
            unwritten = {pool.submit(_run_events, run, [index]) for index in indices}
        elif (
            processes > 1
            and len(active) >= _MIN_PROCESS_EVENTS
            and (pool := _fork_pool(run, processes))
        ):
            # offline chains hold the interpreter lock, so only processes run
            # them at once; each worker writes its own events
            unwritten = {pool.submit(_forked_events, chunk) for chunk in chunks}
        for future in as_completed(unwritten) if pool else _in_turn(run, unwritten):
            for outcome in future.result():
                outcomes[outcome.index] = _write_outcome(outcome)
            unwritten.remove(future)  # only now, so that a stop redoes an interrupted write
    finally:
        if pool is not None:
            # a run stopped early (Ctrl-C) starts no queued event...
            pool.shutdown(cancel_futures=True)
        # ...and still writes what every chain that ran computed
        for future in unwritten:
            if not (future.cancelled() or future.exception()):
                for outcome in future.result():
                    outcomes[outcome.index] = _write_outcome(outcome)

    records = []
    failures = []
    for event, outcome in zip(active, outcomes):
        if outcome.record is not None:
            records.append(outcome.record)
        else:
            sys.stderr.write(outcome.details)
            failures.append((event.id, outcome.failure))

    forecasts_path = out / f"{args.strategy}.jsonl"
    save_forecasts(records, forecasts_path)

    print(
        f"ran {args.strategy} on {len(active)} events: "
        f"{len(records)} ok, {len(failures)} failed, {skipped} inactive skipped"
    )
    print(f"forecasts: {forecasts_path}")
    for event_id, message in failures:
        print(f"FAILED {event_id}: {message}", file=sys.stderr)
    return EXIT_RUN_FAILURES if failures else EXIT_OK


def cmd_score(args) -> int:
    split = load_dataset(args.events)
    if args.from_market:
        if not args.date:
            raise InputError("--from-market needs --date")
        on = parse_date(args.date, "--date")
        candidates = [event for event in active_events(split, on) if event.resolved]
        records = market_forecast_records(candidates, on)
    else:
        records = load_forecasts(args.forecasts)
    report = score(records, split)
    label = ", ".join(sorted({record.strategy for record in records}))
    print(render_report(report, title=f"Scores for {label}"))
    if args.out:
        _write_report(args.out, report_to_dict(report))
    return EXIT_OK


def cmd_bias(args) -> int:
    report = bias(load_forecasts(args.forward), load_forecasts(args.reversed_file))
    print(f"n = {report.n}")
    print(f"mean forward probability      {round4(report.mean_forward):.4f}")
    print(f"mean reversed probability     {round4(report.mean_reversed):.4f}")
    print(f"implied opposite probability  {round4(report.implied_opposite):.4f}")
    print(f"coherence sum (ideal 1.0)     {round4(report.coherence_sum):.4f}")
    if args.out:
        _write_report(args.out, json_data(report))
    return EXIT_OK


def cmd_rationale(args) -> int:
    rows, mean_delta = prediction_shift(load_forecasts(args.just), load_forecasts(args.rationale))
    print("event_id\tp_just\tp_rationale\tdelta")
    for event_id, p_just, p_rationale, delta in rows:
        print(
            f"{event_id}\t{round4(p_just):.4f}\t{round4(p_rationale):.4f}\t{round4(delta):+.4f}"
        )
    print(f"mean shift: {round4(mean_delta):+.4f}")
    if args.out:
        table = io.StringIO()
        writer = csv.writer(table)
        writer.writerow(["event_id", "p_just", "p_rationale", "delta"])
        writer.writerows([event_id, *map(repr, values)] for event_id, *values in rows)
        write_text_atomic(Path(args.out), table.getvalue())
        print(f"table: {args.out}")
    return EXIT_OK


def _write_report(path: str, data: dict) -> None:
    """Write an --out JSON report whole or not at all, then name it."""
    write_text_atomic(Path(path), json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"report: {path}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foresight",
        description="Run forecasting strategies over event datasets and score the results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one strategy over the active events of a dataset")
    run_p.add_argument("--events", required=True, help="event dataset (JSON lines)")
    run_p.add_argument("--strategy", required=True, choices=list(STRATEGY_IDS))
    run_p.add_argument("--date", required=True, help="prediction date (YYYY-MM-DD)")
    run_p.add_argument("--backend", required=True, help="live, mock:PATH, or replay:DIR")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--config", action="append", metavar="KEY=VALUE")
    run_p.add_argument("--cache", help="cache directory (completions under llm/, headlines under news/)")
    run_p.add_argument("--workers", type=int, default=4)
    run_p.add_argument("--persona-count", type=int, help="crowd strategy: number of experts")
    run_p.add_argument("--keyword-count", type=int, help="news strategy: number of search terms")
    run_p.add_argument("--hn-endpoint", help="override the Hacker News search endpoint")
    run_p.add_argument("--nyt-endpoint", help="override the New York Times search endpoint")
    run_p.set_defaults(func=cmd_run)

    score_p = sub.add_parser("score", help="score forecasts against resolved outcomes")
    score_p.add_argument("--events", required=True)
    source = score_p.add_mutually_exclusive_group(required=True)
    source.add_argument("--forecasts", help="forecast file (JSON lines)")
    source.add_argument(
        "--from-market", action="store_true", help="score market midpoints instead of a file"
    )
    score_p.add_argument("--date", help="snapshot date for --from-market")
    score_p.add_argument("--out", help="also write the report as JSON")
    score_p.set_defaults(func=cmd_score)

    bias_p = sub.add_parser("bias", help="coherence of forward versus reversed forecasts")
    bias_p.add_argument("--forward", required=True, help="forward forecast file")
    bias_p.add_argument(
        "--reversed", required=True, dest="reversed_file", help="reversed forecast file"
    )
    bias_p.add_argument("--out", help="also write the summary as JSON")
    bias_p.set_defaults(func=cmd_bias)

    rationale_p = sub.add_parser(
        "rationale", help="per-event shift between direct and rationale-first forecasts"
    )
    rationale_p.add_argument("--just", required=True, help="direct-answer forecast file")
    rationale_p.add_argument("--rationale", required=True, help="rationale-first forecast file")
    rationale_p.add_argument("--out", help="also write the table as CSV")
    rationale_p.set_defaults(func=cmd_rationale)
    return parser


class _Stdout:
    """``sys.stdout`` while a command runs, flushed at each write.  Once its
    reader has gone (a closed pipe, as in ``| head -0``) output is dropped, so
    the command finishes and keeps the exit code it earned."""

    def __init__(self, stream):
        self.stream = stream

    def write(self, text: str) -> int:
        try:
            self.stream.write(text)
            self.stream.flush()
        except BrokenPipeError:
            # signal's note on SIGPIPE: devnull takes the rest, so the flush at exit passes
            with contextlib.suppress(OSError, ValueError):  # a stream without one
                fd = self.stream.fileno()
                os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return len(text)

    def flush(self) -> None:  # each write has flushed
        pass


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    stdout, sys.stdout = sys.stdout, _Stdout(sys.stdout)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        sys.stdout = stdout


if __name__ == "__main__":
    sys.exit(main())
