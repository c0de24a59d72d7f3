"""The foresight benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload offline_mock --seed 1 --seconds 35 --trace 0

Each workload runs its strategies through the user-facing entry point,
``foresight.cli.main(["run", ...])``, in this process with ``--workers 2``
(a closed loop: one process, two workers), then ``score`` on every forecast
file and ``score --from-market`` on the dataset. One such pass is a round;
a run repeats rounds for about ``--seconds`` seconds.

- ``offline_mock``: ``basic``, ``sequences`` and ``crowd`` on the scripted
  mock backend, no cache, over 1,000 events with 30 market snapshots each.
  CPU-bound: rendering, parsing, trace encoding, the market scan.
- ``live_record``: ``basic``, ``sequences``, ``crowd`` and ``news`` over 16
  events with ``--backend live`` against a stub provider (10 ms per call) and
  stub news services in their own process, recording into a fresh
  ``--cache`` each round. Bound by round trips made one after another.
- ``replay``: the same four strategies on the same inputs with
  ``--backend replay:DIR``, reading a cache recorded during set-up. Cache
  reads only; the stub must serve no call.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics that ``BENCHMARK.json`` names (computed in ``tracing.py``). Every round is checked: each
forecast must equal the value the mock or stub replies imply, every trace
must load and match its forecast line, scores must match a Brier score
computed here, replays must reproduce the recorded files byte for byte and
make no live call, and the deterministic counters must repeat. The last line
of standard output is a JSON object; the exit code is 0 only when every check
passed and no event failed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EVENTS_BASE = ROOT / "tests" / "fixtures" / "events_val.jsonl"
MOCK_RULES = ROOT / "tests" / "fixtures" / "mock.rules"
DATE = "2022-08-01"
WORKERS = "2"
SETUPS = 3
# Each round scores for at least this share of its run time. Short score
# passes then sample the whole run window, not one moment of it.
SCORE_SHARE = 0.3
MODEL = "bench-model"

# What tests/fixtures/mock.rules answers, once the empty extraction reply
# falls back to parsing the raw text: "10%" for basic, "0.2" for sequences,
# "... Within the window, 0.3" for every crowd persona.
MOCK_EXPECTED = {"basic": 0.1, "sequences": 0.2, "crowd": 0.3}


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass(frozen=True)
class Workload:
    strategies: tuple[str, ...]
    events: int
    snapshots: int
    # None: mock backend, no stub. Otherwise the stub's delay per call.
    stub_delay_ms: float | None
    replay: bool = False


WORKLOADS = {
    "offline_mock": Workload(("basic", "sequences", "crowd"), 1000, 30, None),
    "live_record": Workload(("basic", "sequences", "crowd", "news"), 16, 20, 10.0),
    # Recording in set-up needs no delay; the stub only counts calls here.
    "replay": Workload(("basic", "sequences", "crowd", "news"), 16, 20, 0.0, replay=True),
}


class Stub:
    """The stub provider and news services, in a child process."""

    def __init__(self, delay_ms: float, log_path: Path):
        self._log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "stub.py"), "--delay-ms", str(delay_ms)],
            stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 30)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"stub did not start; see {log_path}")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def stats(self) -> dict:
        with urllib.request.urlopen(self.url + "/stats", timeout=30) as response:
            return json.loads(response.read())

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


@dataclass
class Context:
    """Inputs and services of one set-up."""

    workload: Workload
    work: Path
    dataset: Path
    events: list[dict]
    stub: Stub | None = None
    recorded: Path | None = None  # replay: the output tree of the recording run

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()
            self.stub = None


@dataclass
class Round:
    run_s: float
    score_s: list[float]  # one entry per score pass
    attempted: int
    forecasts: int
    posts: int = 0
    gets: int = 0
    cache_files: int = 0


def invoke(argv: list[str], tracer=None, span: str = "") -> tuple[int, str]:
    """``foresight.cli.main(argv)`` with its output captured."""
    from foresight.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is None:
            code = main(argv)
        else:
            code = tracer.call(span, main, (argv,), root=True)
    return code, err.getvalue()


def run_argv(ctx: Context, strategy: str, out: Path, cache: Path | None) -> list[str]:
    argv = ["run", "--events", str(ctx.dataset), "--strategy", strategy, "--date", DATE,
            "--out", str(out), "--workers", WORKERS]
    workload = ctx.workload
    if workload.stub_delay_ms is None:
        return argv + ["--backend", f"mock:{MOCK_RULES}"]
    argv += ["--hn-endpoint", ctx.stub.url + "/hn", "--nyt-endpoint", ctx.stub.url + "/nyt"]
    if cache is None:
        return argv + ["--backend", f"replay:{ctx.recorded / 'cache'}",
                       "--config", f"replay_backend_id=http:{MODEL}"]
    # The limiter allows far more than the ~300 calls/s two workers reach,
    # so the workload measures chain depth, not the limiter.
    return argv + ["--backend", "live", "--config", f"model={MODEL}",
                   "--config", "requests_per_second=2000", "--cache", str(cache)]


def setup(workload: Workload, seed: int, work: Path) -> Context:
    from generate import generate_events, write_events

    work.mkdir(parents=True)
    events = generate_events(EVENTS_BASE, seed, workload.events, workload.snapshots)
    dataset = work / "events.jsonl"
    write_events(dataset, events)
    ctx = Context(workload, work, dataset, events)
    if workload.stub_delay_ms is not None:
        ctx.stub = Stub(workload.stub_delay_ms, work / "stub.log")
        os.environ["FORESIGHT_LLM_BASE_URL"] = ctx.stub.url + "/v1"
        os.environ["FORESIGHT_LLM_API_KEY"] = "bench"
        os.environ["FORESIGHT_NYT_API_KEY"] = "bench"
    if workload.replay:
        ctx.recorded = work / "recorded"
        for strategy in workload.strategies:
            code, err = invoke(run_argv(ctx, strategy, ctx.recorded, ctx.recorded / "cache"))
            if code != 0:
                raise CheckFailed(f"recording {strategy} exited {code}: {err.strip()[:500]}")
    else:
        # warm the lazily loaded template registry and compiled patterns
        warm = work / "warm"
        write_events(warm / "events.jsonl", events[:2])
        code, err = invoke(["run", "--events", str(warm / "events.jsonl"), "--strategy", "basic",
                            "--date", DATE, "--backend", f"mock:{MOCK_RULES}", "--out", str(warm)])
        if code != 0:
            raise CheckFailed(f"warm-up run exited {code}: {err.strip()[:500]}")
        shutil.rmtree(warm)
    return ctx


def expected_probability(ctx: Context, event: dict, strategy: str) -> float:
    if ctx.workload.stub_delay_ms is None:
        return MOCK_EXPECTED[strategy]
    from stub import stub_percent

    token = event["condition"].rsplit("ref-", 1)[1].rstrip(")")
    return stub_percent(token, strategy) / 100


def _brier(pairs: list[tuple[float, int]]) -> float:
    return math.fsum((p - o) ** 2 for p, o in pairs) / len(pairs)


def check_score(report_path: Path, pairs: list[tuple[float, int]], what: str) -> None:
    report = json.loads(report_path.read_text(encoding="utf-8"))
    if report["n_total"] != len(pairs):
        raise CheckFailed(f"{what}: scored {report['n_total']} forecasts, expected {len(pairs)}")
    if not math.isclose(report["brier"], _brier(pairs), rel_tol=1e-9, abs_tol=1e-12):
        raise CheckFailed(f"{what}: Brier {report['brier']!r} != {_brier(pairs)!r}")


def check_outputs(ctx: Context, strategy: str, out: Path) -> int:
    """Check one strategy's forecasts and traces; return the forecasts written."""
    from foresight.strategies import load_trace

    outcome = {event["id"]: int(event["resolution"] == "yes") for event in ctx.events}
    by_id = {event["id"]: event for event in ctx.events}
    lines = [json.loads(line) for line in (out / f"{strategy}.jsonl").read_text(encoding="utf-8").splitlines()]
    order = [line["event_id"] for line in lines]
    written = set(order)
    if order != [event["id"] for event in ctx.events if event["id"] in written]:
        raise CheckFailed(f"{strategy}: forecasts for unknown events, repeated or out of input order")
    pairs = []
    for line in lines:
        want = expected_probability(ctx, by_id[line["event_id"]], strategy)
        if line["strategy"] != strategy or abs(line["probability"] - want) > 1e-12:
            raise CheckFailed(f"{strategy}: {line['event_id']} forecast {line['probability']!r}, expected {want!r}")
        try:
            trace = load_trace(out / line["trace_ref"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CheckFailed(f"{strategy}: trace {line['trace_ref']} does not load: {exc}") from None
        if (trace.event_id, trace.strategy, trace.final_probability, list(trace.final_samples)) != (
            line["event_id"], strategy, line["probability"], line["samples"]
        ):
            raise CheckFailed(f"{strategy}: trace {line['trace_ref']} does not match its forecast line")
        pairs.append((line["probability"], outcome[line["event_id"]]))
    check_score(out / f"{strategy}.report.json", pairs, f"score {strategy}")
    return len(lines)


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def score_pass(ctx: Context, out: Path, tracer=None) -> float:
    """``score`` on every forecast file, then ``score --from-market``; wall seconds."""
    commands = [["score", "--events", str(ctx.dataset), "--forecasts", str(out / f"{strategy}.jsonl"),
                 "--out", str(out / f"{strategy}.report.json")] for strategy in ctx.workload.strategies]
    commands.append(["score", "--events", str(ctx.dataset), "--from-market", "--date", DATE,
                     "--out", str(out / "market.report.json")])
    elapsed = 0.0
    for argv in commands:
        start = time.perf_counter()
        code, err = invoke(argv, tracer, "cli.score")
        elapsed += time.perf_counter() - start
        if code != 0:
            raise CheckFailed(f"{' '.join(argv[:4])} exited {code}: {err.strip()[:500]}")
    return elapsed


def run_round(ctx: Context, index: int, tracer=None) -> Round:
    workload = ctx.workload
    out = ctx.work / f"round{index}"
    cache = out / "cache" if workload.stub_delay_ms is not None and not workload.replay else None
    before = ctx.stub.stats() if ctx.stub else {"posts": 0, "gets": 0}
    run_s = 0.0
    for strategy in workload.strategies:
        start = time.perf_counter()
        code, err = invoke(run_argv(ctx, strategy, out, cache), tracer, "cli.run")
        run_s += time.perf_counter() - start
        if code not in (0, 1):
            raise CheckFailed(f"run {strategy} exited {code}: {err.strip()[:500]}")
    # A traced round scores once, so its layer figures cover one pass.
    score_s = [score_pass(ctx, out, tracer)]
    while tracer is None and sum(score_s) < SCORE_SHARE * run_s:
        score_s.append(score_pass(ctx, out))
    after = ctx.stub.stats() if ctx.stub else {"posts": 0, "gets": 0}

    forecasts = sum(check_outputs(ctx, strategy, out) for strategy in workload.strategies)
    midpoint = {}
    for event in ctx.events:
        for snapshot in event["market"]:
            if snapshot["date"] == DATE:
                midpoint[event["id"]] = (snapshot["lower"] + snapshot["upper"]) / 2.0
    check_score(out / "market.report.json",
                [(midpoint[event["id"]], int(event["resolution"] == "yes")) for event in ctx.events],
                "score --from-market")
    attempted = len(ctx.events) * len(workload.strategies)
    result = Round(run_s, score_s, attempted, forecasts,
                   posts=after["posts"] - before["posts"], gets=after["gets"] - before["gets"])
    if workload.replay:
        if result.posts or result.gets:
            raise CheckFailed(f"replay made {result.posts} provider and {result.gets} news calls")
        recorded = {name: data for name, data in tree_bytes(ctx.recorded).items() if not name.startswith("cache/")}
        replayed = {name: data for name, data in tree_bytes(out).items() if not name.endswith(".report.json")}
        if recorded != replayed:
            differ = sorted(set(recorded) ^ set(replayed)) or [n for n in recorded if recorded[n] != replayed[n]]
            raise CheckFailed(f"replay output differs from the recording: {differ[:3]}")
    if cache is not None:
        result.cache_files = sum(1 for path in (cache / "llm").rglob("*.json"))
    shutil.rmtree(out)
    return result


def measure(ctx: Context, seconds: float, trace: bool):
    """Run rounds for about ``seconds``; traced runs alternate with untraced."""
    from tracing import Tracer

    plain: list[Round] = []
    traced: list[Round] = []
    tracers = []
    start = time.perf_counter()
    index = 0
    minimum = 4 if trace else 2
    while True:
        if trace and index % 2 == 1:
            tracer = Tracer()
            try:
                tracer.install()
                result = run_round(ctx, index, tracer)
            finally:
                tracer.uninstall()
            tracers.append(tracer)
            traced.append(result)
        else:
            plain.append(run_round(ctx, index))
        index += 1
        elapsed = time.perf_counter() - start
        if index >= minimum and elapsed * (index + 1) / index > seconds:
            return plain, traced, tracers


def check_repeats(rounds: list[Round]) -> None:
    """Counters that do not depend on timing must repeat in every round."""
    first = rounds[0]
    for other in rounds[1:]:
        for name in ("forecasts", "posts", "gets", "cache_files"):
            if getattr(other, name) != getattr(first, name):
                raise CheckFailed(f"{name} changed between rounds: {getattr(first, name)} vs {getattr(other, name)}")


def end_to_end(ctx: Context, rounds: list[Round], setup_times: list[float], import_s: float):
    """End-to-end metrics as (value, unit, samples), then the extra report lines.

    Throughput and score time are totals over the run, not medians of rounds:
    this machine switches between a fast and a slow state every second or so,
    so a median of short samples lands on one state or the other, while a
    total averages over both.
    """
    forecasts = sum(r.forecasts for r in rounds)
    attempted = sum(r.attempted for r in rounds)
    passes = [t for r in rounds for t in r.score_s]
    news_events = len(ctx.events) * len(rounds) if "news" in ctx.workload.strategies else 0
    return {
        "events_per_s": (forecasts / sum(r.run_s for r in rounds), "forecasts/s", len(rounds)),
        "score_s": (math.fsum(passes) / len(passes), "s", len(passes)),
        "setup_s": (import_s + statistics.median(setup_times), "s", len(setup_times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }, {
        "provider_calls_per_event": (sum(r.posts for r in rounds) / forecasts if forecasts else 0.0,
                                     "calls/forecast", len(rounds)),
        "news_calls_per_event": (sum(r.gets for r in rounds) / news_events if news_events else 0.0,
                                 "calls/forecast", len(rounds)),
        "failed_event_share": ((attempted - forecasts) / attempted, "ratio", attempted),
    }


def per_layer(ctx: Context, plain: list[Round], traced: list[Round], tracers) -> dict:
    """The ``per_layer`` metrics that ``BENCHMARK.json`` names, as (value, unit, samples)."""
    from tracing import DETERMINISTIC, round_summary

    summaries = [round_summary(tracer) for tracer in tracers]
    for summary, result in zip(summaries, traced):
        events = summary["strategies.run_strategy.calls"] or 1
        summary["llm.cache.files_written_per_event"] = result.cache_files / events
        summary["provider_calls_per_event"] = result.posts / events
        summary["news_calls_per_event"] = (
            result.gets / len(ctx.events) if "news" in ctx.workload.strategies else 0.0
        )
    for name in DETERMINISTIC:
        values = {summary[name] for summary in summaries}
        if len(values) != 1:
            raise CheckFailed(f"counter {name} changed between traced rounds: {sorted(values)}")
    values = {name: statistics.fmean(summary[name] for summary in summaries)
              for name in summaries[0] if name != "_samples"}
    strategy_ms = [ms for summary in summaries for ms in summary["_samples"]["run_strategy_ms"]]
    post_ms = [ms for summary in summaries for ms in summary["_samples"]["post_ms"]]
    values["strategies.run_strategy.p50_ms"] = _percentile(strategy_ms, 0.50)
    values["strategies.run_strategy.p99_ms"] = _percentile(strategy_ms, 0.99)
    values["llm.http.post_p50_ms"] = _percentile(post_ms, 0.50)
    traced_wall = statistics.median(r.run_s + r.score_s[0] for r in traced)
    plain_wall = statistics.median(r.run_s + r.score_s[0] for r in plain)
    values["trace.overhead_share"] = traced_wall / plain_wall - 1.0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    missing = [metric["name"] for metric in spec if metric["name"] not in values]
    if missing:
        raise CheckFailed(f"BENCHMARK.json names layer metrics the bench does not compute: {missing}")
    return {metric["name"]: (values[metric["name"]], metric["unit"], len(tracers)) for metric in spec}


def _percentile(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one foresight benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "foresight" / "cli.py").is_file() or not EVENTS_BASE.is_file():
        print(f"error: no foresight source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    start = time.perf_counter()
    import foresight.cli  # noqa: F401  (warm imports count toward set-up)
    import tracing  # noqa: F401
    import_s = time.perf_counter() - start
    if Path(sys.modules["foresight"].__file__).resolve().parent != ROOT / "src" / "foresight":
        print("error: foresight imported from outside this tree", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    base = ROOT / ".bench_work"
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    ctx = None
    correct = True
    try:
        setup_times = []
        for attempt in range(SETUPS):
            if ctx is not None:
                ctx.close()
            start = time.perf_counter()
            ctx = setup(workload, args.seed, work / f"setup{attempt}")
            setup_times.append(time.perf_counter() - start)
        plain, traced, tracers = measure(ctx, args.seconds, bool(args.trace))
        check_repeats(plain)
        if args.trace:
            check_repeats(traced)
            report = per_layer(ctx, plain, traced, tracers)
            with open(base / f"spans-{args.workload}.jsonl", "w", encoding="utf-8") as handle:
                for tracer in tracers:
                    tracer.write(handle)
            extra = {}
        else:
            report, extra = end_to_end(ctx, plain, setup_times, import_s)
        rounds = traced if args.trace else plain
        # a traced run counts the events of its untraced rounds too
        attempted = sum(r.attempted for r in plain + traced)
        failed = sum(r.attempted - r.forecasts for r in plain + traced)
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        correct = False
    finally:
        if ctx is not None:
            ctx.close()
        shutil.rmtree(work, ignore_errors=True)
    if not correct:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    print(f"workload {args.workload}, seed {args.seed}: {len(plain) + len(traced)} rounds, {len(traced)} traced; "
          f"{attempted} events attempted, {failed} failed")
    for index, result in enumerate(rounds):
        print(f"  round {index}: {result.forecasts} forecasts, run {result.run_s:.4f} s, "
              f"score {statistics.fmean(result.score_s):.4f} s x {len(result.score_s)}")
    for name, (value, unit, samples) in {**report, **extra}.items():
        print(f"  {name:<40} {value:>14.6f} {unit:<14} n={samples}")
    if failed:
        correct = False
        print(f"CHECK FAILED: {failed} events failed", file=sys.stderr)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in report.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
