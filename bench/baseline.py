"""Measure a baseline for every workload and write it to ``bench/baseline.json``.

    python3 bench/baseline.py

Runs ``bench/run.py`` with tracing off on two sets of ten seeds (1-10, then
11-20) for every workload in ``BENCHMARK.json``, then once per workload with
tracing on. For each end-to-end metric and set it records the median, the
quartiles and the spread (interquartile range over median, as
``statistics.quantiles(values, n=4)`` gives it), and how much worse the
second set's median is than the first's, beside the metric's bound. For each
layer it records the traced run's figure. Takes the workloads, metrics and
run length from ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Two sets of runs of the same code; their medians must agree within each bound.
SEEDS = (range(1, 11), range(11, 21))

# Which end-to-end metric each layer metric should move, and on which workload.
LAYER_MAP = [
    ("cli.run.self_s", "events_per_s", "all"),
    ("events.load_dataset.s", "events_per_s, score_s", "offline_mock"),
    ("prompts.render.calls, prompts.render.s", "events_per_s", "offline_mock, replay"),
    ("prompts.extract_probability.calls, .self_s; prompts.parse_probability.calls, .s",
     "events_per_s", "offline_mock, replay"),
    ("prompts.extractor_success_share", "provider_calls_per_event", "live_record"),
    ("strategies.run_strategy.calls, .p50_ms, .p99_ms", "events_per_s", "all, mostly live_record"),
    ("strategies.save_trace.s, .bytes_per_event", "events_per_s", "offline_mock, replay (not live_record)"),
    ("llm.requests_per_event, llm.sample_calls_per_event, llm.distinct_requests_per_event",
     "provider_calls_per_event", "live_record"),
    ("llm.http.posts_per_event, llm.http.round_trip_depth_per_event, llm.http.post_p50_ms, "
     "llm.HttpBackend.complete.s", "events_per_s", "live_record (not the offline pair)"),
    ("llm.TokenBucket.wait_s", "events_per_s", "live_record"),
    ("llm.cache.hits, llm.cache.misses, llm.cache.hit_share, llm.CachedBackend.complete.self_s",
     "events_per_s", "replay (reads), live_record (writes)"),
    ("llm.cache.files_read_per_event, llm.cache.files_written_per_event", "events_per_s",
     "replay, live_record"),
    ("news.search.calls, news.search.s, news.cache.hits, news.cache.misses",
     "events_per_s, news_calls_per_event", "live_record, replay"),
    ("metrics.market_forecast_records.s, metrics.score.s, metrics.save_forecasts.s, "
     "metrics.load_forecasts.s", "score_s, events_per_s", "offline_mock"),
    ("trace.overhead_share", "none; shows what tracing costs", "all"),
]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(done.stdout.strip().splitlines()[-1]) if done.stdout.strip() else {}
    if done.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{done.stderr[-2000:]}")
    print(f"{workload} seed {seed} trace {trace}: "
          + ", ".join(f"{name} {m['value']:.6g}" for name, m in result["metrics"].items()
                      if trace == 0), flush=True)
    return result["metrics"]


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def drift(first: dict, second: dict, better: str) -> float:
    """How much worse the second median is than the first, as a share of the first."""
    change = (second["median"] - first["median"]) / first["median"]
    return -change if better == "higher" else change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    metrics = {metric["name"]: metric for metric in spec["end_to_end"]}
    end_to_end: dict = {}
    per_layer: dict = {}
    for workload in [workload["name"] for workload in spec["workloads"]]:
        sets = [[run_once(workload, seed, seconds, 0) for seed in seeds] for seeds in SEEDS]
        end_to_end[workload] = {}
        for name, metric in metrics.items():
            first, second = (summarize([run[name]["value"] for run in runs]) for runs in sets)
            end_to_end[workload][name] = {
                "unit": metric["unit"], "bound": metric["bound"],
                "sets": [first, second], "drift": drift(first, second, metric["better"]),
            }
        traced = run_once(workload, SEEDS[0][0], seconds, 1)
        per_layer[workload] = {name: metric["value"] for name, metric in traced.items()}
    baseline = {
        "measured": time.strftime("%Y-%m-%d", time.gmtime()),
        "machine": f"{os.cpu_count()} CPUs, {cpu_model()}, Python {platform.python_version()}",
        "run_seconds": seconds,
        "seeds": [list(seeds) for seeds in SEEDS],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "layer_map": [{"layer": layer, "moves": moves, "on": on} for layer, moves, on in LAYER_MAP],
    }
    (BENCH / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    for workload, by_name in end_to_end.items():
        for name, entry in by_name.items():
            first, second = entry["sets"]
            print(f"{workload:<14} {name:<14} median {first['median']:.6g} / {second['median']:.6g}  "
                  f"spread {first['spread']:.4f} / {second['spread']:.4f}  drift {entry['drift']:+.4f}  "
                  f"bound {entry['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
