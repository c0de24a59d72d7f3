"""Acceptance gate: one test per shipped guarantee.

Each test is one criterion; the pytest -v line for each is the pass/fail
record.  Tolerances and runtime bounds are stated inline.
"""

import json
import math
import random
import time
from datetime import date, timedelta
from pathlib import Path

import pytest

from foresight.cli import main
from foresight.events import load_dataset
from foresight.llm import (
    CachedBackend,
    CompletionRequest,
    MockBackend,
    MockRule,
    NullBackend,
)
from foresight.metrics import brier, weighted_brier
from foresight.news import HackerNewsClient, NYTClient
from foresight.prompts import NoProbabilityFound, Scale, parse_probability
from foresight.strategies import STRATEGY_IDS, run_strategy, save_trace
from counting import Counting
from make_goldens import (
    GOLDEN_TRACE_DIR,
    TREE_MANIFEST,
    golden_path,
    render_all,
    tree_manifest,
    write_traces,
    write_trees,
)
from stubserver import StubNewsServer, hn_hit, nyt_doc

FIXTURES = Path(__file__).parent / "fixtures"
EVENTS = str(FIXTURES / "events_val.jsonl")
MOCK = f"mock:{FIXTURES / 'mock.rules'}"
TODAY = date(2022, 8, 1)


def tree_bytes(root):
    root = Path(root)
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_criterion_01_brier_matches_loop_oracle():
    # 1,000 randomized (p, o) sets against a brute-force loop, |delta| <= 1e-12,
    # in under one second
    rng = random.Random(20220801)
    started = time.perf_counter()
    for _ in range(1000):
        pairs = [(rng.random(), rng.randrange(2)) for _ in range(rng.randrange(1, 60))]
        total = 0.0
        for p, o in pairs:
            total += (p - o) ** 2
        oracle = total / len(pairs)
        assert abs(brier(pairs) - oracle) <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


# per-class Brier rows and the published weighted row, one triple per column
PUBLISHED_WEIGHTED_ROWS = [
    ("human", 0.2592, 0.0901, 0.1746),
    ("basic", 0.3407, 0.0503, 0.1955),
    ("forecaster", 0.3334, 0.0860, 0.2097),
    ("breakdown", 0.2378, 0.1728, 0.2053),
    ("base_rates", 0.4545, 0.0534, 0.2540),
    ("both_sides", 0.3406, 0.0914, 0.2159),
    ("crowd", 0.2176, 0.1544, 0.1860),
    ("news", 0.3353, 0.0546, 0.1950),
]


def test_criterion_02_weighted_brier_consistent_with_published_table():
    # the averaging formula reproduces the published weighted row from the
    # published per-class rows, all 8 columns, within 5e-4
    for name, yes_value, no_value, published in PUBLISHED_WEIGHTED_ROWS:
        yes_pairs = [(1.0 - math.sqrt(yes_value), 1)]
        no_pairs = [(math.sqrt(no_value), 0)]
        assert brier(yes_pairs) == pytest.approx(yes_value, abs=1e-12)
        assert brier(no_pairs) == pytest.approx(no_value, abs=1e-12)
        got = weighted_brier(yes_pairs, no_pairs)
        assert abs(got - published) <= 5e-4, f"{name}: {got} vs {published}"


def test_criterion_03_coherence_sum_reproduced_by_bias_command(tmp_path, capsys):
    # mean forward 0.2529 plus implied opposite (1 - 0.3965) = 0.8564 +/- 1e-4
    out = tmp_path / "bias.json"
    code = main(
        [
            "bias",
            "--forward",
            str(FIXTURES / "bias_forward.jsonl"),
            "--reversed",
            str(FIXTURES / "bias_reversed.jsonl"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert "coherence sum (ideal 1.0)     0.8564" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert abs(report["coherence_sum"] - 0.8564) <= 1e-4


def test_criterion_04_golden_prompt_renders_byte_identical():
    # every registry template renders byte-identically to its frozen fixture
    rendered = render_all()
    assert len(rendered) == 21
    for template_id, text in rendered.items():
        frozen = golden_path(template_id).read_text(encoding="utf-8")
        assert text == frozen, f"render drifted: {template_id}"


def test_criterion_04b_golden_traces_byte_identical(tmp_path):
    # the trace file of every strategy, a crowd trace with dropped personas
    # and a failed chain's partial trace equal their frozen fixtures
    names = write_traces(tmp_path)
    assert len(names) == len(STRATEGY_IDS) + 2
    assert sorted(names) == sorted(path.name for path in GOLDEN_TRACE_DIR.iterdir())
    for name in names:
        frozen = (GOLDEN_TRACE_DIR / name).read_bytes()
        assert (tmp_path / name).read_bytes() == frozen, f"trace drifted: {name}"


def test_criterion_04c_out_trees_match_manifest(tmp_path):
    # every file the CLI writes under --out (all strategies, news recorded
    # with and without an NYT key and replayed, a failing run, both score
    # reports) hashes to its line in the manifest make_goldens.py writes
    assert tree_manifest(write_trees(tmp_path)) == TREE_MANIFEST.read_text(encoding="utf-8")


def test_criterion_05_end_to_end_determinism_all_strategies(tmp_path):
    # two offline runs per strategy produce byte-identical forecast and trace
    # files; the whole sweep stays under 30 seconds
    hits = [hn_hit("Tesla expands FSD beta to more testers", "2022-07-20T10:00:00Z")]
    docs = [nyt_doc("Tesla reports progress toward L3", "2022-07-18T08:00:00+0000")]
    started = time.perf_counter()
    with StubNewsServer(hn_hits=hits, nyt_docs=docs) as server:
        for strategy in STRATEGY_IDS:
            trees = []
            for attempt in ("a", "b"):
                out = tmp_path / strategy / attempt
                argv = [
                    "run",
                    "--events",
                    EVENTS,
                    "--strategy",
                    strategy,
                    "--date",
                    "2022-08-01",
                    "--backend",
                    MOCK,
                    "--out",
                    str(out),
                ]
                if strategy == "news":
                    argv += [
                        "--hn-endpoint",
                        server.hn_endpoint,
                        "--nyt-endpoint",
                        server.nyt_endpoint,
                    ]
                assert main(argv) == 0, strategy
                trees.append(tree_bytes(out))
            assert trees[0] == trees[1], f"nondeterministic outputs for {strategy}"
            assert f"{strategy}.jsonl" in trees[0]
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_06_eight_sample_averaging_is_exact():
    # samples 0%..70% average to exactly 0.35
    backend = MockBackend(
        [
            MockRule("substring", "emit only the final probability", ""),
            MockRule(
                "any",
                None,
                tuple(f"{v}%" for v in range(0, 80, 10)),
            ),
        ]
    )
    event = load_dataset(FIXTURES / "events_val.jsonl").event_by_id("evt-01")
    trace = run_strategy("basic", event, TODAY, backend)
    assert trace.final_samples == (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
    assert trace.final_probability == 0.35


def test_criterion_07_leakage_guard_randomized(tmp_path):
    # 100 random adversarial cases: headlines dated after the prediction date
    # never reach any prompt, response, or parsed value
    rng = random.Random(715)
    split = load_dataset(FIXTURES / "events_val.jsonl")
    events = [e for e in split.events]
    backend = MockBackend.from_file(FIXTURES / "mock.rules")
    with StubNewsServer() as server:
        hn = HackerNewsClient(server.hn_endpoint)
        nyt = NYTClient("test-key", server.nyt_endpoint)
        for case in range(100):
            server.hn_hits = []
            server.nyt_docs = []
            for i in range(rng.randrange(1, 12)):
                day = TODAY + timedelta(days=rng.randrange(-30, 30))
                leaked = day > TODAY
                title = f"{'LEAK' if leaked else 'ok'}-{case}-{i} story"
                stamp = f"{day.isoformat()}T{rng.randrange(24):02d}:00:00Z"
                if rng.random() < 0.5:
                    server.hn_hits.append(hn_hit(title, stamp))
                else:
                    server.nyt_docs.append(nyt_doc(title, stamp))
            trace = run_strategy(
                "news",
                rng.choice(events),
                TODAY,
                backend,
                hn_client=hn,
                nyt_client=nyt,
            )
            save_trace(trace, tmp_path / "trace.json")
            flattened = (tmp_path / "trace.json").read_text(encoding="utf-8")
            assert "LEAK" not in flattened, f"case {case} leaked a future headline"


def test_criterion_08_reversed_forecast_is_exact_complement():
    # for every fixture event the final equals 1 - the raw reworded-event mean,
    # and every sample equals 1 - its extracted raw value, exactly
    split = load_dataset(FIXTURES / "events_val.jsonl")
    backend = MockBackend.from_file(FIXTURES / "mock.rules")
    for event in split.events:
        trace = run_strategy("reversed", event, TODAY, backend)
        predict = trace.steps[-1]
        assert trace.final_probability == 1.0 - predict.parsed
        for sample, extraction in zip(trace.final_samples, predict.extractions):
            assert sample == 1.0 - extraction.probability


def test_criterion_09_replay_issues_zero_backend_calls(tmp_path):
    # a replayed run calls neither the completion backend nor the network and
    # reproduces the cached run byte-for-byte
    cache = tmp_path / "cache"
    live_out = tmp_path / "live"
    replay_out = tmp_path / "replay"
    assert (
        main(
            [
                "run",
                "--events",
                EVENTS,
                "--strategy",
                "both_sides",
                "--date",
                "2022-08-01",
                "--backend",
                MOCK,
                "--cache",
                str(cache),
                "--out",
                str(live_out),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "run",
                "--events",
                EVENTS,
                "--strategy",
                "both_sides",
                "--date",
                "2022-08-01",
                "--backend",
                f"replay:{cache}",
                "--out",
                str(replay_out),
            ]
        )
        == 0
    )
    assert tree_bytes(live_out) == tree_bytes(replay_out)

    # instrumented counter: the inner backend of a replay-only cache stays cold
    null = Counting(NullBackend("mock"))
    replay_backend = CachedBackend(cache / "llm", null, replay_only=True)
    event = load_dataset(EVENTS).event_by_id("evt-05")
    run_strategy("both_sides", event, TODAY, replay_backend)
    assert null.calls == 0
    assert replay_backend.store.misses == 0
    assert replay_backend.store.hits > 0


PARSE_TABLE = [
    # percent scale
    ("42%", Scale.PERCENT, 0.42),
    ("42", Scale.PERCENT, 0.42),
    ("7", Scale.PERCENT, 0.07),
    ("100%", Scale.PERCENT, 1.0),
    ("0%", Scale.PERCENT, 0.0),
    ("0.42", Scale.PERCENT, 0.42),
    ("I will say 25%.", Scale.PERCENT, 0.25),
    ("around 5 percent", Scale.PERCENT, 0.05),
    ("a 12.5% chance", Scale.PERCENT, 0.125),
    ("1,200 attendees; odds are 10%", Scale.PERCENT, 0.10),
    ("90%\n", Scale.PERCENT, 0.90),
    ("Probability: 33", Scale.PERCENT, 0.33),
    # unit scale
    ("0.65", Scale.UNIT, 0.65),
    ("1", Scale.UNIT, 1.0),
    ("0", Scale.UNIT, 0.0),
    (".5", Scale.UNIT, 0.5),
    ("the chance is 0.3.", Scale.UNIT, 0.3),
    ("I land on 0.07 overall", Scale.UNIT, 0.07),
    ("45%", Scale.UNIT, 0.45),
    # last value wins
    ("maybe 30%, maybe 40%", Scale.PERCENT, 0.40),
    ("ever: 0.6, in window: 0.3", Scale.UNIT, 0.3),
    ("10% no wait 20% final 15%", Scale.PERCENT, 0.15),
    ("0.9 at first, settling at 0.2", Scale.UNIT, 0.2),
    # no usable number
    ("no numbers here", Scale.PERCENT, None),
    ("", Scale.PERCENT, None),
    ("version 3.2.1 shipped", Scale.PERCENT, None),
    ("150", Scale.PERCENT, None),
    ("1.5", Scale.UNIT, None),
    ("-20%", Scale.PERCENT, None),
    ("item-3 and ref-7", Scale.PERCENT, None),
]


def test_criterion_10_probability_parsing_table():
    # 30 cases across percent, unit-interval, last-wins, and error handling
    assert len(PARSE_TABLE) == 30
    for text, scale, expected in PARSE_TABLE:
        if expected is None:
            with pytest.raises(NoProbabilityFound):
                parse_probability(text, scale=scale)
        else:
            got = parse_probability(text, scale=scale)
            assert got == pytest.approx(expected, abs=1e-12), text
