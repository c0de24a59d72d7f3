"""Regenerate the frozen fixtures under fixtures/golden/ and fixtures/golden_traces/,
and the SHA-256 manifest fixtures/trees.sha256 of the CLI's output trees.

Run from the repository root: PYTHONPATH=src python3 tests/make_goldens.py
The acceptance suite compares fresh renders, fresh trace files and fresh
``--out`` trees byte-for-byte against these files, so regenerate only when a
template, a binding or an output format deliberately changes.
"""

import contextlib
import hashlib
import io
import os
import tempfile
from datetime import date
from pathlib import Path

from foresight.cli import main as cli_main
from foresight.events import load_dataset
from foresight.llm import MockBackend, MockRule
from foresight.news import NYT_API_KEY_ENV, Headline, Source
from foresight.prompts import bindings, load_templates, render
from foresight.strategies import (
    STRATEGY_IDS,
    ChainError,
    run_strategy,
    save_trace,
)

from stubserver import StubNewsServer, hn_hit, nyt_doc

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN_DIR = FIXTURES / "golden"
GOLDEN_TRACE_DIR = FIXTURES / "golden_traces"
TREE_MANIFEST = FIXTURES / "trees.sha256"

GOLDEN_EVENT_ID = "evt-01"
GOLDEN_DATE = date(2022, 8, 1)

# Chain-produced values, pinned to what the scripted backend in mock.rules
# answers for this event.
GOLDEN_EXTRA = {
    "job": "an automotive safety engineer",
    "Opposite Event": "Tesla does not reach L3 autonomy by the end of 2022",
    "base rate question": (
        "How often has a mass-market carmaker shipped Level 3 autonomy "
        "to consumers in a given year?"
    ),
    "base rate": "30%",
    "pros": "Regulators in several regions are reviewing applications.",
    "cons": "No jurisdiction has approved consumer Level 3 operation to date.",
    "positive sequences": (
        "Potential Sequence 1 :\n"
        "1. A major regulator approves consumer L3 operation\n"
        "2. The feature ships over the air before the deadline\n"
        "OUTCOME ACHIEVED: the condition is met"
    ),
    "negative sequences": (
        "Potential Sequence 1:\n"
        "1. Certification testing uncovers edge cases\n"
        "2. The launch slips into the next year\n"
        "OUTCOME ACHIEVED: the condition is not met"
    ),
    "number of terms": "3",
    "Hackernews headlines": "Headline 1 -- 2022-07-20: Tesla expands FSD beta to more testers",
    "filtered Hackernews headlines": (
        "Headline 1 -- 2022-07-20: Tesla expands FSD beta to more testers"
    ),
    "NYT headlines": (
        "Headline 1 -- 2022-07-18: Tesla reports progress toward L3 "
        "but no regulatory approval"
    ),
    "filtered NYT headlines": (
        "2022-07-18: Tesla reports progress toward L3 but no regulatory approval"
    ),
    "summarized NYT headlines": (
        "2022-07-18: Tesla progressing toward L3 without approval yet"
    ),
    "response": "Looking at certification timelines, the chance it ever happens is 0.6.",
}


# Headlines dated up to the prediction date, so every news step runs.
GOLDEN_HEADLINES = {
    Source.HACKERNEWS: (
        Headline("Tesla expands FSD beta to more testers", date(2022, 7, 20), Source.HACKERNEWS),
    ),
    Source.NYT: (
        Headline(
            "Tesla reports progress toward L3 but no regulatory approval",
            date(2022, 7, 18),
            Source.NYT,
        ),
    ),
}


class FixedNews:
    """In-memory headline client that always answers with the same headlines."""

    def __init__(self, source):
        self.source = source

    def search(self, window):
        return GOLDEN_HEADLINES[self.source]


def golden_event():
    return load_dataset(FIXTURES / "events_val.jsonl").event_by_id(GOLDEN_EVENT_ID)


def golden_bindings():
    return {**bindings(golden_event(), GOLDEN_DATE), **GOLDEN_EXTRA}


def golden_path(template_id):
    return GOLDEN_DIR / (template_id.replace("/", "__") + ".txt")


def render_all():
    bindings = golden_bindings()
    return {
        template_id: render(template, bindings)
        for template_id, template in load_templates().items()
    }


def _run(strategy, backend, **params):
    return run_strategy(
        strategy,
        golden_event(),
        GOLDEN_DATE,
        backend,
        hn_client=FixedNews(Source.HACKERNEWS),
        nyt_client=FixedNews(Source.NYT),
        params=params,
    )


def write_traces(directory, wrap=lambda backend: backend):
    """Write the golden trace files into ``directory``; returns their names.

    One ``save_trace`` file per strategy on the scripted backend; one crowd
    trace whose personas are dropped both ways (empty job, reply without a
    number); and one ``.failed.json`` file whose prediction step fails
    on its second sample.  Each chain runs on ``wrap(backend)``.
    """
    directory = Path(directory)
    backend = MockBackend.from_file(FIXTURES / "mock.rules")
    names = []
    for strategy in STRATEGY_IDS:
        save_trace(_run(strategy, wrap(backend)), directory / f"{strategy}.json")
        names.append(f"{strategy}.json")

    flaky = MockBackend(
        [
            MockRule("substring", "You must ask an expert", ("an engineer", "", "a regulator")),
            MockRule("substring", "a regulator", "no number here"),
            *backend.rules,
        ]
    )
    save_trace(_run("crowd", wrap(flaky), persona_count=3), directory / "crowd.dropped.json")
    names.append("crowd.dropped.json")

    failing = MockBackend(
        [MockRule("substring", "Predict the likelihood", ("10%", "no number here")), *backend.rules]
    )
    try:
        _run("basic", wrap(failing))
    except ChainError as exc:
        save_trace(exc.trace, directory / "basic.failed.json")
    else:
        raise AssertionError("the failing basic chain did not fail")
    names.append("basic.failed.json")
    return names


@contextlib.contextmanager
def _nyt_key(value):
    """``NYT_API_KEY_ENV`` set to ``value`` (unset when None) for the block."""
    saved = os.environ.pop(NYT_API_KEY_ENV, None)
    if value is not None:
        os.environ[NYT_API_KEY_ENV] = value
    try:
        yield
    finally:
        os.environ.pop(NYT_API_KEY_ENV, None)
        if saved is not None:
            os.environ[NYT_API_KEY_ENV] = saved


def _cli(expected, *argv):
    """``foresight`` with ``argv``, its output captured; fails unless it exits ``expected``."""
    output = io.StringIO()
    with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
        code = cli_main([str(arg) for arg in argv])
    if code != expected:
        raise AssertionError(f"exit {code}, not {expected}: {argv}\n{output.getvalue()}")


def write_trees(root):
    """Run the CLI for the tree manifest; returns the directory of its outputs.

    Under ``root/out``: every strategy but news on the scripted backend into
    one ``--out``; news against the stub services with and without an NYT
    key, each recorded with ``--cache`` and replayed from it; a sequences run
    whose every event fails; ``score --out`` of a forecast file and of the
    market; and ``bias --out`` and ``rationale --out`` of the basic forecasts
    against the reversed and the rationale-first ones.  Cache entries carry their write time, so the caches and the
    inputs stay under ``root/work``, outside the compared tree.
    """
    out, work = Path(root) / "out", Path(root) / "work"
    work.mkdir(parents=True)
    events = FIXTURES / "events_val.jsonl"
    run = ["run", "--events", events, "--date", "2022-08-01"]
    mock = f"mock:{FIXTURES / 'mock.rules'}"
    for strategy in STRATEGY_IDS:
        if strategy != "news":
            _cli(0, *run, "--strategy", strategy, "--backend", mock, "--out", out / "mock")

    hits = [
        hn_hit("Tesla expands FSD beta to more testers", "2022-07-20T10:00:00Z"),
        hn_hit("FUTURE LEAK: Tesla achieves L3 everywhere", "2022-09-09T10:00:00Z"),
    ]
    docs = [nyt_doc("Tesla reports progress toward L3 but no regulatory approval", "2022-07-18T08:00:00+0000")]
    with StubNewsServer(hn_hits=hits, nyt_docs=docs) as server:
        endpoints = ["--hn-endpoint", server.hn_endpoint, "--nyt-endpoint", server.nyt_endpoint]
        for name, key in (("news_key", "stub-key"), ("news_no_key", None)):
            cache = work / name
            with _nyt_key(key):
                _cli(0, *run, "--strategy", "news", "--backend", mock, "--cache", cache,
                     "--out", out / name / "live", *endpoints)
                _cli(0, *run, "--strategy", "news", "--backend", f"replay:{cache}",
                     "--out", out / name / "replay")

    # the opposite event comes back empty, so every sequences chain fails
    rules = (FIXTURES / "mock.rules").read_text(encoding="utf-8")
    opposite = '"response": "[OPPOSITE] Tesla does not reach L3 autonomy by the end of 2022\\n[END]"'
    assert opposite in rules
    (work / "failing.rules").write_text(rules.replace(opposite, '"response": "[END]"'), encoding="utf-8")
    _cli(1, *run, "--strategy", "sequences", "--backend", f"mock:{work / 'failing.rules'}",
         "--out", out / "sequences_failing")

    _cli(0, "score", "--events", events, "--forecasts", out / "mock" / "basic.jsonl",
         "--out", out / "score_basic.json")
    _cli(0, "score", "--events", events, "--from-market", "--date", "2022-08-01",
         "--out", out / "score_market.json")
    _cli(0, "bias", "--forward", out / "mock" / "basic.jsonl",
         "--reversed", out / "mock" / "reversed.jsonl", "--out", out / "bias_basic.json")
    _cli(0, "rationale", "--just", out / "mock" / "basic.jsonl",
         "--rationale", out / "mock" / "basic_with_rationale.jsonl",
         "--out", out / "rationale_basic.csv")
    return out


def tree_manifest(root):
    """``sha256sum``-style lines for every file under ``root``, sorted by path."""
    root = Path(root)
    return "".join(
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(root).as_posix()}\n"
        for path in sorted(root.rglob("*"))
        if path.is_file()
    )


def main():
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for template_id, text in sorted(render_all().items()):
        golden_path(template_id).write_text(text, encoding="utf-8")
        print(f"wrote {golden_path(template_id).relative_to(FIXTURES.parent)}")
    for name in write_traces(GOLDEN_TRACE_DIR):
        print(f"wrote {(GOLDEN_TRACE_DIR / name).relative_to(FIXTURES.parent)}")
    with tempfile.TemporaryDirectory() as root:
        TREE_MANIFEST.write_text(tree_manifest(write_trees(root)), encoding="utf-8")
    print(f"wrote {TREE_MANIFEST.relative_to(FIXTURES.parent)}")


if __name__ == "__main__":
    main()
