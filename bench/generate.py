"""Seeded workload generator.

Events are derived from ``tests/fixtures/events_val.jsonl``. Every generated
event gets its own id, name, condition and description, so no two events
render the same prompt and prompt cache keys never collide across events.
Each event's condition carries a ``ref-<hex>`` token; the stub provider keys
its replies on it, which lets the benchmark predict every forecast.

Every event is created on or before the prediction date and resolves after
it, so all events are active and scoreable. Market snapshots lie inside each
event's ``[created, resolved_at]`` window and always include the prediction
date, so ``score --from-market`` covers every event.
"""

from __future__ import annotations

import hashlib
import json
import random
from datetime import date, timedelta
from pathlib import Path

PREDICTION_DATE = date(2022, 8, 1)

_QUALIFIERS = (
    "early signal", "base case", "stress case", "late window", "policy track",
    "market view", "expert panel", "regional lens", "survey read", "field report",
)
_CONTEXT = (
    "Analysts disagree on the timeline.",
    "Recent statements point in both directions.",
    "Officials have not committed to a date.",
    "Observers expect news before the deadline.",
    "Comparable cases took longer than planned.",
    "Funding and staffing remain open questions.",
)


def event_token(seed: int, index: int) -> str:
    """The reference token embedded in event ``index`` of workload ``seed``."""
    return hashlib.sha256(f"{seed}:{index}".encode()).hexdigest()[:10]


def generate_events(base_path: Path, seed: int, count: int, snapshots: int) -> list[dict]:
    """``count`` distinct events with ``snapshots`` market snapshots each."""
    bases = [json.loads(line) for line in base_path.read_text(encoding="utf-8").splitlines() if line.strip()]
    rng = random.Random(seed)
    events = []
    for index in range(count):
        base = bases[index % len(bases)]
        token = event_token(seed, index)
        created = date.fromisoformat(base["created"])
        resolved_at = date.fromisoformat(base["resolved_at"])
        window = (resolved_at - created).days + 1
        days = {(PREDICTION_DATE - created).days}
        while len(days) < min(snapshots, window):
            days.add(rng.randrange(window))
        market = []
        for day in sorted(days):
            lower = rng.randrange(0, 90) / 100
            market.append({
                "date": (created + timedelta(days=day)).isoformat(),
                "lower": lower,
                "upper": round(lower + rng.randrange(0, 11) / 100, 2),
            })
        qualifier = rng.choice(_QUALIFIERS)
        events.append({
            "id": f"b{seed}-{index:05d}",
            "name": f"{base['name']} ({qualifier} {index})",
            "condition": f"{base['condition']} (case ref-{token})",
            "description": f"{base['description']} {rng.choice(_CONTEXT)} Case {index} of {count}.",
            "category": base["category"],
            "created": base["created"],
            "expires": base["expires"],
            "resolved_at": base["resolved_at"],
            "resolution": rng.choice(("yes", "no")),
            "market": market,
        })
    return events


def write_events(path: Path, events: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(json.dumps(event) + "\n" for event in events), encoding="utf-8")
