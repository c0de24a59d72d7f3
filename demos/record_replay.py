"""Record completions into a content-addressed cache, then replay offline.

The replay wraps a backend that raises on any call, so finishing at all proves
the rerun never left the cache: python3 demos/record_replay.py
"""

import tempfile
from datetime import date
from pathlib import Path

from foresight.events import Category, Event
from foresight.llm import CachedBackend, MockBackend, MockRule, NullBackend
from foresight.strategies import run_strategy

EVENT = Event(
    id="demo-eruption",
    name="Volcano Advisory",
    condition="The advisory level is raised by the end of 2022",
    description="Seismic activity has increased through the summer.",
    category=Category.MISC,
    created=date(2022, 5, 1),
    expires=date(2022, 12, 31),
)

LIVE = MockBackend(
    [
        MockRule("substring", "emit only the final probability value", ""),
        MockRule("any", None, ("10%", "15%", "20%")),
    ]
)


def main():
    today = date(2022, 8, 1)
    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = Path(tmp) / "cache"

        recording = CachedBackend(cache_dir, LIVE)
        first = run_strategy("basic", EVENT, today, recording)
        print(f"recorded run:  p = {first.final_probability:.4f}")
        # each miss is one live call
        print(f"  cache misses: {recording.store.misses}, cache hits: {recording.store.hits}")
        entries = len(list(cache_dir.rglob("*.json")))
        print(f"  cache now holds {entries} entries")

        # NullBackend raises on any completion call, so success here means the
        # whole chain was served from disk.
        null = NullBackend(LIVE.backend_id)
        replaying = CachedBackend(cache_dir, null, replay_only=True)
        second = run_strategy("basic", EVENT, today, replaying)
        print(f"replayed run:  p = {second.final_probability:.4f}")
        print(f"  cache misses: {replaying.store.misses}, cache hits: {replaying.store.hits}")
        assert second == first
        print("replay reproduced the recorded trace exactly")


if __name__ == "__main__":
    main()
