"""Run one forecasting chain on one event and walk through its trace.

Uses a scripted backend, so it runs offline and prints the same thing every
time: python3 demos/run_single_event.py
"""

from datetime import date

from foresight.events import Category, Event
from foresight.llm import MockBackend, MockRule
from foresight.strategies import run_strategy

EVENT = Event(
    id="demo-reactor",
    name="Fusion Pilot Plant",
    condition="A grid-connected fusion pilot plant breaks ground by the end of 2022",
    description="Several ventures have announced site selections but none has started construction.",
    category=Category.TECH,
    created=date(2022, 1, 15),
    expires=date(2022, 12, 31),
)

# Scripted completions. First match wins; the extraction rule answers with the
# bare value the chain's parser expects.
BACKEND = MockBackend(
    [
        MockRule("substring", "emit only the final probability value", "0.08"),
        MockRule(
            "substring",
            "tasked with detailing all evidence that the event will happen",
            "Two ventures hold construction permits and one has poured test foundations.",
        ),
        MockRule(
            "substring",
            "detailing all evidence that the event will not happen",
            "No venture has secured grid interconnection, and winter halts groundwork.",
        ),
        MockRule(
            "substring",
            "Here is argument for why the event may come true",
            "Weighing both sides, I put this at 8%.",
        ),
        MockRule("any", None, "My estimate is 8%."),
    ]
)


def show(trace):
    print(f"strategy: {trace.strategy}")
    print(f"event:    {trace.event_id}")
    print(f"final:    {trace.final_probability:.4f} from {len(trace.final_samples)} samples")
    for step in trace.steps:
        kind = "llm" if step.prompt is not None else "computed"
        print(f"  step {step.step_id} ({kind})")
        if step.prompt is not None:
            first_line = step.prompt.splitlines()[0]
            print(f"    prompt starts: {first_line[:70]}")
        if step.parsed is not None:
            print(f"    parsed: {str(step.parsed)[:70]}")
    print()


def main():
    today = date(2022, 8, 1)
    for strategy in ("basic", "both_sides"):
        trace = run_strategy(strategy, EVENT, today, BACKEND)
        show(trace)


if __name__ == "__main__":
    main()
