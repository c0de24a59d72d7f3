"""Probe two forecaster biases: incoherent negation and rationale-driven drift.

A coherent forecaster's probabilities for an event and its opposite add to 1.
Scripting the backend to answer both framings low makes the sum fall short,
and prompting for a rationale first shifts answers upward:
python3 demos/bias_analysis.py
"""

import math
from datetime import date

from foresight.events import Category, Event
from foresight.llm import MockBackend, MockRule
from foresight.metrics import coherence_sum, prediction_shift
from foresight.strategies import run_strategy

TODAY = date(2022, 8, 1)

EVENTS = [
    Event(
        id=f"demo-{i}",
        name=name,
        condition=f"{name} by the end of 2022",
        description="Demonstration event.",
        category=Category.MISC,
        created=date(2022, 6, 1),
        expires=date(2022, 12, 31),
    )
    for i, name in enumerate(
        ["港 port reopens", "Summit produces accord", "Probe returns samples", "Strike is averted"]
    )
]

# The scripted model lowballs every framing: ~25% for the event itself, ~60%
# for its negation (instead of the coherent 75%), and drifts upward once asked
# to reason first.
BACKEND = MockBackend(
    [
        MockRule("substring", "emit only the final probability value", ""),
        MockRule(
            "substring",
            "[OPPOSITE]",
            "[OPPOSITE] The condition does not come to pass by the end of 2022\n[END]",
        ),
        MockRule("substring", "does not come to pass", "60%"),
        MockRule("substring", "talk through your rationale for and against", "All told I reach 40%."),
        MockRule("any", None, "25%"),
    ]
)


def mean(values):
    return math.fsum(values) / len(values)


def main():
    forward = []
    flipped = []
    just_answer = []
    with_rationale = []
    for event in EVENTS:
        basic = run_strategy("basic", event, TODAY, BACKEND)
        reversed_trace = run_strategy("reversed", event, TODAY, BACKEND)
        rationale = run_strategy("basic_with_rationale", event, TODAY, BACKEND)
        forward.append(basic.final_probability)
        flipped.append(reversed_trace.final_probability)
        just_answer.append((event.id, basic.final_probability))
        with_rationale.append((event.id, rationale.final_probability))

    mean_forward = mean(forward)
    mean_flipped = mean(flipped)
    mean_opposite = 1.0 - mean_flipped
    print(f"mean P(event)                 {mean_forward:.4f}")
    print(f"mean 1 - P(opposite)          {mean_flipped:.4f}")
    print(f"mean P(opposite)              {mean_opposite:.4f}")
    total = coherence_sum(mean_forward, mean_opposite)
    print(f"coherence sum (ideal 1.0)     {total:.4f}")
    if total < 1.0:
        print("the scripted model underestimates both framings\n")

    rows = prediction_shift(just_answer, with_rationale)
    print("event      just answer   with rationale   shift")
    for event_id, p_just, p_rationale, delta in rows:
        print(f"{event_id:10} {p_just:11.4f} {p_rationale:16.4f} {delta:+7.4f}")
    print(f"mean shift: {mean([delta for *_, delta in rows]):+.4f}")


if __name__ == "__main__":
    main()
