"""Probe two forecaster biases: incoherent negation and rationale-driven drift.

A coherent forecaster's probabilities for an event and its opposite add to 1.
Scripting the backend to answer both framings low makes the sum fall short,
and prompting for a rationale first shifts answers upward:
python3 demos/bias_analysis.py
"""

from datetime import date

from foresight.events import Category, Event
from foresight.llm import MockBackend, MockRule
from foresight.metrics import bias, prediction_shift
from foresight.strategies import run_strategy, trace_to_forecast

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


def forecasts(strategy):
    return [trace_to_forecast(run_strategy(strategy, event, TODAY, BACKEND)) for event in EVENTS]


def main():
    just_answer = forecasts("basic")
    report = bias(just_answer, forecasts("reversed"))
    print(f"mean P(event)                 {report.mean_forward:.4f}")
    print(f"mean 1 - P(opposite)          {report.mean_reversed:.4f}")
    print(f"mean P(opposite)              {report.implied_opposite:.4f}")
    print(f"coherence sum (ideal 1.0)     {report.coherence_sum:.4f}")
    if report.coherence_sum < 1.0:
        print("the scripted model underestimates both framings\n")

    rows, mean_delta = prediction_shift(just_answer, forecasts("basic_with_rationale"))
    print("event      just answer   with rationale   shift")
    for event_id, p_just, p_rationale, delta in rows:
        print(f"{event_id:10} {p_just:11.4f} {p_rationale:16.4f} {delta:+7.4f}")
    print(f"mean shift: {mean_delta:+.4f}")


if __name__ == "__main__":
    main()
