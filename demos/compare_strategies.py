"""Score several strategies against resolved events and a market baseline.

Builds a tiny resolved dataset in code, forecasts it with three chains and the
market midpoint, and prints a score table for each:
python3 demos/compare_strategies.py
"""

from datetime import date

from foresight.events import Category, DatasetSplit, Event, MarketSnapshot, Resolution
from foresight.llm import MockBackend, MockRule
from foresight.metrics import market_forecast_records, render_report, score
from foresight.strategies import run_strategy, trace_to_forecast

TODAY = date(2022, 8, 1)


def make_split():
    events = []
    outcomes = [
        ("demo-01", "Launch window holds", Resolution.NO, 0.30, 0.40),
        ("demo-02", "Rate pause announced", Resolution.YES, 0.55, 0.65),
        ("demo-03", "Variant wave recedes", Resolution.NO, 0.20, 0.30),
        ("demo-04", "Merger closes", Resolution.YES, 0.60, 0.80),
    ]
    for event_id, name, resolution, lower, upper in outcomes:
        events.append(
            Event(
                id=event_id,
                name=name,
                condition=f"{name} by the end of 2022",
                description="Demonstration event.",
                category=Category.MISC,
                created=date(2022, 6, 1),
                expires=date(2022, 12, 31),
                resolved_at=date(2022, 12, 1),
                resolution=resolution,
                market=(MarketSnapshot(TODAY, lower, upper),),
            )
        )
    return DatasetSplit(tuple(events))


# One response list per chain step; list responses cycle across samples, so the
# final eight samples spread rather than repeat.
BACKEND = MockBackend(
    [
        MockRule("substring", "emit only the final probability value", ""),
        MockRule("substring", "Here a base rate for this event:", "35%"),
        MockRule("substring", "Pose a question about the frequency", "How often do such plans hold?"),
        MockRule("substring", "Give your response as a complete sentence.", "They hold about a third of the time."),
        MockRule("substring", "superforecaster", ("30%", "35%", "40%")),
        MockRule("any", None, ("20%", "25%")),
    ]
)


def main():
    split = make_split()
    strategies = ("basic", "forecaster", "base_rate")
    for strategy in strategies:
        forecasts = [
            trace_to_forecast(run_strategy(strategy, event, TODAY, BACKEND))
            for event in split.events
        ]
        print(render_report(score(forecasts, split), title=f"Scores for {strategy}"))
    market = market_forecast_records(split.events, TODAY)
    print(render_report(score(market, split), title="Scores for market midpoint"))


if __name__ == "__main__":
    main()
