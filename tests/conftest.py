"""Shared fixtures.  The acceptance criteria need full 300 s runs over seeds
0..9 in three configurations; they are executed once per session and reduced
to compact per-run summaries."""
from statistics import mean

import pytest

from twinsim.metrics import summarize
from twinsim.runner import run_showcase
from twinsim.scenario import ScenarioConfig, default_hotspot_scenario

SEEDS = range(10)
# tasks created up to here see a queue still filling from empty
WARMUP_US = 5_000_000


def _reduce(result):
    completed = [r for r in result.records if r.completed_us is not None]
    after_warmup = [r.rt_us for r in completed if r.created_us > WARMUP_US]
    return {
        "stats": summarize(result.records),
        "autonomy": list(result.series.autonomy),
        "coordination": list(result.series.coordination),
        "generated": result.generated,
        "completed": result.completed,
        "dropped": result.dropped,
        "in_flight": result.in_flight,
        "wall_s": result.wall_time_s,
        "min_rt_us": min((r.rt_us for r in completed), default=None),
        "mean_rt_after_warmup_us": mean(after_warmup) if after_warmup else None,
        "tiers": {r.tier for r in completed},
        "messages": (result.messages.sent, result.messages.delivered,
                     result.messages.dropped, result.messages.in_flight),
        "directives": [(d.from_labels, d.to_labels, d.fraction)
                       for d in result.directive_log],
    }


@pytest.fixture(scope="session")
def showcase_runs():
    """Seed sweep summaries: layered and cloud_only default scenarios plus
    the hotspot sub-scenario, seeds 0..9."""
    runs = {"layered": {}, "cloud_only": {}, "hotspot": {}}
    for seed in SEEDS:
        runs["layered"][seed] = _reduce(run_showcase(ScenarioConfig(seed=seed)))
        runs["cloud_only"][seed] = _reduce(
            run_showcase(ScenarioConfig(seed=seed, mode="cloud_only")))
        runs["hotspot"][seed] = _reduce(run_showcase(default_hotspot_scenario(seed)))
    return runs
