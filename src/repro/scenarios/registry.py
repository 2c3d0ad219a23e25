"""The built-in scenario registry.

Every figure the repository reproduces ships as a named, declarative
scenario — the only way a figure is produced — plus workloads beyond the
paper (scheme matrix at a fixed budget, (k, l) sensitivity, the adaptive
adversary, heavy churn) and a tiny 2-point smoke scenario CI sweeps
end-to-end.

Axis values' float spellings are part of a point's identity (point labels
embed them, so ``3.0`` and ``3`` would be different random streams).
"""

from __future__ import annotations

from typing import Dict, List

from repro.scenarios.spec import (
    Axis,
    ScenarioSpec,
    ToleranceRule,
    ToleranceSchedule,
)

# The malicious-rate sweep every figure shares: 0.00, 0.05, ..., 0.50.
P_SWEEP = tuple(round(0.05 * i, 2) for i in range(11))

# Resilience curves move fastest on the knee between "holds" and
# "collapses" (p ≈ 0.25–0.45 for the planned configurations); when a base
# tolerance is set, spend the extra trials exactly there.
KNEE_SCHEDULE = ToleranceSchedule(
    rules=(ToleranceRule(axis="p", low=0.25, high=0.45, scale=0.5),)
)

_MULTIPATH_SCHEMES = ("central", "disjoint", "joint")
_CHURN_SCHEMES = ("central", "disjoint", "joint", "share")


def _fig6(name: str, population_size: int, measure: bool) -> ScenarioSpec:
    panel = {"fig6a": "(a)", "fig6b": "(b)", "fig6c": "(c)", "fig6d": "(d)"}[name]
    quantity = "attack resilience R" if measure else "required nodes C"
    return ScenarioSpec(
        name=name,
        kind="attack_resilience",
        description=(
            f"Fig. 6{panel}: {quantity} vs malicious rate p, "
            f"N = {population_size:,}"
        ),
        fixed={"population_size": population_size, "measure": measure},
        axes=(
            Axis("scheme", _MULTIPATH_SCHEMES),
            Axis("p", P_SWEEP),
        ),
        trials=400 if measure else 0,
        seed=2017,
        schedule=KNEE_SCHEDULE if measure else None,
        value_key="value" if measure else "cost",
    )


def _builtin_list() -> List[ScenarioSpec]:
    return [
        # -- the paper's figures ------------------------------------------
        _fig6("fig6a", 10000, True),
        _fig6("fig6b", 10000, False),
        _fig6("fig6c", 100, True),
        _fig6("fig6d", 100, False),
        ScenarioSpec(
            name="fig7",
            kind="churn_resilience",
            description=(
                "Fig. 7: resilience under churn, α = T/t_life panels "
                "{1, 2, 3, 5} × malicious rate × all four schemes"
            ),
            fixed={"population_size": 10000},
            axes=(
                Axis("alpha", (1.0, 2.0, 3.0, 5.0)),
                Axis("p", P_SWEEP),
                Axis("scheme", _CHURN_SCHEMES),
            ),
            trials=1000,
            seed=2017,
            schedule=KNEE_SCHEDULE,
        ),
        ScenarioSpec(
            name="fig8",
            kind="share_cost",
            description=(
                "Fig. 8: key-share routing resilience vs available-node "
                "budget N at α = 3"
            ),
            fixed={"alpha": 3.0},
            axes=(
                Axis("budget", (100, 1000, 5000, 10000)),
                Axis("p", P_SWEEP),
            ),
            trials=1000,
            seed=2017,
        ),
        # -- the extension sweeps -----------------------------------------
        ScenarioSpec(
            name="availability",
            kind="availability",
            description=(
                "Extension: transient unavailability (§II-C's second churn "
                "kind) — resilience vs p per uptime level"
            ),
            fixed={"population_size": 10000},
            axes=(
                Axis("uptime", (1.0, 0.95, 0.9, 0.8)),
                Axis("p", (0.0, 0.1, 0.2, 0.3)),
                Axis("scheme", ("disjoint", "joint", "share")),
            ),
            trials=1000,
            seed=2017,
        ),
        ScenarioSpec(
            name="timeliness",
            kind="timeliness",
            description=(
                "Extension: end-to-end release lateness (arrival − tr) per "
                "scheme and latency regime; trials = protocol runs per point"
            ),
            fixed={"path_length": 3},
            axes=(
                Axis("scheme", _CHURN_SCHEMES),
                Axis("max_latency", (0.05, 0.5)),
            ),
            trials=10,
            seed=31337,
        ),
        # -- new workloads beyond the paper's figures ---------------------
        ScenarioSpec(
            name="scheme-matrix-n1000",
            kind="attack_resilience",
            description=(
                "Scheme-comparison matrix at a fixed deployment budget of "
                "N = 1,000 nodes — between Fig. 6's 10,000 and 100 panels, "
                "the budget a mid-size overlay actually has"
            ),
            fixed={"population_size": 1000, "measure": True},
            axes=(
                Axis("scheme", _MULTIPATH_SCHEMES),
                Axis("p", P_SWEEP),
            ),
            trials=400,
            seed=2017,
            schedule=KNEE_SCHEDULE,
        ),
        ScenarioSpec(
            name="sensitivity-grid",
            kind="sensitivity",
            description=(
                "Sensitivity sweep over the (replication k × path length l) "
                "grid at p = 0.2: the resilience surface the Fig. 6 planner "
                "walks, exposed point by point"
            ),
            fixed={"p": 0.2, "population_size": 2000},
            axes=(
                Axis("scheme", ("disjoint", "joint")),
                Axis("replication", (2, 3, 4, 5)),
                Axis("path_length", (3, 4, 6, 8)),
            ),
            trials=300,
            seed=2017,
        ),
        ScenarioSpec(
            name="adaptive-observation",
            kind="adaptive",
            description=(
                "Adaptive traffic-observing adversary: resilience vs "
                "observation rate with a fixed targeted-corruption budget "
                "on a 3×4 grid, N = 10,000"
            ),
            fixed={
                "seed_rate": 0.02,
                "budget": 8,
                "replication": 3,
                "path_length": 4,
                "population_size": 10000,
            },
            axes=(
                Axis("scheme", ("disjoint", "joint")),
                Axis("observation_rate", (0.0, 0.25, 0.5, 0.75, 1.0)),
            ),
            trials=300,
            seed=4242,
        ),
        ScenarioSpec(
            name="heavy-churn",
            kind="churn_resilience",
            description=(
                "Heavy-churn grid far beyond the paper's α ≤ 5: does "
                "Algorithm 1's churn-aware planning still dominate when "
                "nodes turn over 8–12 lifetimes per emerging period?"
            ),
            fixed={"population_size": 10000},
            axes=(
                Axis("alpha", (5.0, 8.0, 12.0)),
                Axis("p", P_SWEEP),
                Axis("scheme", _CHURN_SCHEMES),
            ),
            trials=1000,
            seed=2017,
            schedule=KNEE_SCHEDULE,
        ),
        # -- epoch churn simulator (repro.epoch) --------------------------
        ScenarioSpec(
            name="availability-1e6",
            kind="epoch_availability",
            description=(
                "Million-node epoch-churn availability: resilience vs p "
                "per scheme, measured (not approximated) on a 10^6-node "
                "population with lifetime churn and repair"
            ),
            fixed={
                "population_size": 1_000_000,
                "alpha": 2.0,
                "uptime": 0.9,
            },
            axes=(
                Axis("scheme", ("disjoint", "joint")),
                Axis("p", (0.1, 0.2, 0.3)),
            ),
            trials=200,
            seed=2017,
        ),
        ScenarioSpec(
            name="timeliness-1e6",
            kind="epoch_timeliness",
            description=(
                "Million-node epoch-churn timeliness: delivery rate and "
                "lateness (in holding epochs past the nominal schedule) "
                "vs p, with per-epoch retry up to 8 epochs"
            ),
            fixed={
                "population_size": 1_000_000,
                "alpha": 2.0,
                "uptime": 0.9,
                "path_length": 4,
                "retry_epochs": 8,
            },
            axes=(Axis("p", (0.0, 0.1, 0.2)),),
            trials=400,
            seed=31337,
        ),
        ScenarioSpec(
            name="epoch-churn-grid",
            kind="epoch_availability",
            description=(
                "Churn-rate sensitivity grid: availability vs alpha per "
                "lifetime distribution (exponential/Weibull/Pareto) at "
                "p = 0.2 on a 10^5-node epoch simulation"
            ),
            fixed={
                "population_size": 100_000,
                "uptime": 0.9,
                "p": 0.2,
            },
            axes=(
                Axis("alpha", (0.5, 1.0, 2.0, 4.0)),
                Axis("lifetime", ("exponential", "weibull", "pareto")),
                Axis("scheme", ("disjoint", "joint")),
            ),
            trials=300,
            seed=2017,
        ),
        # -- CI / quickstart ----------------------------------------------
        ScenarioSpec(
            name="epoch-smoke",
            kind="epoch_availability",
            description=(
                "Capped-size epoch-kernel smoke: one 10^5-node availability "
                "point through the orchestrator — what the epoch-smoke CI "
                "job runs"
            ),
            fixed={
                "population_size": 100_000,
                "alpha": 2.0,
                "uptime": 0.9,
                "scheme": "joint",
            },
            axes=(Axis("p", (0.1,)),),
            trials=100,
            seed=7,
        ),
        ScenarioSpec(
            name="smoke",
            kind="attack_resilience",
            description=(
                "Tiny 2-point end-to-end sweep (joint scheme, N = 500) — "
                "what CI runs to exercise the orchestrator and store"
            ),
            fixed={
                "scheme": "joint",
                "population_size": 500,
                "measure": True,
            },
            axes=(Axis("p", (0.1, 0.3)),),
            trials=40,
            seed=99,
        ),
    ]


_CACHE: Dict[str, ScenarioSpec] = {}


def builtin_scenarios() -> Dict[str, ScenarioSpec]:
    """Name → spec for every registered scenario."""
    if not _CACHE:
        for spec in _builtin_list():
            if spec.name in _CACHE:
                raise ValueError(f"duplicate scenario name {spec.name!r}")
            _CACHE[spec.name] = spec
    return dict(_CACHE)


def scenario_names() -> List[str]:
    return sorted(builtin_scenarios())


def get_scenario(name: str) -> ScenarioSpec:
    scenarios = builtin_scenarios()
    if name not in scenarios:
        raise ValueError(
            f"unknown scenario {name!r}; registered: {', '.join(sorted(scenarios))}"
        )
    return scenarios[name]
