"""Point runners: how each scenario *kind* executes one grid point.

A runner takes the point's full parameter set (the spec's fixed parameters
merged with the point's axis values), a trial budget, a seed, and the
engine the orchestrator built for the point, and returns a JSON-safe
result dict.  Every result carries two common fields:

- ``"value"`` — the headline number reporting pivots into tables;
- ``"trials_run"`` — trials actually executed (less than the budget when
  adaptive stopping fires; 0 for a point computed in closed form; what
  "zero new trials on a cached re-run" means operationally).

A kind is one function: it validates the parameter set against its
``_take`` table (the one place a parameter's default is stated), plans,
builds the trial or batch unit from :mod:`repro.experiments` (a class in
:data:`repro.backends.wire.UNITS`, so every backend can ship it),
makes one engine call and shapes the result dict — whose keys and key
order are the store record.  A kind is one model, and ``_take`` refuses
a parameter its model does not read.  Fig. 7 (``churn_resilience``),
Fig. 8 (``share_cost``) and ``availability`` make no engine call: their
values are closed forms, and ``trials`` only shapes their keys.  The
``epoch_availability`` and ``epoch_timeliness`` kinds measure the same
extensions under lifetime churn on an explicit node population
(:mod:`repro.epoch`).  To run one point directly, call
``get_runner(kind)(params, trials, seed, engine, batch_size)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional

from repro.core.planner import DEFAULT_TARGET, PLANNING_FLOOR, plan_configuration
from repro.core.schemes import CentralizedScheme, NodeDisjointScheme, NodeJointScheme
from repro.core.schemes.keyshare import SharePlan, plan_share_scheme
from repro.experiments.churn_model import ChurnOutcome, key_share_churn
from repro.experiments.engine import MonteCarloEstimate, PairedEstimate, TrialEngine

PointRunner = Callable[
    [Mapping[str, Any], int, int, TrialEngine, Optional[int]], Dict[str, Any]
]

_RUNNERS: Dict[str, PointRunner] = {}


def register_kind(name: str) -> Callable[[PointRunner], PointRunner]:
    """Register a point runner under a scenario kind name.

    Public on purpose: declaring a brand-new workload is "register a kind,
    write a spec" (see README, *Declaring and running scenarios*).
    """

    def decorator(runner: PointRunner) -> PointRunner:
        _RUNNERS[name] = runner
        return runner

    return decorator


def kind_names() -> tuple:
    return tuple(sorted(_RUNNERS))


def get_runner(kind: str) -> PointRunner:
    if kind not in _RUNNERS:
        raise ValueError(
            f"unknown scenario kind {kind!r}; registered kinds: "
            f"{', '.join(kind_names())}"
        )
    return _RUNNERS[kind]


def _accepts(value: Any, expected: type) -> bool:
    if expected is bool:
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    if expected is float:  # ints are fine wherever a float is expected
        return isinstance(value, (int, float))
    return isinstance(value, expected)


def _take(
    kind: str,
    params: Mapping[str, Any],
    required: Dict[str, type],
    optional: Dict[str, Any],
) -> Dict[str, Any]:
    """Validate a point's parameter set against the kind's signature.

    A supplied optional must have the type of its default (a ``None``
    default takes ``None`` or a float).  Nothing is coerced: the values
    land in cache keys as written.
    """
    unknown = sorted(set(params) - set(required) - set(optional))
    if unknown:
        raise ValueError(
            f"kind {kind!r} does not accept parameter(s) {unknown}; "
            f"expected {sorted(required)} plus optional {sorted(optional)}"
        )
    missing = sorted(set(required) - set(params))
    if missing:
        raise ValueError(f"kind {kind!r} missing required parameter(s) {missing}")
    expected_types = dict(required)
    for name, default in optional.items():
        if name in params and not (default is None and params[name] is None):
            expected_types[name] = float if default is None else type(default)
    for name, expected in expected_types.items():
        if not _accepts(params[name], expected):
            raise TypeError(
                f"kind {kind!r} parameter {name!r} must be "
                f"{expected.__name__}, got {type(params[name]).__name__} "
                f"({params[name]!r})"
            )
    return {**optional, **dict(params)}


def _estimate_dict(estimate: MonteCarloEstimate) -> Dict[str, Any]:
    return {
        "estimate": estimate.estimate,
        "low": estimate.low,
        "high": estimate.high,
        "trials": estimate.trials,
        "successes": estimate.successes,
    }


def _pair_dict(pair: PairedEstimate) -> Dict[str, Any]:
    return {
        "release": _estimate_dict(pair.release),
        "drop": _estimate_dict(pair.drop),
    }


def _outcome_dict(outcome: ChurnOutcome) -> Dict[str, Any]:
    """The four keys every (release, drop) churn record ends with."""
    return {
        "release_resilience": outcome.release_resilience,
        "drop_resilience": outcome.drop_resilience,
        "value": outcome.worst,
        "trials_run": outcome.trials,
    }


def _share_outcome(plan: SharePlan, p: float) -> ChurnOutcome:
    """Algorithm 1's (Rr, Rd) at the actual rate ``p``.

    A plan made at ``p`` already holds them — bit for bit what
    :func:`key_share_churn` re-derives — so only a plan made at the
    planning floor for a lower ``p`` re-evaluates its tails.
    """
    if p == plan.malicious_rate:
        return ChurnOutcome(plan.release_resilience, plan.drop_resilience)
    return key_share_churn(plan, malicious_rate=p)


def _multipath_scheme(name: str, replication: int, path_length: int):
    if name == "disjoint":
        return NodeDisjointScheme(replication, path_length)
    if name == "joint":
        return NodeJointScheme(replication, path_length)
    raise ValueError(
        f"scheme must be 'disjoint' or 'joint' for this kind, got {name!r}"
    )


# -- the paper's figures -----------------------------------------------------


@register_kind("attack_resilience")
def attack_resilience_runner(
    params: Mapping[str, Any],
    trials: int,
    seed: int,
    engine: TrialEngine,
    batch_size: Optional[int] = None,
) -> Dict[str, Any]:
    """Fig. 6 family: plan, closed-form curve, finite-population MC.

    The plan is verified by Monte Carlo when ``measure`` is set and the
    plan fits the population; ``fig6a``…``fig6d`` sweep this over the
    figure's grid (``population_size=10000`` for (a)+(b), ``100`` for
    (c)+(d)).
    """
    from repro.experiments.attack_resilience import measure_attack

    args = _take(
        "attack_resilience",
        params,
        required={"scheme": str, "p": float},
        optional={
            "population_size": 10000,
            "target": DEFAULT_TARGET,
            "measure": True,
        },
    )
    p, population_size = args["p"], args["population_size"]
    plan = plan_configuration(
        args["scheme"], p, population_size, target=args["target"]
    )
    measured = None
    if args["measure"] and plan.cost <= population_size:
        if plan.scheme == "central":
            scheme = CentralizedScheme()
        else:
            scheme = _multipath_scheme(
                plan.scheme, plan.replication, plan.path_length
            )
        measured = measure_attack(
            scheme,
            p,
            population_size,
            trials,
            seed,
            engine,
            label=f"fig6-{scheme.name}-{p}",
            batch_size=batch_size,
        )
    return {
        "scheme": args["scheme"],
        "p": p,
        "replication": plan.replication,
        "path_length": plan.path_length,
        "cost": plan.cost,
        "analytic_release": plan.release_resilience,
        "analytic_drop": plan.drop_resilience,
        "analytic_worst": plan.worst_resilience,
        "measured": _pair_dict(measured) if measured is not None else None,
        "value": measured.worst if measured is not None else plan.worst_resilience,
        "trials_run": measured.release.trials if measured is not None else 0,
    }


@register_kind("churn_resilience")
def churn_resilience_runner(
    params: Mapping[str, Any],
    trials: int,
    seed: int,
    engine: TrialEngine,
    batch_size: Optional[int] = None,
) -> Dict[str, Any]:
    """Fig. 7 family: the epoch churn model per (scheme, α, p), exactly.

    The multipath schemes use the configuration the no-churn planner
    would have picked (the sender plans without knowing the churn level —
    exactly the failure mode §III-D fixes); key-share plans with
    Algorithm 1, which *does* model churn.  No trial runs: ``trials``
    shapes the point's cache key, not its value.
    """
    from repro.experiments.churn_model import centralized_churn, multipath_churn

    args = _take(
        "churn_resilience",
        params,
        required={"scheme": str, "alpha": float, "p": float},
        optional={"population_size": 10000},
    )
    scheme, alpha, p = args["scheme"], args["alpha"], args["p"]
    planning_rate = max(p, PLANNING_FLOOR)
    if scheme == "central":
        k = length = 1
        outcome = centralized_churn(p, alpha)
    elif scheme in ("disjoint", "joint"):
        plan = plan_configuration(scheme, planning_rate, args["population_size"])
        k, length = plan.replication, plan.path_length
        outcome = multipath_churn(p, alpha, k, length, joint=(scheme == "joint"))
    elif scheme == "share":
        # Algorithm 1 plans with the churn level (T = α, λ = 1).
        plan = plan_share_scheme(
            planning_rate,
            args["population_size"],
            emerging_time=alpha,
            mean_lifetime=1.0,
        )
        k, length = plan.replication, plan.path_length
        outcome = _share_outcome(plan, p)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return {
        "scheme": scheme,
        "alpha": alpha,
        "p": p,
        "replication": k,
        "path_length": length,
        **_outcome_dict(outcome),
    }


@register_kind("share_cost")
def share_cost_runner(
    params: Mapping[str, Any],
    trials: int,
    seed: int,
    engine: TrialEngine,
    batch_size: Optional[int] = None,
) -> Dict[str, Any]:
    """Fig. 8: key-share resilience vs available-node budget.

    Algorithm 1 re-plans ``(m, n)`` for each budget N at the paper's
    α = 3.  The churn model at the plan's own rate is Algorithm 1's own
    aggregation, so the record's resilience pair is the plan's
    ``(release_resilience, drop_resilience)``, taken from the plan rather
    than re-evaluated, and equals ``analytic_resilience`` exactly.
    The expected shape: 10,000 and 5,000 nearly coincide, 1,000 holds
    R > 0.95 to p ≈ 0.26, and even 100 nodes keep R > 0.9 to p ≈ 0.14.
    """
    args = _take(
        "share_cost",
        params,
        required={"budget": int, "p": float},
        optional={"alpha": 3.0},
    )
    budget, p, alpha = args["budget"], args["p"], args["alpha"]
    plan = plan_share_scheme(p, budget, emerging_time=alpha, mean_lifetime=1.0)
    return {
        "budget": budget,
        "p": p,
        "alpha": alpha,
        "replication": plan.replication,
        "path_length": plan.path_length,
        "shares_per_column": plan.shares_per_column,
        "analytic_resilience": plan.worst_resilience,
        **_outcome_dict(_share_outcome(plan, p)),
    }


@register_kind("availability")
def availability_runner(
    params: Mapping[str, Any],
    trials: int,
    seed: int,
    engine: TrialEngine,
    batch_size: Optional[int] = None,
) -> Dict[str, Any]:
    """Extension: transient unavailability on top of death churn, per
    forwarding boundary in closed form (no engine call)."""
    from repro.experiments.availability import (
        key_share_availability,
        multipath_availability,
    )

    args = _take(
        "availability",
        params,
        required={"scheme": str, "uptime": float, "p": float},
        optional={"population_size": 10000},
    )
    scheme, uptime, p = args["scheme"], args["uptime"], args["p"]
    planning_rate = max(p, PLANNING_FLOOR)
    if scheme in ("disjoint", "joint"):
        plan = plan_configuration(scheme, planning_rate, args["population_size"])
        outcome = multipath_availability(
            p,
            uptime,
            plan.replication,
            plan.path_length,
            joint=(scheme == "joint"),
        )
    elif scheme == "share":
        plan = plan_share_scheme(planning_rate, args["population_size"], 1.0, 1.0)
        outcome = key_share_availability(plan, uptime, p)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return {
        "scheme": scheme,
        "uptime": uptime,
        "p": p,
        **_outcome_dict(outcome),
    }


#: The churn knobs both epoch kinds read, with their defaults: α = T /
#: t_life and the lifetime distribution of :mod:`repro.epoch.population`.
_EPOCH_CHURN = {"alpha": 2.0, "lifetime": "exponential", "lifetime_shape": None}


@register_kind("epoch_availability")
def epoch_availability_runner(
    params: Mapping[str, Any],
    trials: int,
    seed: int,
    engine: TrialEngine,
    batch_size: Optional[int] = None,
) -> Dict[str, Any]:
    """Extension: availability measured under lifetime churn and repair on
    an explicit node population (:mod:`repro.epoch`); multipath only."""
    from repro.epoch.measure import epoch_availability_outcome

    args = _take(
        "epoch_availability",
        params,
        required={"scheme": str, "uptime": float, "p": float},
        optional={"population_size": 10000, **_EPOCH_CHURN},
    )
    outcome = epoch_availability_outcome(
        args["scheme"],
        args["uptime"],
        args["p"],
        population_size=args["population_size"],
        alpha=args["alpha"],
        lifetime=args["lifetime"],
        lifetime_shape=args["lifetime_shape"],
        trials=trials,
        seed=seed,
        engine=engine,
        batch_size=batch_size,
    )
    return {
        "scheme": args["scheme"],
        "uptime": args["uptime"],
        "p": args["p"],
        **_outcome_dict(outcome),
        "alpha": args["alpha"],
        "lifetime": args["lifetime"],
        "population_size": args["population_size"],
    }


@register_kind("timeliness")
def timeliness_runner(
    params: Mapping[str, Any],
    trials: int,
    seed: int,
    engine: TrialEngine,
    batch_size: Optional[int] = None,
) -> Dict[str, Any]:
    """Extension: end-to-end release lateness; ``trials`` is the run count.

    Each end-to-end run is one collect-mode engine trial; the per-run
    seeds are a function of the run index alone, keeping results
    identical for any executor.
    """
    from repro.experiments.timeliness import TimelinessTrial

    args = _take(
        "timeliness",
        params,
        required={"scheme": str},
        optional={"max_latency": 0.5, "path_length": 3},
    )
    scheme, max_latency = args["scheme"], args["max_latency"]
    raw = engine.map(
        TimelinessTrial(scheme, max_latency, seed, args["path_length"]),
        trials=trials,
        seed=seed,
        label=f"timeliness-{scheme}-{max_latency}",
    )
    latenesses = [lateness for lateness in raw if lateness is not None]
    delivered = len(latenesses)
    mean_lateness = sum(latenesses) / delivered if delivered else 0.0
    return {
        "scheme": scheme,
        "max_latency": max_latency,
        "delivered": delivered,
        "runs": trials,
        "delivery_rate": delivered / trials if trials else 0.0,
        "mean_lateness": mean_lateness,
        "worst_lateness": max(latenesses) if latenesses else 0.0,
        # Arrivals before tr: must always be zero.
        "early_releases": sum(1 for lateness in latenesses if lateness < 0),
        "value": mean_lateness,
        "trials_run": trials,
    }


@register_kind("epoch_timeliness")
def epoch_timeliness_runner(
    params: Mapping[str, Any],
    trials: int,
    seed: int,
    engine: TrialEngine,
    batch_size: Optional[int] = None,
) -> Dict[str, Any]:
    """Extension: delivery rate and lateness, in holding epochs past the
    nominal ``path_length``-epoch schedule, under lifetime churn and repair.

    The walk forwards a column when any of its replicas is usable, which
    is the joint rule, so the kind takes no ``scheme`` and its records
    name ``"joint"``.
    """
    from repro.epoch.measure import epoch_timeliness_result

    args = _take(
        "epoch_timeliness",
        params,
        required={},
        optional={
            "uptime": 0.9,
            "p": 0.0,
            "population_size": 10000,
            **_EPOCH_CHURN,
            "path_length": 3,
            "replication": 3,
            "retry_epochs": 8,
        },
    )
    delivered, runs, mean_lateness, worst_lateness = epoch_timeliness_result(
        args["uptime"],
        args["p"],
        population_size=args["population_size"],
        alpha=args["alpha"],
        lifetime=args["lifetime"],
        lifetime_shape=args["lifetime_shape"],
        path_length=args["path_length"],
        replication=args["replication"],
        retry_epochs=args["retry_epochs"],
        trials=trials,
        seed=seed,
        engine=engine,
        batch_size=batch_size,
    )
    return {
        "scheme": "joint",
        "delivered": delivered,
        "runs": runs,
        "delivery_rate": delivered / runs if runs else 0.0,
        "mean_lateness": mean_lateness,
        "worst_lateness": worst_lateness,
        "value": mean_lateness,
        "trials_run": runs,
        "uptime": args["uptime"],
        "alpha": args["alpha"],
        "p": args["p"],
        "population_size": args["population_size"],
        "retry_epochs": args["retry_epochs"],
    }


# -- new workloads beyond the paper ------------------------------------------


@register_kind("sensitivity")
def sensitivity_runner(
    params: Mapping[str, Any],
    trials: int,
    seed: int,
    engine: TrialEngine,
    batch_size: Optional[int] = None,
) -> Dict[str, Any]:
    """Sensitivity of resilience to the (k, l) grid at a fixed threat level.

    The planner normally hides (k, l) behind a cost search; this kind pins
    them explicitly and measures how release/drop resilience trade off as
    the grid grows — the surface the paper's Fig. 6 planner walks.
    """
    from repro.experiments.attack_resilience import measure_attack

    args = _take(
        "sensitivity",
        params,
        required={"scheme": str, "replication": int, "path_length": int, "p": float},
        optional={"population_size": 2000},
    )
    scheme = _multipath_scheme(
        args["scheme"], args["replication"], args["path_length"]
    )
    analytic = scheme.resilience(args["p"])
    pair = measure_attack(
        scheme,
        args["p"],
        args["population_size"],
        trials,
        seed,
        engine,
        label=(
            f"sens-{args['scheme']}-k{args['replication']}"
            f"-l{args['path_length']}-p{args['p']}"
        ),
        batch_size=batch_size,
    )
    return {
        "scheme": args["scheme"],
        "replication": args["replication"],
        "path_length": args["path_length"],
        "p": args["p"],
        "cost": scheme.node_cost,
        "analytic_release": analytic.release,
        "analytic_drop": analytic.drop,
        "analytic_worst": analytic.worst,
        "measured": _pair_dict(pair),
        "value": pair.worst,
        "trials_run": pair.release.trials,
    }


@dataclass(frozen=True)
class AdaptiveTrial:
    """One two-phase adaptive-adversary trial, as an engine unit."""

    scheme: Any
    population_size: int
    seed_rate: float
    observation_rate: float
    budget: int

    def __call__(self, rng):
        from repro.adversary.adaptive import AdaptiveAdversary, evaluate_adaptive_attack

        adversary = AdaptiveAdversary(
            self.seed_rate,
            self.observation_rate,
            self.budget,
            rng.fork("adversary"),
        )
        outcome = evaluate_adaptive_attack(
            self.scheme, self.population_size, adversary, rng
        )
        return outcome.release_resisted, outcome.drop_resisted


@register_kind("adaptive")
def adaptive_runner(
    params: Mapping[str, Any],
    trials: int,
    seed: int,
    engine: TrialEngine,
    batch_size: Optional[int] = None,
) -> Dict[str, Any]:
    """Adaptive (traffic-observing) adversary vs observation rate.

    The extension workload from :mod:`repro.adversary.adaptive`, run
    through the trial engine so it parallelises and early-stops like every
    other scenario kind.
    """
    args = _take(
        "adaptive",
        params,
        required={
            "scheme": str,
            "observation_rate": float,
            "seed_rate": float,
            "budget": int,
        },
        optional={"population_size": 10000, "replication": 3, "path_length": 4},
    )
    scheme = _multipath_scheme(
        args["scheme"], args["replication"], args["path_length"]
    )
    trial = AdaptiveTrial(
        scheme,
        args["population_size"],
        args["seed_rate"],
        args["observation_rate"],
        args["budget"],
    )
    label = f"adaptive-{args['scheme']}-o{args['observation_rate']}"
    pair = engine.estimate_pair(trial, trials=trials, seed=seed, label=label)
    return {
        "scheme": args["scheme"],
        "observation_rate": args["observation_rate"],
        "seed_rate": args["seed_rate"],
        "budget": args["budget"],
        "replication": args["replication"],
        "path_length": args["path_length"],
        "measured": _pair_dict(pair),
        "release_resilience": pair.release.estimate,
        "drop_resilience": pair.drop.estimate,
        "value": pair.worst,
        "trials_run": pair.release.trials,
    }
