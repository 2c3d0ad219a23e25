"""Point runners: how each scenario *kind* executes one grid point.

A runner takes the point's full parameter set (the spec's fixed parameters
merged with the point's axis values), a trial budget, a seed, and the
engine the orchestrator built for the point, and returns a JSON-safe
result dict.  Every result carries two common fields:

- ``"value"`` — the headline number reporting pivots into tables;
- ``"trials_run"`` — trials actually executed (less than the budget when
  adaptive stopping fires; what "zero new trials on a cached re-run"
  means operationally).

The figure kinds delegate to the typed per-point units in
:mod:`repro.experiments` (``attack_resilience_point`` & co.) — the same
functions the kernel and oracle tests call directly.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional

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
    """Validate a point's parameter set against the kind's signature."""
    unknown = sorted(set(params) - set(required) - set(optional))
    if unknown:
        raise ValueError(
            f"kind {kind!r} does not accept parameter(s) {unknown}; "
            f"expected {sorted(required)} plus optional {sorted(optional)}"
        )
    missing = sorted(set(required) - set(params))
    if missing:
        raise ValueError(f"kind {kind!r} missing required parameter(s) {missing}")
    for name, expected in required.items():
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


# -- the paper's figures -----------------------------------------------------


@register_kind("attack_resilience")
def attack_resilience_runner(
    params: Mapping[str, Any],
    trials: int,
    seed: int,
    engine: TrialEngine,
    batch_size: Optional[int] = None,
) -> Dict[str, Any]:
    """Fig. 6 family: plan, closed-form curve, finite-population MC."""
    from repro.core.planner import DEFAULT_TARGET
    from repro.experiments.attack_resilience import attack_resilience_point

    # The Monte-Carlo lane is part of a point's *parameter set*, so a spec
    # that wants the vectorised kernels must pin kernel="vectorized" (all
    # built-in measuring specs do) — that puts the lane in the result-store
    # cache key.  The unpinned default stays "scalar", the pre-kernel
    # estimator, so stores populated before the vectorised lane existed
    # remain valid for specs that never mention a kernel.
    args = _take(
        "attack_resilience",
        params,
        required={"scheme": str, "p": float},
        optional={
            "population_size": 10000,
            "target": DEFAULT_TARGET,
            "measure": True,
            "kernel": "scalar",
        },
    )
    point = attack_resilience_point(
        args["scheme"],
        args["p"],
        population_size=args["population_size"],
        trials=trials,
        target=args["target"],
        measure=args["measure"],
        seed=seed,
        engine=engine,
        kernel=args["kernel"],
        batch_size=batch_size,
    )
    measured = point.measured
    return {
        "scheme": point.scheme,
        "p": point.malicious_rate,
        "replication": point.configuration.replication,
        "path_length": point.configuration.path_length,
        "cost": point.cost,
        "analytic_release": point.analytic_release,
        "analytic_drop": point.analytic_drop,
        "analytic_worst": point.analytic_worst,
        "measured": _pair_dict(measured) if measured is not None else None,
        "value": measured.worst if measured is not None else point.analytic_worst,
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
    """Fig. 7 family: the epoch churn model per (scheme, α, p)."""
    from repro.experiments.churn_resilience import churn_resilience_point

    args = _take(
        "churn_resilience",
        params,
        required={"scheme": str, "alpha": float, "p": float},
        optional={"population_size": 10000},
    )
    point = churn_resilience_point(
        args["scheme"],
        args["alpha"],
        args["p"],
        population_size=args["population_size"],
        trials=trials,
        seed=seed,
        engine=engine,
        batch_size=batch_size,
    )
    return {
        "scheme": point.scheme,
        "alpha": point.alpha,
        "p": point.malicious_rate,
        "replication": point.replication,
        "path_length": point.path_length,
        "release_resilience": point.outcome.release_resilience,
        "drop_resilience": point.outcome.drop_resilience,
        "value": point.resilience,
        "trials_run": point.outcome.trials,
    }


@register_kind("share_cost")
def share_cost_runner(
    params: Mapping[str, Any],
    trials: int,
    seed: int,
    engine: TrialEngine,
    batch_size: Optional[int] = None,
) -> Dict[str, Any]:
    """Fig. 8: key-share resilience vs available-node budget."""
    from repro.experiments.cost import share_cost_point

    args = _take(
        "share_cost",
        params,
        required={"budget": int, "p": float},
        optional={"alpha": 3.0},
    )
    point = share_cost_point(
        args["budget"],
        args["p"],
        alpha=args["alpha"],
        trials=trials,
        seed=seed,
        engine=engine,
        batch_size=batch_size,
    )
    return {
        "budget": point.node_budget,
        "p": point.malicious_rate,
        "alpha": point.alpha,
        "replication": point.plan.replication,
        "path_length": point.plan.path_length,
        "shares_per_column": point.plan.shares_per_column,
        "analytic_resilience": point.analytic_resilience,
        "release_resilience": point.outcome.release_resilience,
        "drop_resilience": point.outcome.drop_resilience,
        "value": point.resilience,
        "trials_run": point.outcome.trials,
    }


@register_kind("availability")
def availability_runner(
    params: Mapping[str, Any],
    trials: int,
    seed: int,
    engine: TrialEngine,
    batch_size: Optional[int] = None,
) -> Dict[str, Any]:
    """Extension: transient unavailability on top of death churn."""
    from repro.experiments.availability import availability_point

    # The unpinned kernel default stays "static" and the churn knobs are
    # optional, so cache keys of stores populated before the epoch lane
    # existed remain valid; only specs that *pin* kernel="epoch" differ.
    args = _take(
        "availability",
        params,
        required={"scheme": str, "uptime": float, "p": float},
        optional={
            "population_size": 10000,
            "kernel": "static",
            "alpha": 2.0,
            "lifetime": "exponential",
            "lifetime_shape": None,
        },
    )
    point = availability_point(
        args["scheme"],
        args["uptime"],
        args["p"],
        population_size=args["population_size"],
        trials=trials,
        seed=seed,
        engine=engine,
        batch_size=batch_size,
        kernel=args["kernel"],
        alpha=args["alpha"],
        lifetime=args["lifetime"],
        lifetime_shape=args["lifetime_shape"],
    )
    payload = {
        "scheme": point.scheme,
        "uptime": point.uptime,
        "p": point.malicious_rate,
        "release_resilience": point.outcome.release_resilience,
        "drop_resilience": point.outcome.drop_resilience,
        "value": point.resilience,
        "trials_run": point.outcome.trials,
    }
    if args["kernel"] != "static":
        payload.update(
            kernel=args["kernel"],
            alpha=args["alpha"],
            lifetime=args["lifetime"],
            population_size=args["population_size"],
        )
    return payload


@register_kind("timeliness")
def timeliness_runner(
    params: Mapping[str, Any],
    trials: int,
    seed: int,
    engine: TrialEngine,
    batch_size: Optional[int] = None,
) -> Dict[str, Any]:
    """Extension: end-to-end release lateness; ``trials`` is the run count."""
    from repro.experiments.timeliness import timeliness_point

    # As with availability: the kernel default stays "event" and every
    # churn knob is optional, so pre-epoch cache keys remain valid.
    # ``max_latency`` moved from required to optional (the historical
    # spec pins it on an axis, so its keys are unchanged).
    args = _take(
        "timeliness",
        params,
        required={"scheme": str},
        optional={
            "max_latency": 0.5,
            "path_length": 3,
            "kernel": "event",
            "uptime": 0.9,
            "alpha": 2.0,
            "p": 0.0,
            "population_size": 10000,
            "replication": 3,
            "retry_epochs": 8,
            "lifetime": "exponential",
            "lifetime_shape": None,
        },
    )
    result = timeliness_point(
        args["scheme"],
        args["max_latency"],
        runs=trials,
        path_length=args["path_length"],
        seed=seed,
        engine=engine,
        kernel=args["kernel"],
        uptime=args["uptime"],
        alpha=args["alpha"],
        malicious_rate=args["p"],
        population_size=args["population_size"],
        replication=args["replication"],
        retry_epochs=args["retry_epochs"],
        lifetime=args["lifetime"],
        lifetime_shape=args["lifetime_shape"],
        batch_size=batch_size,
    )
    payload = {
        "scheme": result.scheme,
        "max_latency": result.max_latency,
        "delivered": result.delivered,
        "runs": result.runs,
        "delivery_rate": result.delivery_rate if result.runs else 0.0,
        "mean_lateness": result.mean_lateness,
        "worst_lateness": result.worst_lateness,
        "early_releases": result.early_releases,
        "value": result.mean_lateness,
        "trials_run": result.runs,
    }
    if args["kernel"] != "event":
        payload.update(
            kernel=args["kernel"],
            uptime=args["uptime"],
            alpha=args["alpha"],
            p=args["p"],
            population_size=args["population_size"],
            retry_epochs=args["retry_epochs"],
        )
    return payload


# -- new workloads beyond the paper ------------------------------------------


def _multipath_scheme(name: str, replication: int, path_length: int):
    from repro.core.schemes import NodeDisjointScheme, NodeJointScheme

    if name == "disjoint":
        return NodeDisjointScheme(replication, path_length)
    if name == "joint":
        return NodeJointScheme(replication, path_length)
    raise ValueError(
        f"scheme must be 'disjoint' or 'joint' for this kind, got {name!r}"
    )


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
    the grid grows — the surface the paper's Fig. 6 planner walks.  Pin
    ``kernel="vectorized"`` in the spec (the built-in sensitivity-grid
    does) for the numpy attack kernels; the unpinned default stays the
    scalar per-trial lane so pre-kernel result stores remain valid.
    """
    from repro.experiments.attack_kernels import attack_batch_for
    from repro.experiments.attack_resilience import (
        AttackTrial,
        check_kernel,
        vectorized_batch_size,
    )

    args = _take(
        "sensitivity",
        params,
        required={"scheme": str, "replication": int, "path_length": int, "p": float},
        optional={"population_size": 2000, "kernel": "scalar"},
    )
    scheme = _multipath_scheme(
        args["scheme"], args["replication"], args["path_length"]
    )
    analytic = scheme.resilience(args["p"])
    label = (
        f"sens-{args['scheme']}-k{args['replication']}"
        f"-l{args['path_length']}-p{args['p']}"
    )
    if check_kernel(args["kernel"]) == "vectorized":
        batch = attack_batch_for(scheme, args["p"], args["population_size"])
        pair = engine.run_batched(
            batch,
            trials=trials,
            seed=seed,
            label=label,
            channels=2,
            batch_size=vectorized_batch_size(trials, batch_size),
        ).pair
    else:
        pair = engine.estimate_pair(
            AttackTrial(scheme, args["p"], args["population_size"]),
            trials=trials,
            seed=seed,
            label=label,
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


class AdaptiveTrial:
    """One two-phase adaptive-adversary trial, as a picklable callable."""

    def __init__(
        self,
        scheme,
        population_size: int,
        seed_rate: float,
        observation_rate: float,
        budget: int,
    ) -> None:
        self.scheme = scheme
        self.population_size = population_size
        self.seed_rate = seed_rate
        self.observation_rate = observation_rate
        self.budget = budget

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
