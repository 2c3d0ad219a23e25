"""Epoch churn kernel: vectorized node-epochs/s and scalar-lane speedup.

Runs the same availability point through both lanes of the epoch
simulator — the numpy slab kernel (``kernel="epoch"``) under
pytest-benchmark and the scalar reference walker (``"epoch-scalar"``)
plain-timed — at an environment-capped population:

- ``REPRO_BENCH_EPOCH_NODES`` (default 100_000) sets the population; CI
  caps it, a workstation can push it to the paper-scale 1_000_000.
- ``REPRO_BENCH_TRIALS`` (default 300) sets the Monte-Carlo trials,
  shared by both lanes so the comparison is apples-to-apples.

Besides the timing record (node-epochs/s, speedup), the run doubles as a
large-N equivalence gate: both lanes' release/drop counts must sit in
overlapping Wilson intervals at z = 3.29, same predicate the property
test enforces at small N.
"""

import os

from conftest import bench_trials, record_bench, record_wall, run_once, time_call

from repro.epoch.measure import EPOCH_METRICS
from repro.experiments.engine import TrialEngine
from repro.scenarios.runners import get_runner
from repro.util.stats import wilson_proportion_ci

SCHEME = "joint"
UPTIME = 0.9
MALICIOUS_RATE = 0.2
ALPHA = 2.0
SEED = 2017


def _nodes() -> int:
    return int(os.environ.get("REPRO_BENCH_EPOCH_NODES", 100_000))


def _point(kernel: str, nodes: int, trials: int):
    # A fresh serial engine per lane: the scalar walker is the whole
    # point of the comparison, parallel fan-out would blur it.
    return get_runner("availability")(
        {
            "scheme": SCHEME,
            "uptime": UPTIME,
            "p": MALICIOUS_RATE,
            "population_size": nodes,
            "kernel": kernel,
            "alpha": ALPHA,
        },
        trials,
        SEED,
        TrialEngine(),
    )


def _overlapping(first, second) -> bool:
    _, low_a, high_a = wilson_proportion_ci(*first, z_score=3.29)
    _, low_b, high_b = wilson_proportion_ci(*second, z_score=3.29)
    return low_a <= high_b and low_b <= high_a


def test_epoch_churn_speedup(benchmark):
    nodes = _nodes()
    trials = bench_trials(300)

    # Warm the numpy/import path outside the measured round.
    _point("epoch", min(nodes, 2000), 20)

    before = EPOCH_METRICS.counter_values("epoch.", strip=True)
    vectorized = run_once(benchmark, _point, "epoch", nodes, trials)
    after = EPOCH_METRICS.counter_values("epoch.", strip=True)
    node_epochs = after.get("node_epochs", 0) - before.get("node_epochs", 0)

    scalar, scalar_wall = time_call(_point, "epoch-scalar", nodes, trials)

    vector_wall = record_wall(benchmark)
    speedup = scalar_wall / vector_wall if vector_wall else 0.0

    # Large-N lane equivalence (same predicate as the property test).
    for label, v, s in (
        ("release", vectorized["release_resilience"],
         scalar["release_resilience"]),
        ("drop", vectorized["drop_resilience"], scalar["drop_resilience"]),
    ):
        pair = (
            (round(v * trials), trials),
            (round(s * trials), trials),
        )
        assert _overlapping(*pair), (label, pair)

    print()
    print(
        f"epoch churn: N={nodes} trials={trials} "
        f"vectorized {vector_wall:.3f}s "
        f"({node_epochs / vector_wall / 1e6:.2f}M node-epochs/s), "
        f"scalar {scalar_wall:.3f}s -> x{speedup:.1f}"
    )
    record_bench(
        "epoch_churn",
        benchmark,
        trials=trials,
        nodes=nodes,
        scheme=SCHEME,
        alpha=ALPHA,
        node_epochs=node_epochs,
        node_epochs_per_second=(
            round(node_epochs / vector_wall, 1) if vector_wall else None
        ),
        scalar_wall_seconds=round(scalar_wall, 6),
        speedup=round(speedup, 3),
        release_resilience=vectorized["release_resilience"],
        drop_resilience=vectorized["drop_resilience"],
    )
    assert speedup > 1.0, (
        f"vectorized epoch lane must beat the scalar walker, got x{speedup:.2f}"
    )
