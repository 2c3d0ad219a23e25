"""Micro-benchmarks for the substrates the figures rest on.

These are conventional pytest-benchmark timings (many rounds): the crypto
primitives, Algorithm 1, the planner's grid search, DHT lookups, the
end-to-end protocol run, and the Monte-Carlo trial engine (serial vs
process-pool vs adaptive early stopping on a 1,000-trial figure-style
sweep).  They guard against performance regressions that would make the
figure sweeps impractically slow.
"""

import numpy as np
import pytest
from conftest import mean_seconds, record_bench

from repro.adversary.population import SybilPopulation
from repro.core.onion import OnionCore, build_onion, peel_onion
from repro.core.planner import plan_configuration
from repro.core.schemes import NodeJointScheme
from repro.core.schemes.keyshare import algorithm1
from repro.crypto.cipher import decrypt, encrypt
from repro.crypto.shamir import (
    combine_bytes,
    combine_shares,
    combine_shares_reference,
    split_bytes,
    split_secret,
    split_secret_reference,
)
from repro.dht.bootstrap import build_network
from repro.dht.node_id import NodeId
from repro.experiments.attack_kernels import place_malicious_counts
from repro.experiments.engine import TrialEngine
from repro.experiments.executors import SweepPoolExecutor
from repro.experiments.timeliness import TimelinessTrial
from repro.scenarios.runners import AdaptiveTrial, get_runner
from repro.util.rng import RandomSource

BENCH = "micro"
KEY = b"k" * 32
PAYLOAD = b"p" * 1024

ENGINE_TRIALS = 1000
ENGINE_POPULATION = 2000


def _fig6_style_trial(rng: RandomSource):
    """One attack-resilience trial, the engine's hot-path workload."""
    population_ids = list(range(ENGINE_POPULATION))
    scheme = NodeJointScheme(3, 4)
    sybil = SybilPopulation(0.1, rng.fork("sybil"))
    sybil.mark_population(population_ids)
    structure = scheme.sample_structure(population_ids, rng.fork("structure"))
    outcome = scheme.evaluate_attacks(structure, sybil)
    return outcome.release_resisted, outcome.drop_resisted


def _engine_sweep(engine: TrialEngine):
    return engine.run(
        _fig6_style_trial,
        trials=ENGINE_TRIALS,
        seed=2017,
        label="bench-engine",
        channels=2,
    )


def test_trial_engine_serial_1000(benchmark):
    result = benchmark.pedantic(
        _engine_sweep, args=(TrialEngine(),), rounds=1, iterations=1
    )
    assert result.trials == ENGINE_TRIALS
    record_bench(
        BENCH, benchmark, trials=ENGINE_TRIALS, wall=mean_seconds(benchmark)
    )


def test_trial_engine_pool_1000(benchmark):
    """--jobs 4 sweep: byte-identical to serial; ≥ 2× faster with ≥ 4 cores."""
    result = benchmark.pedantic(
        _engine_sweep, args=(TrialEngine(jobs=4),), rounds=1, iterations=1
    )
    # The determinism contract: the pool result matches serial exactly.
    # The ≥ 2× wall-clock claim needs ≥ 4 real cores; the pytest-benchmark
    # table prints the measured serial-vs-pool ratio on any machine.
    assert result == _engine_sweep(TrialEngine())
    assert result.trials == ENGINE_TRIALS
    record_bench(
        BENCH, benchmark, trials=ENGINE_TRIALS, wall=mean_seconds(benchmark), jobs=4
    )


def test_trial_engine_adaptive_stopping(benchmark):
    """Tolerance 0.02 cuts the 1,000-trial sweep ≥ 3× on this workload."""
    engine = TrialEngine(tolerance=0.02)
    result = benchmark.pedantic(
        _engine_sweep, args=(engine,), rounds=1, iterations=1
    )
    assert result.stopped_early
    assert result.trials * 3 <= ENGINE_TRIALS
    # Still within tolerance of the full-run estimate.
    full = _engine_sweep(TrialEngine())
    assert result.estimates[0].estimate == pytest.approx(
        full.estimates[0].estimate, abs=3 * 0.02
    )
    record_bench(
        BENCH,
        benchmark,
        trials=result.trials,
        wall=mean_seconds(benchmark),
        tolerance=0.02,
    )


@pytest.mark.parametrize("batch_size", [50, 10])
def test_trial_engine_pool_batched_400(benchmark, batch_size):
    """A mid-grid fig7 point through one open 2-worker pool.

    400 trials as 8 and as 40 batches: each batch is one span shipped to
    the pool and one count vector back, so the pair prices the pool's
    results lane per batch (the ledger runs no pool workload).
    """
    runner = get_runner("churn_resilience")
    point = {"scheme": "joint", "alpha": 2.0, "p": 0.25}
    executor = SweepPoolExecutor(jobs=2)
    engine = TrialEngine(backend=executor)
    with executor:
        result = benchmark(runner, point, 400, 2017, engine, batch_size)
    assert result == runner(point, 400, 2017, TrialEngine(), batch_size)
    record_bench(BENCH, benchmark, trials=400, jobs=2, batch_size=batch_size)


@pytest.mark.parametrize(
    "trials, replication, path_length",
    # The largest node-joint knee grid of fig6a (p = 0.40 plans 11 x 905 =
    # 9,955 cells, one 100-trial batch) and a small grid like every point
    # off the knee.
    [(100, 11, 905), (1000, 3, 4)],
    ids=["100x9955", "1000x12"],
)
def test_place_malicious_counts(benchmark, trials, replication, path_length):
    """The Fig. 6 kernel's placement step: keys, threshold, mask."""
    cells = replication * path_length
    counts = np.random.default_rng(3).integers(0, cells + 1, size=trials)

    def place():
        return place_malicious_counts(
            np.random.default_rng(2017), counts, replication, path_length
        )

    mask = benchmark(place)
    assert (mask.sum(axis=(1, 2)) == counts).all()
    record_bench(BENCH, benchmark, trials=trials)


def test_adaptive_trial_10000(benchmark):
    """One adaptive-game trial at N = 10,000, as ``adaptive-observation``
    runs it: index marking, 3x4 structure, observe, target, evaluate."""
    trial = AdaptiveTrial(
        NodeJointScheme(3, 4),
        population_size=10000,
        seed_rate=0.02,
        observation_rate=0.5,
        budget=8,
    )
    root = RandomSource(4242, label="bench-adaptive")
    outcome = benchmark(lambda: trial(root.fork("t0")))
    assert outcome == trial(root.fork("t0"))
    record_bench(BENCH, benchmark, trials=1)


def test_cipher_roundtrip(benchmark):
    def roundtrip():
        return decrypt(KEY, encrypt(KEY, PAYLOAD))

    assert benchmark(roundtrip) == PAYLOAD


def test_shamir_split_combine(benchmark):
    rng = RandomSource(1)

    def split_and_combine():
        shares = split_secret(KEY, 3, 5, rng)
        return combine_shares(shares[:3])

    assert benchmark(split_and_combine) == KEY
    record_bench(BENCH, benchmark, wall=mean_seconds(benchmark))


def test_shamir_batch_codec_vs_reference(benchmark):
    """The matrix codec vs the scalar byte loop on a Fig. 8-sized workload.

    One onion-layer key split into 24 shares with threshold 12, as the
    key-share sender does per (column, row); the batch codec encodes the
    whole (24, 32) share matrix in one vectorised Horner sweep.
    """
    import time

    def batch_round_trip():
        matrix = split_bytes(KEY, 12, 24, RandomSource(5))
        return combine_bytes(matrix.indices[:12], matrix.payloads[:12])

    assert benchmark(batch_round_trip) == KEY

    start = time.perf_counter()
    rounds = 50
    for _ in range(rounds):
        # The same round trip as the benchmarked lane: split + combine.
        reference = split_secret_reference(KEY, 12, 24, RandomSource(5))
        assert combine_shares_reference(reference[:12]) == KEY
    reference_wall = (time.perf_counter() - start) / rounds
    batch_wall = mean_seconds(benchmark)
    # Byte-identical output, faster transport.
    assert [share.payload for share in reference] == [
        share.payload for share in split_bytes(KEY, 12, 24, RandomSource(5)).shares()
    ]
    record_bench(
        BENCH,
        benchmark,
        wall=batch_wall,
        reference_wall_seconds=round(reference_wall, 6),
        speedup=round(reference_wall / batch_wall, 2) if batch_wall else None,
    )


def test_onion_build_and_full_peel(benchmark):
    rng = RandomSource(2)
    layer_keys = [rng.random_bytes(32) for _ in range(5)]
    hop_ids = [[b"hop-a", b"hop-b"] for _ in range(4)] + [[]]
    core = OnionCore(secret=KEY, receiver_id=b"receiver")

    def build_and_peel():
        blob = build_onion(layer_keys, hop_ids, core, rng=rng)
        current = blob
        for key in layer_keys:
            layer, found = peel_onion(key, current)
            current = layer.remaining
        return found.secret

    assert benchmark(build_and_peel) == KEY


def test_algorithm1(benchmark):
    plan = benchmark(algorithm1, 5, 20, 10000, 3.0, 1.0, 0.25)
    assert plan.worst_resilience > 0.9


def test_planner_grid_search(benchmark):
    config = benchmark(plan_configuration, "joint", 0.3, 10000)
    assert config.worst_resilience > 0.99


def test_dht_iterative_lookup(benchmark):
    overlay = build_network(500, seed=77)
    node = overlay.any_node()
    rng = RandomSource(78)

    def lookup():
        return node.iterative_find_node(NodeId.random(rng))

    result = benchmark(lookup)
    assert len(result.closest) > 0


def test_overlay_construction(benchmark):
    overlay = benchmark(build_network, 1000, 79)
    assert len(overlay) == 1000


def test_protocol_release_share(benchmark):
    """One ``share`` release on a fresh 100-node overlay: build, install
    holders, send, run the loop to release — the perf ledger's
    ``protocol-release`` run shape, and the Kademlia lane's heaviest user
    (about 1,150 RPCs of hop re-resolution)."""
    release = TimelinessTrial("share", max_latency=0.5, seed=2017, path_length=3)
    lateness = benchmark(release, 0, None)
    assert lateness is not None and 0.0 <= lateness < 1.0
