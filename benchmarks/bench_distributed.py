"""Distributed-backend benchmarks: pool throughput and fault recovery.

Run explicitly (``pytest benchmarks/bench_distributed.py``) like every
bench file.  Two records land in ``BENCH_distributed.json``:

- ``test_distributed_pool_throughput`` — trials/second through a
  spawned 2-worker localhost :class:`~repro.backends.pool.WorkerPool`
  (*this* record is what seeds ``chunk_size="auto"`` span sizing for the
  distributed backend on later runs);
- ``test_distributed_fault_recovery`` — the same workload with a
  scripted mid-run worker kill: the recorded ``recovery_overhead``
  (faulted wall / clean wall) prices the retry/rebalancing machinery,
  and the bench *asserts* counts identical to serial — a perf run that
  quietly broke correctness must fail, not publish a number.
"""

from pathlib import Path

from conftest import bench_trials, record_bench, time_call
from repro.backends.distributed import DistributedBackend
from repro.backends.faults import FaultSpec
from repro.backends.pool import WorkerPool
from repro.backends.worker import WorkerServer
from repro.backends.pool import worker_import_path
from repro.experiments.engine import TrialEngine


def coin_trial(rng):
    return rng.bernoulli(0.5)


#: Spans per run, fixed so clean and faulted runs share a partition.
CHUNK = 25


def _run(backend, trials):
    engine = TrialEngine(backend=backend)
    return engine.run(coin_trial, trials=trials, seed=1234, label="bench-dist")


def test_distributed_pool_throughput(benchmark):
    trials = bench_trials(3000)
    with worker_import_path(Path(__file__).resolve().parent), WorkerPool(
        workers=2
    ) as pool:
        with DistributedBackend(pool.addresses, chunk_size=CHUNK) as backend:
            result = benchmark.pedantic(
                _run, args=(backend, trials), rounds=1, iterations=1
            )
    assert result == TrialEngine().run(
        coin_trial, trials=trials, seed=1234, label="bench-dist"
    )
    record_bench(
        "distributed",
        benchmark,
        trials=trials,
        # Stamp the backend actually exercised (the env-based default
        # would say null → "local"): this is the record that seeds
        # chunk_size="auto" span sizing for the *distributed* backend.
        backend="distributed(pool=2)",
        workers=2,
        transport="worker-pool",
    )


def test_distributed_fault_recovery(benchmark):
    trials = bench_trials(3000)
    reference = TrialEngine().run(
        coin_trial, trials=trials, seed=1234, label="bench-dist"
    )

    def _timed_pair():
        clean_servers = [WorkerServer().serve_background() for _ in range(3)]
        faulted_servers = [
            WorkerServer(
                fault=FaultSpec("kill", after_spans=2) if index == 0 else None
            ).serve_background()
            for index in range(3)
        ]

        def addresses(servers):
            return [f"{host}:{port}" for host, port in
                    (server.address for server in servers)]

        try:
            with DistributedBackend(
                addresses(clean_servers), chunk_size=CHUNK
            ) as backend:
                clean_result, clean_wall = time_call(_run, backend, trials)
            with DistributedBackend(
                addresses(faulted_servers), chunk_size=CHUNK
            ) as backend:
                faulted_result, faulted_wall = time_call(_run, backend, trials)
                requeued = backend.stats["spans_requeued"]
        finally:
            for server in (*clean_servers, *faulted_servers):
                server.stop()
        return clean_result, clean_wall, faulted_result, faulted_wall, requeued

    clean_result, clean_wall, faulted_result, faulted_wall, requeued = (
        benchmark.pedantic(_timed_pair, rounds=1, iterations=1)
    )
    # Correctness first: the kill must not perturb a single count.
    assert clean_result == reference
    assert faulted_result == reference
    record_bench(
        "distributed",
        benchmark,
        trials=trials,
        wall=faulted_wall,
        backend="distributed(workers=3)",
        clean_wall_seconds=round(clean_wall, 6),
        recovery_overhead=(
            round(faulted_wall / clean_wall, 3) if clean_wall else None
        ),
        spans_requeued=requeued,
        fault="0:kill@2",
    )
