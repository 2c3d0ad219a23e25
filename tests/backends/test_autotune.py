"""Span-size autotuning: sizing math, in-run rates, no disk side channel.

Autotuning must be a pure performance knob — ``chunk_size="auto"`` on
any backend produces results identical to the serial reference (the
determinism contract) — and a production backend neither reads nor writes
anything on disk: whatever ``BENCH_*.json`` records sit in the working
directory, spans are sized from ``DEFAULT_RATE`` and the rates the run
measures itself.
"""

import json

import pytest

from repro.backends.autotune import suggest_chunk_size
from repro.backends.base import BackendSpec
from repro.backends.distributed import DistributedBackend
from repro.backends.registry import get
from repro.backends.worker import WorkerServer
from repro.backends.autotune import DEFAULT_RATE, MIN_SPANS_PER_WORKER
from repro.experiments.engine import TrialEngine
from repro.experiments.executors import SweepPoolExecutor, TrialTask
from trial_units import bernoulli_trial


def _write_bench(directory, name, records):
    (directory / f"BENCH_{name}.json").write_text(
        json.dumps({"bench_file": name, "records": records})
    )


@pytest.fixture
def bench_dir(tmp_path, monkeypatch):
    """A fresh working directory."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


def auto_span_count() -> int:
    """Spans the process-pool ``"auto"`` lane carves 10^6 trials into."""
    task = TrialTask(seed=1, label="auto", trial=bernoulli_trial)
    return len(SweepPoolExecutor(jobs=2, chunk_size="auto")._spans(task, 0, 10**6))


#: The partition ``DEFAULT_RATE`` gives at the pool's 0.2 s target; a
#: loaded 800 trials/s record would have made it 6250 spans.
DEFAULT_SPAN_COUNT = 10**6 // int(DEFAULT_RATE * 0.2)


class TestBenchRecordSeeding:
    """Benchmark records, readable or not, never seed a run."""

    def test_torn_records_never_fail_a_run(self, bench_dir):
        (bench_dir / "BENCH_torn.json").write_text('{"records": [')
        (bench_dir / "BENCH_shape.json").write_text('["not", "a", "dict"]')
        assert auto_span_count() == DEFAULT_SPAN_COUNT

    @pytest.mark.parametrize(
        "corrupt",
        [
            float("nan"),
            float("inf"),
            float("-inf"),
            0,
            0.0,
            -125.0,
            True,
            False,
            "fast",
            None,
            [1000.0],
        ],
        ids=repr,
    )
    def test_corrupt_rates_are_filtered_not_loaded(self, bench_dir, corrupt):
        _write_bench(
            bench_dir,
            "mixed",
            [
                {"trials_per_second": corrupt, "backend": None},
                {"trials_per_second": 800.0, "backend": None},
            ],
        )
        assert auto_span_count() == DEFAULT_SPAN_COUNT

    def test_all_corrupt_records_fall_back_to_default(self, bench_dir):
        _write_bench(
            bench_dir,
            "bad",
            [{"trials_per_second": float("nan"), "backend": None}],
        )
        assert auto_span_count() == DEFAULT_SPAN_COUNT


class TestObservedRateFeedback:
    """Rates are measured and used inside the run, never on disk."""

    def test_auto_distributed_run_records_worker_rates(self, bench_dir):
        with WorkerServer() as server:
            host, port = server.address
            with DistributedBackend(
                [f"{host}:{port}"], chunk_size="auto"
            ) as backend:
                TrialEngine(backend=backend).run(
                    bernoulli_trial, trials=101, seed=5
                )
                assert backend._workers[0].observed_rate() > 0
        assert list(bench_dir.iterdir()) == []

    def test_fixed_chunk_size_runs_record_nothing(self, bench_dir):
        with WorkerServer() as server:
            host, port = server.address
            with DistributedBackend(
                [f"{host}:{port}"], chunk_size=20
            ) as backend:
                TrialEngine(backend=backend).run(
                    bernoulli_trial, trials=60, seed=5
                )
        assert list(bench_dir.iterdir()) == []

    def test_auto_pool_run_records_nothing(self, bench_dir):
        assert auto_span_count() == DEFAULT_SPAN_COUNT
        assert list(bench_dir.iterdir()) == []


class TestSizingMath:
    def test_rate_times_target_bounded_by_granularity(self):
        # 10k trials/s at the 0.5s distributed target → 5000-trial spans,
        # but 2 workers × MIN_SPANS_PER_WORKER granularity caps it.
        span = suggest_chunk_size(
            "distributed", total=80_000, workers=2, rate=10_000.0
        )
        assert span == 5_000
        span = suggest_chunk_size(
            "distributed", total=8_000, workers=2, rate=10_000.0
        )
        assert span == 8_000 // (2 * MIN_SPANS_PER_WORKER)

    def test_small_ranges_and_slow_rates_floor_at_one(self):
        assert suggest_chunk_size("distributed", total=0, workers=4) == 1
        assert suggest_chunk_size("distributed", total=3, workers=8, rate=1.0) == 1

    def test_span_never_exceeds_the_range(self):
        assert (
            suggest_chunk_size("distributed", total=10, workers=1, rate=1e9) <= 10
        )

    def test_default_rate_applies_without_records(self):
        span = suggest_chunk_size("distributed", total=10**9, workers=1)
        assert span == int(DEFAULT_RATE * 0.5)  # distributed target 0.5s


class TestAutoIntegration:
    """``chunk_size="auto"`` is accepted everywhere and changes nothing."""

    def test_distributed_auto_matches_serial(self, bench_dir):
        # A record claiming 1 trial/s would, if it were read, carve the
        # run into 101 one-trial spans; the run must ignore it and leave
        # the directory exactly as it found it.
        _write_bench(
            bench_dir,
            "x",
            [{"trials_per_second": 1.0, "backend": "distributed(y=1)"}],
        )
        reference = TrialEngine().run(bernoulli_trial, trials=101, seed=5)
        with WorkerServer() as server:
            host, port = server.address
            with DistributedBackend(
                [f"{host}:{port}"], chunk_size="auto"
            ) as backend:
                result = TrialEngine(backend=backend).run(
                    bernoulli_trial, trials=101, seed=5
                )
                # DEFAULT_RATE × 0.5s target is far above the range, so
                # the granularity floor (4 spans per worker) decides:
                # ceil(101/4) = 26 trials → 4 spans.
                assert backend.stats["spans_completed"] == 4
        assert result == reference
        assert [path.name for path in bench_dir.iterdir()] == ["BENCH_x.json"]

    def test_registry_accepts_auto_for_pool_backends(self):
        reference = TrialEngine().run(bernoulli_trial, trials=60, seed=7)
        spec = BackendSpec("process-pool", {"jobs": 2, "chunk_size": "auto"})
        with get(spec) as backend:
            result = TrialEngine(backend=backend).run(
                bernoulli_trial, trials=60, seed=7
            )
        assert result == reference

    def test_rejects_garbage_chunk_size(self):
        with pytest.raises((ValueError, TypeError)):
            DistributedBackend(["h:1"], chunk_size="fast")
        with pytest.raises((ValueError, TypeError)):
            get("process-pool", jobs=2).__class__(jobs=2, chunk_size="fast")
