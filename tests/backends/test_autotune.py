"""Span-size autotuning: bench-record seeding, sizing math, integration.

Autotuning must be a pure performance knob — ``chunk_size="auto"`` on
any backend produces results identical to the serial reference (the
determinism contract) — and must *never* fail a run over missing or torn
benchmark records.
"""

import json

import pytest

from repro.backends import (
    BackendSpec,
    DistributedBackend,
    WorkerServer,
    bench_rate,
    get,
    suggest_chunk_size,
)
from repro.backends.autotune import (
    DEFAULT_RATE,
    MIN_SPANS_PER_WORKER,
    load_bench_rates,
)
from repro.experiments.engine import TrialEngine


def bernoulli_trial(rng):
    return rng.bernoulli(0.4)


def _write_bench(directory, name, records):
    (directory / f"BENCH_{name}.json").write_text(
        json.dumps({"bench_file": name, "records": records})
    )


class TestBenchRecordSeeding:
    def test_rates_grouped_by_backend_name(self, tmp_path):
        _write_bench(
            tmp_path,
            "fig6",
            [
                {"trials_per_second": 1000.0, "backend": None},
                {"trials_per_second": 3000.0, "backend": "shm-pool(jobs=4)"},
                {"trials_per_second": 500.0, "backend": "distributed(workers=2)"},
                {"trials_per_second": None, "backend": None},  # rate-less: skipped
            ],
        )
        rates = load_bench_rates(tmp_path)
        assert rates == {
            "local": [1000.0],
            "shm-pool": [3000.0],
            "distributed": [500.0],
        }

    def test_median_rate_with_local_fallback(self, tmp_path):
        _write_bench(
            tmp_path,
            "a",
            [
                {"trials_per_second": 100.0, "backend": None},
                {"trials_per_second": 900.0, "backend": None},
                {"trials_per_second": 400.0, "backend": None},
            ],
        )
        # A backend with no records of its own borrows the local median.
        assert bench_rate("distributed", tmp_path) == 400.0
        _write_bench(
            tmp_path, "b", [{"trials_per_second": 50.0, "backend": "distributed(x=1)"}]
        )
        assert bench_rate("distributed", tmp_path) == 50.0

    def test_torn_records_never_fail_a_run(self, tmp_path):
        (tmp_path / "BENCH_torn.json").write_text('{"records": [')
        (tmp_path / "BENCH_shape.json").write_text('["not", "a", "dict"]')
        assert load_bench_rates(tmp_path) == {}
        assert bench_rate("distributed", tmp_path) is None
        assert load_bench_rates(tmp_path / "missing-dir") == {}

    @pytest.mark.parametrize(
        "corrupt",
        [
            float("nan"),
            float("inf"),
            float("-inf"),
            0,
            0.0,
            -125.0,
            True,  # bool is an int subclass: would sneak in as 1.0
            False,
            "fast",
            None,
            [1000.0],
        ],
        ids=repr,
    )
    def test_corrupt_rates_are_filtered_not_loaded(self, tmp_path, corrupt):
        """Satellite regression: NaN poisons a median silently, inf
        drives spans to nonsense, True parses as 1.0 — every corrupt
        shape must be dropped, never 'any float accepted'."""
        _write_bench(
            tmp_path,
            "mixed",
            [
                {"trials_per_second": corrupt, "backend": None},
                {"trials_per_second": 800.0, "backend": None},
            ],
        )
        assert load_bench_rates(tmp_path) == {"local": [800.0]}
        assert bench_rate("distributed", tmp_path) == 800.0

    def test_all_corrupt_records_fall_back_to_default(self, tmp_path):
        _write_bench(
            tmp_path,
            "bad",
            [{"trials_per_second": float("nan"), "backend": None}],
        )
        assert bench_rate("distributed", tmp_path) is None
        span = suggest_chunk_size(
            "distributed", total=10**9, workers=1, directory=tmp_path
        )
        assert span == int(DEFAULT_RATE * 0.5)


class TestObservedRateFeedback:
    """``record_observed_rates``: the autotune feedback loop's disk half."""

    def test_recorded_rates_round_trip_into_bench_rate(self, tmp_path):
        from repro.backends.autotune import record_observed_rates

        path = record_observed_rates(
            "distributed",
            {"127.0.0.1:7070": 1500.0, "127.0.0.1:7071": 500.0},
            directory=tmp_path,
        )
        assert path is not None and path.exists()
        assert bench_rate("distributed", tmp_path) == 1000.0  # the median
        payload = json.loads(path.read_text())
        assert [record["worker"] for record in payload["records"]] == [
            "127.0.0.1:7070",
            "127.0.0.1:7071",
        ]

    def test_corrupt_observed_rates_are_dropped_at_the_door(self, tmp_path):
        from repro.backends.autotune import record_observed_rates

        assert (
            record_observed_rates(
                "distributed",
                {
                    "a:1": float("nan"),
                    "b:2": float("inf"),
                    "c:3": 0.0,
                    "d:4": True,
                },
                directory=tmp_path,
            )
            is None
        )
        assert list(tmp_path.iterdir()) == []  # nothing usable → no file

    def test_records_append_and_trim_to_keep(self, tmp_path):
        from repro.backends.autotune import record_observed_rates

        record_observed_rates("distributed", {"a:1": 100.0}, directory=tmp_path)
        record_observed_rates(
            "distributed",
            {"a:1": 200.0, "b:2": 300.0},
            directory=tmp_path,
            keep=2,
        )
        payload = json.loads((tmp_path / "BENCH_observed.json").read_text())
        # The keep budget trimmed the oldest record.
        assert [r["trials_per_second"] for r in payload["records"]] == [
            200.0,
            300.0,
        ]

    def test_torn_observed_file_is_replaced_not_fatal(self, tmp_path):
        from repro.backends.autotune import record_observed_rates

        (tmp_path / "BENCH_observed.json").write_text('{"records": [')
        path = record_observed_rates(
            "distributed", {"a:1": 100.0}, directory=tmp_path
        )
        assert path is not None
        assert bench_rate("distributed", tmp_path) == 100.0

    def test_missing_directory_is_a_no_op(self, tmp_path):
        from repro.backends.autotune import record_observed_rates

        assert (
            record_observed_rates(
                "distributed", {"a:1": 100.0}, directory=tmp_path / "absent"
            )
            is None
        )

    def test_auto_distributed_run_records_worker_rates(self, tmp_path, monkeypatch):
        """End to end: a chunk_size='auto' run feeds what its workers
        sustained back into the bench records on close."""
        monkeypatch.setenv("REPRO_BENCH_OUT", str(tmp_path))
        with WorkerServer() as server:
            host, port = server.address
            with DistributedBackend(
                [f"{host}:{port}"], chunk_size="auto"
            ) as backend:
                TrialEngine(backend=backend).run(
                    bernoulli_trial, trials=101, seed=5
                )
                rates = backend.worker_rates()
                assert f"{host}:{port}" in rates
                assert rates[f"{host}:{port}"] > 0
        payload = json.loads((tmp_path / "BENCH_observed.json").read_text())
        assert any(
            record["backend"] == "distributed"
            and record["worker"] == f"{host}:{port}"
            for record in payload["records"]
        )

    def test_fixed_chunk_size_runs_record_nothing(self, tmp_path, monkeypatch):
        """Observed-rate feedback is an 'auto' feature: a pinned span
        size leaves the bench records alone."""
        monkeypatch.setenv("REPRO_BENCH_OUT", str(tmp_path))
        with WorkerServer() as server:
            host, port = server.address
            with DistributedBackend(
                [f"{host}:{port}"], chunk_size=20
            ) as backend:
                TrialEngine(backend=backend).run(
                    bernoulli_trial, trials=60, seed=5
                )
        assert not (tmp_path / "BENCH_observed.json").exists()


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

    def test_default_rate_applies_without_records(self, tmp_path):
        span = suggest_chunk_size(
            "distributed", total=10**9, workers=1, directory=tmp_path
        )
        assert span == int(DEFAULT_RATE * 0.5) // 1  # distributed target 0.5s


class TestAutoIntegration:
    """``chunk_size="auto"`` is accepted everywhere and changes nothing."""

    def test_distributed_auto_matches_serial(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_OUT", str(tmp_path))
        _write_bench(
            tmp_path,
            "x",
            [{"trials_per_second": 200.0, "backend": "distributed(y=1)"}],
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
                # 200 trials/s × 0.5s target → 100-trial spans, but the
                # granularity floor (4 spans per worker) tightens them to
                # ceil(101/4) = 26 trials → 4 spans.
                assert backend.stats["spans_completed"] == 4
        assert result == reference

    def test_registry_accepts_auto_for_pool_backends(self):
        reference = TrialEngine().run(bernoulli_trial, trials=60, seed=7)
        spec = BackendSpec("shm-pool", {"jobs": 2, "chunk_size": "auto"})
        with get(spec) as backend:
            result = TrialEngine(backend=backend).run(
                bernoulli_trial, trials=60, seed=7
            )
        assert result == reference

    def test_rejects_garbage_chunk_size(self):
        with pytest.raises((ValueError, TypeError)):
            DistributedBackend(["h:1"], chunk_size="fast")
        with pytest.raises((ValueError, TypeError)):
            get("shm-pool", jobs=2).__class__(jobs=2, chunk_size="fast")
