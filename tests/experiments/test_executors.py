"""Executor edge cases and the shared sweep pool.

The engine's determinism contract says the executor is never observable in
the results; these tests push the paths that contract depends on but the
figure drivers rarely exercise: worker counts above the trial count,
zero-trial runs, partitions that do not divide the trial count, and the
:class:`SweepPoolExecutor` (tasks shipped as data, a closure refused at
``start``, one pool across many runs, none left by a bare run).
"""

import gc
import itertools
import multiprocessing
import signal
import subprocess
import sys
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.backends.distributed import DistributedBackend
from repro.backends.worker import WorkerServer
from repro.backends.pool import _worker_environment
from repro.experiments.engine import TrialEngine
from repro.experiments.executors import (
    SerialExecutor,
    SweepPoolExecutor,
    TrialTask,
    _split_spans,
    pools_constructed,
    run_batch_range,
    run_collect_range,
    run_count_range,
)
from trial_units import (
    bernoulli_trial,
    counting_batch,
    failing_batch,
    indexed_measure,
    negative_corner_batch,
    paired_trial,
)


def kind_task(mode, units):
    """One task of each kind over ``units`` range units."""
    if mode == "counts":
        return TrialTask(seed=13, label="part", channels=2, trial=paired_trial)
    if mode == "collect":
        return TrialTask(seed=13, label="part", indexed_trial=indexed_measure)
    return TrialTask(  # batches of 3 trials, the last a trial short
        seed=13,
        label="part",
        batch=counting_batch,
        batch_size=3,
        total_trials=max(0, 3 * units - 1),
    )


KINDS = ("counts", "batches", "collect")


class TestTaskKind:
    """The task owns its kind: set at construction, never a second opinion."""

    @pytest.mark.parametrize("mode", KINDS)
    def test_mode_follows_the_callable(self, mode):
        assert kind_task(mode, 4).mode == mode

    @pytest.mark.parametrize(
        "callables",
        [
            {},
            {"trial": bernoulli_trial, "batch": counting_batch},
            {"trial": bernoulli_trial, "indexed_trial": indexed_measure},
        ],
    )
    def test_not_exactly_one_kind_fails_at_construction(self, callables):
        with pytest.raises(ValueError, match="exactly one of"):
            TrialTask(seed=1, label="bad", **callables)

    def test_merge_rejects_a_part_of_the_wrong_width(self):
        with pytest.raises(ValueError, match="3 channel"):
            kind_task("counts", 1).merge([[1, 2], [1, 2, 3]])


class TestJobsExceedTrials:
    """More workers than trials must still produce exact serial counts."""

    @pytest.mark.parametrize("trials", [1, 2, 3])
    def test_pool_jobs_above_trial_count(self, trials):
        reference = TrialEngine().run(
            bernoulli_trial, trials=trials, seed=31, label="tiny"
        )
        for executor in (
            SweepPoolExecutor(jobs=8),
            SweepPoolExecutor(jobs=2, chunk_size=100),
        ):
            result = TrialEngine(backend=executor).run(
                bernoulli_trial, trials=trials, seed=31, label="tiny"
            )
            assert result == reference, executor

    def test_pool_jobs_above_batch_count(self):
        reference = TrialEngine().run_batched(
            counting_batch, trials=150, seed=7, label="vtiny", batch_size=100
        )
        result = TrialEngine(backend=SweepPoolExecutor(jobs=8)).run_batched(
            counting_batch, trials=150, seed=7, label="vtiny", batch_size=100
        )
        assert result == reference

    def test_pool_collect_jobs_above_trial_count(self):
        reference = TrialEngine().map(indexed_measure, trials=2, seed=3, label="c")
        with SweepPoolExecutor(jobs=6) as executor:
            values = TrialEngine(backend=executor).map(
                indexed_measure, trials=2, seed=3, label="c"
            )
        assert values == reference


class TestZeroTrials:
    """Zero-trial work is exact: empty ranges, vacuous estimates."""

    def test_empty_ranges_return_zero_counts(self):
        task = TrialTask(seed=1, label="z", channels=2, trial=paired_trial)
        assert run_count_range(task, 5, 5) == [0, 0]
        assert run_collect_range(task, 5, 5) == []

    def test_empty_batch_range(self):
        task = TrialTask(
            seed=1,
            label="z",
            channels=1,
            batch=counting_batch,
            batch_size=10,
            total_trials=100,
        )
        assert run_batch_range(task, 3, 3) == [0]

    @pytest.mark.parametrize(
        "executor",
        [SerialExecutor(), SweepPoolExecutor(jobs=2), SweepPoolExecutor(jobs=3)],
    )
    def test_engine_zero_trials_scalar(self, executor):
        result = TrialEngine(backend=executor).run(
            bernoulli_trial, trials=0, seed=1, channels=2
        )
        assert result.trials == 0
        assert not result.stopped_early
        for estimate in result.estimates:
            assert (estimate.successes, estimate.trials) == (0, 0)
            assert (estimate.low, estimate.high) == (0.0, 1.0)

    def test_engine_zero_trials_batched_and_map(self):
        batched = TrialEngine().run_batched(counting_batch, trials=0, seed=1)
        assert batched.trials == 0
        assert TrialEngine().map(lambda i, rng: i, trials=0, seed=1) == []

    def test_negative_trials_still_rejected(self):
        with pytest.raises(ValueError):
            TrialEngine().run(bernoulli_trial, trials=-1)
        with pytest.raises(ValueError):
            TrialEngine().run_batched(counting_batch, trials=-5)


class TestIndivisibleChunks:
    """Chunk/span sizes that do not divide the trial count stay exact."""

    @pytest.mark.parametrize("trials", [1, 11, 53, 97])
    @pytest.mark.parametrize("chunk_size", [2, 7, 10, 64])
    def test_chunked_counts_match_serial(self, trials, chunk_size):
        task = TrialTask(seed=13, label="mod", trial=bernoulli_trial)
        chunked = sum(
            run_count_range(task, low, high)[0]
            for low, high in _split_spans(0, trials, chunk_size)
        )
        assert [chunked] == run_count_range(task, 0, trials)

    @given(
        st.sampled_from(KINDS),
        st.lists(st.integers(0, 12), min_size=1, max_size=6),
    )
    def test_any_partition_matches_the_single_span(self, mode, lengths):
        # Invariants (2) and (3) on the one range/merge pair every backend
        # shares; a 0 length is an empty span.
        bounds = [0, *itertools.accumulate(lengths)]
        task = kind_task(mode, bounds[-1])
        parts = [task.run_range(low, high) for low, high in zip(bounds, bounds[1:])]
        assert task.merge(parts) == task.run_range(0, bounds[-1])

    @pytest.mark.parametrize("mode", KINDS)
    def test_every_backend_runs_every_kind(self, mode):
        task = kind_task(mode, 11)
        reference = task.run_range(0, 11)
        with WorkerServer() as server:
            host, port = server.address
            for backend in (
                SerialExecutor(),
                SweepPoolExecutor(jobs=2, chunk_size=4),
                DistributedBackend([f"{host}:{port}"], chunk_size=4),
            ):
                with backend:
                    backend.start(task)
                    try:
                        assert backend.run(task, 0, 11) == reference, backend
                        assert backend.run(task, 5, 5) == task.merge([])
                    finally:
                        backend.finish()

    def test_sweep_pool_chunk_not_dividing(self):
        reference = TrialEngine().run(
            paired_trial, trials=101, seed=5, label="mod2", channels=2
        )
        with SweepPoolExecutor(jobs=3, chunk_size=7) as executor:
            result = TrialEngine(backend=executor).run(
                paired_trial, trials=101, seed=5, label="mod2", channels=2
            )
        assert result == reference

    def test_batch_partition_not_dividing(self):
        # 97 trials in batches of 10: the last batch runs 7 trials.
        reference = TrialEngine().run_batched(
            counting_batch, trials=97, seed=23, label="vb", batch_size=10
        )
        with SweepPoolExecutor(jobs=2) as executor:
            result = TrialEngine(backend=executor).run_batched(
                counting_batch, trials=97, seed=23, label="vb", batch_size=10
            )
        assert result == reference
        assert reference.trials == 97


class TestPoolBatchLane:
    """Batch tasks through the pool: per-span counts back through ``pool.map``."""

    def test_multi_channel_counts_fill_every_slot(self):
        reference = TrialEngine().run_batched(
            negative_corner_batch,
            trials=301,
            seed=3,
            label="slots",
            channels=2,
            batch_size=13,
        )
        with SweepPoolExecutor(jobs=3) as executor:
            result = TrialEngine(backend=executor).run_batched(
                negative_corner_batch,
                trials=301,
                seed=3,
                label="slots",
                channels=2,
                batch_size=13,
            )
        assert result == reference

    def test_adaptive_stopping_matches_serial(self):
        kwargs = dict(trials=1000, seed=21, label="tol", batch_size=50)
        reference = TrialEngine(tolerance=0.05).run_batched(
            counting_batch, **kwargs
        )
        with SweepPoolExecutor(jobs=2) as executor:
            result = TrialEngine(backend=executor, tolerance=0.05).run_batched(
                counting_batch, **kwargs
            )
        assert result == reference
        assert result.stopped_early

    def test_failing_batch_leaves_the_pool_usable(self):
        with SweepPoolExecutor(jobs=2) as executor:
            with pytest.raises(RuntimeError, match="injected batch failure"):
                TrialEngine(backend=executor).run_batched(
                    failing_batch, trials=120, seed=7, batch_size=10
                )
            # The pool survives and the next (healthy) run still works.
            healthy = TrialEngine(backend=executor).run_batched(
                counting_batch, trials=120, seed=7, batch_size=10
            )
        assert healthy == TrialEngine().run_batched(
            counting_batch, trials=120, seed=7, batch_size=10
        )


def ignore_signal(signum, frame):
    """A handler a pool child must not inherit (module-level: the child
    sends its SIGTERM handler back by reference)."""


class TestSweepPoolLifecycle:
    def test_one_pool_across_many_engine_runs(self):
        before = pools_constructed()
        engine = TrialEngine(jobs=2)
        with engine.executor:
            reference = [
                TrialEngine().run(bernoulli_trial, trials=40, seed=seed)
                for seed in (1, 2, 3)
            ]
            results = [
                engine.run(bernoulli_trial, trials=40, seed=seed)
                for seed in (1, 2, 3)
            ]
        assert results == reference
        assert pools_constructed() - before == 1

    def test_per_run_pool_constructs_one_pool_per_run(self):
        # Regression: a bare jobs > 1 run used to leak its pool.  What
        # start() had to open, the matching finish() closes — no children,
        # no "unclosed running multiprocessing pool" ResourceWarning.
        before = pools_constructed()
        children = set(multiprocessing.active_children())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            engine = TrialEngine(jobs=2)
            for seed in (1, 2, 3):
                engine.run(bernoulli_trial, trials=40, seed=seed)
            assert set(multiprocessing.active_children()) <= children
            del engine
            gc.collect()
        assert pools_constructed() - before == 3
        assert not [w for w in caught if w.category is ResourceWarning]

    def test_two_pool_sweeps_in_one_process_exit_quietly(self):
        # Regression: a pool forked after an earlier sweep used to leave
        # the multiprocessing resource tracker printing KeyError
        # tracebacks (44 of them for this script) at interpreter exit.
        script = (
            "from repro import api\n"
            "for _ in range(2):\n"
            "    api.run_scenario('fig8', trials=100, jobs=2)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            env=_worker_environment(),
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr

    def test_a_closure_is_refused_at_start(self):
        """On both backends that ship tasks: the pool and the TCP worker."""
        bias = 0.6
        closure = lambda rng: rng.bernoulli(bias)  # noqa: E731 - deliberate
        reference = TrialEngine().run(closure, trials=60, seed=9, label="cl")
        assert reference.trials == 60  # serial runs any callable
        with WorkerServer() as server:
            host, port = server.address
            for backend in (
                SweepPoolExecutor(jobs=2),
                DistributedBackend([f"{host}:{port}"]),
            ):
                with backend:
                    engine = TrialEngine(backend=backend)
                    with pytest.raises(TypeError, match="'serial' backend"):
                        engine.run(closure, trials=60, seed=9, label="cl")
                    # The backend stays usable for a unit it can ship.
                    after = engine.run(bernoulli_trial, trials=60, seed=9)
                assert after == TrialEngine().run(bernoulli_trial, trials=60, seed=9)
            assert server.failures == 0  # the closure never reached the worker

    def test_pool_children_restore_the_default_sigterm(self):
        # Regression: a pool forked under a no-op SIGTERM handler (the
        # daemon's asyncio loop installs one) kept it in every child, so
        # terminate() could not kill a child blocked on the task queue and
        # the daemon's drain hung in join().
        previous = signal.signal(signal.SIGTERM, ignore_signal)
        try:
            executor = SweepPoolExecutor(jobs=2).open()
        finally:
            signal.signal(signal.SIGTERM, previous)
        try:
            in_child = executor._pool.apply(signal.getsignal, (signal.SIGTERM,))
            assert in_child == signal.SIG_DFL
        finally:
            executor.close()

    def test_close_then_reopen(self):
        executor = SweepPoolExecutor(jobs=2)
        with executor:
            first = TrialEngine(backend=executor).run(
                bernoulli_trial, trials=30, seed=4
            )
        with executor:
            second = TrialEngine(backend=executor).run(
                bernoulli_trial, trials=30, seed=4
            )
        assert first == second

    def test_unopened_executor_runs_in_process(self):
        # start() opens lazily — and finish() closes what start() opened.
        executor = SweepPoolExecutor(jobs=2)
        result = TrialEngine(backend=executor).run(bernoulli_trial, trials=30, seed=4)
        assert executor._pool is None
        assert result == TrialEngine().run(bernoulli_trial, trials=30, seed=4)

    def test_serial_executor_context_manager_is_noop(self):
        before = pools_constructed()
        with SerialExecutor() as executor:
            result = TrialEngine(backend=executor).run(
                bernoulli_trial, trials=25, seed=6
            )
        assert pools_constructed() == before
        assert result == TrialEngine().run(bernoulli_trial, trials=25, seed=6)
