"""Batched parallel Monte-Carlo trial engine with adaptive early stopping.

Every figure in the paper is an average over repeated randomised trials;
this module is the single machinery that runs them.  A :class:`TrialEngine`
owns an execution backend (see :mod:`repro.experiments.executors`), streams
per-channel success counts out of it, and turns the totals into
:class:`MonteCarloEstimate` values through one shared aggregation path.

Three kinds of task cover every experiment in the repository:

- :meth:`TrialEngine.run` / :meth:`~TrialEngine.estimate` /
  :meth:`~TrialEngine.estimate_pair` — scalar trials drawing from a
  forked :class:`~repro.util.rng.RandomSource` per trial (the adaptive
  adversary's game);
- :meth:`TrialEngine.run_batched` — vectorised numpy batch trials
  (the Fig. 6 attack kernels and the epoch-churn kinds);
- :meth:`TrialEngine.map` — trials returning arbitrary values collected
  in index order (the timeliness extension).

They share one path: each builds a
:class:`~repro.experiments.executors.TrialTask`, which alone knows its
kind, and hands spans of it to ``backend.run``; the two counting kinds
also share one checkpointed driver loop.

**Determinism guarantee.**  Trial ``i``'s random stream is a pure function
of ``(seed, label, i)`` — the historical fork-per-trial labeling scheme —
and aggregation is exact integer counting, so the serial, process-pool and
distributed backends produce *identical* results for the same seed, for
any trial count and any chunking.  Adaptive early stopping preserves this:
the stopping rule is evaluated only at fixed checkpoint boundaries
(multiples of ``check_interval``), which are a function of engine
configuration, never of the executor.

**Adaptive early stopping.**  With ``tolerance`` set, the engine checks the
confidence-interval half-width of every channel at each checkpoint and
stops as soon as all of them are within tolerance — but never before
``min_trials`` trials have run.  The stopping rule always evaluates the
*Wilson* half-width: the normal approximation's variance floor collapses
to ~1e-7 width at 0 or ``n`` successes, which would stop at the floor
with a dishonestly certain interval exactly in the near-certain regime
the resilience figures live in.  Wilson keeps honest width there, so
"tolerance 0.02" means the estimate has genuinely been pinned to ±0.02.
Reported estimates still carry the interval ``ci_method`` selects
(default: the historical normal approximation).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.experiments.executors import (
    BatchFunction,
    IndexedTrialFunction,
    SerialExecutor,
    TrialFunction,
    TrialTask,
)
from repro.obs.trace import coerce_tracer
from repro.util.stats import (
    DEFAULT_CHECK_INTERVAL,
    DEFAULT_CHECKPOINT_BATCHES,
    DEFAULT_MIN_TRIALS,
    sample_proportion_ci,
    wilson_proportion_ci,
)
from repro.util.validation import check_positive, check_positive_int

DEFAULT_TRIALS = 1000

_CI_METHODS = {
    "normal": sample_proportion_ci,
    "wilson": wilson_proportion_ci,
}


@dataclass(frozen=True)
class MonteCarloEstimate:
    """An estimated probability with its sampling interval."""

    estimate: float
    low: float
    high: float
    trials: int
    successes: int

    def __str__(self) -> str:
        return f"{self.estimate:.4f} [{self.low:.4f}, {self.high:.4f}] (n={self.trials})"

    @property
    def half_width(self) -> float:
        return (self.high - self.low) / 2.0


@dataclass(frozen=True)
class PairedEstimate:
    """Release and drop resilience estimated from the same trial stream."""

    release: MonteCarloEstimate
    drop: MonteCarloEstimate

    @property
    def worst(self) -> float:
        return min(self.release.estimate, self.drop.estimate)


PairedTrial = Callable[[Any], tuple]


@dataclass(frozen=True)
class EngineResult:
    """The outcome of one engine run: one estimate per outcome channel."""

    estimates: Tuple[MonteCarloEstimate, ...]
    requested_trials: int
    stopped_early: bool

    @property
    def trials(self) -> int:
        """Trials actually run (< ``requested_trials`` iff stopped early)."""
        return self.estimates[0].trials

    @property
    def single(self) -> MonteCarloEstimate:
        """The estimate of a one-channel run."""
        if len(self.estimates) != 1:
            raise ValueError(
                f"run has {len(self.estimates)} channels, expected 1"
            )
        return self.estimates[0]

    @property
    def pair(self) -> PairedEstimate:
        """The (release, drop) pair of a two-channel run."""
        if len(self.estimates) != 2:
            raise ValueError(
                f"run has {len(self.estimates)} channels, expected 2"
            )
        return PairedEstimate(release=self.estimates[0], drop=self.estimates[1])


class TrialEngine:
    """Runs Monte-Carlo trials through a pluggable execution backend.

    Parameters
    ----------
    backend:
        A backend registry name (``"serial"``, ``"process-pool"``,
        ``"distributed"``), a :class:`~repro.backends.base.BackendSpec`,
        or a pre-built :class:`~repro.backends.ExecutionBackend`
        instance whose open/close lifecycle the caller owns; resolved
        through :func:`repro.backends.registry.get` and kept as
        ``engine.executor``.  To share one pool (or one set of worker
        connections) across several runs, bracket them with
        ``with engine.executor: ...``; a bare run on an unopened
        ``process-pool`` opens a pool for that run and closes it again.
    jobs:
        Worker-count sugar when no ``backend`` is named — ``1`` selects
        the serial backend, more the ``process-pool``.  An explicit value
        is merged into a named ``backend`` that accepts a ``jobs``
        option (including ``jobs=1`` → a one-worker pool); leaving it
        ``None`` keeps the named backend's own default.
    tolerance:
        Adaptive early stopping: stop once every channel's Wilson CI
        half-width is at most this value.  ``None`` (default) disables
        stopping and always runs the requested trial count.
    min_trials:
        Floor below which early stopping never triggers.
    check_interval:
        Trials between stopping-rule checkpoints in scalar-trial mode.
        Part of the result's determinism contract: results depend on it
        only when ``tolerance`` is set, and never on the executor.
    checkpoint_batches:
        Batches dispatched per stopping-rule checkpoint in batched mode;
        also the parallelism available to a pool executor between checks.
        Fixed configuration (never derived from the executor), so batched
        results stay executor-independent.
    ci_method:
        The interval the *estimates report*: ``"normal"`` (the historical
        interval) or ``"wilson"``.  The stopping rule itself always uses
        Wilson, which keeps honest width at 0 or ``n`` successes.
    tracer:
        A :class:`~repro.obs.trace.Tracer` recording this engine's runs
        as ``engine`` spans (one per :meth:`run`/:meth:`run_batched`/
        :meth:`map`), each wrapping ``backend.call`` spans around every
        executor dispatch and emitting ``ci_check`` events at stopping
        checkpoints — the per-point CI-width progression in a sweep
        trace.  ``None`` (default) traces nothing; tracing is a pure
        side channel and never changes results.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        tolerance: Optional[float] = None,
        min_trials: int = DEFAULT_MIN_TRIALS,
        check_interval: int = DEFAULT_CHECK_INTERVAL,
        checkpoint_batches: int = DEFAULT_CHECKPOINT_BATCHES,
        ci_method: str = "normal",
        backend: Any = None,
        tracer: Any = None,
    ) -> None:
        if backend is None and jobs in (None, 1):
            # The default path builds the reference backend directly, so
            # a plain ``TrialEngine()`` never imports ``repro.backends``.
            self.executor = SerialExecutor()
        else:
            from repro.backends.registry import get as get_backend

            self.executor = get_backend(backend, jobs=jobs)
        if tolerance is not None:
            check_positive(tolerance, "tolerance")
        self.tolerance = tolerance
        self.min_trials = check_positive_int(min_trials, "min_trials")
        self.check_interval = check_positive_int(check_interval, "check_interval")
        self.checkpoint_batches = check_positive_int(
            checkpoint_batches, "checkpoint_batches"
        )
        if ci_method not in _CI_METHODS:
            raise ValueError(
                f"ci_method must be one of {sorted(_CI_METHODS)}, got {ci_method!r}"
            )
        self.ci_method = ci_method
        self.tracer = coerce_tracer(tracer)

    # -- aggregation (the single CI-construction path) ---------------------

    def _aggregate(self, successes: int, trials: int) -> MonteCarloEstimate:
        if trials == 0:
            # A zero-trial run carries no information: the vacuous
            # full-width interval, never a division by zero.
            return MonteCarloEstimate(
                estimate=0.0, low=0.0, high=1.0, trials=0, successes=0
            )
        estimate, low, high = _CI_METHODS[self.ci_method](successes, trials)
        return MonteCarloEstimate(
            estimate=estimate,
            low=low,
            high=high,
            trials=trials,
            successes=successes,
        )

    def _within_tolerance(self, counts: Sequence[int], done: int) -> bool:
        if self.tolerance is None or done < self.min_trials:
            return False
        # Always the Wilson half-width: the normal interval's variance
        # floor is dishonestly tight at 0 or `done` successes.
        for successes in counts:
            _, low, high = wilson_proportion_ci(successes, done)
            if (high - low) / 2.0 > self.tolerance:
                return False
        return True

    def _result(
        self, counts: Sequence[int], done: int, requested: int
    ) -> EngineResult:
        return EngineResult(
            estimates=tuple(self._aggregate(s, done) for s in counts),
            requested_trials=requested,
            stopped_early=done < requested,
        )

    def _trace_ci_check(self, span, counts: Sequence[int], done: int) -> None:
        """Emit one ``ci_check`` event: the Wilson widths at a checkpoint.

        Guarded on ``tracer.enabled`` so untraced runs never compute the
        extra intervals — tracing must stay a pure side channel in cost
        as well as in results.
        """
        if not self.tracer.enabled or done <= 0:
            return
        widths = [
            (high - low) / 2.0
            for _, low, high in (
                wilson_proportion_ci(successes, done) for successes in counts
            )
        ]
        span.event(
            "ci_check",
            trials_done=done,
            max_half_width=max(widths),
            half_widths=widths,
        )

    # -- the one span path -------------------------------------------------

    @contextmanager
    def _engine_run(self, task: TrialTask, trials: int, **attrs: Any):
        """One engine run of ``task``: its ``engine`` span around the
        backend's ``start``/``finish`` bracket."""
        with self.tracer.span(
            "engine",
            mode=task.mode,
            label=task.label,
            trials=trials,
            seed=task.seed,
            **attrs,
        ) as span:
            self.executor.start(task)
            try:
                yield span
            finally:
                self.executor.finish()

    def _call(self, task: TrialTask, low: int, high: int) -> List[Any]:
        with self.tracer.span(
            "backend.call",
            mode=task.mode,
            low=low,
            high=high,
            executor=type(self.executor).__name__,
        ):
            return self.executor.run(task, low, high)

    def _run_counted(
        self, task: TrialTask, trials: int, step: int, **attrs: Any
    ) -> EngineResult:
        """Count ``trials`` trials of ``task``, ``step`` units per checkpoint.

        A unit is one trial, or one batch of ``task.trials_per_unit``.
        Without a tolerance the whole range is one backend call; with
        one, the stopping rule runs after every ``step`` units — a
        function of engine configuration alone, never of the executor.
        """
        units = -(-trials // task.trials_per_unit)
        counts = task.merge(())
        low = done = 0
        with self._engine_run(task, trials, **attrs) as span:
            while low < units:
                high = units if self.tolerance is None else min(low + step, units)
                counts = task.merge((counts, self._call(task, low, high)))
                low = high
                done = min(high * task.trials_per_unit, trials)
                self._trace_ci_check(span, counts, done)
                if self._within_tolerance(counts, done):
                    break
            span.set_attr("trials_run", done)
            span.set_attr("stopped_early", done < trials)
        return self._result(counts, done, trials)

    # -- scalar trials -----------------------------------------------------

    def run(
        self,
        trial: TrialFunction,
        trials: int = DEFAULT_TRIALS,
        seed: int = 2017,
        label: str = "trial",
        channels: int = 1,
    ) -> EngineResult:
        """Run scalar trials; returns one estimate per outcome channel.

        ``trials=0`` is exact: no trials run and every channel reports the
        vacuous zero-trial estimate (a sweep may legitimately contain
        measurement-free points).
        """
        check_positive_int(trials, "trials", minimum=0)
        check_positive_int(channels, "channels")
        if trials == 0:
            return self._result([0] * channels, 0, 0)
        task = TrialTask(seed=seed, label=label, channels=channels, trial=trial)
        return self._run_counted(task, trials, self.check_interval)

    def estimate(
        self,
        trial: TrialFunction,
        trials: int = DEFAULT_TRIALS,
        seed: int = 2017,
        label: str = "trial",
    ) -> MonteCarloEstimate:
        """Estimate P[trial returns True] over independent seeded trials."""
        return self.run(trial, trials=trials, seed=seed, label=label).single

    def estimate_pair(
        self,
        trial: PairedTrial,
        trials: int = DEFAULT_TRIALS,
        seed: int = 2017,
        label: str = "trial",
    ) -> PairedEstimate:
        """Run a paired trial returning ``(release_ok, drop_ok)``."""
        return self.run(
            trial, trials=trials, seed=seed, label=label, channels=2
        ).pair

    # -- vectorised batches ------------------------------------------------

    def run_batched(
        self,
        batch: BatchFunction,
        trials: int = DEFAULT_TRIALS,
        seed: int = 2017,
        label: str = "batch",
        channels: int = 1,
        batch_size: Optional[int] = None,
    ) -> EngineResult:
        """Run a vectorised batch trial over a fixed batch partition.

        ``batch(generator, count)`` receives a seeded numpy generator and
        must return per-channel success counts for ``count`` trials.  With
        ``batch_size=None`` and no tolerance the whole run is a single
        batch whose generator matches the pre-engine per-point generator,
        reproducing historical results exactly; with a tolerance the
        partition defaults to ``check_interval``-sized batches so stopping
        has checkpoints, ``checkpoint_batches`` of them per check: enough
        for a pool to chew on in parallel.  Results depend on the
        partition but never on the executor.
        """
        check_positive_int(trials, "trials", minimum=0)
        check_positive_int(channels, "channels")
        if trials == 0:
            return self._result([0] * channels, 0, 0)
        if batch_size is None:
            batch_size = trials if self.tolerance is None else self.check_interval
        check_positive_int(batch_size, "batch_size")
        task = TrialTask(
            seed=seed,
            label=label,
            channels=channels,
            batch=batch,
            batch_size=batch_size,
            total_trials=trials,
        )
        return self._run_counted(
            task, trials, self.checkpoint_batches, batch_size=batch_size
        )

    # -- collected values --------------------------------------------------

    def map(
        self,
        trial: IndexedTrialFunction,
        trials: int,
        seed: int = 2017,
        label: str = "trial",
    ) -> List[Any]:
        """Run ``trial(index, rng)`` for every index; values in index order.

        No aggregation or early stopping — this is the escape hatch for
        experiments (like the timeliness sweep) whose per-trial outcome is
        a measurement rather than a success bit, run through the same
        executors for parallelism.
        """
        check_positive_int(trials, "trials", minimum=0)
        if trials == 0:
            return []
        task = TrialTask(seed=seed, label=label, indexed_trial=trial)
        with self._engine_run(task, trials):
            return self._call(task, 0, trials)
