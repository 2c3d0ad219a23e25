"""Trial executors: how a block of Monte-Carlo trials actually runs.

The :class:`~repro.experiments.engine.TrialEngine` decides *which* trial
indices to run; an :class:`ExecutionBackend` decides *how* — in-process
(:class:`SerialExecutor`), fanned out over a ``multiprocessing`` pool
(:class:`SweepPoolExecutor`), or over TCP to worker processes
(:class:`~repro.backends.distributed.DistributedBackend`).  Three
invariants make every backend interchangeable:

1. **Per-trial streams are a pure function of (seed, label, index).**
   Trial ``i`` draws from ``RandomSource(derive_seed(seed, f"{label}-{i}"))``
   — exactly the stream the historical serial loop produced with
   ``RandomSource(seed, label).fork(f"{label}-{i}")`` — so no backend,
   chunk size, or worker count can perturb it.
2. **Aggregation is exact integer counting.**  Backends return per-channel
   success *counts* over an index range; integer addition is associative
   and exact, so any partition of the range sums to the same totals.
3. **Collected values keep index order.**  A collect task returns one
   value per trial in trial-index order regardless of which worker
   produced it.

That contract is what lets the result store exclude transport options
(``jobs``, worker addresses) from its cache keys.  Tasks reach pool and
remote workers *as data* — :func:`repro.backends.wire.encode_blob`, which
carries only the unit classes in :data:`repro.backends.wire.UNITS` — so
an ad-hoc closure runs on :class:`SerialExecutor` alone; the other
backends refuse it at :meth:`~ExecutionBackend.start`.

There are three *kinds* of task — scalar trials (the adaptive game),
vectorised batches (the Fig. 6 and epoch kinds), collected values (the
timeliness protocol runs) — and the :class:`TrialTask` alone knows which it is:
:meth:`TrialTask.run_range` picks the kernel and :meth:`TrialTask.merge`
combines partial results, so every backend is one ``run(task, start,
stop)`` that splits a range, calls the first and feeds the second.
"""

from __future__ import annotations

import multiprocessing
import signal
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.util.rng import RandomSource, derive_seed
from repro.util.validation import check_positive_int

#: A scalar trial: draws from its private stream, returns ``bool`` for a
#: single-channel run or a tuple of bools for a multi-channel run.
TrialFunction = Callable[[RandomSource], Any]

#: A collect-mode trial: receives its trial index and private stream and
#: returns a value (``None``, a number, a string or a tuple of them, for
#: the backends that ship results between processes).
IndexedTrialFunction = Callable[[int, RandomSource], Any]

#: A vectorised batch trial: receives a seeded ``numpy.random.Generator``
#: and a trial count, returns per-channel success counts for that batch.
BatchFunction = Callable[[Any, int], Sequence[int]]


@dataclass(frozen=True)
class TrialTask:
    """A self-describing unit of Monte-Carlo work.

    Exactly one of the three callables is set, and it fixes the task's
    kind (:attr:`mode`): how a range of it runs (:meth:`run_range`) and
    how partial results combine (:meth:`merge`).  ``seed``/``label`` root
    the deterministic stream tree and ``channels`` sizes the
    success-count vector.
    """

    seed: int
    label: str
    channels: int = 1
    trial: Optional[TrialFunction] = None
    indexed_trial: Optional[IndexedTrialFunction] = None
    batch: Optional[BatchFunction] = None
    #: Batch mode only: trials per batch and total batches, fixed by the
    #: engine before execution so the partition (and therefore every
    #: batch's stream) never depends on the executor.
    batch_size: int = 0
    total_trials: int = 0

    def __post_init__(self) -> None:
        callables = (self.trial, self.indexed_trial, self.batch)
        given = sum(function is not None for function in callables)
        if given != 1:
            raise ValueError(
                "a TrialTask sets exactly one of trial / indexed_trial / "
                f"batch, got {given}"
            )

    @property
    def mode(self) -> str:
        """The task's kind: ``counts``, ``batches`` or ``collect``."""
        if self.trial is not None:
            return "counts"
        return "batches" if self.batch is not None else "collect"

    @property
    def trials_per_unit(self) -> int:
        """Trials behind one range index: a whole batch, or one trial."""
        return max(1, self.batch_size) if self.batch is not None else 1

    def run_range(self, low: int, high: int) -> List[Any]:
        """Run units ``[low, high)`` — trial indices, or batch indices.

        Per-channel success counts, or one value per trial in index
        order for a collect task.
        """
        if self.trial is not None:
            return run_count_range(self, low, high)
        if self.batch is not None:
            return run_batch_range(self, low, high)
        return run_collect_range(self, low, high)

    def merge(self, parts: Iterable[Sequence[Any]]) -> List[Any]:
        """Combine :meth:`run_range` results of consecutive ranges.

        Counts add channel by channel (exact integers, so any partition
        of a range gives the same totals); collected values concatenate
        in the order given.
        """
        if self.indexed_trial is not None:
            return [value for part in parts for value in part]
        counts = [0] * self.channels
        for part in parts:
            if len(part) != self.channels:
                raise ValueError(
                    f"partial result has {len(part)} channel(s), "
                    f"expected {self.channels}"
                )
            for channel, value in enumerate(part):
                counts[channel] += int(value)
        return counts


def trial_source(seed: int, label: str, index: int) -> RandomSource:
    """The private stream of trial ``index`` under ``(seed, label)``.

    Equivalent to ``RandomSource(seed, label).fork(f"{label}-{index}")``
    without materialising the parent — the historical labeling scheme the
    serial loops used, preserved verbatim so results are bit-stable across
    engine versions and executors.
    """
    child = f"{label}-{index}"
    return RandomSource(derive_seed(seed, child), label=child)


def batch_generator(task: TrialTask, batch_index: int):
    """The seeded numpy generator of one batch.

    A single-batch run draws from ``derive_seed(seed, label)`` — the exact
    generator the pre-engine vectorised experiments built per point — so
    the default configuration reproduces historical figures bit-for-bit.
    Multi-batch runs derive one independent stream per batch index, making
    results a function of the batch partition but never of the executor.
    """
    import numpy as np

    if task.total_trials <= task.batch_size:
        seed = derive_seed(task.seed, task.label)
    else:
        seed = derive_seed(task.seed, f"{task.label}#batch{batch_index}")
    return np.random.default_rng(seed)


def _outcome_counts(outcome: Any, channels: int) -> Tuple[int, ...]:
    """Normalise one trial outcome into a 0/1 vector of length ``channels``."""
    if isinstance(outcome, tuple):
        values = outcome
    else:
        values = (outcome,)
    if len(values) != channels:
        raise ValueError(
            f"trial returned {len(values)} channel(s), expected {channels}"
        )
    return tuple(1 if bool(value) else 0 for value in values)


def run_count_range(task: TrialTask, start: int, stop: int) -> List[int]:
    """Run trials ``[start, stop)`` and return per-channel success counts."""
    counts = [0] * task.channels
    for index in range(start, stop):
        outcome = task.trial(trial_source(task.seed, task.label, index))
        for channel, value in enumerate(_outcome_counts(outcome, task.channels)):
            counts[channel] += value
    return counts


def run_collect_range(task: TrialTask, start: int, stop: int) -> List[Any]:
    """Run collect-mode trials ``[start, stop)``, values in index order."""
    return [
        task.indexed_trial(index, trial_source(task.seed, task.label, index))
        for index in range(start, stop)
    ]


def run_batch_range(task: TrialTask, first: int, last: int) -> List[int]:
    """Run vectorised batches ``[first, last)``, returning summed counts."""
    counts = [0] * task.channels
    for batch_index in range(first, last):
        start = batch_index * task.batch_size
        size = min(task.batch_size, task.total_trials - start)
        batch_counts = task.batch(batch_generator(task, batch_index), size)
        if len(batch_counts) != task.channels:
            raise ValueError(
                f"batch returned {len(batch_counts)} channel(s), "
                f"expected {task.channels}"
            )
        for channel, value in enumerate(batch_counts):
            counts[channel] += int(value)
    return counts


class ExecutionBackend:
    """The one interface everything that runs Monte-Carlo work talks to.

    The trial engine, the sweep orchestrator, the daemon, the CLI and the
    benchmarks all drive a backend through these seven methods; every
    implementation subclasses this class and is registered by name in
    :mod:`repro.backends.registry` (``serial``, ``process-pool``,
    ``distributed``).

    Backends have two nested lifecycles.  :meth:`open`/:meth:`close` (or
    the equivalent ``with backend:`` block) bracket *long-lived* resources
    — a worker pool, a set of TCP connections; a sweep opens its backend
    once and runs every point through it.  :meth:`start`/:meth:`finish`
    bracket one engine run (one :class:`TrialTask`).  The in-process
    backend needs neither, so both pairs default to no-ops.  :meth:`run`
    executes a half-open span of the task's trial (or batch) indices and
    returns what the task's own :meth:`~TrialTask.run_range` would have.
    """

    def open(self) -> "ExecutionBackend":  # pragma: no cover - trivial
        """Acquire long-lived resources (a worker pool); idempotent."""
        return self

    def close(self) -> None:  # pragma: no cover - trivial
        """Release resources acquired by :meth:`open`."""

    def __enter__(self) -> "ExecutionBackend":
        return self.open()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def start(self, task: TrialTask) -> None:  # pragma: no cover - trivial
        """Prepare to run blocks of ``task`` (pool setup, etc.)."""

    def run(self, task: TrialTask, start: int, stop: int) -> List[Any]:
        """``task.run_range(start, stop)``, computed however this backend does."""
        raise NotImplementedError

    def finish(self) -> None:  # pragma: no cover - trivial
        """Release resources acquired by :meth:`start`."""


class SerialExecutor(ExecutionBackend):
    """The reference backend: one in-process loop, no chunking."""

    def run(self, task: TrialTask, start: int, stop: int) -> List[Any]:
        return task.run_range(start, stop)


def _split_spans(start: int, stop: int, span: int) -> List[Tuple[int, int]]:
    """Partition ``[start, stop)`` into consecutive spans of ``span``."""
    return [
        (low, min(low + span, stop)) for low in range(start, stop, span)
    ]


# -- process pool ------------------------------------------------------------

# Monotone count of worker pools ever constructed in this process.  The
# sweep orchestrator's contract — one pool per sweep, however many points —
# is asserted against deltas of this counter.
_POOLS_CONSTRUCTED = 0


def pools_constructed() -> int:
    """How many process pools this module has created so far."""
    return _POOLS_CONSTRUCTED


def _new_pool(jobs: int):
    global _POOLS_CONSTRUCTED
    context = multiprocessing.get_context("fork")
    pool = context.Pool(processes=jobs, initializer=_default_sigterm)
    _POOLS_CONSTRUCTED += 1
    return pool


def _default_sigterm() -> None:
    """Pool-child initializer: SIGTERM kills the child again.

    A child forked from a process that handles SIGTERM itself — the
    ``repro serve`` daemon's asyncio loop does — inherits that handler and
    survives ``Pool.terminate``'s SIGTERM.  A child then left waiting on
    the task-queue lock the terminating parent holds never exits, and the
    parent's ``join`` (and with it the daemon's drain) hangs.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def fork_available() -> bool:
    """Whether the ``fork`` start method (and thus the pool) is usable."""
    try:
        multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return False
    return True


def _shipped(args: Tuple[str, int, int]) -> str:
    """Worker side of the pool: decode the task, run one span, encode it."""
    from repro.backends.wire import decode_blob, encode_blob

    payload, low, high = args
    return encode_blob(decode_blob(payload).run_range(low, high))


@dataclass
class SweepPoolExecutor(ExecutionBackend):
    """One fork pool shared by every engine run between ``open`` and ``close``.

    Opened once (``open``/``close``, or a ``with`` block) the pool serves
    every engine run of a sweep, a figure, or the daemon's lifetime.  Each
    task ships to the children as :func:`~repro.backends.wire.encode_blob`
    text and each span's result comes back the same way; :meth:`start`
    refuses a task the codec cannot carry (an ad-hoc closure).  A bare
    engine run on an unopened executor still gets a pool: :meth:`start`
    opens one and the matching :meth:`finish` closes it again, so nothing
    outlives the run.  Counts are identical to the serial executor for
    any worker count or span partition.
    """

    jobs: int = 2
    #: Trials per shipped span: a positive int, ``None`` (balanced across
    #: the workers), or ``"auto"`` (:mod:`repro.backends.autotune`).
    chunk_size: Any = None
    _pool: Any = field(default=None, repr=False, compare=False)
    _payload: Optional[str] = field(default=None, repr=False, compare=False)
    # Whether the latest start() had to open the pool itself, and the
    # matching finish() therefore owes the close.
    _opened_by_start: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_positive_int(self.jobs, "jobs")
        if self.chunk_size not in (None, "auto"):
            check_positive_int(self.chunk_size, "chunk_size")

    def open(self) -> "SweepPoolExecutor":
        if self._pool is None and fork_available():
            self._pool = _new_pool(self.jobs)
        return self

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        self._payload = None

    def start(self, task: TrialTask) -> None:
        from repro.backends.wire import encode_blob

        # Encoded before the pool opens: a refused task leaves nothing open.
        self._payload = encode_blob(task)
        self._opened_by_start = self._pool is None
        self.open()

    def finish(self) -> None:
        self._payload = None
        if self._opened_by_start:
            self.close()

    def _spans(
        self, task: TrialTask, start: int, stop: int
    ) -> List[Tuple[int, int]]:
        # chunk_size counts trials; a batch task's unit is a whole batch.
        trials = (stop - start) * task.trials_per_unit
        if self.chunk_size == "auto":
            # Imported lazily: the backends package imports this module.
            from repro.backends.autotune import suggest_chunk_size

            span = suggest_chunk_size("process-pool", trials, workers=self.jobs)
        elif self.chunk_size is not None:
            span = self.chunk_size
        else:
            span = -(-trials // self.jobs)
        return _split_spans(start, stop, max(1, span // task.trials_per_unit))

    def run(self, task: TrialTask, start: int, stop: int) -> List[Any]:
        """One ``run_range`` result per span, merged in span order.

        Spans ship to the pool with the encoded task and their encoded
        results come back through ``pool.map``; without a pool (no
        ``fork``) they run here instead.
        """
        spans = self._spans(task, start, stop)
        if self._pool is None:
            return task.merge(task.run_range(low, high) for low, high in spans)
        from repro.backends.wire import decode_blob

        replies = self._pool.map(
            _shipped, [(self._payload, low, high) for low, high in spans]
        )
        return task.merge(decode_blob(reply) for reply in replies)
