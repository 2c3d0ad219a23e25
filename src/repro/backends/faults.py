"""Deterministic, seedable fault injection for the distributed backend.

The resilience layer (retry/rebalancing in
:class:`~repro.backends.distributed.DistributedBackend`, heartbeat
probing, the circuit breaker) is only trustworthy if it can be *proven*
to preserve the exact-count contract under failure — so faults are a
first-class, scriptable object here rather than ad-hoc test monkey
patching.  A :class:`FaultSpec` describes one worker's failure, a
:class:`FaultPlan` assigns specs to workers by index, and a
:class:`FaultInjector` applies a spec inside a
:class:`~repro.backends.worker.WorkerServer` at an exact, reproducible
point in its span stream.  The same objects drive the chaos test suite
(``tests/backends/test_faults.py``), the CI ``chaos`` job, and manual
experiments (``repro worker serve --fault kill@2``,
``repro worker pool --fault "1:kill@2,2:slow@0:0.05"``).

Fault kinds (all triggered after the worker has served ``after_spans``
``run`` requests normally; the faulted span itself is never executed, so
the client *must* recover it elsewhere for counts to survive):

``kill``
    The worker dies: in a ``repro worker serve`` process the process
    exits abruptly; in-process servers close the listening socket and
    every open connection.  Terminal — reconnects are refused.
``drop``
    One connection is torn down without a reply, once; the worker keeps
    serving, so a reconnect succeeds.  Models a flapping network path.
``slow``
    Every span from the trigger on is delayed by ``delay`` seconds
    before executing *correctly*.  Models an overloaded worker: the
    heartbeat answers, so a patient client should wait, not requeue.
    The injected sleep is drain-cancellable (a ``cancel`` wire op
    abandons it mid-sleep), so a slow worker can still be drained
    mid-span like any other.
``hang``
    The worker wedges: the in-flight span never answers and the
    listening socket closes, so heartbeat probes fail.  Models a stuck
    process — only detectable by liveness probing, not by EOF.

Everything round-trips through JSON and a compact CLI string form, and
:meth:`FaultPlan.random` derives an arbitrary schedule from a seed while
always leaving at least one worker unfaulted — the precondition under
which the property tests demand bit-identical totals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from threading import Lock
from typing import Any, Dict, Mapping, Optional, Tuple

#: Every fault kind, in documentation order.
FAULT_KINDS = ("kill", "drop", "slow", "hang")

#: Kinds after which the worker never serves another span.
FATAL_KINDS = frozenset({"kill", "hang"})


@dataclass(frozen=True)
class FaultSpec:
    """One worker's scripted failure.

    ``after_spans`` run requests are served normally; the next one
    triggers the fault.  ``delay`` is the per-span slowdown for ``slow``
    and the wedge hold time for ``hang`` (0 means "until shutdown").
    """

    kind: str
    after_spans: int = 0
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if not isinstance(self.after_spans, int) or self.after_spans < 0:
            raise ValueError(
                f"after_spans must be a non-negative int, got {self.after_spans!r}"
            )
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay!r}")

    @property
    def fatal(self) -> bool:
        """Whether the worker is permanently gone once this fires."""
        return self.kind in FATAL_KINDS

    def describe(self) -> str:
        """The compact CLI form: ``kill@2``, ``slow@1:0.05``."""
        text = f"{self.kind}@{self.after_spans}"
        if self.delay:
            text += f":{self.delay:g}"
        return text

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse the compact form (``KIND@AFTER[:DELAY]``)."""
        head, _, delay_text = text.strip().partition(":")
        kind, separator, after_text = head.partition("@")
        try:
            after_spans = int(after_text) if separator else 0
            delay = float(delay_text) if delay_text else 0.0
        except ValueError:
            raise ValueError(f"cannot parse fault spec {text!r}") from None
        return cls(kind=kind, after_spans=after_spans, delay=delay)

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "kind": self.kind, "after_spans": self.after_spans
        }
        if self.delay:
            payload["delay"] = self.delay
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultSpec":
        return cls(
            kind=payload["kind"],
            after_spans=int(payload.get("after_spans", 0)),
            delay=float(payload.get("delay", 0.0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """Worker index → :class:`FaultSpec`: one sweep's failure schedule."""

    faults: Mapping[int, FaultSpec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        normalized: Dict[int, FaultSpec] = {}
        for index, spec in dict(self.faults).items():
            index = int(index)
            if index < 0:
                raise ValueError(f"worker index must be >= 0, got {index}")
            if not isinstance(spec, FaultSpec):
                spec = FaultSpec.from_dict(spec)
            normalized[index] = spec
        object.__setattr__(self, "faults", normalized)

    def __bool__(self) -> bool:
        return bool(self.faults)

    def for_worker(self, index: int) -> Optional[FaultSpec]:
        return self.faults.get(index)

    def survivors(self, workers: int) -> Tuple[int, ...]:
        """Worker indices that stay alive for the whole run (no fatal fault)."""
        return tuple(
            index
            for index in range(workers)
            if index not in self.faults or not self.faults[index].fatal
        )

    def describe(self) -> str:
        """The compact CLI form: ``0:kill@2,2:slow@0:0.05``."""
        return ",".join(
            f"{index}:{spec.describe()}"
            for index, spec in sorted(self.faults.items())
        )

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the compact form (``IDX:KIND@AFTER[:DELAY],...``)."""
        faults: Dict[int, FaultSpec] = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            index_text, separator, spec_text = part.partition(":")
            if not separator:
                raise ValueError(
                    f"fault plan entries are 'index:spec', got {part!r}"
                )
            try:
                index = int(index_text)
            except ValueError:
                raise ValueError(
                    f"fault plan entries are 'index:spec', got {part!r}"
                ) from None
            faults[index] = FaultSpec.parse(spec_text)
        return cls(faults=faults)

    def to_dict(self) -> Dict[str, Any]:
        return {
            str(index): spec.to_dict()
            for index, spec in sorted(self.faults.items())
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        return cls(
            faults={
                int(index): FaultSpec.from_dict(spec)
                for index, spec in payload.items()
            }
        )

    @classmethod
    def random(
        cls,
        seed: int,
        workers: int,
        max_after_spans: int = 3,
        slow_delay: float = 0.02,
    ) -> "FaultPlan":
        """A seed-deterministic schedule that leaves ≥ 1 worker unfaulted.

        The generator behind the chaos property tests: any plan it can
        produce must leave ``backend.run`` totals
        bit-identical to a fault-free run.  ``hang`` is deliberately
        excluded here — it is covered by dedicated tests, because waiting
        out a heartbeat window per example would dominate the property
        suite's runtime.
        """
        if workers < 2:
            raise ValueError(
                f"a random fault plan needs >= 2 workers, got {workers}"
            )
        rng = random.Random(seed)
        victims = rng.sample(range(workers), rng.randint(1, workers - 1))
        faults = {
            victim: FaultSpec(
                kind=rng.choice(("kill", "drop", "slow")),
                after_spans=rng.randint(0, max_after_spans),
                delay=slow_delay,
            )
            for victim in victims
        }
        return cls(faults=faults)


class FaultInjector:
    """Applies one :class:`FaultSpec` at its scripted point in a span stream.

    Owned by a :class:`~repro.backends.worker.WorkerServer`; the handler
    calls :meth:`on_span` once per ``run`` request (across *all*
    connections, under a lock, so the trigger point is a deterministic
    function of the number of spans the worker has been asked to serve).
    ``kill``/``drop``/``hang`` fire exactly once; ``slow`` applies to the
    trigger span and every span after it.
    """

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self._lock = Lock()
        self._spans_seen = 0
        self._fired = False

    @property
    def spans_seen(self) -> int:
        with self._lock:
            return self._spans_seen

    @property
    def fired(self) -> bool:
        with self._lock:
            return self._fired

    def on_span(self) -> Optional[FaultSpec]:
        """Count one incoming ``run`` request; the fault to apply, if any."""
        with self._lock:
            self._spans_seen += 1
            if self._spans_seen <= self.spec.after_spans:
                return None
            if self.spec.kind == "slow":
                self._fired = True
                return self.spec
            if self._fired:
                return None
            self._fired = True
            return self.spec
