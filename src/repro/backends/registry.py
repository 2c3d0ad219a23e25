"""The execution-backend registry: name → factory and accepted options.

Every execution substrate in the repository is registered here under a
stable name, and everything that needs one — the trial engine, the sweep
orchestrator, the daemon, the CLI's ``--backend`` flag, ``repro.api`` —
resolves it through :func:`get`:

============ ================== ========================================
name         class              substrate
============ ================== ========================================
serial       SerialExecutor     the in-process reference loop
process-pool SweepPoolExecutor  one fork pool from ``open`` to ``close``,
                                tasks and results shipped as data
distributed  DistributedBackend spans over TCP to ``repro worker``
                                processes
============ ================== ========================================

Resolution order, everywhere: an explicit ``backend=`` (registry name,
:class:`BackendSpec`, or built instance) > the spec's pinned
``engine.backend`` > the ``jobs`` sugar (``1`` = ``serial``, above that
``process-pool``).

Each entry declares which options its factory accepts — only what an
operator can set from the CLI (``--jobs``, ``--chunk-size``, ``--workers``,
``--pool``, ``--announce-bind``, ``--watch-workers``); timing values such
as the distributed heartbeat are module constants, not options.  By the
engine's determinism contract none of them can change results (``jobs``,
chunking, transport and topology are all invisible in the counts), which
is why a backend never reaches a result-store cache key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple, Union

from repro.backends.base import BackendSpec
from repro.experiments.executors import ExecutionBackend
from repro.util.validation import check_positive_int


@dataclass(frozen=True)
class BackendEntry:
    """One registered backend: factory plus declared metadata."""

    name: str
    description: str
    factory: Callable[..., ExecutionBackend]
    option_names: FrozenSet[str]
    available: Callable[[], bool]


_REGISTRY: Dict[str, BackendEntry] = {}


def register_backend(
    name: str,
    factory: Callable[..., ExecutionBackend],
    *,
    description: str,
    options: Tuple[str, ...] = (),
    available: Optional[Callable[[], bool]] = None,
) -> None:
    """Register an execution backend under a stable name.

    Public on purpose: a new substrate (asyncio, GPU lane, a different
    RPC fabric) is "write the class, register it" — every consumer
    (engine, orchestrator, CLI, ``repro.api``) picks it up through the
    same :func:`get` call.
    """
    _REGISTRY[name] = BackendEntry(
        name=name,
        description=description,
        factory=factory,
        option_names=frozenset(options),
        available=available if available is not None else (lambda: True),
    )


def backend_names() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def _entry(name: str) -> BackendEntry:
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown backend {name!r}; registered backends: "
            f"{', '.join(backend_names())}"
        )
    return _REGISTRY[name]


def list_backends() -> List[Dict[str, Any]]:
    """JSON-safe descriptions of every registered backend.

    The payload behind ``repro backends list`` and
    :func:`repro.api.list_backends`: name, description, accepted
    options, and whether the backend is usable on this platform.
    """
    return [
        {
            "name": entry.name,
            "description": entry.description,
            "options": sorted(entry.option_names),
            "available": bool(entry.available()),
        }
        for _, entry in sorted(_REGISTRY.items())
    ]


#: What callers may pass anywhere a backend is accepted.
BackendLike = Union[str, BackendSpec, ExecutionBackend, None]


def spec_for_jobs(jobs: int = 1) -> BackendSpec:
    """The ``--jobs`` sugar as a :class:`BackendSpec`.

    ``jobs=1`` is the serial reference; above that, the ``process-pool``
    (one pool from ``open`` to ``close``).
    """
    check_positive_int(jobs, "jobs")
    if jobs == 1:
        return BackendSpec("serial")
    return BackendSpec("process-pool", options={"jobs": jobs})


def resolve_spec(
    backend: Union[str, BackendSpec, None],
    jobs: Optional[int] = None,
) -> BackendSpec:
    """Normalise (backend, jobs) into one :class:`BackendSpec`.

    ``backend=None`` defers entirely to the ``jobs`` sugar.  A bare name
    gets an *explicit* ``jobs`` merged in when the backend accepts that
    option — ``--backend process-pool --jobs 8`` means what it reads like,
    and ``--jobs 1`` gives a one-worker pool, not the factory default —
    while ``jobs=None`` (unset) leaves the backend's own default alone.
    A full :class:`BackendSpec` is honoured verbatim (its own options
    win).
    """
    if backend is None:
        return spec_for_jobs(1 if jobs is None else jobs)
    if isinstance(backend, str):
        backend = BackendSpec(backend)
    entry = _entry(backend.name)
    if jobs is not None and "jobs" in entry.option_names:
        backend = backend.with_options(jobs=jobs)
    return backend


def get(
    backend: BackendLike = None,
    *,
    jobs: Optional[int] = None,
) -> ExecutionBackend:
    """Build (or pass through) an execution backend.

    Accepts a registry name, a :class:`BackendSpec`, an already-built
    backend instance (returned untouched — the caller owns its
    lifecycle), or ``None`` for the ``jobs`` sugar.  Unknown names and
    options fail with the full accepted list.
    """
    if backend is not None and not isinstance(backend, (str, BackendSpec)):
        return backend
    spec = resolve_spec(backend, jobs=jobs)
    entry = _entry(spec.name)
    unknown = sorted(set(spec.options) - entry.option_names)
    if unknown:
        accepted = sorted(entry.option_names) or "(none)"
        raise ValueError(
            f"backend {spec.name!r} does not accept option(s) {unknown}; "
            f"accepted: {accepted}"
        )
    return entry.factory(**spec.options)


# -- built-in registrations ---------------------------------------------------


def _register_builtins() -> None:
    from repro.backends.distributed import DistributedBackend
    from repro.experiments.executors import (
        SerialExecutor,
        SweepPoolExecutor,
        fork_available,
    )

    register_backend(
        "serial",
        SerialExecutor,
        description="in-process reference loop (the determinism oracle)",
    )
    register_backend(
        "process-pool",
        SweepPoolExecutor,
        description=(
            "one fork pool from open to close (a bare engine run opens "
            "and closes its own); tasks and results shipped as data"
        ),
        options=("jobs", "chunk_size"),
        available=fork_available,
    )
    register_backend(
        "distributed",
        DistributedBackend,
        description=(
            "spans over length-prefixed JSON/TCP to `repro worker serve` "
            "processes (workers=['host:port', ...] or pool=N to spawn a "
            "local pool); retries and rebalances around worker failures, "
            "and the fleet is elastic: breakers re-admit after cooldown, "
            "workers join and leave mid-sweep via announce_bind/watch_hosts"
        ),
        options=("workers", "chunk_size", "pool", "announce_bind", "watch_hosts"),
    )


_register_builtins()
