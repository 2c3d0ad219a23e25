"""The worker-pool launcher: stand up local trial workers in one call.

:class:`WorkerPool` spawns ``repro worker serve --bind host:0``
subprocesses, reads each one's announced ephemeral address off its
stdout, and owns their lifecycle (``stop`` sends SIGTERM, escalating to
SIGKILL):

- **Fault plans** — a :class:`~repro.backends.faults.FaultPlan` maps
  per-worker scripted failures onto the spawned processes (``--fault``
  per child), which is how the chaos tests kill a real worker process
  mid-sweep, deterministically.
- **Respawn** — with ``max_respawns=K``, :meth:`WorkerPool.respawn_dead`
  relaunches up to ``K`` dead children on fresh ephemeral ports.
  Respawned children carry *no* ``--fault`` flag: a scripted fault has
  already fired once, and re-arming it on the replacement would make
  chaos runs non-deterministic.  ``repro worker pool --respawn K
  --addresses-file FILE`` republishes the new addresses atomically
  (:func:`write_addresses_file`), and a sweep reading the file with
  ``--workers @FILE --watch-workers`` adopts each replacement as one
  leave plus one join.

Workers already running elsewhere need no pool: name them with
``--workers host:port,...`` or a ``--workers @FILE`` host list
(:func:`load_hosts_file`); the backend's ``open`` refuses an unreachable
one by name.  :attr:`WorkerPool.addresses` plugs straight into
:class:`~repro.backends.distributed.DistributedBackend` — or let the
backend do both halves itself with ``DistributedBackend(pool=N)`` /
``repro sweep run ... --backend distributed --pool N``.  The CLI face is
``repro worker pool`` (see ``repro worker pool --help``).
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.backends.faults import FaultPlan
from repro.backends.wire import parse_address
from repro.util.validation import check_positive_int

#: What ``repro worker serve`` announces on stdout once bound.
_ADDRESS_LINE = re.compile(r"listening on (\S+?):(\d+)")

#: Seconds each spawned worker gets to announce its address.
STARTUP_TIMEOUT = 60.0


def load_hosts_file(path) -> List[str]:
    """Read a worker host-list file: one ``host:port`` per line.

    Blank lines and ``#`` comments are ignored; every surviving line is
    validated as an address.  This is the CLI's ``--workers @path``
    spelling and what a :class:`~repro.backends.membership.HostsFileWatcher`
    re-reads.
    """
    addresses: List[str] = []
    for raw_line in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        parse_address(line)
        addresses.append(line)
    if not addresses:
        raise ValueError(f"hosts file {path} names no workers")
    return addresses


def write_addresses_file(path, addresses: Sequence[str]) -> None:
    """Publish worker addresses to a hosts file, atomically.

    Written via a same-directory temp file + :func:`os.replace`, so a
    concurrently-launched adopter (``--workers @FILE``, a
    :class:`~repro.backends.membership.HostsFileWatcher`) can never read
    a half-written list — it sees the old complete file or the new one.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    temp.write_text(
        "\n".join(addresses) + "\n" if addresses else "", encoding="utf-8"
    )
    os.replace(temp, path)


def _await_line(stream, timeout: float, context: str) -> str:
    """Read one ``\\n``-terminated line off a subprocess pipe, bounded."""
    deadline = time.monotonic() + timeout
    buffer = b""
    descriptor = stream.fileno()
    while b"\n" not in buffer:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError(
                f"{context}: no announcement within {timeout}s "
                f"(got {buffer!r})"
            )
        readable, _, _ = select.select([descriptor], [], [], remaining)
        if not readable:
            continue
        chunk = os.read(descriptor, 4096)
        if not chunk:
            raise RuntimeError(
                f"{context}: exited before announcing its address "
                f"(got {buffer!r})"
            )
        buffer += chunk
    return buffer.split(b"\n", 1)[0].decode("utf-8", "replace")


def _worker_environment() -> dict:
    """The spawned worker's environment: inherit ours, ensure importability.

    The child runs ``python -m repro.cli``, so the directory containing
    the ``repro`` package must be on its ``PYTHONPATH`` even when the
    parent imported it via ``pytest``'s ``pythonpath`` or an editable
    install the child would not see.
    """
    import repro

    source_root = str(Path(repro.__file__).resolve().parent.parent)
    environment = dict(os.environ)
    existing = environment.get("PYTHONPATH", "")
    paths = existing.split(os.pathsep) if existing else []
    if source_root not in paths:
        environment["PYTHONPATH"] = os.pathsep.join([source_root, *paths])
    return environment


class WorkerPool:
    """Launch and own local ``repro worker serve`` processes.

    Parameters
    ----------
    workers:
        Local serve processes to spawn (at least one).
    host:
        Interface the local workers bind (loopback by default — nothing
        authenticates a peer on the worker port).
    fault_plan:
        Optional :class:`~repro.backends.faults.FaultPlan` (or its
        compact string form) mapping worker indices to scripted faults.
    max_respawns:
        Total budget of dead-child relaunches :meth:`respawn_dead` may
        spend (0, the default, disables respawning — scripted chaos
        tests rely on a killed worker *staying* dead unless they opt in).
    """

    def __init__(
        self,
        workers: int = 2,
        host: str = "127.0.0.1",
        fault_plan=None,
        max_respawns: int = 0,
    ) -> None:
        if isinstance(fault_plan, str):
            fault_plan = FaultPlan.parse(fault_plan)
        if fault_plan is not None and not isinstance(fault_plan, FaultPlan):
            fault_plan = FaultPlan(faults=fault_plan)
        self.workers = check_positive_int(workers, "workers")
        self.host = host
        self.fault_plan = fault_plan
        self.max_respawns = max_respawns
        self.respawns_used = 0
        self._processes: List[subprocess.Popen] = []
        self._addresses: Optional[Tuple[str, ...]] = None

    @property
    def addresses(self) -> Tuple[str, ...]:
        """Every worker's ``host:port`` — feed to ``DistributedBackend``."""
        if self._addresses is None:
            raise RuntimeError("WorkerPool not started; call start() first")
        return self._addresses

    def _spawn_worker(self, index: int, fault=None) -> Tuple[subprocess.Popen, str]:
        """Launch one ``repro worker serve`` child; its process + address."""
        command = [
            sys.executable,
            "-m",
            "repro.cli",
            "worker",
            "serve",
            "--bind",
            f"{self.host}:0",
        ]
        if fault is not None:
            command += ["--fault", fault.describe()]
        process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=_worker_environment(),
        )
        try:
            line = _await_line(
                process.stdout,
                STARTUP_TIMEOUT,
                f"worker {index} (pid {process.pid})",
            )
            match = _ADDRESS_LINE.search(line)
            if match is None:
                raise RuntimeError(
                    f"worker {index} announced {line!r}, expected a "
                    f"'listening on host:port' line"
                )
        except BaseException:
            if process.poll() is None:
                process.kill()
            process.wait()
            if process.stdout is not None:
                process.stdout.close()
            raise
        return process, f"{match.group(1)}:{match.group(2)}"

    def start(self) -> "WorkerPool":
        """Spawn the workers; idempotent."""
        if self._addresses is not None:
            return self
        addresses: List[str] = []
        try:
            for index in range(self.workers):
                fault = (
                    self.fault_plan.for_worker(index)
                    if self.fault_plan is not None
                    else None
                )
                process, address = self._spawn_worker(index, fault)
                self._processes.append(process)
                addresses.append(address)
        except BaseException:
            self.stop()
            raise
        self._addresses = tuple(addresses)
        return self

    def poll(self) -> List[Optional[int]]:
        """Each spawned worker's exit code (``None`` while running)."""
        return [process.poll() for process in self._processes]

    def respawn_dead(self) -> List[Tuple[str, str]]:
        """Relaunch dead children on fresh ports, within ``max_respawns``.

        Returns ``[(old_address, new_address), ...]`` for each slot
        relaunched, so the caller can republish the addresses.
        Replacements are spawned *without* the slot's scripted fault — it
        already fired once, and a replacement that re-dies on schedule
        would make chaos runs non-deterministic.
        """
        if self._addresses is None:
            return []
        replaced: List[Tuple[str, str]] = []
        addresses = list(self._addresses)
        for index, process in enumerate(self._processes):
            if process.poll() is None:
                continue
            if self.respawns_used >= self.max_respawns:
                break
            try:
                replacement, address = self._spawn_worker(index)
            except (OSError, RuntimeError, TimeoutError):
                # A failed relaunch still spends budget: a slot that
                # cannot come back should not be retried forever.
                self.respawns_used += 1
                continue
            process.wait()
            if process.stdout is not None:
                process.stdout.close()
            self._processes[index] = replacement
            replaced.append((addresses[index], address))
            addresses[index] = address
            self.respawns_used += 1
        if replaced:
            self._addresses = tuple(addresses)
        return replaced

    def stop(self, grace_seconds: float = 5.0) -> None:
        """Terminate the workers: SIGTERM, then SIGKILL stragglers.

        Safe to call repeatedly.
        """
        processes, self._processes = self._processes, []
        self._addresses = None
        for process in processes:
            if process.poll() is None:
                try:
                    process.send_signal(signal.SIGTERM)
                except OSError:  # pragma: no cover - already reaped
                    pass
        deadline = time.monotonic() + grace_seconds
        for process in processes:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck
                process.kill()
                process.wait()
        for process in processes:
            if process.stdout is not None:
                process.stdout.close()

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
