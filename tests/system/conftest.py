"""The guards, as one local command: ``python -m pytest -m system [-k JOB]``.

Everything here drives the program the way an operator does — real
``python -m repro.cli`` processes on 127.0.0.1, real ``kill -9`` /
``SIGTERM``, ephemeral ports — and holds it to the standing invariant:
store bytes are a pure function of (spec, seed), whatever the backend,
tracing, a dying worker, a killed driver or a second client did.  One
module per former CI job (``-k backend_matrix | chaos | chaos_elastic |
chaos_driver | trace_smoke | epoch_smoke | service_smoke``); this file is
the one CLI runner, the one fleet/daemon fixture and the one store
comparison they all share.  ``tests/conftest.py`` keeps the tier-1
command from collecting the directory.
"""

import os
import re
import signal
import socket
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import pytest

from repro.backends.pool import _worker_environment
from repro.obs import read_trace

CLI = [sys.executable, "-m", "repro.cli"]
ENV = _worker_environment()  # ours, with src/ on PYTHONPATH

#: What every chaos sweep shares: 40-trial smoke points carved into 10
#: batches of 4 (the serial reference too — batch size is in the cache
#: key) and 10 one-batch spans, so a fault lands mid-point.
BATCHED = ("--batch-size", "4")
CARVED = ("--chunk-size", "1", *BATCHED)


def pytest_collection_modifyitems(items):
    for item in items:
        if Path(__file__).parent in item.path.parents:
            item.add_marker(pytest.mark.system)


def assert_same_store(a, b, scenario):
    """Same keys, same record bytes (``.journal`` / ``*.claim`` are not
    records); returns the records so a caller can count them."""
    left, right = (
        {path.name: path.read_bytes() for path in Path(store, scenario).glob("*.json")}
        for store in (a, b)
    )
    assert left, f"{a}/{scenario} holds no records"
    assert sorted(left) == sorted(right), f"store keys differ: {a} vs {b}"
    for name in left:
        assert left[name] == right[name], f"record bytes differ: {scenario}/{name}"
    return left


def wait_until(probe, timeout=30.0, what="condition"):
    """Poll ``probe`` until it returns something truthy; return that."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        found = probe()
        if found:
            return found
        time.sleep(0.1)
    raise AssertionError(f"timed out after {timeout:.0f}s waiting for {what}")


def stats_line(output, prefix="backend stats:"):
    """The one ``backend stats:`` / ``service stats:`` line of a CLI run."""
    (line,) = [line for line in output.splitlines() if line.startswith(prefix)]
    return line


def trace_events(fleet, name):
    """``repro trace validate`` a trace; its events' attrs, by event name."""
    fleet.cli("trace", "validate", name)
    events = defaultdict(list)
    for record in read_trace(fleet.dir / name):
        if record["type"] == "event":
            events[record["name"]].append(record["attrs"])
    return events


class Fleet:
    """Every process one test starts, in one scratch directory.

    Foreground commands go through :meth:`cli`; daemons, pools and
    sweeps-to-be-killed through :meth:`spawn`, which logs to
    ``<name>.log`` and is torn down (SIGTERM, then the whole process
    group) when the test ends.  Nothing binds a fixed port.
    """

    def __init__(self, directory):
        self.dir = directory
        self.processes = {}

    def cli(self, *args):
        """Run ``repro <args>`` to completion; exit 0 or the test fails."""
        done = subprocess.run(
            [*CLI, *map(str, args)],
            cwd=self.dir, env=ENV, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, (
            f"repro {' '.join(map(str, args))} exited {done.returncode}\n"
            f"{done.stdout}\n{done.stderr}"
        )
        return done

    def sweep(self, action, scenario, store, *args):
        return self.cli("sweep", action, scenario, "--store", store, *args)

    def spawn(self, name, *args):
        with open(self.dir / f"{name}.log", "w") as log:
            process = subprocess.Popen(
                [*CLI, *map(str, args)],
                cwd=self.dir, env=ENV, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        self.processes[name] = process
        return process

    def log(self, name):
        return (self.dir / f"{name}.log").read_text()

    def await_log(self, name, pattern, timeout=30.0):
        """Wait for ``pattern`` in ``<name>.log``; the ``re.Match``."""
        return wait_until(
            lambda: re.search(pattern, self.log(name)),
            timeout,
            f"{pattern!r} in {name}.log",
        )

    def worker(self, name, *args):
        """``repro worker serve`` on an ephemeral port; its address."""
        self.spawn(name, "worker", "serve", "--bind", "127.0.0.1:0", *args)
        return self.await_log(name, r"listening on (\S+)").group(1)

    def pool(self, name, workers, fault, *args):
        """``repro worker pool`` with a scripted ``FaultPlan``; returns the
        ``--workers @FILE`` argument naming its addresses file."""
        addresses = self.dir / f"{name}.addr"
        self.spawn(
            name, "worker", "pool", "--workers", workers, "--fault", fault,
            "--addresses-file", addresses, *args,
        )
        wait_until(
            lambda: addresses.exists() and addresses.stat().st_size,
            what=addresses.name,
        )
        return f"@{addresses}"

    def daemon(self, name, store, *args):
        """``repro serve`` on an ephemeral port; its address."""
        self.spawn(name, "serve", "--bind", "127.0.0.1:0", "--store", store, *args)
        return self.await_log(name, r"service ready: (\S+)").group(1)

    @staticmethod
    def free_port():
        """A port nothing holds right now (for ``--announce-bind``, which
        the replacement worker must know before the driver exists)."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            return probe.getsockname()[1]

    def stop(self):
        for process in self.processes.values():
            if process.poll() is None:
                process.terminate()
        for name, process in self.processes.items():
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
            try:
                os.killpg(process.pid, signal.SIGKILL)  # stragglers, if any
            except ProcessLookupError:
                pass
            process.wait()
            print(f"----- {name}.log -----\n{self.log(name)}")


@pytest.fixture
def fleet(tmp_path):
    fleet = Fleet(tmp_path)
    try:
        yield fleet
    finally:
        fleet.stop()


@pytest.fixture
def serial_store(fleet):
    """The reference every chaos run is compared with: an uninterrupted
    serial smoke sweep at the chaos runs' batch size."""
    fleet.sweep("run", "smoke", "store-serial", "--backend", "serial", *BATCHED)
    return fleet.dir / "store-serial"
