"""A fixed quantum of work that says how fast the host is right now.

The ledger runs on shared boxes.  On the one it was built on the same
code runs up to twice as slow from one millisecond to the next, and a
third slower for minutes at a time (other tenants on the same cores).  A
slow spell outlasts a run, so neither more work per run nor medians
remove it.  So the workloads run this quantum between their operations,
and ``run.py`` divides each unit's times by how much slower than
:data:`NOMINAL_S` the quantum ran during that unit (README, "Host
noise").

The quantum is made of what the interpreter-bound part of the program is
made of — object churn, dict and sort traffic, the pure-Python JSON
encoder, sha256 — and calls nothing from the program, so a change to the
program cannot move it.  It must never change: every recorded number is
in its units.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from contextlib import contextmanager
from typing import Iterator, List

#: Seconds the quantum takes on the 2-core container the ledger was first
#: recorded on, in a quiet spell.  Only fixes the scale of the numbers.
NOMINAL_S = 0.0003


def quantum() -> float:
    """Run the quantum once; its wall in seconds."""
    started = time.perf_counter()
    objects = [(index, str(index), [index, index + 1]) for index in range(600)]
    by_name = {item[1]: item for item in objects}
    order = sorted(by_name, key=lambda name: by_name[name][0] * 7919 % 1013)
    text = json.dumps({"order": order[:150]}, sort_keys=True, indent=1)
    hashlib.sha256(text.encode("utf-8")).hexdigest()
    return time.perf_counter() - started


@contextmanager
def sampling(interval: float = 0.02) -> Iterator[List[float]]:
    """Run the quantum on a side thread every ``interval`` seconds while
    the body runs; yields the list its walls are appended to.

    For work that cannot run quanta between its own operations (imports,
    set-up).  A quantum is far shorter than the interpreter's switch
    interval, so it is never cut in two by the thread it samples beside,
    and it costs that thread under 2% of its time.
    """
    walls: List[float] = []
    done = threading.Event()

    def sample() -> None:
        while not done.wait(interval):
            walls.append(quantum())

    thread = threading.Thread(target=sample, daemon=True)
    thread.start()
    try:
        yield walls
    finally:
        done.set()
        thread.join()
        if not walls:  # the body was shorter than one interval
            walls.append(quantum())
