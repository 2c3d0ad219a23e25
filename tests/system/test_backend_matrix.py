"""The determinism contract, executed: one sweep must leave identical
content-addressed keys and record bytes on every execution backend,
including a live localhost worker speaking the JSON/TCP span protocol.
Beside ``smoke``: the zero-trial cost panel, the small-population Fig. 6
panel, and the two Monte-Carlo lanes whose bytes a kernel rewrite could
move (a vectorised Fig. 6 panel and the scalar, index-marked adaptive
game).  Fig. 7, Fig. 8 and the availability kind are closed forms
that ship no unit, so no backend can move their bytes.
"""

import json

import pytest
from conftest import assert_same_store

SWEEPS = [
    ("smoke", []),
    ("fig6b", ["--trials", 20]),
    ("fig6c", ["--trials", 20]),
    ("fig6a", ["--trials", 200]),
    ("adaptive-observation", ["--trials", 50]),
]


@pytest.mark.parametrize("scenario, trials", SWEEPS, ids=[name for name, _ in SWEEPS])
def test_backend_matrix(fleet, scenario, trials):
    worker = fleet.worker("worker")
    fleet.sweep("run", scenario, "serial", *trials, "--backend", "serial")
    pool = fleet.sweep(
        "run", scenario, "pool", *trials, "--backend", "process-pool", "--jobs", 2
    )
    fleet.sweep(
        "run", scenario, "distributed", *trials,
        "--backend", "distributed", "--workers", worker,
    )
    # The pool must exit as quietly as it runs: nothing it leaves behind
    # may make the interpreter print a traceback on the way out.
    assert "Traceback" not in pool.stderr, pool.stderr
    records = assert_same_store(fleet.dir / "serial", fleet.dir / "pool", scenario)
    assert_same_store(fleet.dir / "serial", fleet.dir / "distributed", scenario)

    if scenario == "smoke":
        # What the store holds is what a resume serves: both points, whole.
        resumed = fleet.sweep("resume", "smoke", "pool")
        assert "0 computed, 2 cached, 0 new trials" in resumed.stdout
        assert len(records) == 2
        for record in map(json.loads, records.values()):
            assert record["scenario"] == "smoke"
            assert record["result"]["trials_run"] == record["trials"]
