"""The fault-tolerance contract, against real processes: a 3-worker pool
with a scripted mid-sweep kill must finish ``sweep run`` with no resume
and a store byte-identical to the serial backend's."""

from conftest import CARVED, assert_same_store


def test_chaos_killed_worker(fleet, serial_store):
    # Workers 0 and 2 are slightly slowed so the fast victim keeps winning
    # the pull-queue race until its 3rd span; without that, eager survivors
    # can drain the small queue before the kill triggers (the same trick as
    # _SLIGHTLY_SLOW in tests/backends/test_faults.py).
    workers = fleet.pool("pool", 3, "0:slow@0:0.02,1:kill@2,2:slow@0:0.02")
    fleet.sweep(
        "run", "smoke", "store-chaos", "--backend", "distributed",
        "--workers", workers, *CARVED,
    )
    assert len(assert_same_store(serial_store, fleet.dir / "store-chaos", "smoke")) == 2
    # Parity alone passes trivially if the fault never fired; the pool
    # announces each worker death, so demand worker 1's.
    fleet.await_log("pool", "worker 1 exited", timeout=10)
