"""The crash-safety contract, against a real SIGKILL: the *driver* dies
mid-sweep, ``sweep verify`` finds the store clean, the journal names the
mid-flight point and ``sweep resume`` finishes byte-identical to an
uninterrupted run.  And the degradation ladder: the whole fleet collapses
under a sweep and ``--fallback local`` finishes it anyway, visibly."""

import signal

from conftest import CARVED, assert_same_store, stats_line, trace_events, wait_until


def test_chaos_driver_sigkill_then_resume(fleet, serial_store):
    # 0.2 s/span × 10 spans/point gives the kill a ~2 s window inside the
    # second point — wide enough to land deterministically.
    worker = fleet.worker("slow-worker", "--fault", "slow@0:0.2")
    distributed = ("--backend", "distributed", "--workers", worker, *CARVED)
    driver = fleet.spawn(
        "crash", "sweep", "run", "smoke", "--store", "store-crash", *distributed
    )
    committed = fleet.dir / "store-crash" / "smoke"
    wait_until(lambda: list(committed.glob("*.json")), 60, "the first committed point")
    driver.send_signal(signal.SIGKILL)
    driver.wait()
    # The kill must land mid-sweep — a completed sweep proves nothing.
    assert len(list(committed.glob("*.json"))) == 1

    verified = fleet.sweep("verify", "smoke", "store-crash")
    assert "store is clean" in verified.stdout
    resumed = fleet.sweep("resume", "smoke", "store-crash", *distributed).stdout
    assert "journal: sweep running" in resumed
    assert "1 mid-flight" in resumed
    assert "1 computed, 1 cached" in resumed
    assert len(assert_same_store(serial_store, fleet.dir / "store-crash", "smoke")) == 2


def test_chaos_driver_fleet_collapse_falls_back(fleet, serial_store):
    # Every worker dies after one span.
    workers = fleet.pool("doomed", 2, "0:kill@1,1:kill@1")
    collapse = fleet.sweep(
        "run", "smoke", "store-collapse", "--backend", "distributed",
        "--workers", workers, *CARVED,
        "--fallback", "local", "--trace", "collapse-trace.jsonl",
    )
    assert "degraded=1" in stats_line(collapse.stdout)
    collapsed = fleet.dir / "store-collapse"
    assert len(assert_same_store(serial_store, collapsed, "smoke")) == 2
    (degraded,) = trace_events(fleet, "collapse-trace.jsonl")["degraded"]
    assert degraded["reason"] == "no_workers_left", degraded
    assert degraded["to_backend"] == "local", degraded
