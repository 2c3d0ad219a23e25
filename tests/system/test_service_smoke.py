"""The concurrent-sweep contract, against a real daemon: two overlapping
``smoke`` submissions through ``repro serve`` both finish, every shared
point is computed exactly once (the second job adopts the first's
records), the store is byte-identical to a plain serial sweep, and
SIGTERM drains the daemon, which prints its final counters."""

from conftest import assert_same_store, stats_line


def test_service_smoke(fleet):
    fleet.sweep("run", "smoke", "store-serial", "--backend", "serial")
    address = fleet.daemon("serve", "store-service", "--jobs", 2)
    jobs = [
        fleet.spawn(name, "jobs", "submit", "smoke", "--at", address, "--watch")
        for name in ("job1", "job2")
    ]
    for job in jobs:
        assert job.wait(timeout=120) == 0

    status = fleet.cli("jobs", "status", "--at", address)
    stats = stats_line(status.stdout, "service stats:")
    for counter in ("points_computed=2", "dedup_hits=2", "jobs_completed=2"):
        assert counter in stats, stats
    records = assert_same_store(
        fleet.dir / "store-serial", fleet.dir / "store-service", "smoke"
    )
    assert len(records) == 2

    daemon = fleet.processes["serve"]
    daemon.terminate()
    assert daemon.wait(timeout=30) == 0
    (drained,) = [
        line for line in fleet.log("serve").splitlines()
        if line.startswith("repro sweep service: drained")
    ]
    assert "jobs_completed=2" in drained
