"""The elastic-membership contract, against real processes: a worker
joins a running sweep through ``worker serve --announce``, a respawned
pool worker joins through the watched addresses file, and a worker
wedged mid-span is drained out of a watched hosts file — in each, no
resume, a store byte-identical to serial, and the membership change
visible in ``backend stats:`` (and the trace: an elastic run that
silently degenerates to the static path proves nothing)."""

import os
import time

from conftest import CARVED, assert_same_store, stats_line, trace_events


def test_chaos_elastic_kill_and_join(fleet, serial_store):
    # The victim (worker 1) stays fast so it wins spans until its scripted
    # death; worker 0's 0.2 s/span keeps the sweep alive long enough for
    # the replacement to join and serve.
    workers = fleet.pool("pool", 2, "0:slow@0:0.2,1:kill@2")
    # The replacement starts BEFORE the sweep: its announce loop retries
    # until the driver's registry exists — the realistic race.
    registry = f"127.0.0.1:{fleet.free_port()}"
    fleet.worker("replacement", "--announce", registry)
    chaos = fleet.sweep(
        "run", "smoke", "store-chaos", "--backend", "distributed",
        "--workers", workers, *CARVED,
        "--announce-bind", registry, "--trace", "chaos-trace.jsonl",
    )
    assert len(assert_same_store(serial_store, fleet.dir / "store-chaos", "smoke")) == 2
    fleet.await_log("pool", "worker 1 exited", timeout=10)
    fleet.await_log("replacement", "repro worker announced", timeout=10)
    assert "workers_joined=1" in stats_line(chaos.stdout)
    # The trace tells the same fault story as the stats.
    events = trace_events(fleet, "chaos-trace.jsonl")
    assert events["worker_failure"] and events["requeue"], events.keys()
    assert len(events["join"]) == 1, events["join"]


def test_chaos_elastic_respawn(fleet, serial_store):
    # The same kill as above, but the pool relaunches the victim on a new
    # port and rewrites its addresses file; the watching sweep reads that
    # as the dead address leaving and the replacement joining.
    workers = fleet.pool("pool", 2, "0:slow@0:0.2,1:kill@2", "--respawn", "1")
    chaos = fleet.sweep(
        "run", "smoke", "store-respawn", "--backend", "distributed",
        "--workers", workers, "--watch-workers", *CARVED,
    )
    fleet.await_log("pool", "respawned", timeout=10)
    stats = stats_line(chaos.stdout)
    assert "workers_joined=1" in stats and "workers_left=1" in stats, stats
    assert len(assert_same_store(serial_store, fleet.dir / "store-respawn", "smoke")) == 2


def test_chaos_elastic_wedged_worker_drained(fleet, serial_store):
    # Worker 1 serves its first span at full speed (so it is admitted and
    # pulling work), then stalls 60 s on every later span: the sweep can
    # only finish fast if draining it hands that span back.
    workers = fleet.pool("pool", 2, "0:slow@0:0.05,1:slow@1:60")
    addresses = fleet.dir / "pool.addr"
    began = time.monotonic()
    sweep = fleet.spawn(
        "drain", "sweep", "run", "smoke", "--store", "store-drain",
        "--backend", "distributed", "--workers", workers, "--watch-workers",
        *CARVED, "--trace", "drain-trace.jsonl",
    )
    time.sleep(3)
    # Retire worker 1 (second line) while it is 3 s into a 60 s span.
    retained = fleet.dir / "pool.addr.new"
    retained.write_text(addresses.read_text().splitlines()[0] + "\n")
    os.replace(retained, addresses)
    assert sweep.wait(timeout=60) == 0, fleet.log("drain")
    # Well under the 60 s stall: the drain did not wait the span out.
    assert time.monotonic() - began < 30
    stats = stats_line(fleet.log("drain"))
    assert "spans_cancelled=1" in stats and "workers_left=1" in stats, stats
    assert len(assert_same_store(serial_store, fleet.dir / "store-drain", "smoke")) == 2
    events = trace_events(fleet, "drain-trace.jsonl")
    assert len(events["leave"]) == 1, events["leave"]
    assert events["cancel"], events.keys()
