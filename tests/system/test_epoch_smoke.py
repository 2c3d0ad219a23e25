"""The epoch simulator end to end: one capped 10^5-node availability
point through the sweep runner, and a resume proving the store caches it.
(The lane-equivalence property is tier-1, ``tests/epoch``; the speed-up
gate is ``test_perf_smoke.py``.)"""


def test_epoch_smoke(fleet):
    fleet.sweep("run", "epoch-smoke", "epoch-store")
    resumed = fleet.sweep("resume", "epoch-smoke", "epoch-store")
    assert "0 computed" in resumed.stdout
