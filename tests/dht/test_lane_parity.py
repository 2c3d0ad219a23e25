"""Golden parity for the deterministic Kademlia lane.

The lane has no randomness the seed does not fix, so a rewrite of its
data structures must reproduce the committed pins exactly: same RPCs, same
trace text, same routing tables in the same LRS order.  The golden and the
functions that compute it live in ``golden/regen.py``.

The trace is a side channel here as in the sweep stack: the pins hold with
the overlay untraced, traced, or traced to a sink that fails mid-run.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.obs import JsonlSink, ListSink, read_trace, summarize_trace

GOLDEN_DIR = Path(__file__).with_name("golden")

_spec = importlib.util.spec_from_file_location("lane_parity_regen", GOLDEN_DIR / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

with open(regen.GOLDEN, "r", encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)


@pytest.mark.parametrize("scheme", regen.SCHEMES)
@pytest.mark.parametrize("seed", regen.SEEDS)
def test_traced_release_matches_golden(scheme, seed):
    assert regen.release(scheme, seed) == GOLDEN["releases"][f"{scheme}-{seed}"]


def test_golden_covers_exactly_the_release_grid():
    assert set(GOLDEN["releases"]) == {
        f"{scheme}-{seed}" for scheme in regen.SCHEMES for seed in regen.SEEDS
    }


def test_full_join_tables_match_golden():
    assert regen.full_join() == GOLDEN["full_join"]


def test_lookups_through_dead_nodes_match_golden():
    pin = regen.churned()
    assert any(lookup["failure_count"] for lookup in pin["lookups"])
    assert pin == GOLDEN["churned"]


class FailsOnThirdRecord(ListSink):
    def emit(self, record):
        if len(self.records) == 2:
            raise OSError("disk full")
        super().emit(record)


@pytest.mark.parametrize("scheme", regen.SCHEMES)
def test_release_is_the_same_untraced_traced_or_with_a_broken_sink(scheme):
    seed = regen.SEEDS[0]
    golden = GOLDEN["releases"][f"{scheme}-{seed}"]
    pinned = ("rpc_count", "processed_count", "arrival", "tables")
    expected = {key: golden[key] for key in pinned}
    assert regen.run_release(scheme, seed)[1] == expected
    assert regen.run_release(scheme, seed, ListSink())[1] == expected
    broken = FailsOnThirdRecord()
    with pytest.warns(RuntimeWarning, match="trace sink failed") as caught:
        _, pin = regen.run_release(scheme, seed, broken)
    assert pin == expected
    assert len(caught) == 1 and len(broken.records) == 2


def test_release_traced_to_jsonl_reads_with_the_sweep_tools(tmp_path):
    """One event model: ``read_trace`` (which validates every line) and
    ``summarize_trace`` read a protocol run, in the loop's virtual seconds."""
    path = tmp_path / "release.jsonl"
    with JsonlSink(path) as sink:
        overlay, _ = regen.run_release("share", regen.SEEDS[0], sink)
    events = read_trace(path)[1:]  # after the meta line
    assert len(events) == GOLDEN["releases"][f"share-{regen.SEEDS[0]}"]["events"]
    times = [event["t"] for event in events]
    assert times == sorted(times)
    # Virtual seconds, not wall: the last delivery is the release itself, and
    # run_release stops the loop 60 s after it.
    release_time = 100.0 * regen.PATH_LENGTH
    assert times[0] >= 0.0 and release_time <= times[-1] <= release_time + 60.0
    assert times[-1] == overlay.loop.clock.now
    summary = summarize_trace(path)
    assert summary.event_counts["rpc"] == overlay.network.rpc_count > 0
