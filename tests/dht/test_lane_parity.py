"""Golden parity for the deterministic Kademlia lane.

The lane has no randomness the seed does not fix, so a rewrite of its
data structures must reproduce the committed pins exactly: same RPCs, same
trace text, same routing tables in the same LRS order.  The golden and the
functions that compute it live in ``golden/regen.py``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

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


def test_full_join_tables_and_find_value_match_golden():
    pin = regen.full_join()
    assert pin["hit"]["value"] == b"payload".hex()
    assert pin["miss"]["value"] is None
    assert pin == GOLDEN["full_join"]


def test_lookups_through_dead_nodes_match_golden():
    pin = regen.churned()
    assert any(lookup["failure_count"] for lookup in pin["lookups"])
    assert pin == GOLDEN["churned"]
