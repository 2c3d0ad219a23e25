"""Golden record parity for every scenario kind and Monte-Carlo lane.

Every lane is seed-deterministic, so a rewrite of the work *around* its
random draws must reproduce the committed record checksums exactly.  The
golden and the function that computes it live in ``golden/regen.py``; each
entry was generated on the commit before the rewrite it guards.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).with_name("golden")

_spec = importlib.util.spec_from_file_location(
    "record_parity_regen", GOLDEN_DIR / "regen.py"
)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

with open(regen.GOLDEN, "r", encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)


def test_golden_covers_exactly_the_pinned_sweeps():
    assert set(GOLDEN) == set(regen.SWEEPS)
    assert len(GOLDEN["fig6a"]) == 33  # 3 schemes x 11 rates


@pytest.mark.parametrize("scenario", sorted(regen.SWEEPS))
def test_record_checksums_match_golden(scenario):
    assert regen.checksums(scenario) == GOLDEN[scenario]
