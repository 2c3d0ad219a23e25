#!/usr/bin/env python3
"""Record-checksum pins for every scenario kind
(``tests/experiments/test_record_parity.py``).

    PYTHONPATH=src python3 tests/experiments/golden/regen.py [SCENARIO ...]

rewrites ``record_parity.json`` beside this file from whatever ``repro``
is on the path — every entry, or only the named scenarios' entries.  The committed golden was generated on the commit *before*
PR 16 replaced the double ``argsort`` in ``place_malicious_counts`` with a
threshold on the count-th smallest key and moved the adaptive game onto
``mark_index_population``, so it states what "same draws, same store
bytes" means for the vectorised Fig. 6 lane and ``adversary/adaptive.py``.
The other entries (one sweep per remaining kind and lane, at small
trials) were generated on the commit before PR 23 folded the ``*_point``
layer into the scenario runners.  The fig7, fig8 and availability entries
were regenerated when those kinds became closed forms (their records hold
exact values and ``trials_run`` 0; the keys did not move).  The fig6a,
fig6c, sensitivity-grid and smoke entries were regenerated when the attack
kinds lost their ``kernel`` parameter: the param and the content key left
each record, and every ``result`` block stayed byte for byte.  The
epoch-smoke and timeliness-1e6 entries were regenerated when the epoch lane
of the availability and timeliness kinds became the epoch_availability and
epoch_timeliness kinds: ``kind``, params and content keys moved, the
constant ``kernel``/``max_latency``/``early_releases`` fields left each
``result``, timeliness-1e6 kept only its three joint points, and every
measured count stayed the same.  Only rerun it in a PR that says why a
record's bytes changed.

Each pin is the store checksum of one point record (SHA-256 over its
canonical JSON: point, params, seed, trials, result), keyed by the point's
content key, at the scenario's registry seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict

from repro import api

GOLDEN = Path(__file__).with_name("record_parity.json")
#: scenario -> trials per point.
SWEEPS = {
    "fig6a": 1000,
    "fig6c": 200,
    "adaptive-observation": 100,
    "fig7": 40,
    "fig8": 40,
    "availability": 40,  # closed form
    "epoch-smoke": 40,  # epoch_availability
    "timeliness": 4,  # event loop: trials are protocol runs
    "timeliness-1e6": 8,  # epoch_timeliness
    "sensitivity-grid": 40,
    "smoke": 40,
}


def checksums(scenario: str) -> Dict[str, str]:
    report = api.run_scenario(scenario, trials=SWEEPS[scenario])
    return {record["key"]: record["checksum"] for record in report.records}


def compute(scenarios=SWEEPS) -> Dict[str, Dict[str, str]]:
    return {scenario: checksums(scenario) for scenario in scenarios}


if __name__ == "__main__":
    golden = {}
    if sys.argv[1:]:
        with open(GOLDEN, "r", encoding="utf-8") as handle:
            golden = json.load(handle)
    golden.update(compute(sys.argv[1:] or SWEEPS))
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN}")
