"""Tasks as data: every unit class round-trips through the one codec.

``repro.backends.wire.encode_blob``/``decode_blob`` are the only way a
task or a span result leaves a process.  Two guards keep that honest:
every entry of the unit table survives a round trip with the same text
and the same counts, and the units the built-in scenarios build are the
table exactly — so a new kind that ships an unregistered unit fails here,
not in a sweep on the process pool, and so does an entry no kind builds.
"""

import json

import pytest

from repro.api import run_scenario
from repro.backends.wire import UNITS, decode_blob, encode_blob
from repro.core.schemes import NodeDisjointScheme, NodeJointScheme
from repro.epoch.measure import EpochAvailabilityBatch, EpochTimelinessBatch
from repro.experiments.attack_kernels import CentralAttackBatch, MultipathAttackBatch
from repro.experiments.executors import SerialExecutor, TrialTask
from repro.experiments.timeliness import TimelinessTrial
from repro.scenarios.registry import builtin_scenarios
from repro.scenarios.runners import AdaptiveTrial

PRODUCTION_UNITS = {
    name for name, module in UNITS.items() if module.startswith("repro.")
}
EPOCH = (0.1, 0.9, 3, 4, 1000, 2.0)


def _counts(trial, channels=2):
    return TrialTask(seed=7, label="codec", channels=channels, trial=trial)


def _batches(batch, channels=2):
    return TrialTask(
        seed=7,
        label="codec",
        channels=channels,
        batch=batch,
        batch_size=10,
        total_trials=30,
    )


#: One task per unit; together they name every production entry of the
#: table (asserted below).  Each runs range units [0, 3).
TASKS = {
    "AdaptiveTrial-disjoint": _counts(
        AdaptiveTrial(NodeDisjointScheme(2, 3), 200, 0.1, 0.5, 4)
    ),
    "AdaptiveTrial-joint": _counts(
        AdaptiveTrial(NodeJointScheme(3, 4), 200, 0.1, 0.5, 4)
    ),
    "MultipathAttackBatch": _batches(MultipathAttackBatch(0.2, 1000, 3, 4, True)),
    "CentralAttackBatch": _batches(CentralAttackBatch(0.2, 1000)),
    "EpochAvailabilityBatch": _batches(EpochAvailabilityBatch(*EPOCH)),
    "EpochTimelinessBatch": _batches(EpochTimelinessBatch(*EPOCH), channels=9),
    "TimelinessTrial": TrialTask(
        seed=7, label="codec", indexed_trial=TimelinessTrial("joint", 0.05, 7, 3)
    ),
}


def unit_names(data):
    """Every unit name in decoded codec JSON."""
    if isinstance(data, list):
        return set().union(*map(unit_names, data))
    if isinstance(data, dict):
        return {data["unit"]}.union(*map(unit_names, data["fields"].values()))
    return set()


@pytest.mark.parametrize("name", sorted(TASKS))
def test_a_decoded_unit_re_encodes_to_the_same_text_and_counts(name):
    task = TASKS[name]
    text = encode_blob(task)
    decoded = decode_blob(text)
    assert encode_blob(decoded) == text
    assert decoded.run_range(0, 3) == task.run_range(0, 3)


def test_the_round_trip_cases_cover_the_whole_table():
    named = set().union(
        *(unit_names(json.loads(encode_blob(task))) for task in TASKS.values())
    )
    assert named == PRODUCTION_UNITS


class RecordingBackend(SerialExecutor):
    """Encodes every task a runner builds, records its units, runs nothing."""

    def __init__(self):
        self.units = set()

    def start(self, task):
        self.units |= unit_names(json.loads(encode_blob(task)))

    def run(self, task, start, stop):
        if task.mode == "collect":
            return [None] * (stop - start)
        return task.merge(())


def test_every_unit_a_builtin_scenario_builds_is_registered():
    recorder = RecordingBackend()
    for name in sorted(builtin_scenarios()):
        run_scenario(name, trials=1, backend=recorder)
    assert recorder.units == PRODUCTION_UNITS
