"""Deleted names stay deleted.

Every pattern below is a name a simplification PR removed for good: a
second way to do something the code now does one way.  None may come back
in the code, the examples, the workflow, ``README.md`` or the pytest and
git configuration — as code, as an alias, or as documentation of something
that no longer exists.  This file is not searched, so the patterns cannot
match themselves; nor is the perf ledger's README, which only a benchmark
change may edit and which still tells the deleted suite's history.
"""

import re
from pathlib import Path

import pytest

from repro.cli import main

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = (
    "src",
    "tests",
    "benchmarks",
    "examples",
    ".github",
    "README.md",
    "pytest.ini",
    ".gitignore",
)
NOT_SEARCHED = {Path(__file__).resolve(), ROOT / "benchmarks" / "ledger" / "README.md"}

DELETED = (
    # One figure pipeline: the loop drivers, their pivots, the autotune disk
    # half, the journal/tolerance/generation knobs, the adaptive sweep.
    r"adaptive_resilience_sweep",
    r"run_attack_resilience",
    r"run_churn_resilience",
    r"run_share_cost",
    r"run_availability_sweep",
    r"measure_timeliness",
    r"series_by_scheme",
    r"series_by_budget",
    r"record_observed_rates",
    r"load_bench_rates",
    r"keep_latest",
    r"--no-journal",
    r"args\.no_journal",
    r"tolerance_fn",
    # One lane per layer: the pool's shared-memory lane and its name, the
    # orchestrator's and daemon's own claim loops, dead probes and stubs.
    r"shm-pool",
    r"shm_buffers_created",
    r"supports_shared_memory",
    r"shared_memory_available",
    r"_claim_or_follow",
    r"MaintenanceScheduler",
    r"batch_codec_available",
    r"comparison_rows",
    r"--submit",
    # One span path per layer: the per-kind span methods (the task owns its
    # kind), the registry's semantic options, the capability flags.
    r"run_counts",
    r"run_batches",
    r"run_collect\b",
    r"_RUN_MODES",
    r"_RANGE_FNS",
    r"_summed_counts",
    r"semantic_option",
    r"cache_fields",
    r"CAPABILITY_FLAGS",
    r"supports_remote",
    r"supports_fault_tolerance",
    r"supports_elastic_membership",
    r"supports_cancellation",
    r"span_timeout",
    # One event model: the simulator's own trace recorder.
    r"TraceRecorder",
    r"TraceEvent",
    r"sim\.trace",
    r"format_timeline",
    # A scenario kind is one function: the typed per-point units and their
    # result types (PR 23).
    r"attack_resilience_point",
    r"churn_resilience_point",
    r"share_cost_point",
    r"availability_point",
    r"timeliness_point",
    r"AttackResiliencePoint",
    r"\bChurnPoint\b",
    r"CostPoint",
    r"AvailabilityPoint",
    r"TimelinessResult",
    r"experiments\.cost",
    # The distributed backend takes only what an operator can set: one
    # respawn path (`worker pool --respawn`), local pools only, worker
    # telemetry in `metrics` only, autotune targets for its two callers.
    r"pool_respawns",
    r"pool_faults",
    r"from_hosts_file",
    r"last_worker_stats",
    r"workers_respawned",
    r"FALLBACK_TARGET_SECONDS",
    r"--hosts-file",
    # One ruler: the pytest-benchmark suite, its knobs and its record
    # writer; the speed-up gates are tests/system/test_perf_smoke.py.
    r"REPRO_BENCH_\w+",
    r"record_bench",
    r"bench_sweep",
    r"benchmarks/bench_",
    r"pytest-benchmark",
    # Tasks as data: one codec crosses every process boundary, no second
    # way to ship a task and no silent in-process fallback.
    r"_pool_trials",
    r"worker_import_path",
    r"falls back to exact in-process",
    # A FIND_NODE is answered in integer space: the table leaves the sender
    # out itself, and no dict of the table is built per answer.
    r"_closest_excluding",
    r"\bby_distance\b",
)

#: ...and nothing under ``src/repro/`` pickles or unpickles: a task or a
#: span result leaves a process only through ``wire.encode_blob``.
PICKLE_IN_SRC = re.compile(r"pickl|marshal|b64decode|\bdill\b", re.IGNORECASE)


def _searched_files():
    for name in SEARCHED:
        path = ROOT / name
        candidates = [path] if path.is_file() else sorted(path.rglob("*"))
        for candidate in candidates:
            if (
                candidate.is_file()
                and "__pycache__" not in candidate.parts
                and candidate not in NOT_SEARCHED
            ):
                yield candidate


def test_no_deleted_name_is_back():
    pattern = re.compile("|".join(DELETED))
    hits = []
    for path in _searched_files():
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            continue  # not source or documentation
        for number, line in enumerate(text.splitlines(), start=1):
            if pattern.search(line):
                hits.append(f"{path.relative_to(ROOT)}:{number}: {line.strip()}")
    assert not hits, "a deleted name is back:\n" + "\n".join(hits)


def test_nothing_in_the_package_pickles():
    hits = [
        f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if PICKLE_IN_SRC.search(line)
    ]
    assert not hits, "a second way to ship a task is back:\n" + "\n".join(hits)


def test_the_search_reaches_every_tree():
    searched = {path.relative_to(ROOT).parts[0] for path in _searched_files()}
    assert searched == set(SEARCHED)


def test_figures_command_does_not_exist():
    with pytest.raises(SystemExit) as info:
        main(["figures"])
    assert info.value.code != 0


def test_the_workflow_names_the_guards_and_holds_none():
    """The guards live in ``tests/system/`` where anyone can run them; the
    workflow lists ``pytest`` lines.  No inline store comparison, no python
    heredoc, one dependency-install block (the composite action)."""
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert "read_bytes" not in workflow
    assert not re.search(r"<<-?\s*['\"]?\w", workflow), "a heredoc is back"
    assert len(workflow.splitlines()) < 250
    installs = [
        path
        for path in sorted((ROOT / ".github").rglob("*.yml"))
        for line in path.read_text().splitlines()
        if "pip install" in line and "--upgrade pip" not in line
    ]
    assert installs == [ROOT / ".github" / "actions" / "setup" / "action.yml"]
