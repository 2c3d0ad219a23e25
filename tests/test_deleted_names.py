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
    # Shamir sharing has one codec: the GF(256) table codec at every size.
    # No size crossovers, no matrix API, no prime-field twin, and none of
    # the field helpers only tests called.
    r"\b_BATCH_SPLIT_MIN_WORK\b",
    r"\b_BATCH_COMBINE_MIN_WORK\b",
    r"\b_combine_used_scalar\b",
    r"\b_lagrange_weights_at_zero\b",
    r"\bShareMatrix\b",
    r"\bsplit_bytes\b",
    r"\bcombine_bytes\b",
    r"\bprimefield\b",
    r"\bPrimeField\b",
    r"\bDEFAULT_PRIME\b",
    r"\bIntegerShare\b",
    r"\bsplit_integer_secret\b",
    r"\bcombine_integer_shares\b",
    r"\bshares_by_index\b",
    r"\bgf256\.(add|subtract|inverse|power)\b",
    r"\binterpolate_at_zero\b",
    r"\bmultiply_many\b",
    r"\bgf256_numpy\.(multiply|EXP|LOG|lagrange_weights_at_zero)\b",
    r"\bderive_subkeys\b",
    # Helpers only their own unit tests called.
    r"\bbinomial_tail_at_least\b",
    r"\bholding_period_death_probability\b",
    r"\bexpected_deaths\b",
    r"\bavailability_from_uptime\b",
    r"\bsimulate_multipath_availability\b",
    r"\bsimulate_key_share_availability\b",
    r"\bmark_overlay\b",
    r"\blayer_count\b",
    r"\bcheck_type\b",
    r"\bcheck_fraction\b",
    r"\boptional_source\b",
    r"\bspawn_sources\b",
    r"\bchunk_bytes\b",
    r"\bbytes_to_int\b",
    # Fig. 7, Fig. 8 and the static availability lane are closed forms: no
    # sampler, no batch unit (the samplers live on as tests/churn_samplers.py).
    r"experiments\.churn_resilience",
    r"\b(Centralized|Multipath|KeyShare)ChurnBatch\b",
    r"\b(Multipath|KeyShare)AvailabilityBatch\b",
    r"\bsimulate_(centralized|multipath|key_share)\w*",
    r"\boutcome_from_counts\b",
    # A journal's state is read one way, from disk (``load``/``status``).
    r"\bmidflight_keys\b",
    r"\bcommitted_keys\b",
    # Fig. 6 has one Monte-Carlo lane, held to the exact finite-N form
    # (``core.analysis.finite_resilience``): no per-trial scalar lane, no
    # lane knob on the attack kinds, and no key-share scheme object whose
    # attack evaluator nothing called.
    r"\bAttackTrial\b",
    r"\bvectorized_batch_size\b",
    r"\bDEFAULT_VECTORIZED_BATCH\b",
    r"\bKeyShareScheme\b",
    # The epoch kinds have one Monte-Carlo lane each: the scalar walker is
    # the tests' oracle (tests/epoch_oracle.py), not a lane a sweep can pin.
    r"epoch-scalar",
    r"\b(EPOCH|AVAILABILITY|TIMELINESS)_KERNELS\b",
    r"\bsimulate_column_epoch_deaths\b",
    r"repro\.epoch\.oracle",
    r"repro\.churn\.replication",
    # A kind is one model: the epoch simulator runs as the epoch_availability
    # and epoch_timeliness kinds, so no kind has lanes and nothing pins one.
    r"\bKERNEL_LANES\b",
    r"\bcheck_kernel\b",
    r"\bwith_kernel\b",
    r"--kernel\b",
    # src/ keeps only what the program runs: the static attack rules are
    # stated once (core.analysis.evaluate_multipath_masks), the overlay
    # keeps no values (FIND_NODE, PING and DELIVER only), and definitions
    # only tests called are gone.
    r"\bReleaseAheadAttack\b",
    r"\bDropAttack\b",
    r"\bReleaseAheadResult\b",
    r"\bDropResult\b",
    r"adversary\.release_ahead\b",
    r"adversary\.drop\b",
    r"adversary/(release_ahead|drop)\.py",
    r"\bValueStore\b",
    r"\bStorageEntry\b",
    r"dht\.storage\b",
    r"dht/storage\.py",
    r"\bstore_value\b",
    r"\biterative_find_value\b",
    r"\bfind_value\b",
    r"\bFindValue\b",
    r"\bFoundValue\b",
    r"\bStoreAck\b",
    r"\bStore\(",
    r"\bwipe_storage\b",
    r"\bdelivered_payloads\b",
    r"\bfound_value\b",
    r"crypto\.kdf\b",
    r"crypto/kdf\.py",
    r"\bderive_key\b",
    r"\bbinomial_pmf\b",
    r"\bstats\.mean\b",
    r"\bsample_malicious_grids\b",
    r"\bhonest_fraction_of\b",
    r"\bmalicious_ids\b",
    r"\b_is_decided\b",
    r"\b_decided_index_prefix\b",
    r"\.decide\(",
    r"\bearliest_full_compromise_time\b",
    r"\bbuild_share_lattice\b",
    r"\bposition_of\b",
    r"\blemma1_holds\b",
    r"\brequired_nodes\b",
    r"\blemma1_gap\b",
    r"\.satisfies\(",
    r"\bresilience_pair\b",
    r"\blattice_thresholds\b",
    r"\bcolumn_at\b",
    r"\barrival_time\b",
    r"\bis_terminal\b",
    r"\ball_received\b",
    r"\b(write|read)_(u64|str)\b",
    r"\bread_rest\b",
    r"\bnumpy_generator\b",
    r"\bgrant_access\b",
    r"\bpending_count\b",
    r"\balive_at\b",
    r"\b(to|from)_hex\b",
    r"\bbuild_grid_on_overlay\b",
    r"\.shuffled\(",
    r"\.balanced\b",
    r"\.node_count\b",
    r"\.columns\(\)",
    r"\.threshold\(",
)

#: Gone from ``src/`` only: the id-list distance helpers and the per-id
#: bucket index, with no caller once a FIND_NODE was answered in integer
#: space (the tests keep their own copies as oracles).  Never in ``src/``:
#: the private ``Random._randbelow``; draws go through ``RandomSource.below``
#: and the public ``getrandbits``.  Gone from ``src/`` too: the attack
#: kinds' lane table (the perf ledger keeps a ``KERNELS`` of its own).
DELETED_FROM_SRC = (
    r"\bsort_by_distance\b",
    r"\bdef closest\b|import[^#]*\bclosest\b",
    r"\bbucket_index_for\b",
    r"\b_randbelow\b",
    r"\bKERNELS\b",
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


def test_no_name_deleted_from_src_is_back():
    pattern = re.compile("|".join(DELETED_FROM_SRC))
    hits = [
        f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]
    assert not hits, "a name deleted from src is back:\n" + "\n".join(hits)


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


@pytest.mark.parametrize(
    "command",
    [
        ["sweep", "run", "epoch-smoke"],
        ["sweep", "resume", "epoch-smoke"],
        ["jobs", "submit", "epoch-smoke"],
    ],
)
def test_no_command_takes_a_kernel_flag(command):
    with pytest.raises(SystemExit) as info:
        main([*command, "--kernel", "epoch"])
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
