"""Self-test of the ledger: the checks catch what they claim to, and every
workload runs end to end at a tiny size.

    python -m pytest benchmarks/ledger/test_ledger.py -q

Not part of tier-1 (``testpaths`` stays ``tests``).  The workloads run
in-process with their plans shrunk to a few points and trials, so the whole
file takes well under a minute; the numbers it produces mean nothing.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import compare
import reference
import run
import spans

sys.path.insert(0, str(run.ROOT / "src"))

import probes  # noqa: E402 - needs the program on the path
import workloads  # noqa: E402

BENCH = run.load_benchmark()


# -- the checks ---------------------------------------------------------------


def test_release_failure_names_each_way_a_release_can_be_wrong():
    assert checks.release_failure(b"m", b"m", 300.02, 300.0) is None
    assert "never delivered" in checks.release_failure(b"m", None, None, 300.0)
    assert "early release" in checks.release_failure(b"m", b"m", 299.9, 300.0)
    assert "mismatch" in checks.release_failure(b"m", b"x", 300.1, 300.0)


def test_store_digest_covers_records_and_skips_coordination_state(tmp_path):
    (tmp_path / "fig7").mkdir()
    (tmp_path / "fig7" / "abc.json").write_text("{}")
    before = checks.store_digest(tmp_path)
    (tmp_path / ".journal").mkdir()
    (tmp_path / ".journal" / "fig7.json").write_text('{"owner": {"pid": 1}}')
    (tmp_path / "fig7" / "abc.claim").write_text("{}")
    assert checks.store_digest(tmp_path) == before
    (tmp_path / "fig7" / "abc.json").write_text("{ }")
    assert checks.store_digest(tmp_path) != before


class _Report:
    def __init__(self, name, points, computed, cached):
        self.points, self.computed, self.cached = points, computed, cached
        self.spec = argparse.Namespace(name=name, point_count=points)


def test_sweep_pass_check_wants_each_distinct_key_computed_exactly_once():
    keys = [["a", "b"], ["b", "c"]]  # "b" is shared: 3 distinct keys, 4 points
    good = checks.Tally()
    checks.check_sweep_pass(
        good, [_Report("x", 2, 2, 0), _Report("y", 2, 1, 1)], keys, 4, False, "t")
    assert good.correct and (good.attempted, good.failed) == (4, 0)
    wasted = checks.Tally()
    checks.check_sweep_pass(
        wasted, [_Report("x", 2, 2, 0), _Report("y", 2, 2, 0)], keys, 4, False, "t")
    assert not wasted.correct
    lost = checks.Tally()
    checks.check_sweep_pass(
        lost, [_Report("x", 2, 2, 0), _Report("y", 1, 0, 1)], keys, 3, False, "t")
    assert not lost.correct and lost.failed == 1 and lost.attempted == 4
    reread = checks.Tally()
    checks.check_sweep_pass(
        reread, [_Report("x", 2, 0, 2), _Report("y", 2, 1, 1)], keys, 4, True, "t")
    assert not reread.correct  # a reread pass must compute nothing


def test_service_round_check_catches_wasted_work_and_unfinished_jobs():
    def job(status="done", computed=2, cached=1):
        return {"job": "job-1", "status": status, "points": 3,
                "computed": computed, "cached": cached}

    good = checks.Tally()
    checks.check_service_round(good, [job(), job(computed=1, cached=2)], [3, 3], 3, "r")
    assert good.correct and good.attempted == 6
    wasted = checks.Tally()
    checks.check_service_round(wasted, [job(), job()], [3, 3], 3, "r")
    assert not wasted.correct and wasted.failed == 0
    failed = checks.Tally()
    checks.check_service_round(failed, [job("failed"), job(computed=1, cached=2)], [0, 3], None, "r")
    assert failed.failed == 3 and failed.attempted == 6


def test_digests_must_agree_between_passes():
    tally = checks.Tally()
    checks.check_digests_equal(tally, ["d1", "d1"], "w")
    assert tally.correct
    checks.check_digests_equal(tally, ["d1", "d2"], "w")
    assert not tally.correct


# -- spans --------------------------------------------------------------------


def test_self_time_is_duration_minus_the_union_of_children():
    log = spans.SpanLog()
    parent = log.add("parent", 0.0, 10.0)
    log.add("a", 1.0, 4.0, parent=parent)
    log.add("b", 3.0, 6.0, parent=parent)  # overlaps a: cover is 1..6
    log.add("c", 8.0, 12.0, parent=parent)  # clipped at the parent's end
    assert spans.self_times(log.spans)[parent] == pytest.approx(10.0 - 5.0 - 2.0)


def test_disabled_log_records_nothing():
    log = spans.SpanLog(enabled=False)
    with log.span("x"):
        pass
    assert log.spans == []


# -- the estimator ------------------------------------------------------------


def _unit(segments, samples, slowdown=1.0, traced=False):
    return workloads.Unit(
        ops=len(samples), segments_ms=segments, samples_ms=samples, traced=traced,
        gates=[slowdown * reference.NOMINAL_S] * 3,
    )


def test_times_are_scaled_by_the_units_slowdown_then_taken_at_the_median_repeat():
    units = [
        _unit([10.0, 30.0, 5.0], [10.0, 30.0]),
        _unit([20.0, 60.0, 10.0], [20.0, 60.0], slowdown=2.0),  # a slow spell: same work
        _unit([10.0, 90.0, 5.0], [10.0, 90.0]),  # the host disturbed the 2nd op only
        _unit([12.0, 21.0], [12.0]),  # failed half way: its positions do not line up
    ]
    assert run.slowdown(units[1].gates) == pytest.approx(2.0)
    assert run.typical(units, "samples_ms") == pytest.approx([10.0, 30.0])
    metrics, raw = run.end_to_end(units, setup_s=1.5)
    assert metrics["ops_per_s"][0] == pytest.approx(2 / 0.045)
    assert metrics["op_p50_ms"][0] == pytest.approx(20.0)
    assert metrics["op_p90_ms"][0] == pytest.approx(30.0)
    assert raw["op_p90_ms"] == pytest.approx(90.0)  # as measured, the noise stays in


def test_the_reference_quantum_is_timed_and_calls_nothing_from_the_program():
    assert 0.0 < reference.quantum() < 0.1
    source = Path(reference.__file__).read_text()
    assert "repro" not in source


# -- compare ------------------------------------------------------------------


def _runs(workload, values, failed=0):
    return [
        {
            "workload": workload, "seed": index, "trace": 0, "correct": not failed,
            "attempted": 100, "failed": failed, "reasons": [],
            "metrics": {
                entry["name"]: {"value": value if entry["name"] == "ops_per_s" else 1.0,
                                "unit": entry["unit"]}
                for entry in BENCH["end_to_end"]
            },
        }
        for index, value in enumerate(values)
    ]


def _verdict(rows, metric):
    return next(row["verdict"] for row in rows if row["metric"] == metric)


def test_compare_applies_the_bound_per_metric_and_workload():
    base = _runs("sweep-points", [100, 101, 99, 100])
    assert _verdict(compare.metric_rows(base, base, BENCH), "ops_per_s") == "unchanged"
    slower = _runs("sweep-points", [70, 71, 69, 70])  # 30% fewer ops/s, bound 25%
    rows = compare.metric_rows(base, slower, BENCH)
    assert _verdict(rows, "ops_per_s") == "regression"
    assert _verdict(rows, "op_p50_ms") == "unchanged"
    within = _runs("sweep-points", [85, 86, 84, 85])  # 15% fewer: inside the bound
    assert _verdict(compare.metric_rows(base, within, BENCH), "ops_per_s") == "unchanged"
    faster = _runs("sweep-points", [120, 121, 119, 120])
    assert _verdict(compare.metric_rows(base, faster, BENCH), "ops_per_s") == "better"


def test_compare_says_unresolved_when_a_side_spreads_wider_than_the_bound():
    noisy = _runs("sweep-points", [60, 100, 140, 100, 70, 130])
    base = _runs("sweep-points", [100, 101, 99, 100, 100, 100])
    assert _verdict(compare.metric_rows(base, noisy, BENCH), "ops_per_s") == "unresolved"


def test_compare_treats_any_rise_in_error_rate_as_a_regression():
    base = _runs("sweep-points", [100, 100])
    broken = _runs("sweep-points", [100, 100], failed=1)
    assert _verdict(compare.metric_rows(base, broken, BENCH), "error_rate") == "regression"
    assert _verdict(compare.metric_rows(base, base, BENCH), "error_rate") == "unchanged"


# -- the workloads, tiny ------------------------------------------------------


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every unit to a few points and trials; one set-up, one probe repeat."""
    small = (("fig8", 5), ("smoke", None))
    monkeypatch.setattr(workloads.SweepPoints, "plan", small)
    monkeypatch.setattr(workloads.StoreReread, "plan", small)
    monkeypatch.setattr(workloads.SweepTrials, "plan", (("smoke", None), ("epoch-smoke", 4)))
    monkeypatch.setattr(workloads, "COLD_SCENARIOS", ("smoke", "fig6c"))
    monkeypatch.setattr(workloads, "WARM_SCENARIO", "smoke")
    monkeypatch.setattr(workloads, "BASE_TRIALS", 8)
    monkeypatch.setattr(workloads, "PROTOCOL_GRID", (("joint", 0.05), ("share", 0.05)))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(probes, "REPEATS", 1)
    monkeypatch.setattr(probes, "SUBPROCESS_REPEATS", 1)
    monkeypatch.setattr(
        probes, "KERNELS",
        {kernel: (scenario, 5) for kernel, (scenario, _) in probes.KERNELS.items()},
    )


def _invoke(capsys, workload, trace=0, seconds=0.1, seed=3):
    status = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)]
    )
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return status, json.loads(last)


@pytest.mark.parametrize("workload", [entry["name"] for entry in BENCH["workloads"]])
def test_every_workload_runs_checks_itself_and_cleans_up(tiny, capsys, workload):
    status, result = _invoke(capsys, workload)
    assert status == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(e["name"] for e in BENCH["end_to_end"])
    for entry in BENCH["end_to_end"]:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"] and metric["value"] > 0
    assert not run.WORK_PARENT.exists()  # nothing left in the tree


def test_traced_run_prints_every_per_layer_metric_and_exact_counts_repeat(tiny, capsys):
    status, first = _invoke(capsys, "protocol-release", trace=1)
    assert status == 0 and first["correct"]
    assert sorted(first["metrics"]) == sorted(e["name"] for e in BENCH["per_layer"])
    units = {e["name"]: e["unit"] for e in BENCH["per_layer"]}
    assert all(first["metrics"][name]["unit"] == unit for name, unit in units.items())
    assert 0.0 <= first["metrics"]["protocol.unattributed_share"]["value"] < 0.2
    _, second = _invoke(capsys, "sweep-points", trace=1)
    for name in checks.EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert not run.WORK_PARENT.exists()


def test_a_failed_check_is_counted_and_is_a_non_zero_exit(tiny, capsys, monkeypatch):
    monkeypatch.setattr(checks, "release_failure", lambda *_: "plaintext mismatch")
    status, result = _invoke(capsys, "protocol-release")
    assert status == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 2


def test_broken_determinism_is_a_non_zero_exit(tiny, capsys, monkeypatch):
    digests = iter(f"digest-{index}" for index in range(1000))
    monkeypatch.setattr(checks, "store_digest", lambda _: next(digests))
    # store-reread compares every pass against the populated store's digest
    status, result = _invoke(capsys, "store-reread")
    assert status == 1 and result["correct"] is False and result["failed"] == 0


def test_without_the_program_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        run.HERE, tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("__pycache__", "records"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "store-reread",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")
    assert "repro" in done.stderr
