"""The built-in registry, the sweep reporting pivot, and the CLI wiring."""

import dataclasses
import json
import os

import pytest

from repro import api
from repro.cli import main
from repro.experiments.reporting import format_sweep_table, pick_x_axis, sweep_series
from repro.scenarios.registry import builtin_scenarios, get_scenario, scenario_names
from repro.scenarios.runners import get_runner
from repro.scenarios.spec import Axis, ScenarioSpec

FIGURE_SCENARIOS = (
    "fig6a",
    "fig6b",
    "fig6c",
    "fig6d",
    "fig7",
    "fig8",
    "availability",
    "timeliness",
)

NEW_SCENARIOS = (
    "scheme-matrix-n1000",
    "sensitivity-grid",
    "adaptive-observation",
    "heavy-churn",
)


class TestRegistry:
    def test_every_figure_ships_as_a_scenario(self):
        names = scenario_names()
        for name in FIGURE_SCENARIOS:
            assert name in names

    def test_at_least_three_genuinely_new_scenarios(self):
        names = scenario_names()
        assert sum(name in names for name in NEW_SCENARIOS) >= 3

    def test_all_specs_round_trip_and_resolve_their_kind(self):
        for name, spec in builtin_scenarios().items():
            assert spec.name == name
            assert ScenarioSpec.from_json(spec.to_json()) == spec, name
            assert get_runner(spec.kind) is not None, name
            assert spec.description, name

    def test_cost_panels_are_measurement_free(self):
        for name in ("fig6b", "fig6d"):
            spec = get_scenario(name)
            assert spec.trials == 0
            assert spec.fixed["measure"] is False
            assert spec.value_key == "cost"  # tables show required nodes C

    def test_fig6_fig7_carry_knee_tolerance_schedules(self):
        for name in ("fig6a", "fig7"):
            spec = get_scenario(name)
            assert spec.schedule is not None
            knee = spec.point_tolerance({"p": 0.3}, base=0.02)
            flat = spec.point_tolerance({"p": 0.05}, base=0.02)
            assert knee == pytest.approx(0.01)
            assert flat == pytest.approx(0.02)
            # Dormant without a base: bit-identity with the drivers holds.
            assert spec.point_tolerance({"p": 0.3}) is None

    def test_unknown_scenario_is_a_clear_error(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("fig99")

    @pytest.mark.parametrize("name", sorted(builtin_scenarios()))
    def test_every_scenario_first_point_executes(self, name):
        # One-point, one-trial execution proves each registered spec's
        # parameters satisfy its kind's runner signature.
        spec = get_scenario(name)
        tiny = dataclasses.replace(
            spec,
            axes=tuple(Axis(a.name, a.values[:1]) for a in spec.axes),
            trials=min(spec.trials, 1),
        )
        report = api.run_scenario(tiny)
        assert report.points == 1
        assert "value" in report.results()[0]


class TestSweepReporting:
    RECORDS = [
        {"point": {"scheme": scheme, "p": p}, "result": {"value": value}}
        for (scheme, p), value in {
            ("central", 0.1): 0.9,
            ("central", 0.3): 0.7,
            ("joint", 0.1): 1.0,
            ("joint", 0.3): 0.99,
        }.items()
    ]

    def test_pivot_prefers_numeric_x_axis(self):
        # scheme is categorical, p numeric: p becomes the row dimension
        # even though scheme is the last axis.
        assert pick_x_axis(("p", "scheme"), self.RECORDS) == "p"
        x_values, series = sweep_series(("p", "scheme"), self.RECORDS)
        assert x_values == [0.1, 0.3]
        assert series == {
            "scheme=central": [0.9, 0.7],
            "scheme=joint": [1.0, 0.99],
        }

    def test_table_renders_and_holes_show_as_dash(self):
        records = self.RECORDS[:3]  # joint p=0.3 missing
        table = format_sweep_table("t", ("scheme", "p"), records)
        assert "scheme=joint" in table
        assert "-" in table.splitlines()[-1]

    def test_all_categorical_axes_fall_back_to_last(self):
        records = [
            {"point": {"scheme": s}, "result": {"value": 1.0}}
            for s in ("central", "joint")
        ]
        table = format_sweep_table("t", ("scheme",), records)
        assert "central" in table and "joint" in table

    def test_no_axes_renders_plain_values(self):
        table = format_sweep_table("t", (), [{"result": {"value": 0.5}}])
        assert "0.5" in table


class TestCli:
    def test_scenarios_list(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in FIGURE_SCENARIOS:
            assert name in out

    def test_scenarios_list_kind_filter(self, capsys):
        assert main(["scenarios", "list", "--kind", "share_cost"]) == 0
        out = capsys.readouterr().out
        assert "fig8" in out and "fig7" not in out
        assert main(["scenarios", "list", "--kind", "nope"]) == 1

    def test_scenarios_show_json_round_trips(self, capsys):
        assert main(["scenarios", "show", "fig8", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert ScenarioSpec.from_dict(payload) == get_scenario("fig8")

    def test_scenarios_show_human_readable(self, capsys):
        assert main(["scenarios", "show", "fig7"]) == 0
        out = capsys.readouterr().out
        assert "churn_resilience" in out
        assert "tolerance rule" in out

    def test_scenarios_show_unknown_fails(self, capsys):
        assert main(["scenarios", "show", "fig99"]) == 1
        assert "unknown scenario" in capsys.readouterr().out

    def test_sweep_run_then_resume_round_trip(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["sweep", "run", "smoke", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "2 computed, 0 cached" in out
        assert (tmp_path / "store" / "smoke").is_dir()
        assert len(list((tmp_path / "store" / "smoke").glob("*.json"))) == 2

        assert main(["sweep", "resume", "smoke", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "0 computed, 2 cached, 0 new trials" in out

    def test_sweep_resume_from_empty_store_starts_fresh(self, tmp_path, capsys):
        store = str(tmp_path / "empty")
        assert main(["sweep", "resume", "smoke", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "nothing to resume" in out
        assert "2 computed" in out

    def test_sweep_run_unknown_scenario_fails(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["sweep", "run", "fig99", "--store", store]) == 1

    def test_sweep_round_trip_recomputes_zero_trials(self, tmp_path, capsys):
        """End-to-end run → resume: the store, not just stdout, proves the
        resume recomputed nothing."""
        import json as json_module

        store = str(tmp_path / "store")
        assert main(["sweep", "run", "smoke", "--store", store]) == 0
        capsys.readouterr()
        paths = sorted((tmp_path / "store" / "smoke").glob("*.json"))
        before = {path.name: path.read_text() for path in paths}
        stats_before = {path.name: path.stat().st_mtime_ns for path in paths}

        assert main(["sweep", "resume", "smoke", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "0 computed, 2 cached, 0 new trials" in out

        paths_after = sorted((tmp_path / "store" / "smoke").glob("*.json"))
        assert {p.name: p.read_text() for p in paths_after} == before
        assert {
            p.name: p.stat().st_mtime_ns for p in paths_after
        } == stats_before  # records were never rewritten, only read
        for text in before.values():
            record = json_module.loads(text)
            assert record["result"]["trials_run"] == record["trials"]

    def test_scenarios_show_json_schema(self, capsys):
        """The --json output is the full serialized spec schema."""
        assert main(["scenarios", "show", "smoke", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "name",
            "kind",
            "description",
            "fixed",
            "axes",
            "trials",
            "seed",
            "tolerance",
            "schedule",
            "engine",
            "value_key",
        }
        assert payload["name"] == "smoke"
        assert isinstance(payload["axes"], list)
        for axis in payload["axes"]:
            assert set(axis) == {"name", "values"}
        engine = payload["engine"]
        assert {
            "min_trials",
            "check_interval",
            "checkpoint_batches",
            "ci_method",
            "batch_size",
        } <= set(engine)
        # No pinned backend → no backend key, keeping pre-backend cache
        # keys (derived from this dict) byte-identical.
        assert "backend" not in engine
        assert ScenarioSpec.from_dict(payload) == get_scenario("smoke")

    def test_sweep_run_backend_flag(self, tmp_path, capsys):
        serial_store = str(tmp_path / "serial")
        pool_store = str(tmp_path / "pool")
        assert (
            main(["sweep", "run", "smoke", "--store", serial_store]) == 0
        )
        assert (
            main(
                [
                    "sweep",
                    "run",
                    "smoke",
                    "--store",
                    pool_store,
                    "--backend",
                    "process-pool",
                    "--jobs",
                    "2",
                ]
            )
            == 0
        )
        capsys.readouterr()
        serial_keys = sorted(
            p.name for p in (tmp_path / "serial" / "smoke").glob("*.json")
        )
        pool_keys = sorted(
            p.name for p in (tmp_path / "pool" / "smoke").glob("*.json")
        )
        assert serial_keys == pool_keys  # backend excluded from the keys

    def test_sweep_run_distributed_backend(self, tmp_path, capsys):
        from repro.backends.worker import WorkerServer

        store = str(tmp_path / "store")
        with WorkerServer() as worker:
            host, port = worker.address
            assert (
                main(
                    [
                        "sweep",
                        "run",
                        "smoke",
                        "--store",
                        store,
                        "--backend",
                        "distributed",
                        "--workers",
                        f"{host}:{port}",
                    ]
                )
                == 0
            )
        out = capsys.readouterr().out
        assert "2 computed" in out
        # The greppable stats line the CI chaos job asserts on.
        assert "backend stats:" in out
        assert "spans_completed=" in out

    def test_announce_bind_flag_requires_distributed_backend(self, tmp_path):
        with pytest.raises(SystemExit, match="--announce-bind/--watch-workers"):
            main(
                [
                    "sweep",
                    "run",
                    "smoke",
                    "--store",
                    str(tmp_path),
                    "--announce-bind",
                    "127.0.0.1:0",
                ]
            )
        with pytest.raises(SystemExit, match="--announce-bind/--watch-workers"):
            main(
                [
                    "sweep",
                    "run",
                    "smoke",
                    "--store",
                    str(tmp_path),
                    "--backend",
                    "serial",
                    "--watch-workers",
                ]
            )

    def test_watch_workers_requires_an_at_file(self, tmp_path):
        with pytest.raises(SystemExit, match="--watch-workers requires"):
            main(
                [
                    "sweep",
                    "run",
                    "smoke",
                    "--store",
                    str(tmp_path),
                    "--backend",
                    "distributed",
                    "--workers",
                    "127.0.0.1:7070",
                    "--watch-workers",
                ]
            )
        with pytest.raises(SystemExit, match="--watch-workers requires"):
            main(
                [
                    "sweep",
                    "run",
                    "smoke",
                    "--store",
                    str(tmp_path),
                    "--backend",
                    "distributed",
                    "--pool",
                    "2",
                    "--watch-workers",
                ]
            )

    def test_announce_bind_port_zero_is_refused(self, tmp_path, monkeypatch):
        """Port 0 would bind a port no worker is ever told: refused with
        a message naming the fix, before any pool is spawned."""
        from repro.backends.pool import WorkerPool

        def no_pool(self):
            raise AssertionError("a pool was spawned before the refusal")

        monkeypatch.setattr(WorkerPool, "start", no_pool)
        with pytest.raises(SystemExit, match="--announce-bind must name a port"):
            main(
                [
                    "sweep",
                    "run",
                    "smoke",
                    "--store",
                    str(tmp_path),
                    "--backend",
                    "distributed",
                    "--pool",
                    "1",
                    "--announce-bind",
                    "127.0.0.1:0",
                ]
            )

    def test_sweep_run_with_announce_bind_registry(self, tmp_path, capsys):
        """--announce-bind stands up a registry for the sweep's duration;
        an unused one changes nothing (and the stats line reports 0 joins)."""
        import socket

        from repro.backends.worker import WorkerServer

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            registry_port = probe.getsockname()[1]
        store = str(tmp_path / "store")
        with WorkerServer() as worker:
            host, port = worker.address
            assert (
                main(
                    [
                        "sweep",
                        "run",
                        "smoke",
                        "--store",
                        store,
                        "--backend",
                        "distributed",
                        "--workers",
                        f"{host}:{port}",
                        "--announce-bind",
                        f"127.0.0.1:{registry_port}",
                    ]
                )
                == 0
            )
        out = capsys.readouterr().out
        assert "2 computed" in out
        assert "workers_joined=0" in out

    def test_chaos_flags_end_to_end_store_parity(self, tmp_path):
        """--workers @file + --chunk-size + --batch-size: byte-identical
        stores between the serial backend and a faulted worker trio."""
        from repro.backends.faults import FaultSpec
        from repro.backends.worker import WorkerServer

        assert (
            main(
                [
                    "sweep",
                    "run",
                    "smoke",
                    "--store",
                    str(tmp_path / "serial"),
                    "--backend",
                    "serial",
                    "--batch-size",
                    "4",
                ]
            )
            == 0
        )
        servers = [
            WorkerServer(
                fault=FaultSpec("kill", after_spans=2)
                if index == 0
                else FaultSpec("slow", delay=0.02)
            ).serve_background()
            for index in range(3)
        ]
        hosts_file = tmp_path / "pool.addr"
        hosts_file.write_text(
            "\n".join(f"{h}:{p}" for h, p in (s.address for s in servers)) + "\n"
        )
        try:
            assert (
                main(
                    [
                        "sweep",
                        "run",
                        "smoke",
                        "--store",
                        str(tmp_path / "chaos"),
                        "--backend",
                        "distributed",
                        "--workers",
                        f"@{hosts_file}",
                        "--chunk-size",
                        "1",
                        "--batch-size",
                        "4",
                    ]
                )
                == 0
            )
        finally:
            for server in servers:
                server.stop()
        reference = {
            path.name: path.read_bytes()
            for path in sorted((tmp_path / "serial" / "smoke").glob("*.json"))
        }
        chaos = {
            path.name: path.read_bytes()
            for path in sorted((tmp_path / "chaos" / "smoke").glob("*.json"))
        }
        assert len(reference) == 2
        assert chaos == reference

    def test_chunk_size_flag_requires_a_backend(self, tmp_path):
        with pytest.raises(SystemExit, match="--chunk-size requires"):
            main(
                [
                    "sweep",
                    "run",
                    "smoke",
                    "--store",
                    str(tmp_path),
                    "--chunk-size",
                    "8",
                ]
            )

    @pytest.mark.parametrize("bad", ["0", "-5", "fast"])
    def test_chunk_size_flag_rejects_non_positive_values(self, tmp_path, bad):
        with pytest.raises(SystemExit, match="positive integer or 'auto'"):
            main(
                [
                    "sweep",
                    "run",
                    "smoke",
                    "--store",
                    str(tmp_path),
                    "--backend",
                    "process-pool",
                    "--chunk-size",
                    bad,
                ]
            )

    def test_chunk_size_auto_works_on_every_chunked_backend(self, tmp_path):
        """'auto' must not blow up mid-sweep — and by the determinism
        contract it changes nothing.  (The distributed lane's 'auto' is
        held in test_autotune.py.)"""
        reference = None
        for backend in (["serial"], ["process-pool", "--chunk-size", "auto"]):
            store = tmp_path / backend[0]
            assert (
                main(
                    ["sweep", "run", "smoke", "--store", str(store)]
                    + ["--backend", *backend]
                )
                == 0
            )
            records = {
                path.name: path.read_bytes()
                for path in sorted((store / "smoke").glob("*.json"))
            }
            assert len(records) == 2
            if reference is None:
                reference = records
            else:
                assert records == reference

    def test_workers_flag_requires_distributed_backend(self, tmp_path):
        with pytest.raises(SystemExit, match="--workers/--pool require"):
            main(
                [
                    "sweep",
                    "run",
                    "smoke",
                    "--store",
                    str(tmp_path),
                    "--workers",
                    "localhost:1",
                ]
            )

    def test_unknown_backend_is_a_clean_cli_error(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown backend"):
            main(
                [
                    "sweep",
                    "run",
                    "smoke",
                    "--store",
                    str(tmp_path),
                    "--backend",
                    "gpu-lane",
                ]
            )

    def test_distributed_backend_requires_workers(self, tmp_path):
        with pytest.raises(SystemExit, match="requires --workers"):
            main(
                [
                    "sweep",
                    "run",
                    "smoke",
                    "--store",
                    str(tmp_path),
                    "--backend",
                    "distributed",
                ]
            )

    def test_sweep_gc_cli(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["sweep", "run", "smoke", "--store", store]) == 0
        orphan = tmp_path / "store" / "smoke" / "dead.json.tmp"
        orphan.write_text("{")
        capsys.readouterr()
        # A fresh tmp file is protected by the grace period — it may be a
        # live driver's in-flight write.
        assert main(["sweep", "gc", "--store", store, "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would remove 0 orphan(s)" in out
        assert "kept 1 fresh tmp file(s)" in out
        assert orphan.exists()
        assert main(
            ["sweep", "gc", "--store", store, "--dry-run", "--tmp-grace", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "would remove 1 orphan(s)" in out
        assert orphan.exists()
        assert main(
            ["sweep", "gc", "--store", store, "--tmp-grace", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "removed 1 orphan(s)" in out
        assert not orphan.exists()
        # The healthy records survived.
        assert len(list((tmp_path / "store" / "smoke").glob("*.json"))) == 2

    def test_sweep_verify_repair_cli(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["sweep", "run", "smoke", "--store", store]) == 0
        capsys.readouterr()
        assert main(["sweep", "verify", "--store", store]) == 0
        assert "store is clean" in capsys.readouterr().out
        # Tear one record: verify flags it (exit 1), repair quarantines
        # it, and a resume recomputes exactly that point.
        victim = sorted((tmp_path / "store" / "smoke").glob("*.json"))[0]
        victim.write_text(victim.read_text()[:40], encoding="utf-8")
        assert main(["sweep", "verify", "--store", store]) == 1
        out = capsys.readouterr().out
        assert "1 corrupt" in out
        assert "NOT clean" in out
        assert main(["sweep", "repair", "smoke", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "quarantined ->" in out
        assert not victim.exists()
        assert main(["sweep", "resume", "smoke", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "1 computed, 1 cached" in out
        assert main(["sweep", "verify", "--store", store]) == 0

    def test_sweep_resume_reports_journal_recovery(self, tmp_path, capsys):
        from repro.scenarios import SweepJournal

        store = str(tmp_path / "store")
        assert main(["sweep", "run", "smoke", "--store", store]) == 0
        # Forge a SIGKILL inside the first point, in the log itself: cut
        # it after that point's start line, under an owner pid that no
        # longer exists.
        log = SweepJournal(store, "smoke").path
        header, started = log.read_bytes().splitlines(keepends=True)[:2]
        assert b'"status":"started"' in started
        log.write_bytes(
            header.replace(b'"pid":%d' % os.getpid(), b'"pid":%d' % (2 ** 22 + 1))
            + started
        )
        capsys.readouterr()
        assert main(["sweep", "resume", "smoke", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "1 mid-flight (will be recomputed)" in out
        assert "1 computed, 1 cached" in out

    def test_backends_list_cli(self, capsys):
        assert main(["backends", "list"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines() if line[:1].strip()]
        assert listed == ["distributed", "process-pool", "serial"]
        # What a backend can do is said once, in its description.
        assert "elastic" in out
        assert "[remote" not in out

    def test_figures_backend_flag(self, tmp_path, capsys):
        # A figure's table is the same text on every backend.
        tables = []
        for backend in ("serial", "process-pool"):
            store = str(tmp_path / backend)
            assert (
                main(
                    ["sweep", "run", "fig6c", "--trials", "10", "--store", store]
                    + ["--backend", backend]
                )
                == 0
            )
            out = capsys.readouterr().out
            tables.append(out[out.index("fig6c: Fig. 6(c): attack resilience") :])
        assert tables[0] == tables[1]

    def test_sweep_run_trials_override_and_force(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert (
            main(["sweep", "run", "smoke", "--store", store, "--trials", "10"]) == 0
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "sweep",
                    "run",
                    "smoke",
                    "--store",
                    store,
                    "--trials",
                    "10",
                    "--force",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2 computed, 0 cached" in out
