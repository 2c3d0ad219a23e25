"""The command-line interface (driven through main(argv))."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.backends.pool import _worker_environment
from repro.cli import main

_spec = importlib.util.spec_from_file_location(
    "cli_help_regen", Path(__file__).parent / "golden" / "regen.py"
)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


class TestPlan:
    def test_joint_plan(self, capsys):
        assert main(["plan", "--scheme", "joint", "-p", "0.25", "--budget", "10000"]) == 0
        out = capsys.readouterr().out
        assert "joint:" in out
        assert "Rr=" in out and "Rd=" in out
        assert "meets target" in out

    def test_infeasible_plan_reports_miss(self, capsys):
        assert main(["plan", "--scheme", "central", "-p", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "misses" in out

    def test_share_plan(self, capsys):
        assert main(["plan", "--scheme", "share", "-p", "0.2", "--budget", "1000"]) == 0
        out = capsys.readouterr().out
        assert "share scheme" in out
        assert "thresholds" in out

    def test_frontier(self, capsys):
        assert main(
            ["plan", "--scheme", "joint", "-p", "0.3", "--budget", "100", "--frontier"]
        ) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out

    def test_frontier_rejects_central(self, capsys):
        assert main(["plan", "--scheme", "central", "-p", "0.3", "--frontier"]) == 1

    def test_missing_rate_errors(self):
        with pytest.raises(SystemExit):
            main(["plan", "--scheme", "joint"])


class TestFigures:
    """Figures come out of ``sweep run figN``; ``repro figures`` is gone."""

    def test_fig6b_cost_table(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["sweep", "run", "fig6b", "--trials", "10", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "required nodes" in out
        assert "scheme=joint" in out
        # Integer ({:.0f}) cells: joint needs 3806 nodes at p = 0.30.
        row = next(line for line in out.splitlines() if line.startswith("    0.30"))
        assert row.split() == ["0.30", "1", "4", "3806"]

    def test_fig8(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["sweep", "run", "fig8", "--trials", "50", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "budget=10000" in out

    def test_unknown_figure_rejected(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["figures", "--figure", "6b"])
        assert raised.value.code == 2
        assert "invalid choice: 'figures'" in capsys.readouterr().err


class TestCostAndDemo:
    def test_cost_table(self, capsys):
        assert main(["cost", "-k", "3", "-l", "6", "-n", "8"]) == 0
        out = capsys.readouterr().out
        for scheme in ("central", "disjoint", "joint", "share"):
            assert scheme in out

    def test_demo_end_to_end(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "receiver has key: False" in out
        assert "hello from the past" in out

    def test_no_command_errors(self):
        with pytest.raises(SystemExit):
            main([])


class TestColdStart:
    """What a cold ``python -m repro.cli`` pays before it does anything:
    importing the CLI must not import the numerical stack (every command
    imports what it needs on dispatch), and importing the key-share scheme
    or the API facade must not import scipy at all."""

    @staticmethod
    def _loaded_after(module: str, *candidates: str) -> list:
        done = subprocess.run(
            [
                sys.executable,
                "-c",
                f"import json, sys, {module}; print(json.dumps("
                f"[name for name in {candidates!r} if name in sys.modules]))",
            ],
            env=_worker_environment(),
            capture_output=True,
            text=True,
            check=True,
        )
        return json.loads(done.stdout)

    def test_importing_the_cli_imports_neither_numpy_nor_scipy(self):
        assert self._loaded_after("repro.cli", "numpy", "scipy") == []

    def test_the_service_client_imports_neither_numpy_nor_scipy(self):
        """``repro jobs ...`` talks to a daemon; it needs the wire framing
        and nothing of the scenario registry or the numerical stack."""
        loaded = self._loaded_after(
            "repro.service.client", "numpy", "scipy", "repro.scenarios"
        )
        assert loaded == []

    @pytest.mark.parametrize(
        "module", ["repro.scenarios.store", "repro.scenarios.journal"]
    )
    def test_the_store_and_the_journal_load_no_trial_engine(self, module):
        """Reading a store or a journal runs no trial: the spec's engine
        defaults come from ``repro.util.stats``, not the engine."""
        loaded = self._loaded_after(
            module, "repro.experiments.engine", "multiprocessing", "numpy"
        )
        assert loaded == []

    def test_importing_keyshare_does_not_import_scipy_stats(self):
        loaded = self._loaded_after(
            "repro.core.schemes.keyshare", "scipy.special", "scipy.stats"
        )
        assert loaded == []

    def test_importing_the_api_imports_no_scipy(self):
        """``scipy.special`` loads only when Algorithm 1 first evaluates a
        binomial tail, so a protocol run or a sweep that never plans a
        key-share scheme never pays for it."""
        assert self._loaded_after("repro.api", "scipy") == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["scenarios", "list"],
            ["scenarios", "show", "fig7"],
            ["backends", "list"],
            ["sweep", "verify", "--store", "STORE"],
            ["sweep", "repair", "--store", "STORE"],
            ["sweep", "gc", "--store", "STORE"],
        ],
        ids=" ".join,
    )
    def test_commands_that_compute_nothing_load_neither_numpy_nor_scipy(
        self, argv, tmp_path
    ):
        """Listing specs, listing backends and checking a store run no
        trial, so a cold start must not pay for the numerical stack."""
        argv = [str(tmp_path) if arg == "STORE" else arg for arg in argv]
        done = subprocess.run(
            [
                sys.executable,
                "-c",
                "import json, sys; from repro.cli import main; "
                f"code = main({argv!r}); print(json.dumps([code, "
                "[name for name in ('numpy', 'scipy') if name in sys.modules]]))",
            ],
            env=_worker_environment(),
            capture_output=True,
            text=True,
            check=True,
        )
        assert json.loads(done.stdout.splitlines()[-1]) == [0, []]


class TestHelpText:
    @pytest.mark.skipif(
        sys.version_info >= (3, 13),
        reason="argparse 3.13 renders short options differently",
    )
    def test_every_parser_level_matches_the_golden(self, monkeypatch):
        """No flag is added, renamed or re-worded by accident: every
        ``--help`` text matches ``golden/cli_help.txt`` byte for byte."""
        monkeypatch.setenv("COLUMNS", "80")
        assert regen.render_help() == regen.GOLDEN.read_text()


class TestBadArguments:
    """A value the CLI cannot use is refused with one line naming the
    flag while the command line is parsed — never a traceback from deep
    inside the run."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "run", "smoke", "--jobs", "0"],
            ["sweep", "run", "smoke", "--trials", "-1"],
            ["sweep", "run", "smoke", "--batch-size", "0"],
            ["sweep", "run", "smoke", "--point-deadline", "0"],
            ["sweep", "run", "smoke", "--tolerance", "-1"],
            ["sweep", "resume", "smoke", "--jobs", "two"],
            ["sweep", "gc", "--tmp-grace", "-1"],
            ["serve", "--bind", "nonsense"],
            ["worker", "serve", "--bind", "nonsense"],
            ["worker", "pool", "--respawn", "-1"],
            ["jobs", "status", "--at", "nonsense"],
            ["jobs", "submit", "smoke", "--trials", "-1"],
            ["plan", "-p", "1.5"],
            ["plan", "-p", "0.3", "--budget", "0"],
            ["cost", "-k", "0"],
        ],
        ids=" ".join,
    )
    def test_refused_with_one_line_naming_the_flag(self, argv, tmp_path):
        flag = argv[-2]
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            env=_worker_environment(),
            capture_output=True,
            text=True,
            cwd=tmp_path,
            timeout=60,
        )
        assert done.returncode != 0
        assert "Traceback" not in done.stderr
        assert done.stderr.count("\n") == 1 and flag in done.stderr, done.stderr
