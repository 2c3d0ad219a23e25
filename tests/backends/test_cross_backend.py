"""Cross-backend equivalence: the acceptance test of the backend redesign.

The same sweep must produce *identical* per-point success counts — and
identical result-store cache keys — on every registered backend,
including a live localhost ``distributed`` worker.  This is the executable
form of the determinism contract: streams keyed by ``(seed, label, index)``
are backend-invariant, so backends (and their jobs/worker topology) stay
out of cache keys and serial and distributed runs share store entries.
"""

import pytest

from repro.backends.base import BackendSpec
from repro.backends.registry import get
from repro.backends.worker import WorkerServer
from repro.scenarios import ResultStore, get_scenario
from repro.scenarios.orchestrator import SweepOrchestrator


@pytest.fixture(scope="module")
def worker():
    with WorkerServer() as server:
        yield server


def backend_specs(worker) -> dict:
    host, port = worker.address
    return {
        "serial": BackendSpec("serial"),
        "process-pool": BackendSpec("process-pool", {"jobs": 2, "chunk_size": 7}),
        "distributed": BackendSpec(
            "distributed", {"workers": [f"{host}:{port}"]}
        ),
    }


def _success_counts(record):
    measured = record["result"]["measured"]
    return (
        measured["release"]["successes"],
        measured["release"]["trials"],
        measured["drop"]["successes"],
        measured["drop"]["trials"],
    )


class TestSmokeSweepOnEveryBackend:
    def test_identical_counts_and_cache_keys(self, worker, tmp_path):
        spec = get_scenario("smoke")
        per_backend = {}
        for name, backend in backend_specs(worker).items():
            store = ResultStore(tmp_path / name)
            report = SweepOrchestrator(store=store, backend=backend).run(spec)
            assert report.computed == spec.point_count, name
            per_backend[name] = {
                record["key"]: _success_counts(record)
                for record in report.records
            }
        reference = per_backend.pop("serial")
        for name, counts_by_key in per_backend.items():
            # Same content keys (backend excluded from the hash) and the
            # same exact success counts under every key.
            assert counts_by_key == reference, name

    def test_stores_are_interchangeable_across_backends(self, worker, tmp_path):
        # A sweep computed on one backend resumes for free on another:
        # cache keys carry no backend fields.
        spec = get_scenario("smoke")
        store = ResultStore(tmp_path / "shared")
        specs = backend_specs(worker)
        first = SweepOrchestrator(store=store, backend=specs["serial"]).run(spec)
        assert first.computed == spec.point_count
        second = SweepOrchestrator(
            store=store, backend=specs["distributed"]
        ).run(spec)
        assert second.computed == 0
        assert second.cached == spec.point_count
        assert second.trials_run == 0
        assert [r["result"] for r in second.records] == [
            r["result"] for r in first.records
        ]


class TestBatchKindAcrossBackends:
    def test_fig6a_point_identical_everywhere(self, worker, tmp_path):
        # A batch kernel at full population size: one cheap point of the
        # fig6a grid through every backend.
        import dataclasses

        from repro.scenarios.spec import Axis

        spec = get_scenario("fig6a")
        tiny = dataclasses.replace(
            spec,
            axes=(Axis("scheme", ("joint",)), Axis("p", (0.2,))),
            trials=60,
        )
        results = {}
        for name, backend in backend_specs(worker).items():
            report = SweepOrchestrator(backend=backend).run(tiny)
            results[name] = report.results()[0]
        reference = results.pop("serial")
        assert reference["trials_run"] == 60
        for name, result in results.items():
            assert result == reference, name


class TestSpecPinnedBackend:
    def test_spec_engine_backend_is_honoured_and_overridable(self, tmp_path):
        import dataclasses

        from repro.experiments.executors import pools_constructed
        from repro.scenarios.spec import EngineSettings

        spec = get_scenario("smoke")
        pinned = dataclasses.replace(
            spec,
            engine=EngineSettings(backend=BackendSpec("process-pool", {"jobs": 2})),
        )
        # Round trip survives the pin.
        from repro.scenarios.spec import ScenarioSpec

        assert ScenarioSpec.from_json(pinned.to_json()) == pinned
        # spec.engine.backend beats the jobs sugar (one pool, usual numbers)...
        reference = SweepOrchestrator().run(spec)
        before = pools_constructed()
        report = SweepOrchestrator(jobs=1).run(pinned)
        assert pools_constructed() - before == 1
        assert report.results() == reference.results()
        # ...and an explicit orchestrator backend beats the spec's.
        overridden = SweepOrchestrator(backend=BackendSpec("serial")).run(pinned)
        assert pools_constructed() - before == 1
        assert overridden.results() == reference.results()
