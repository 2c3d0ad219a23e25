"""The `repro.api` façade: one import surface for programmatic users."""

import dataclasses

import pytest

from repro import api
from repro.backends.base import BackendSpec
from repro.experiments.executors import SerialExecutor
from repro.scenarios.spec import Axis
from repro.scenarios.store import STORE_GENERATION


def tiny_smoke():
    spec = api.get_scenario("smoke")
    return dataclasses.replace(spec, trials=20)


class TestRunScenario:
    def test_accepts_names_and_specs(self):
        by_name = api.run_scenario("smoke", trials=20)
        by_spec = api.run_scenario(tiny_smoke())
        assert by_name.results() == by_spec.results()
        assert by_name.points == 2

    def test_unknown_name_is_a_clear_error(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            api.run_scenario("fig99")

    def test_backend_choices_do_not_change_results(self):
        reference = api.run_scenario("smoke", trials=20)
        for backend in (
            "serial",
            BackendSpec("process-pool", {"jobs": 2}),
            SerialExecutor(),
        ):
            report = api.run_scenario("smoke", trials=20, backend=backend)
            assert report.results() == reference.results(), backend


class TestRunSweepAndLoadResults:
    def test_record_shape_identical_cold_and_warm(self, tmp_path):
        # Freshly computed and cache-served records carry the same keys
        # (including the generation stamp) — code consuming a report
        # must not care whether the store was warm.
        cold = api.run_sweep("smoke", store=tmp_path, trials=20)
        warm = api.run_sweep("smoke", store=tmp_path, trials=20)
        for cold_record, warm_record in zip(cold.records, warm.records):
            assert cold_record["store_generation"] == STORE_GENERATION
            assert set(cold_record) | {"from_cache"} == set(warm_record)
        # Even without a store, reports keep the same record shape.
        stateless = api.run_scenario("smoke", trials=20)
        assert stateless.records[0]["store_generation"] == STORE_GENERATION

    def test_sweep_persists_and_resumes_for_free(self, tmp_path):
        store = tmp_path / "store"
        first = api.run_sweep("smoke", store=store, trials=20)
        assert first.computed == 2
        second = api.run_sweep("smoke", store=store, trials=20)
        assert second.computed == 0
        assert second.trials_run == 0

        records = api.load_results(store, "smoke")
        assert len(records) == 2
        for record in records:
            assert record["scenario"] == "smoke"
            assert record["store_generation"] == STORE_GENERATION
            assert "measured" in record["result"]

    def test_load_results_accepts_spec_and_empty_store(self, tmp_path):
        assert api.load_results(tmp_path, api.get_scenario("smoke")) == []
        with pytest.raises(ValueError, match="needs a store"):
            api.load_results(None, "smoke")

    def test_trials_and_tolerance_overrides_flow_through(self, tmp_path):
        spec = api.get_scenario("smoke")
        # The smoke spec's vectorised lane checkpoints every 4 batches of
        # 100 trials, so the earliest possible stop is at 400 trials —
        # give it a 1000-trial budget and expect the knee to cut it.
        grown = dataclasses.replace(
            spec, axes=(Axis("p", (0.1,)),), trials=1000
        )
        report = api.run_sweep(
            grown, store=tmp_path, tolerance=0.05, jobs=1
        )
        (result,) = report.results()
        assert 0 < result["trials_run"] < 1000


class TestListBackends:
    def test_lists_the_registry(self):
        names = {entry["name"] for entry in api.list_backends()}
        assert names == {"serial", "process-pool", "distributed"}
