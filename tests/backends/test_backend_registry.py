"""The backend registry: names, specs, sugar, capabilities, engine wiring."""

import pytest

from repro.backends.base import BackendSpec
from repro.backends.distributed import DistributedBackend
from repro.backends.registry import (
    backend_names,
    get,
    list_backends,
    resolve_spec,
    spec_for_jobs,
)
from repro.experiments.engine import TrialEngine
from repro.experiments.executors import (
    ExecutionBackend,
    SerialExecutor,
    SweepPoolExecutor,
)
from trial_units import bernoulli_trial

BUILTINS = ("distributed", "process-pool", "serial")


class TestRegistry:
    def test_every_builtin_is_registered(self):
        assert backend_names() == BUILTINS

    def test_get_builds_the_right_classes(self):
        assert isinstance(get("serial"), SerialExecutor)
        assert isinstance(get("process-pool"), SweepPoolExecutor)
        distributed = get(BackendSpec("distributed", {"workers": ["h:1"]}))
        assert isinstance(distributed, DistributedBackend)

    def test_options_reach_the_factory(self):
        backend = get(BackendSpec("process-pool", {"jobs": 5, "chunk_size": 7}))
        assert backend.jobs == 5 and backend.chunk_size == 7

    def test_prebuilt_instances_pass_through(self):
        executor = SerialExecutor()
        assert get(executor) is executor

    def test_unknown_backend_is_a_clear_error(self):
        # The two retired names fail like any other unregistered one.
        for name in ("gpu-lane", "fork-pool", "chunked"):
            with pytest.raises(
                ValueError,
                match="unknown backend .*registered backends: "
                "distributed, process-pool, serial",
            ):
                get(name)

    def test_unknown_option_is_a_clear_error(self):
        with pytest.raises(ValueError, match="does not accept option"):
            get(BackendSpec("serial", {"jobs": 4}))

    def test_list_backends_is_json_safe_and_flagged(self):
        import json

        entries = {entry["name"]: entry for entry in list_backends()}
        json.dumps(list(entries.values()))  # must not raise
        assert set(entries) == set(BUILTINS)
        for entry in entries.values():
            assert set(entry) == {"name", "description", "options", "available"}
        assert entries["serial"]["available"]
        # Exactly what an operator can set: --workers, --chunk-size,
        # --pool, --announce-bind, --watch-workers.
        assert entries["distributed"]["options"] == [
            "announce_bind",
            "chunk_size",
            "pool",
            "watch_hosts",
            "workers",
        ]


class TestJobsSugar:
    def test_jobs_one_is_serial_everywhere(self):
        assert spec_for_jobs(1) == BackendSpec("serial")
        assert isinstance(TrialEngine(jobs=1).executor, SerialExecutor)

    def test_jobs_above_one_is_process_pool_everywhere(self):
        assert spec_for_jobs(4) == BackendSpec("process-pool", {"jobs": 4})
        assert resolve_spec(None, jobs=4) == spec_for_jobs(4)
        executor = TrialEngine(jobs=4).executor
        assert isinstance(executor, SweepPoolExecutor) and executor.jobs == 4

    def test_resolve_merges_jobs_into_named_backends(self):
        assert resolve_spec("process-pool", jobs=8) == BackendSpec(
            "process-pool", {"jobs": 8}
        )
        # An explicit jobs=1 is honoured (a one-worker pool), not
        # silently swapped for the factory default of 2.
        assert resolve_spec("process-pool", jobs=1) == BackendSpec(
            "process-pool", {"jobs": 1}
        )
        # Unset jobs keeps the named backend's own default.
        assert resolve_spec("process-pool", jobs=None) == BackendSpec("process-pool")
        # Backends without a jobs option are untouched.
        assert resolve_spec("serial", jobs=8) == BackendSpec("serial")
        # Explicit options always win over the sugar.
        pinned = BackendSpec("process-pool", {"jobs": 2})
        assert resolve_spec(pinned, jobs=8) == pinned

    def test_explicit_jobs_one_builds_one_worker_pool(self):
        backend = get("process-pool", jobs=1)
        assert isinstance(backend, SweepPoolExecutor)
        assert backend.jobs == 1

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            spec_for_jobs(0)


class TestBackendSpec:
    def test_round_trip(self):
        spec = BackendSpec(
            "distributed", {"workers": ["a:1", "b:2"], "chunk_size": 3}
        )
        assert BackendSpec.from_json(spec.to_json()) == spec
        assert BackendSpec.from_dict(spec.to_dict()) == spec

    def test_validation(self):
        with pytest.raises(ValueError):
            BackendSpec("")
        with pytest.raises(TypeError):
            BackendSpec("serial", {"bad": object()})
        with pytest.raises(TypeError):
            BackendSpec("serial", {"nested": [["too", "deep"]]})

    def test_tuples_normalise_to_lists(self):
        spec = BackendSpec("distributed", {"workers": ("a:1",)})
        assert spec.options["workers"] == ["a:1"]

    def test_describe(self):
        assert BackendSpec("serial").describe() == "serial"
        assert (
            BackendSpec("process-pool", {"jobs": 4}).describe() == "process-pool(jobs=4)"
        )


class TestProtocolAndCapabilities:
    def test_every_builtin_satisfies_the_protocol(self):
        instances = [
            SerialExecutor(),
            SweepPoolExecutor(),
            DistributedBackend(["h:1"]),
        ]
        for instance in instances:
            assert isinstance(instance, ExecutionBackend), type(instance)

    def test_capability_flags(self):
        # There are none: the one optional capability is a method, and
        # the orchestrator's ladder asks for it by name.
        assert not [name for name in dir(ExecutionBackend) if "supports" in name]
        assert getattr(SerialExecutor(), "cancel_active", None) is None
        assert getattr(SweepPoolExecutor(), "cancel_active", None) is None
        assert callable(DistributedBackend(["h:1"]).cancel_active)


class TestEngineBackendParameter:
    def test_engine_accepts_backend_names_and_specs(self):
        reference = TrialEngine().run(bernoulli_trial, trials=60, seed=3)
        for backend in ("serial", BackendSpec("process-pool", {"jobs": 2})):
            engine = TrialEngine(backend=backend)
            assert engine.run(bernoulli_trial, trials=60, seed=3) == reference

    def test_engine_jobs_merges_into_named_backend(self):
        engine = TrialEngine(backend="process-pool", jobs=3)
        assert isinstance(engine.executor, SweepPoolExecutor)
        assert engine.executor.jobs == 3
