"""The five workloads: closed loops of whole units, driven from one process.

A *unit* is the smallest piece of work that can be checked on its own —
one cycle of sixteen protocol releases, one sweep pass into a fresh store,
one reread pass, one service round.  Every unit of a workload does the
same operations on the same inputs in the same order, so the window is
the same unit repeated until ``--seconds`` is used up, and ``run.py`` can
take each operation at the median of its repeats.  Between operations a
unit runs the reference quantum (``Context.gate``), which tells ``run.py``
how slow the host was while the unit ran (README, "Host noise").
Inputs (spec seeds, overlay and sender seeds, messages, round order) are
made from ``--seed``; the program only ever sees the generated specs,
seeds and messages.

Each workload measures its layer from outside: it times calls into public
functions, and in a traced unit wraps them in :mod:`spans` and hands the
program's own ``repro.obs`` tracer to ``api.run_sweep(trace=...)``.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import api
from repro.cloud import CloudStore
from repro.core import DataReceiver, DataSender, ReleaseTimeline
from repro.core.protocol import ProtocolContext, install_holders
from repro.dht import build_network
from repro.obs import Tracer
from repro.scenarios import Axis
from repro.scenarios.orchestrator import resolve_entries
from repro.scenarios.store import verify_record
from repro.service import job_status, shutdown_service, submit_job, watch_job
from repro.sim.latency import UniformLatency
from repro.util import RandomSource

import checks
import reference
from spans import SpanLog, durations, self_times

#: value, unit
Metric = Tuple[float, str]


@dataclass
class Context:
    """What one benchmark process shares between its workloads."""

    seed: int
    work: Path  # the run's private temp root; everything lives under it
    env: Dict[str, str]  # environment for the program's subprocesses
    tally: checks.Tally
    log: SpanLog
    #: Wall seconds of every reference quantum since the list was last swapped.
    gates: List[float] = field(default_factory=list)

    def gate(self, count: int = 1) -> None:
        """Sample the host's speed here, between two operations."""
        self.gates.extend(reference.quantum() for _ in range(count))

    def fresh_dir(self, label: str) -> Path:
        path = self.work / f"{label}-{time.monotonic_ns()}"
        path.mkdir(parents=True)
        return path


@dataclass
class Unit:
    """One completed unit of the closed loop.

    ``segments_ms`` are the consecutive pieces of the unit's time inside
    the program (the ledger's own checks excluded): they add up to its
    wall.  ``samples_ms`` are the per-operation latencies.  Both come in
    the cycle's fixed order, so position *k* is the same work in every
    unit of the window.
    """

    ops: int
    segments_ms: List[float]
    samples_ms: List[float]
    traced: bool
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Wall seconds of the reference quanta run between its operations.
    gates: List[float] = field(default_factory=list)

    @property
    def wall(self) -> float:
        """Seconds inside the program, as this unit happened to run."""
        return sum(self.segments_ms) / 1e3


def seeded_spec(ctx: Context, scenario: str):
    """The registered scenario with ``--seed`` added to its spec seed."""
    base = api.get_scenario(scenario)
    return base.with_overrides(seed=base.seed + ctx.seed)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """The sample at ``fraction`` of the sorted values (nearest rank)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


class Workload:
    """Set-up, one unit of the loop, cross-unit checks, tear-down."""

    name = ""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        #: What the input generator did that a reader of the record should know.
        self.notes: Dict[str, Any] = {}

    def setup(self) -> None:
        """Build inputs and state, then run one untimed warm-up operation."""

    def unit(self, index: int, traced: bool) -> Unit:
        raise NotImplementedError

    def finish(self, units: Sequence[Unit]) -> None:
        """Checks that span units (run once, after the window)."""

    def teardown(self) -> None:
        """Release whatever ``setup`` acquired; safe to call twice."""

    def layer_metrics(self, units: Sequence[Unit]) -> Dict[str, Metric]:
        """The per-layer numbers this workload's traced units explain."""
        return {}


# -- protocol-release ---------------------------------------------------------

#: The cycle: every scheme at a fast and a slow network, as the
#: ``timeliness`` scenario sweeps them, each on two overlays.
PROTOCOL_GRID = tuple(
    (scheme, max_latency)
    for _overlay in range(2)
    for scheme in ("central", "disjoint", "joint", "share")
    for max_latency in (0.05, 0.5)
)
PATH_LENGTH = 3
OVERLAY_SIZE = 100
MESSAGE_BYTES = 1024
#: Undeliverable seeds set-up skips per run before it takes one as it comes.
SEED_SKIPS = 8


class ProtocolRelease(Workload):
    name = "protocol-release"

    def setup(self) -> None:
        """Choose the cycle's seeds, which doubles as the untimed warm-up.

        Each run of the cycle gets its own overlay seed, made from
        ``--seed``.  On a 100-node overlay key-share routing can resolve
        two hops of one row to the same node, whose holder drops the
        second onion as a duplicate, and about one ``share`` release in a
        hundred is then never delivered.  That is the program's behaviour
        on those inputs, not load the ledger wants to time, so a seed
        whose release fails here is skipped (and counted) and the next
        one tried.
        """
        self.base_seed = 31337 + self.ctx.seed
        self.run_seeds: List[int] = []
        self.notes["skipped_seeds"] = 0
        candidate = self.base_seed
        for scheme, max_latency in PROTOCOL_GRID:
            for _ in range(SEED_SKIPS + 1):
                candidate += 13
                if self._run_one(scheme, max_latency, candidate, b"warm-up")["failure"] is None:
                    break
                self.notes["skipped_seeds"] += 1
            self.run_seeds.append(candidate)  # past the cap the window reports it

    def unit(self, index: int, traced: bool) -> Unit:
        log = self.ctx.log
        log.enabled = traced
        runs = []
        for position, (scheme, max_latency) in enumerate(PROTOCOL_GRID):
            run_seed = self.run_seeds[position]
            message = random.Random(run_seed).randbytes(MESSAGE_BYTES)
            self.ctx.gate(4)
            started = time.perf_counter()
            try:
                with log.span("protocol.run", op=f"cycle-{index}-run-{position}"):
                    outcome = self._run_one(scheme, max_latency, run_seed, message)
            except Exception as error:  # any exception is a failed release
                outcome = {"failure": f"{type(error).__name__}: {error}"}
            wall = time.perf_counter() - started
            if outcome["failure"]:
                self.ctx.tally.fail(
                    f"{self.name} cycle {index} run {position} ({scheme}, seed "
                    f"{run_seed}): {outcome['failure']}"
                )
            else:
                self.ctx.tally.ok()
            runs.append({"scheme": scheme, "wall": wall, **outcome})
        log.enabled = False
        samples = [run["wall"] * 1e3 for run in runs]
        return Unit(
            ops=len(runs),
            segments_ms=samples,
            samples_ms=samples,
            traced=traced,
            extra={"runs": runs},
        )

    def _run_one(
        self, scheme: str, max_latency: float, run_seed: int, message: bytes
    ) -> Dict[str, Any]:
        """The shape of ``experiments.timeliness._run_one`` plus the decrypt."""
        log = self.ctx.log
        latency = UniformLatency(0.001, max_latency, rng=RandomSource(run_seed, "lat"))
        with log.span("dht.build_network"):
            overlay = build_network(OVERLAY_SIZE, seed=run_seed, latency=latency)
        context = ProtocolContext(
            network=overlay.network, resolve_targets=(scheme == "share")
        )
        with log.span("core.install_holders"):
            install_holders(overlay, context)
        alice = DataSender(
            overlay.nodes[overlay.node_ids[0]],
            CloudStore(overlay.loop.clock),
            RandomSource(run_seed + 1, "alice"),
        )
        bob = DataReceiver(overlay.nodes[overlay.node_ids[1]])
        timeline = ReleaseTimeline(0.0, 100.0 * PATH_LENGTH, PATH_LENGTH)
        with log.span(f"core.send.{scheme}"):
            if scheme == "central":
                result = alice.send_centralized(
                    message, timeline.with_path_length(1), bob.node_id
                )
                timeline = result.timeline
            elif scheme == "share":
                result = alice.send_key_share(
                    message,
                    timeline,
                    bob.node_id,
                    share_rows=5,
                    secret_rows=2,
                    thresholds=[1] + [3] * (PATH_LENGTH - 1),
                )
            else:
                result = alice.send_multipath(
                    message,
                    timeline,
                    bob.node_id,
                    replication=3,
                    joint=(scheme == "joint"),
                )
        with log.span("sim.loop_run"):
            overlay.loop.run(until=timeline.release_time + 60.0)
        arrival = bob.release_time_of(result.key_id)
        received = None
        if arrival is not None:
            with log.span("core.receive"):
                received = bob.decrypt_from_cloud(
                    alice.cloud, result.blob.blob_id, result.key_id
                )
        return {
            "failure": checks.release_failure(
                message, received, arrival, timeline.release_time
            ),
            "rpcs": overlay.network.rpc_count,
            "events": overlay.loop.processed_count,
        }

    def layer_metrics(self, units: Sequence[Unit]) -> Dict[str, Metric]:
        spans = self.ctx.log.spans
        runs = [s for s in spans if s["name"] == "protocol.run"]
        own = self_times(spans)
        run_total = sum(s["end"] - s["start"] for s in runs)
        metrics: Dict[str, Metric] = {
            "dht.build_network_ms": (
                mean(durations(spans, "dht.build_network")) * 1e3, "ms"),
            "core.install_holders_ms": (
                mean(durations(spans, "core.install_holders")) * 1e3, "ms"),
            "sim.loop_run_ms": (mean(durations(spans, "sim.loop_run")) * 1e3, "ms"),
            "core.receive_ms": (mean(durations(spans, "core.receive")) * 1e3, "ms"),
            "protocol.unattributed_share": (
                sum(own[s["id"]] for s in runs) / run_total if run_total else 0.0,
                "ratio",
            ),
        }
        traced_runs = [run for unit in units if unit.traced for run in unit.extra["runs"]]
        for scheme in ("central", "disjoint", "joint", "share"):
            metrics[f"core.send_ms.{scheme}"] = (
                mean(durations(spans, f"core.send.{scheme}")) * 1e3, "ms")
            metrics[f"core.run_ms.{scheme}"] = (
                mean([r["wall"] for r in traced_runs if r["scheme"] == scheme]) * 1e3,
                "ms",
            )
        # Exact for a seed: every cycle replays the same runs.
        first = units[0].extra["runs"]
        metrics["dht.rpcs_per_run"] = (mean([r.get("rpcs", 0) for r in first]), "count")
        metrics["sim.events_per_run"] = (
            mean([r.get("events", 0) for r in first]), "count")
        return metrics


# -- the sweep stack ----------------------------------------------------------


class _ListSink:
    """Keeps the program's trace records in memory (``emit``/``close``)."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def emit(self, record: Dict[str, Any]) -> None:
        self.records.append(dict(record))

    def close(self) -> None:
        pass


class SweepWorkload(Workload):
    """A pass = ``api.run_sweep`` of every planned scenario into one store."""

    #: (scenario, trials override or None for the spec's own)
    plan: Tuple[Tuple[str, Optional[int]], ...] = ()
    all_cached = False
    #: One reference quantum per this many points, from the progress callback.
    gate_every = 1

    def setup(self) -> None:
        self.specs = []
        self.keys_per_spec = []
        for scenario, trials in self.plan:
            spec = seeded_spec(self.ctx, scenario)
            self.specs.append((spec, trials))
            _, _, entries = resolve_entries(spec, trials=trials)
            self.keys_per_spec.append([entry.key for entry in entries])
        self.digests: List[str] = []
        self._warm_up()

    def _warm_up(self) -> None:
        """One untimed point per scenario, so lazy imports are loaded."""
        store = self.ctx.fresh_dir("warm")
        for spec, trials in self.specs:
            first_point = replace(
                spec, axes=tuple(Axis(a.name, a.values[:1]) for a in spec.axes)
            )
            api.run_sweep(first_point, store=store, trials=trials)

    def _store_for(self, index: int) -> Path:
        # Left in place until the run's work root goes: deleting a store
        # between passes makes the file system trim blocks inside the
        # window, and the next pass then times that instead of the program.
        return self.ctx.fresh_dir(f"pass{index}")

    def unit(self, index: int, traced: bool) -> Unit:
        log = self.ctx.log
        log.enabled = traced
        store = self._store_for(index)
        op = f"{self.name}-pass-{index}"
        gated = not traced  # in a traced unit a gate would sit inside the program's spans
        reports, samples, tails = [], [], []
        with log.span("ledger.pass", op=op):
            for spec, trials in self.specs:
                arrivals: List[float] = []  # when each point was reported
                resumed: List[float] = []  # when the sweep went on after it

                def on_point(*_: Any) -> None:
                    arrivals.append(time.perf_counter())
                    if gated and len(arrivals) % self.gate_every == 0:
                        self.ctx.gate()
                    resumed.append(time.perf_counter())

                sink = _ListSink() if traced else None
                epoch = time.perf_counter()
                tracer = Tracer(sink) if traced else None
                started = time.perf_counter()
                with log.span("api.run_sweep", op=op) as sweep_span:
                    report = api.run_sweep(
                        spec,
                        store=store,
                        trials=trials,
                        progress=on_point,
                        trace=tracer,
                    )
                    ended = time.perf_counter()
                if sink is not None:
                    log.adopt_obs_records(sink.records, epoch, sweep_span["id"], op)
                reports.append(report)
                samples.extend(
                    (b - a) * 1e3 for a, b in zip([started] + resumed, arrivals)
                )
                # What run_sweep does after its last point: seal the
                # journal, build the report.
                tails.append((ended - (resumed[-1] if resumed else started)) * 1e3)
            tails.extend(self._after_sweeps(store, index))
        log.enabled = False
        where = f"{self.name} pass {index}"
        checks.check_sweep_pass(
            self.ctx.tally, reports, self.keys_per_spec, len(samples), self.all_cached, where
        )
        checks.check_store_clean(self.ctx.tally, api.verify_store(store), where)
        self.digests.append(checks.store_digest(store))
        return Unit(
            ops=len(samples),
            segments_ms=samples + tails,
            samples_ms=samples,
            traced=traced,
            extra={"trials_run": sum(report.trials_run for report in reports)},
        )

    def _after_sweeps(self, store: Path, index: int) -> List[float]:
        """Program work that belongs to the unit after its sweeps, timed (ms)."""
        return []

    def finish(self, units: Sequence[Unit]) -> None:
        checks.check_digests_equal(self.ctx.tally, self.digests, self.name)

    def layer_metrics(self, units: Sequence[Unit]) -> Dict[str, Metric]:
        """The point / engine / backend.call split the program's tracer gives."""
        prefix = f"{self.name}-pass-"
        spans = [s for s in self.ctx.log.spans if (s["op"] or "").startswith(prefix)]
        traced_wall = sum(unit.wall for unit in units if unit.traced)
        own = self_times(spans)
        points = [s for s in spans if s["name"] == "point"]
        engines = [s for s in spans if s["name"] == "engine"]
        calls = [s for s in spans if s["name"] == "backend.call"]
        engine_by_point: Dict[int, float] = {}
        by_id = {s["id"]: s for s in spans}
        for engine in engines:
            # An engine span sits under its point, directly or through a
            # kernel's own span (``epoch.point``).
            parent = by_id.get(engine["parent"])
            while parent is not None and parent["name"] != "point":
                parent = by_id.get(parent["parent"])
            if parent is not None:
                engine_by_point[parent["id"]] = engine_by_point.get(
                    parent["id"], 0.0
                ) + (engine["end"] - engine["start"])
        overhead = [
            (p["end"] - p["start"]) - engine_by_point.get(p["id"], 0.0) for p in points
        ]
        engine_total = sum(e["end"] - e["start"] for e in engines)
        overhead_share = sum(overhead) / traced_wall if traced_wall else 0.0
        engine_share = engine_total / traced_wall if traced_wall else 0.0
        suffix = self.name
        return {
            f"scenarios.point_overhead_ms.{suffix}": (mean(overhead) * 1e3, "ms"),
            f"scenarios.point_overhead_share.{suffix}": (overhead_share, "ratio"),
            f"experiments.engine_ms_per_point.{suffix}": (
                engine_total / len(points) * 1e3 if points else 0.0, "ms"),
            f"experiments.engine_share.{suffix}": (engine_share, "ratio"),
            f"scenarios.unattributed_share.{suffix}": (
                1.0 - overhead_share - engine_share, "ratio"),
            f"backends.call_self_ms.{suffix}": (
                mean([own[c["id"]] for c in calls]) * 1e3, "ms"),
            f"trials_per_s.{suffix}": (
                statistics.median(u.extra["trials_run"] / u.wall for u in units),
                "trial/s",
            ),
        }


class SweepPoints(SweepWorkload):
    name = "sweep-points"
    plan = (("fig7", 100), ("heavy-churn", 100), ("fig8", 100), ("availability", 100))


class SweepTrials(SweepWorkload):
    name = "sweep-trials"
    plan = (("fig6a", 1000), ("adaptive-observation", 100), ("epoch-churn-grid", 100))


class StoreReread(SweepWorkload):
    name = "store-reread"
    plan = SweepPoints.plan
    all_cached = True
    gate_every = 4

    def setup(self) -> None:
        super().setup()
        self.store = self.ctx.fresh_dir("populated")
        for spec, trials in self.specs:
            api.run_sweep(spec, store=self.store, trials=trials)
        self.populated_digest = checks.store_digest(self.store)
        self.records = len({key for keys in self.keys_per_spec for key in keys})

    def _warm_up(self) -> None:
        pass  # populating the store is the warm-up

    def _store_for(self, index: int) -> Path:
        return self.store

    def _after_sweeps(self, store: Path, index: int) -> List[float]:
        log = self.ctx.log
        started = time.perf_counter()
        with log.span("api.verify_store"):
            verified = api.verify_store(store)
        verify_ended = time.perf_counter()
        loaded = []
        with log.span("api.load_results"):
            for spec, _ in self.specs:
                loaded.extend(api.load_results(store, spec))
        load_ended = time.perf_counter()
        where = f"{self.name} pass {index}"
        checks.check_store_clean(self.ctx.tally, verified, where)
        checks.check_loaded_records(
            self.ctx.tally, loaded, verify_record, self.records, where
        )
        return [(verify_ended - started) * 1e3, (load_ended - verify_ended) * 1e3]

    def finish(self, units: Sequence[Unit]) -> None:
        checks.check_digests_equal(
            self.ctx.tally, [self.populated_digest, *self.digests], self.name
        )

    def layer_metrics(self, units: Sequence[Unit]) -> Dict[str, Metric]:
        return {}  # its layers are the store and journal probes


# -- service-overlap ----------------------------------------------------------

READY_MARK = "repro sweep service ready:"
DAEMON_START_TIMEOUT = 60.0
COLD_SCENARIOS = ("fig7", "heavy-churn")
WARM_SCENARIO = "fig7"
BASE_TRIALS = 100


class ServiceOverlap(Workload):
    name = "service-overlap"

    def setup(self) -> None:
        self.proc: Optional[subprocess.Popen] = None
        self.exit_code: Optional[int] = None
        self.address = ""
        store = self.ctx.fresh_dir("service-store")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--bind", "127.0.0.1:0", "--store", str(store),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=self.ctx.env,
            cwd=self.ctx.work,
        )
        watchdog = threading.Timer(DAEMON_START_TIMEOUT, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        if READY_MARK not in line:
            raise RuntimeError(f"sweep service did not come up: {line!r}")
        self.address = line.split(READY_MARK, 1)[1].split()[0]
        accepted = submit_job(self.address, "smoke")  # untimed warm-up job
        watch_job(self.address, accepted["job"])
        # Which client of a round submits first: picked by the seed, and
        # the same for every round of a run so the rounds repeat.
        self.second_client_first = random.Random(self.ctx.seed * 7919).random() < 0.5

    def _distinct_keys(self, trials: int) -> int:
        """How many points a cold phase may compute: its distinct cache keys."""
        keys = set()
        for scenario in COLD_SCENARIOS:
            _, _, entries = resolve_entries(api.get_scenario(scenario), trials=trials)
            keys.update(entry.key for entry in entries)
        return len(keys)

    def _client(self, scenario: str, trials: int, record: Dict[str, Any]) -> None:
        """One closed-loop client: submit, then follow the stream to its end."""
        record.update(scenario=scenario, frames=[])
        try:
            record["sent"] = time.perf_counter()
            accepted = submit_job(self.address, scenario, trials=trials)
            record["accepted"] = time.perf_counter()
            record["job"] = watch_job(
                self.address,
                accepted["job"],
                on_frame=lambda _: record["frames"].append(time.perf_counter()),
            )
        except Exception as error:  # any exception is a failed job
            record["error"] = f"{type(error).__name__}: {error}"
        record["done"] = time.perf_counter()

    def _phase(self, scenarios: Sequence[str], trials: int) -> Tuple[float, List[Dict]]:
        """Both clients at once; their records come back in ``scenarios`` order."""
        records: List[Dict[str, Any]] = [{} for _ in scenarios]
        threads = [
            threading.Thread(target=self._client, args=(scenario, trials, record))
            for scenario, record in zip(scenarios, records)
        ]
        if self.second_client_first:
            threads.reverse()
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - started, records

    @staticmethod
    def _chain(client: Dict[str, Any]) -> List[float]:
        """A job as its watcher saw it: submit → frame → ... → frame → done, in ms."""
        marks = [client["sent"], *client["frames"], client["done"]]
        return [(b - a) * 1e3 for a, b in zip(marks, marks[1:])]

    def unit(self, index: int, traced: bool) -> Unit:
        log = self.ctx.log
        log.enabled = traced
        # A trial count no earlier round used, so nothing is cached.
        trials = BASE_TRIALS + index
        op = f"round-{index}"
        # The work is the daemon's; the client threads only wait for
        # frames, so a side thread samples the host while the round lasts.
        with reference.sampling(interval=0.01) as quanta:
            with log.span("service.round", op=op) as round_span:
                cold_wall, cold = self._phase(COLD_SCENARIOS, trials)
                warm_wall, warm = self._phase([WARM_SCENARIO, WARM_SCENARIO], trials)
        self.ctx.gates.extend(quanta)
        if traced:
            for phase, clients in (("cold", cold), ("warm", warm)):
                for client in clients:
                    job = log.add(
                        f"service.job.{phase}", client["sent"], client["done"],
                        parent=round_span["id"], op=op,
                    )
                    if "accepted" in client:
                        log.add("service.submit", client["sent"], client["accepted"],
                                parent=job, op=op)
        log.enabled = False
        where = f"{self.name} round {index}"
        for label, clients, distinct in (
            ("cold", cold, self._distinct_keys(trials)),
            ("warm", warm, 0),
        ):
            failed = [c for c in clients if "error" in c]
            for client in failed:
                self.ctx.tally.fail(f"{where} {label} {client['scenario']}: {client['error']}")
            good = [c for c in clients if "error" not in c]
            checks.check_service_round(
                self.ctx.tally,
                [c["job"] for c in good],
                [len(c["frames"]) for c in good],
                distinct if not failed else None,
                f"{where} {label}",
            )
        # The daemon serves one point at a time, turn and turn about, so
        # a phase lasts as long as its longest job: that job's chain of
        # frames is the phase's wall, cut at the same places every round.
        segments = []
        for clients in (cold, warm):
            segments.extend(self._chain(max(clients, key=lambda c: len(c["frames"]))))
        samples = [gap for client in cold for gap in self._chain(client)[:-1]]
        jobs = [c["job"] for c in cold + warm if "job" in c]
        return Unit(
            ops=sum(len(c["frames"]) for c in cold + warm),
            segments_ms=segments,
            samples_ms=samples,
            traced=traced,
            extra={
                "trials": trials,
                "cold_wall": cold_wall,
                "submit_ms": [
                    (c["accepted"] - c["sent"]) * 1e3 for c in cold if "accepted" in c
                ],
                "first_frame_ms": [
                    (c["frames"][0] - c["sent"]) * 1e3 for c in cold if c["frames"]
                ],
                "job_ms": [(c["done"] - c["sent"]) * 1e3 for c in cold],
                "warm_job_ms": [(c["done"] - c["sent"]) * 1e3 for c in warm],
                "computed": sum(job["computed"] for job in jobs),
                "cached": sum(job["cached"] for job in jobs),
                "dedup_hits": sum(job["dedup_hits"] for job in jobs),
            },
        )

    def teardown(self) -> None:
        """Always ``shutdown`` then reap; kill only a daemon that will not go."""
        proc = getattr(self, "proc", None)
        if proc is None:
            return
        self.proc = None
        try:
            if proc.poll() is None:
                try:
                    shutdown_service(self.address)
                except OSError:
                    pass  # already gone, or never came up: reap it below
            try:
                self.exit_code = proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                self.exit_code = proc.wait()
        finally:
            proc.stdout.close()
        if self.exit_code != 0:
            self.ctx.tally.violated(
                f"{self.name}: daemon exited {self.exit_code} after shutdown"
            )

    def layer_metrics(self, units: Sequence[Unit]) -> Dict[str, Metric]:
        def pooled(key: str) -> List[float]:
            return [value for unit in units for value in unit.extra[key]]

        status_ms = []
        for _ in range(20):
            started = time.perf_counter()
            job_status(self.address)
            status_ms.append((time.perf_counter() - started) * 1e3)
        # The price of the daemon path: the first round's cold phase
        # against the same two scenarios through the in-process driver.
        first = units[0]
        store = self.ctx.fresh_dir("driver")
        started = time.perf_counter()
        for scenario in COLD_SCENARIOS:
            api.run_sweep(scenario, store=store, trials=first.extra["trials"])
        driver_wall = time.perf_counter() - started
        return {
            "service.submit_rtt_ms": (statistics.median(pooled("submit_ms")), "ms"),
            "service.status_rtt_ms": (statistics.median(status_ms), "ms"),
            "service.warm_job_ms": (statistics.median(pooled("warm_job_ms")), "ms"),
            "first_frame_p50_ms": (statistics.median(pooled("first_frame_ms")), "ms"),
            "job_p50_ms": (statistics.median(pooled("job_ms")), "ms"),
            # Counts of the first round: exact whatever the window fitted.
            "service.computed_points": (first.extra["computed"], "count"),
            "service.cached_points": (first.extra["cached"], "count"),
            "service.dedup_hits": (first.extra["dedup_hits"], "count"),
            "service.vs_driver_ratio": (first.extra["cold_wall"] / driver_wall, "ratio"),
        }


WORKLOADS = {
    cls.name: cls
    for cls in (ProtocolRelease, SweepPoints, SweepTrials, StoreReread, ServiceOverlap)
}


def subprocess_env(root: Path, work: Path) -> Dict[str, str]:
    """The program's subprocesses import this checkout and stay inside ``work``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(work)
    return env
