"""Per-layer probes: one public function of a layer, replayed at the
workloads' own input shapes.

A probe is not a workload.  It answers "what does this layer cost on its
own?", so that when an end-to-end number moves the ledger can say which
layer moved it.  Every probe reports the median of a few repeats of a
fixed amount of work; none has a regression bound.
"""

from __future__ import annotations

import os
import socket
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

from repro import api
from repro.backends.wire import decode_blob, encode_blob, recv_message, send_message
from repro.cloud import CloudStore
from repro.core.onion import OnionCore, build_onion, peel_onion
from repro.core.planner import plan_configuration
from repro.crypto.cipher import decrypt, encrypt
from repro.crypto.shamir import combine_shares, split_secret
from repro.dht import build_network
from repro.dht.node_id import NodeId
from repro.epoch import EPOCH_METRICS
from repro.experiments.engine import TrialEngine
from repro.experiments.executors import TrialTask
from repro.experiments.timeliness import TimelinessTrial
from repro.scenarios import ResultStore, SweepJournal, point_cache_key, sweep_spec_hash
from repro.scenarios.orchestrator import resolve_entries
from repro.scenarios.runners import get_runner
from repro.util import RandomSource

import checks
from workloads import Context, Metric, seeded_spec

REPEATS = 5
SUBPROCESS_REPEATS = 3
KEY = bytes(range(32))


def median_seconds(work: Callable[[], Any], repeats: int = REPEATS) -> float:
    """Median wall of ``repeats`` calls, after one untimed call."""
    work()
    walls = []
    for _ in range(repeats):
        started = time.perf_counter()
        work()
        walls.append(time.perf_counter() - started)
    return statistics.median(walls)


# -- cli ----------------------------------------------------------------------


def _spawn_seconds(ctx: Context, args: List[str]) -> float:
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *args],
        env=ctx.env,
        cwd=ctx.work,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    wall = time.perf_counter() - started
    if done.returncode != 0:
        ctx.tally.fail(f"subprocess {' '.join(args)} exited {done.returncode}")
    else:
        ctx.tally.ok()
    return wall


def probe_cli(ctx: Context) -> Dict[str, Metric]:
    """Process start to store bytes, and how much of it is the import."""
    starts, imports, bare = [], [], []
    for _ in range(SUBPROCESS_REPEATS):
        store = ctx.fresh_dir("cli-store")
        starts.append(
            _spawn_seconds(
                ctx, ["-m", "repro.cli", "sweep", "run", "smoke", "--store", str(store)]
            )
        )
        if not list(store.rglob("*.json")):
            ctx.tally.violated("cli sweep run smoke left no record in its store")
        imports.append(_spawn_seconds(ctx, ["-c", "import repro.cli"]))
        bare.append(_spawn_seconds(ctx, ["-c", "pass"]))

    def smoke() -> None:
        store = ctx.fresh_dir("smoke")
        api.run_sweep("smoke", store=store)

    return {
        "cli_start_s": (statistics.median(starts), "s"),
        "cli.import_s": (statistics.median(imports) - statistics.median(bare), "s"),
        "cli.smoke_sweep_ms": (median_seconds(smoke) * 1e3, "ms"),
    }


# -- scenarios: expansion, journal, store -------------------------------------


def probe_expand(ctx: Context) -> Dict[str, Metric]:
    spec = seeded_spec(ctx, "fig7")

    def expand() -> None:
        for point in spec.points():
            point_cache_key(spec, point.values, trials=100)

    return {
        "scenarios.expand_us_per_point": (
            median_seconds(expand) / spec.point_count * 1e6, "us")
    }


def probe_journal(ctx: Context) -> Dict[str, Metric]:
    """Replay a fig7 sweep's journal traffic: begin, two marks per key, seal."""
    _, _, entries = resolve_entries(seeded_spec(ctx, "fig7"), trials=100)
    keys = [entry.key for entry in entries]
    spec_hash = sweep_spec_hash(keys)
    pid_digits = len(str(os.getpid()))

    def replay() -> Tuple[float, float, int]:
        root = ctx.fresh_dir("journal")
        journal = SweepJournal(root, "fig7")
        written = 0
        journal.begin(spec_hash, len(keys))
        started = time.perf_counter()
        for index, key in enumerate(keys):
            journal.point_started(key, index)
            written += journal.path.stat().st_size - pid_digits
            journal.point_finished(key, index)
            written += journal.path.stat().st_size - pid_digits
        mark_wall = time.perf_counter() - started
        journal.complete()
        # The resume path: a second driver opening the sealed journal.
        resumed = SweepJournal(root, "fig7")
        started = time.perf_counter()
        resumed.begin(spec_hash, len(keys))
        begin_wall = time.perf_counter() - started
        resumed.complete()
        return mark_wall, begin_wall, written

    # Each replay rewrites the whole journal per mark, so three are enough
    # to cost seconds.  The pid is the only part of a journal whose width
    # varies by process; with it taken out the byte count is exact.
    replays = [replay() for _ in range(3)]
    mark_walls, begin_walls, written = zip(*replays)
    return {
        "scenarios.journal.mark_us": (
            statistics.median(mark_walls) / (2 * len(keys)) * 1e6, "us"),
        "scenarios.journal.bytes_per_sweep": (written[0], "bytes"),
        "scenarios.journal.begin_ms": (statistics.median(begin_walls) * 1e3, "ms"),
    }


def probe_store(ctx: Context) -> Dict[str, Metric]:
    """Save, verified load, verify and claim over two kinds of real records."""
    source = ctx.fresh_dir("store-source")
    records = []
    for scenario in ("fig8", "availability"):
        report = api.run_sweep(seeded_spec(ctx, scenario), store=source, trials=100)
        records.extend((scenario, record["key"], record) for record in report.records)
    files = checks.record_files(source)
    tree_bytes = sum(path.stat().st_size for path in files)

    def save_seconds() -> float:
        target = ctx.fresh_dir("store-save")
        store = ResultStore(target)
        started = time.perf_counter()
        for scenario, key, record in records:
            store.save(scenario, key, record)
        return time.perf_counter() - started

    populated = ResultStore(source)

    def load() -> None:
        for scenario, key, _ in records:
            populated.load_verified(scenario, key)

    def claim() -> None:
        for scenario, key, _ in records:
            populated.claim(scenario, key).release()

    count = len(records)
    return {
        "scenarios.store.save_us": (
            statistics.median(save_seconds() for _ in range(REPEATS)) / count * 1e6,
            "us",
        ),
        "scenarios.store.load_verified_us": (median_seconds(load) / count * 1e6, "us"),
        "scenarios.store.verify_us_per_record": (
            median_seconds(lambda: api.verify_store(source)) / count * 1e6, "us"),
        "scenarios.store.claim_us": (median_seconds(claim) / count * 1e6, "us"),
        "scenarios.store.bytes_per_record": (tree_bytes / len(files), "bytes"),
    }


# -- core.planner, experiments, backends, util --------------------------------


def probe_planner(ctx: Context) -> Dict[str, Metric]:
    spec = api.get_scenario("fig7")
    rates = next(axis.values for axis in spec.axes if axis.name == "p")
    population = spec.fixed["population_size"]

    def plan() -> None:
        for scheme in ("central", "disjoint", "joint"):
            for rate in rates:
                plan_configuration(scheme, rate, population)

    return {"core.planner.plan_ms": (median_seconds(plan) * 1e3, "ms")}


#: kernel name → (scenario it serves, trials at the workload's setting)
KERNELS = {
    "attack": ("fig6a", 1000),
    "churn": ("fig7", 100),
    "share_cost": ("fig8", 100),
    "availability": ("availability", 100),
}


def _mid_point_call(ctx: Context, scenario: str, trials) -> Callable[[], Dict[str, Any]]:
    spec = seeded_spec(ctx, scenario)
    points = spec.points()
    params = points[len(points) // 2].params(spec)
    runner = get_runner(spec.kind)
    budget = spec.trials if trials is None else trials
    return lambda: runner(
        params, budget, spec.seed, TrialEngine(), spec.engine.batch_size
    )


def probe_kernels(ctx: Context) -> Dict[str, Metric]:
    metrics: Dict[str, Metric] = {}
    for kernel, (scenario, trials) in KERNELS.items():
        call = _mid_point_call(ctx, scenario, trials)
        ran = call()["trials_run"]
        metrics[f"experiments.kernel_trials_per_s.{kernel}"] = (
            ran / median_seconds(call), "trial/s")
    adaptive = _mid_point_call(ctx, "adaptive-observation", 100)
    metrics["adversary.adaptive_ms_per_point"] = (
        median_seconds(adaptive, repeats=3) * 1e3, "ms")

    epoch = _mid_point_call(ctx, "epoch-churn-grid", None)
    epoch()
    before = EPOCH_METRICS.counter_values("epoch.", strip=True).get("node_epochs", 0)
    started = time.perf_counter()
    for _ in range(REPEATS):
        epoch()
    wall = time.perf_counter() - started
    after = EPOCH_METRICS.counter_values("epoch.", strip=True).get("node_epochs", 0)
    metrics["epoch.node_epochs_per_s"] = ((after - before) / wall, "node-epoch/s")
    return metrics


def _never(rng) -> bool:
    return False


def probe_engine_and_rng(ctx: Context) -> Dict[str, Metric]:
    trials = 1000
    engine = TrialEngine()
    source = RandomSource(ctx.seed, "ledger")
    forks = 10000

    def fork() -> None:
        for index in range(forks):
            source.fork(f"t-{index}")

    return {
        "experiments.engine_dispatch_us": (
            median_seconds(lambda: engine.run(_never, trials=trials, seed=ctx.seed))
            / trials * 1e6,
            "us",
        ),
        "util.rng.fork_us": (median_seconds(fork) / forks * 1e6, "us"),
    }


def probe_wire(ctx: Context) -> Dict[str, Metric]:
    task = TrialTask(
        seed=ctx.seed,
        label="ledger-span",
        indexed_trial=TimelinessTrial("joint", 0.05, ctx.seed, 3),
    )
    reply = list(range(100))
    rounds = 200

    def blobs() -> None:
        for _ in range(rounds):
            decode_blob(encode_blob(task))
            decode_blob(encode_blob(reply))

    frame = {"op": "frame", "body": "x" * 1024}
    left, right = socket.socketpair()
    try:
        def frames() -> None:
            for _ in range(rounds):
                send_message(left, frame)
                send_message(right, recv_message(right))
                recv_message(left)

        frame_wall = median_seconds(frames)
    finally:
        left.close()
        right.close()
    return {
        "backends.wire.blob_roundtrip_us": (median_seconds(blobs) / rounds * 1e6, "us"),
        "backends.wire.frame_rtt_us": (frame_wall / rounds * 1e6, "us"),
    }


# -- dht, core, crypto, cloud -------------------------------------------------


def probe_protocol_parts(ctx: Context) -> Dict[str, Metric]:
    overlay = build_network(100, seed=31337 + ctx.seed)
    node = overlay.any_node()
    targets = [NodeId.random(RandomSource(ctx.seed, "lookup")) for _ in range(200)]
    rng = RandomSource(ctx.seed, "onion")
    layer_keys = [rng.random_bytes(32) for _ in range(3)]
    hop_ids = [[b"hop-a", b"hop-b"] for _ in range(2)] + [[]]
    core = OnionCore(secret=KEY, receiver_id=b"receiver")
    payload = RandomSource(ctx.seed, "payload").random_bytes(64 * 1024)
    blob = bytes(1024)

    def lookups() -> None:
        for target in targets:
            node.iterative_find_node(target)

    def onion() -> None:
        current = build_onion(layer_keys, hop_ids, core, rng=rng)
        for key in layer_keys:
            layer, found = peel_onion(key, current)
            current = layer.remaining
        if found.secret != KEY:
            raise AssertionError("onion probe peeled the wrong secret")

    def shamir() -> None:
        if combine_shares(split_secret(KEY, 3, 5, rng)[:3]) != KEY:
            raise AssertionError("shamir probe recovered the wrong secret")

    def cipher() -> None:
        if decrypt(KEY, encrypt(KEY, payload)) != payload:
            raise AssertionError("cipher probe decrypted the wrong bytes")

    def cloud() -> None:
        store = CloudStore()
        for index in range(100):
            meta = store.upload("alice", blob, blob_id=f"blob-{index}")
            store.download(meta.blob_id, "bob")

    return {
        "dht.lookup_us": (median_seconds(lookups) / len(targets) * 1e6, "us"),
        "core.onion_build_peel_us": (median_seconds(onion, 20) * 1e6, "us"),
        "crypto.shamir_split_combine_us": (median_seconds(shamir, 20) * 1e6, "us"),
        "crypto.cipher_mb_per_s": (
            2 * len(payload) / 1e6 / median_seconds(cipher), "MB/s"),
        "cloud.put_get_us": (median_seconds(cloud) / 100 * 1e6, "us"),
    }


PROBES = (
    probe_cli,
    probe_expand,
    probe_journal,
    probe_store,
    probe_planner,
    probe_kernels,
    probe_engine_and_rng,
    probe_wire,
    probe_protocol_parts,
)


def run_probes(ctx: Context) -> Dict[str, Metric]:
    metrics: Dict[str, Metric] = {}
    for probe in PROBES:
        metrics.update(probe(ctx))
    return metrics
