"""Correctness checks the benchmark runs on the program's outputs.

Every workload's operations are counted here: an operation that fails a
check is *failed*, never dropped, and any failure makes the run incorrect
(non-zero exit).  The checks are the determinism contract and the paper's
release guarantee stated as code:

- a release is delivered, not before ``tr``, and decrypts to the sent
  plaintext (``early_releases == 0``);
- a sweep pass reports every point of every spec, computes each distinct
  cache key exactly once and serves the rest from the store;
- the store verifies clean, and its record bytes are the same for every
  pass of one seed (:func:`store_digest`);
- a service round computes each distinct key exactly once across both
  concurrent jobs, and every job ends ``done``.

:data:`EXACT_COUNTS` names the per-layer metrics that are counts made by
the program and must repeat exactly for a seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

#: Per-layer metrics that are exact for a seed: two runs of one commit
#: with one seed must print identical values.
EXACT_COUNTS = (
    "dht.rpcs_per_run",
    "sim.events_per_run",
    "scenarios.journal.bytes_per_sweep",
    "scenarios.store.bytes_per_record",
    "service.computed_points",
)


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def ok(self, ops: int = 1) -> None:
        self.attempted += ops

    def fail(self, reason: str, ops: int = 1) -> None:
        """Count ``ops`` operations as attempted and failed."""
        self.attempted += ops
        self.failed += ops
        self.reasons.append(reason)

    def violated(self, reason: str) -> None:
        """A broken invariant that belongs to no single operation."""
        self.reasons.append(reason)

    @property
    def correct(self) -> bool:
        return not self.reasons


# -- protocol-release ---------------------------------------------------------


def release_failure(
    sent: bytes,
    received: Optional[bytes],
    arrival: Optional[float],
    release_time: float,
) -> Optional[str]:
    """Why one end-to-end release is wrong, or ``None`` when it is right."""
    if arrival is None:
        return "key never delivered"
    if arrival < release_time:
        return f"early release: arrived {arrival} before tr {release_time}"
    if received != sent:
        return "plaintext mismatch"
    return None


# -- sweeps and the store -----------------------------------------------------


def record_files(root) -> List[Path]:
    """A store's record files, sorted.

    Journals and claim files are coordination state (they carry pids and
    tokens), not results, and are left out; so is anything quarantined.
    """
    root = Path(root)
    return sorted(
        path for path in root.rglob("*.json")
        if not any(part.startswith(".") for part in path.relative_to(root).parts)
    )


def store_digest(root) -> str:
    """sha256 over the sorted ``(relative path, bytes)`` of a store's records."""
    digest = hashlib.sha256()
    for path in record_files(root):
        relative = path.relative_to(root)
        digest.update(relative.as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def check_sweep_pass(
    tally: Tally,
    reports: Sequence[Any],
    keys_per_spec: Sequence[Sequence[str]],
    seen_ops: int,
    expect_all_cached: bool,
    where: str,
) -> None:
    """Account one pass: every point reported, each distinct key computed once.

    ``seen_ops`` is how many points the progress callback delivered; a
    point missing from a report, or delivered but unreported, is a failed
    operation.
    """
    expected_points = sum(len(keys) for keys in keys_per_spec)
    reported = sum(report.points for report in reports)
    computed = sum(report.computed for report in reports)
    cached = sum(report.cached for report in reports)
    distinct = len({key for keys in keys_per_spec for key in keys})
    missing = expected_points - min(reported, seen_ops)
    if missing > 0:
        tally.fail(f"{where}: {missing} point(s) missing from the report", missing)
    tally.ok(expected_points - max(missing, 0))
    for report, keys in zip(reports, keys_per_spec):
        if report.points != len(keys) or report.points != report.spec.point_count:
            tally.violated(
                f"{where}: {report.spec.name} reported {report.points} points, "
                f"spec has {len(keys)}"
            )
    want_computed = 0 if expect_all_cached else distinct
    if computed != want_computed or computed + cached != expected_points:
        tally.violated(
            f"{where}: computed {computed} (want {want_computed}), "
            f"cached {cached} of {expected_points} points"
        )


def check_store_clean(tally: Tally, report: Any, where: str) -> None:
    if not report.clean:
        bad = len(report.bad_paths())
        tally.violated(f"{where}: store verify found {bad} damaged record(s)")


def check_digests_equal(tally: Tally, digests: Iterable[str], where: str) -> None:
    distinct = set(digests)
    if len(distinct) > 1:
        tally.violated(
            f"{where}: store bytes differ between passes of one seed "
            f"({len(distinct)} digests) — determinism contract broken"
        )


def check_loaded_records(
    tally: Tally, records: Sequence[Dict[str, Any]], verify, expected: int, where: str
) -> None:
    """``api.load_results`` returned every record and each one verifies."""
    if len(records) != expected:
        tally.violated(f"{where}: loaded {len(records)} records, want {expected}")
    bad = sum(1 for record in records if verify(record) != "ok")
    if bad:
        tally.violated(f"{where}: {bad} loaded record(s) fail verify")


# -- service-overlap ----------------------------------------------------------


def check_service_round(
    tally: Tally,
    jobs: Sequence[Dict[str, Any]],
    frames: Sequence[int],
    distinct_keys: Optional[int],
    where: str,
) -> None:
    """Account one phase of a round: both jobs done, shared work done once.

    ``distinct_keys`` is the number of distinct cache keys the phase may
    compute (``0`` for the all-cached re-submit); ``frames`` is how many
    point frames each watcher received.
    """
    for job, seen in zip(jobs, frames):
        points = job["points"]
        if job["status"] != "done":
            tally.fail(f"{where}: {job['job']} ended {job['status']!r}", points)
            continue
        lost = points - min(seen, job["computed"] + job["cached"])
        if lost > 0:
            tally.fail(f"{where}: {job['job']} lost {lost} point frame(s)", lost)
        tally.ok(points - max(lost, 0))
    computed = sum(job["computed"] for job in jobs)
    if distinct_keys is not None and computed != distinct_keys:
        tally.violated(
            f"{where}: computed {computed} points for {distinct_keys} distinct "
            f"keys — shared work was {'wasted' if computed > distinct_keys else 'skipped'}"
        )
