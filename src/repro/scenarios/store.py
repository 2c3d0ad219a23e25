"""Content-addressed, resumable result store for scenario sweeps.

Every sweep point is cached as one JSON file whose name is a hash of
everything that determines the point's numbers:

- the scenario *kind* and the point's full parameter set (fixed + axes),
- the trial count and root seed,
- the resolved per-point tolerance,
- the result-shaping engine settings (:class:`~repro.scenarios.spec.EngineSettings`).

Deliberately **excluded** from the key: the scenario's display name and
description (renaming a scenario must not invalidate its results) and the
worker count (the engine's determinism contract guarantees ``jobs`` never
changes results, so serial and parallel runs share cache entries).

Layout::

    <root>/<scenario-name>/<key>.json     # one record per computed point

The scenario directory is a browsing convenience, not part of the
identity: lookups try the scenario's own directory first and then fall
back to any sibling directory holding the same content key, so a renamed
scenario — or a different scenario whose grid overlaps point-for-point —
reuses the cached results instead of recomputing them.

Records are written atomically (temp file + rename), so a sweep killed
mid-write never leaves a truncated record behind — which is what makes
``repro sweep resume`` safe: finished points load from the store, the
interrupted point recomputes.

Generation-3 records additionally carry a ``checksum`` field — a SHA-256
over the record's canonical JSON (checksum excluded) — so torn copies,
bit rot, and manual edits are *detected*, not silently resumed from:
:meth:`ResultStore.verify` reports them, :meth:`ResultStore.repair`
moves them into a ``.quarantine/`` directory (never deletes), and the
next sweep recomputes exactly the quarantined points.  Dot-directories
under the root (``.quarantine/``, ``.journal/``) are store-internal and
invisible to content-key lookups.

A read opens the record's string path once (no ``Path`` join, no stat
first); only a miss lists the root for the sibling scan, and ``keys`` and
``verify`` list each directory once.  Bytes that are not UTF-8 are
corrupt, like torn JSON; an undecodable claim file reads as torn.

A write does each step once: a computed record is checksummed once (by
the orchestrator; ``save`` keeps a current checksum), claim and temp files
are written through one descriptor, and a scenario directory is made only
when an open finds it missing (gc drops empty ones between sweeps).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import uuid
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.scenarios.spec import ScenarioSpec

_KEY_HEX_CHARS = 32  # 128 bits of SHA-256: collision-free at any sweep scale

#: The store-format generation stamped into every record written by this
#: code (generation 3 is the first with a record ``checksum``).  Nothing
#: reads the stamp back: :func:`verify_record` refuses any record without
#: a checksum, so records of an older generation are never loaded — they
#: quarantine and recompute.  It stays in the record because it is part
#: of the checksummed bytes.
STORE_GENERATION = 3

#: The integrity field stamped into every generation-3 record.
CHECKSUM_FIELD = "checksum"

#: How long an orphaned ``.json.tmp`` must sit untouched before gc may
#: collect it.  A live driver's in-flight tmp file is seconds old; an
#: orphan from a killed driver only gets older.
DEFAULT_TMP_GRACE_SECONDS = 3600.0

#: The in-flight claim marker next to a point's (future) record:
#: ``<scenario>/<key>.claim``.  Deliberately not ``.json`` so claims are
#: invisible to every record scan (``keys``, ``verify``, lookups).
CLAIM_SUFFIX = ".claim"

#: Fields excluded from the checksum: the checksum itself, plus the
#: in-memory ``from_cache`` marker (never persisted, but excluded
#: defensively so re-verifying a loaded record stays stable).
_UNCHECKSUMMED_FIELDS = (CHECKSUM_FIELD, "from_cache")

#: Where the per-scenario sweep journals live and how their files are
#: named: :mod:`repro.scenarios.journal` writes ``<scenario><suffix>``
#: (through a ``<suffix>.tmp`` sibling), :meth:`ResultStore.gc` collects
#: their leftovers.
JOURNAL_DIR = ".journal"
JOURNAL_SUFFIX = ".jsonl"


def _pid_alive(pid: Any) -> bool:
    """Is ``pid`` a live process on this host?  Unknowable reads as yes.

    The liveness half of lease/claim expiry: a recorded owner pid that
    no longer exists means its artifact is abandoned *now*, without
    waiting out the age-based grace.  Malformed pids and permission
    errors read as alive — expiry must err toward keeping.
    """
    if not isinstance(pid, int) or isinstance(pid, bool) or pid <= 0:
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True
    return True


def _read_bytes(path: str | os.PathLike) -> bytes:
    """A file's bytes through one descriptor: no buffered file object."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, 65536):
            chunks.append(chunk)
        return b"".join(chunks)
    finally:
        os.close(fd)


def _write_new(path: str, data: bytes, flags: int) -> None:
    """Create ``path`` (mode ``0o666`` under the umask) and write ``data``
    through one descriptor; its directory is made only if it is missing."""
    flags |= os.O_WRONLY | os.O_CREAT
    try:
        fd = os.open(path, flags, 0o666)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd = os.open(path, flags, 0o666)
    try:
        view = memoryview(data)
        while view:  # one call unless the kernel writes short
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def _parse_record(data: bytes) -> Any:
    """A record file's JSON; ``ValueError`` (corrupt) if not UTF-8 or not JSON."""
    return json.loads(data.decode("utf-8"))


class StoreIntegrityError(ValueError):
    """A stored record failed verification (torn, corrupt, or tampered)."""

    def __init__(self, path: Path, status: str) -> None:
        super().__init__(f"store record {path} failed verification: {status}")
        self.path = path
        self.status = status


#: One encoder for every call: ``json.dumps`` with non-default options
#: builds a fresh ``JSONEncoder`` each time, a third of a small payload's cost.
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
#: The stored form of a record: ``json``'s own ``indent=2``, sorted keys.
_STORED_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace — the hashing form."""
    return _CANONICAL_ENCODER.encode(payload)


def record_checksum(record: Mapping[str, Any]) -> str:
    """The integrity hash of one record (checksum field excluded).

    Records are deterministic content — the same point computed on any
    backend produces the same bytes — so the checksum is deterministic
    too, and byte-diff proofs (chaos CI) keep working across the
    generation bump.
    """
    payload = {
        name: value
        for name, value in record.items()
        if name not in _UNCHECKSUMMED_FIELDS
    }
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
    return f"sha256:{digest}"


def verify_record(record: Any) -> str:
    """One record's integrity status: ``ok`` | ``mismatch``.

    ``mismatch`` means the record's content does not hash to the
    checksum it carries — or that it carries none: every record this
    code writes is checksummed, so stripping the field must not be a way
    around the check.
    """
    if not isinstance(record, Mapping):
        return "mismatch"
    claimed = record.get(CHECKSUM_FIELD)
    if not isinstance(claimed, str):
        return "mismatch"
    return "ok" if record_checksum(record) == claimed else "mismatch"


def finalize_record(record: Mapping[str, Any]) -> Dict[str, Any]:
    """Stamp a record with :data:`STORE_GENERATION` and its checksum.

    The generation is written, never consulted; the checksum is what
    every load verifies.  Idempotent: any stale checksum is recomputed,
    so finalizing a finalized record is a no-op.
    The orchestrator finalizes each computed record once, so a report's
    record shape never depends on cache state; :meth:`ResultStore.save`
    finalizes only a record that carries no checksum of this generation.
    """
    stamped = {**record, "store_generation": STORE_GENERATION}
    stamped[CHECKSUM_FIELD] = record_checksum(stamped)
    return stamped


def point_cache_key(
    spec: ScenarioSpec,
    point_values: Mapping[str, Any],
    trials: Optional[int] = None,
    tolerance: Optional[float] = None,
) -> str:
    """The content hash of one sweep point's result.

    ``trials`` defaults to the spec's; ``tolerance`` is the *resolved*
    per-point tolerance (after any schedule), not the base.
    """
    return content_key(
        key_base(spec, trials), {**spec.fixed, **point_values}, tolerance
    )


def key_base(spec: ScenarioSpec, trials: Optional[int] = None) -> Dict[str, Any]:
    """The half of a point's key payload that every point of ``spec`` shares."""
    engine_payload = spec.engine.to_dict()
    # A pinned execution backend never reaches the key: by the
    # determinism contract transport topology (jobs, workers, chunking)
    # never changes results, so the engine payload here is byte-identical
    # to the pre-backend format and existing stores stay valid.
    engine_payload.pop("backend", None)
    return {
        "kind": spec.kind,
        "trials": spec.trials if trials is None else trials,
        "seed": spec.seed,
        "engine": engine_payload,
    }


def content_key(base: Mapping[str, Any], params: Mapping[str, Any], tolerance) -> str:
    """A point's key from :func:`key_base`, its params and its tolerance."""
    payload = {**base, "params": params, "tolerance": tolerance}
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
    return digest[:_KEY_HEX_CHARS]


class ResultStore:
    """A directory of per-point sweep results, keyed by content hash."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self._prefix = os.path.join(self.root, "")  # record paths concatenate

    def __repr__(self) -> str:
        return f"ResultStore({str(self.root)!r})"

    def path_for(self, scenario: str, key: str) -> Path:
        return Path(f"{self._prefix}{scenario}{os.sep}{key}.json")

    def quarantine_dir(self, scenario: str) -> Path:
        """Where :meth:`repair` parks a scenario's failed records."""
        return self.root / ".quarantine" / scenario

    def _scenario_names(self) -> List[str]:
        """The record directories, dot-dirs (quarantine, journal) excluded."""
        try:
            with os.scandir(self._prefix) as entries:
                return sorted(
                    entry.name
                    for entry in entries
                    if entry.is_dir() and not entry.name.startswith(".")
                )
        except (FileNotFoundError, NotADirectoryError):
            return []

    def _candidates(self, scenario: str, key: str) -> Iterator[str]:
        """A key's record paths: its scenario's, then (on a miss) every one's."""
        yield f"{self._prefix}{scenario}{os.sep}{key}.json"
        for sibling in self._scenario_names():
            yield f"{self._prefix}{sibling}{os.sep}{key}.json"

    def find(self, scenario: str, key: str) -> Optional[Path]:
        """Locate a content key: the scenario's directory, then any sibling.

        The fallback is what makes the store content-addressed in
        practice: a renamed scenario (or an overlapping grid saved under
        another name) hits the same records instead of recomputing.
        """
        for path in self._candidates(scenario, key):
            if os.path.isfile(path):
                return Path(path)
        return None

    def has(self, scenario: str, key: str) -> bool:
        return self.find(scenario, key) is not None

    def _read(self, scenario: str, key: str) -> Tuple[str, bytes]:
        """A key's record path and bytes, from the first place that opens."""
        for path in self._candidates(scenario, key):
            try:
                return path, _read_bytes(path)
            except (FileNotFoundError, NotADirectoryError, IsADirectoryError):
                continue
        raise FileNotFoundError(
            f"no cached record for key {key!r} (scenario {scenario!r}) "
            f"under {self.root}"
        )

    def load(self, scenario: str, key: str) -> Dict[str, Any]:
        return _parse_record(self._read(scenario, key)[1])

    def load_verified(self, scenario: str, key: str) -> Dict[str, Any]:
        """Load one record, raising :class:`StoreIntegrityError` if bad.

        The cache-trusting load for resumes: torn/corrupt JSON, bytes
        that are not UTF-8 and missing or mismatched checksums raise
        instead of poisoning the sweep.
        """
        path, data = self._read(scenario, key)
        try:
            record = _parse_record(data)
        except ValueError:
            raise StoreIntegrityError(Path(path), "corrupt") from None
        status = verify_record(record)
        if status != "ok":
            raise StoreIntegrityError(Path(path), status)
        return record

    def quarantine(self, path: Path) -> Path:
        """Move one failed record into ``.quarantine/`` (never delete).

        Quarantined records keep their scenario directory and file name,
        so a repair's damage report stays greppable; the content key
        disappears from :meth:`find`, so the next sweep recomputes the
        point.
        """
        destination = self.quarantine_dir(path.parent.name) / path.name
        destination.parent.mkdir(parents=True, exist_ok=True)
        os.replace(path, destination)
        return destination

    def save(self, scenario: str, key: str, record: Mapping[str, Any]) -> Path:
        """Atomically persist one point record (temp file + rename).

        Every record is stamped (:func:`finalize_record`) with the
        store-format :data:`STORE_GENERATION` and its
        :func:`record_checksum`, so :meth:`verify` can detect torn or
        tampered copies.  A record already stamped for this generation
        (a computed point's, by ``build_point_record``) is written as it
        stands, so a point is hashed once; a caller that edits a stamped
        record finalizes it again.

        A second writer of an *identical* record is a no-op: concurrent
        sweeps sharing a point (the determinism contract makes their
        records byte-identical) race the rename harmlessly instead of
        churning the file's inode and mtime under each other.
        """
        current = record.get("store_generation") == STORE_GENERATION
        if not (current and CHECKSUM_FIELD in record):
            record = finalize_record(record)
        path = f"{self._prefix}{scenario}{os.sep}{key}.json"
        data = (_STORED_ENCODER.encode(record) + "\n").encode("utf-8")
        try:
            if _read_bytes(path) == data:
                return Path(path)
        except OSError:
            pass
        temp = f"{path}.tmp"
        _write_new(temp, data, os.O_TRUNC)
        os.replace(temp, path)
        return Path(path)

    # -- in-flight point claims --------------------------------------------

    def claim_path(self, scenario: str, key: str) -> Path:
        return Path(f"{self._prefix}{scenario}{os.sep}{key}{CLAIM_SUFFIX}")

    def claim(
        self,
        scenario: str,
        key: str,
        grace_seconds: float = DEFAULT_TMP_GRACE_SECONDS,
    ) -> Optional["PointClaim"]:
        """Claim a point for computation; ``None`` if someone live has it.

        The cross-process dedup primitive: before computing a point, a
        driver exclusively creates ``<scenario>/<key>.claim`` carrying
        its pid + token in one ``O_EXCL`` open and one write (the
        scenario directory is made only if that open finds it missing).
        A concurrent driver meeting the claim backs off (``None``) and
        polls for the record instead of recomputing.
        A claim whose owner process is gone, or whose file has aged past
        ``grace_seconds`` (the same grace gc applies to tmp orphans), is
        *abandoned*: it is taken over in place rather than wedging every
        later sweep on a dead driver's marker.

        Claims are advisory.  Losing an unlikely takeover race means two
        drivers compute the same point — the determinism contract makes
        their records byte-identical and :meth:`save` folds the second
        write into a no-op, so the race costs duplicate work, never
        correctness.
        """
        path = self.claim_path(scenario, key)
        token = uuid.uuid4().hex
        data = (canonical_json({"pid": os.getpid(), "token": token}) + "\n").encode()
        try:
            _write_new(str(path), data, os.O_EXCL)
            return PointClaim(path=path, token=token)
        except FileExistsError:
            pass
        if not self._claim_is_stale(path, grace_seconds):
            return None
        # Abandoned: replace it with our own marker (atomic — concurrent
        # takeovers race the rename, last writer owns the claim file and
        # the loser discovers it at release time, harmlessly).
        temp = f"{path}.tmp"
        try:
            _write_new(temp, data, os.O_TRUNC)
            os.replace(temp, path)
        except OSError:
            return None
        return PointClaim(path=path, token=token)

    @staticmethod
    def _claim_is_stale(path: Path, grace_seconds: float) -> bool:
        """Dead owner pid, or a claim file older than the grace period."""
        try:
            age = time.time() - path.stat().st_mtime
        except OSError:
            # Vanished underneath us — released; the caller retries.
            return True
        if age >= grace_seconds:
            return True
        try:
            payload = _parse_record(_read_bytes(path))
        except (OSError, ValueError):
            # Torn, mid-write or undecodable: fresh by mtime, so keep it.
            return False
        return isinstance(payload, dict) and not _pid_alive(payload.get("pid"))

    def _listing(self, scenario: str) -> Tuple[str, List[str]]:
        """A scenario directory's path and sorted entry names (none if absent)."""
        directory = f"{self._prefix}{scenario}"
        try:
            return directory, sorted(os.listdir(directory))
        except (FileNotFoundError, NotADirectoryError):
            return directory, []

    def keys(self, scenario: str) -> List[str]:
        """The cached point keys of a scenario (sorted for determinism)."""
        _, names = self._listing(scenario)
        return sorted(name[:-5] for name in names if name.endswith(".json"))

    def count(self, scenario: str) -> int:
        return len(self.keys(scenario))

    def scenarios(self) -> List[str]:
        """Scenario names that have at least one cached point."""
        return [name for name in self._scenario_names() if self.keys(name)]

    # -- integrity ---------------------------------------------------------

    def verify(self, scenario: Optional[str] = None) -> "VerifyReport":
        """Check every record's integrity without touching anything.

        Scans one scenario (or the whole store) and buckets each record:
        ``ok`` (checksum matches), ``corrupt`` (unreadable JSON), or
        ``mismatched`` (checksum missing or not matching the content;
        also anything that is not a record object).  Leftover
        ``.json.tmp`` orphans are reported too — they are gc's business,
        but a verify after a driver SIGKILL should name them.
        """
        report = VerifyReport(scenario=scenario)
        scenarios = [scenario] if scenario is not None else self._scenario_names()
        for name in scenarios:
            directory, names = self._listing(name)
            for entry in names:
                path = f"{directory}{os.sep}{entry}"
                if entry.endswith(".json.tmp"):
                    report.orphans.append(Path(path))
                if not entry.endswith(".json"):
                    continue
                report.scanned += 1
                try:
                    record = _parse_record(_read_bytes(path))
                except (OSError, ValueError):
                    report.corrupt.append(Path(path))
                    continue
                if verify_record(record) == "ok":
                    report.ok += 1
                else:
                    report.mismatched.append(Path(path))
        return report

    def repair(self, scenario: Optional[str] = None) -> "VerifyReport":
        """Verify, then quarantine every failed record.

        Bad records move to ``.quarantine/<scenario>/<key>.json`` — the
        store never destroys evidence — and their content keys drop out
        of lookups, so the next ``sweep run``/``resume`` recomputes
        exactly those points.  Returns the verify report with the
        quarantined destinations filled in.
        """
        report = self.verify(scenario)
        for path in report.bad_paths():
            report.quarantined.append(self.quarantine(path))
        return report

    # -- garbage collection ------------------------------------------------

    def gc(
        self,
        dry_run: bool = False,
        tmp_grace_seconds: float = DEFAULT_TMP_GRACE_SECONDS,
        purge_quarantine: bool = False,
    ) -> "GcReport":
        """Prune what a healthy store should not contain.

        Removes *orphans* — ``.json.tmp`` leftovers of writes interrupted
        before their atomic rename — once they are older than
        ``tmp_grace_seconds`` (a live driver's in-flight tmp file is
        seconds old, so age-gating makes gc safe to run next to a running
        sweep); younger tmp files are reported as *fresh* and kept.
        Always removes *corrupt* records (unreadable JSON; cannot happen
        through :meth:`save`, but gc is the safety net for torn copies
        and manual edits).  Records parked by :meth:`repair` are reported
        in their own *quarantined* bucket and only removed under
        ``purge_quarantine`` — quarantine is evidence, purging it is an
        explicit decision.  Empty directories are dropped at the end.

        ``dry_run`` reports what would be removed without touching
        anything.  Pruned points simply recompute on the next sweep —
        the store is a cache, never the source of truth.
        """
        report = GcReport(
            dry_run=dry_run, purge_quarantine=purge_quarantine
        )
        scenario_names = self._scenario_names()
        now = time.time()

        def age_gate(paths, aged: List[Path], fresh: List[Path]) -> None:
            for path in paths:
                try:
                    age = now - path.stat().st_mtime
                except OSError:
                    continue  # renamed/removed underneath us: not ours
                (aged if age >= tmp_grace_seconds else fresh).append(path)

        for name in scenario_names:
            directory, names = self._listing(name)

            def having(suffix: str) -> List[Path]:
                return [Path(directory, n) for n in names if n.endswith(suffix)]

            tmp = having(".json.tmp") + having(f"{CLAIM_SUFFIX}.tmp")
            age_gate(tmp, report.orphans, report.fresh_tmp)
            # In-flight point claims: a dead owner's (or aged-out) claim
            # is abandoned and collected; a live driver's claim is kept —
            # gc next to a running sweep must never steal its dedup lock.
            for claim in having(CLAIM_SUFFIX):
                if self._claim_is_stale(claim, tmp_grace_seconds):
                    report.stale_claims.append(claim)
                else:
                    report.fresh_claims.append(claim)
            for path in having(".json"):
                try:
                    record = _parse_record(_read_bytes(path))
                except (OSError, ValueError):
                    report.corrupt.append(path)
                    continue
                if not isinstance(record, dict):
                    # Valid JSON but not a record object (`[]`, `"x"`...):
                    # exactly the manual-edit damage gc exists to prune.
                    report.corrupt.append(path)
                    continue
                report.scanned += 1
        # Journals whose scenario has no live records are leftovers of a
        # sweep whose store records were pruned (or written elsewhere);
        # age-gate them behind the same grace period as tmp orphans so a
        # sweep that journaled `begin` but has not saved its first point
        # yet is never collected out from under a live driver.  Journal
        # tmp files get the ordinary orphan treatment.
        journal_root = self.root / JOURNAL_DIR
        if journal_root.is_dir():
            live = set(self.scenarios())
            journal_tmp = sorted(journal_root.glob(f"*{JOURNAL_SUFFIX}.tmp"))
            age_gate(journal_tmp, report.orphans, report.fresh_tmp)
            age_gate(
                sorted(
                    journal
                    for journal in journal_root.glob(f"*{JOURNAL_SUFFIX}")
                    if journal.stem not in live
                ),
                report.journal_orphans,
                report.fresh_journals,
            )
        quarantine_root = self.root / ".quarantine"
        if quarantine_root.is_dir():
            report.quarantined.extend(sorted(quarantine_root.rglob("*.json")))
        if not dry_run:
            for path in report.removed_paths():
                path.unlink(missing_ok=True)
            sweep_dirs = [self.root / name for name in scenario_names]
            if journal_root.is_dir():
                sweep_dirs.append(journal_root)
            if purge_quarantine and quarantine_root.is_dir():
                sweep_dirs.extend(
                    sorted(
                        entry
                        for entry in quarantine_root.iterdir()
                        if entry.is_dir()
                    )
                )
                sweep_dirs.append(quarantine_root)
            for directory in sweep_dirs:
                if directory.is_dir() and not any(directory.iterdir()):
                    directory.rmdir()
        return report


@dataclass
class PointClaim:
    """A held in-flight claim on one point (see :meth:`ResultStore.claim`)."""

    path: Path
    token: str

    def release(self) -> None:
        """Drop the claim iff we still own it; idempotent and race-safe.

        A claim taken over after expiry belongs to the new owner — the
        token check keeps a resumed zombie driver from deleting it.
        """
        try:
            payload = _parse_record(_read_bytes(self.path))
        except (OSError, ValueError):
            return
        if isinstance(payload, dict) and payload.get("token") == self.token:
            try:
                os.unlink(self.path)
            except OSError:
                pass

    def __enter__(self) -> "PointClaim":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()


@dataclass
class GcReport:
    """What one :meth:`ResultStore.gc` pass found (and removed)."""

    dry_run: bool = False
    purge_quarantine: bool = False
    scanned: int = 0
    orphans: List[Path] = field(default_factory=list)
    #: Tmp files younger than the grace period: kept, a live driver may
    #: be about to rename them.
    fresh_tmp: List[Path] = field(default_factory=list)
    corrupt: List[Path] = field(default_factory=list)
    #: ``.journal/`` entries whose scenario has no live store records,
    #: past the tmp grace period.
    journal_orphans: List[Path] = field(default_factory=list)
    #: Same, but within the grace period: kept, the sweep may just not
    #: have committed its first point yet.
    fresh_journals: List[Path] = field(default_factory=list)
    #: Abandoned in-flight point claims (owner dead or aged past grace).
    stale_claims: List[Path] = field(default_factory=list)
    #: Claims a live driver still holds: kept.
    fresh_claims: List[Path] = field(default_factory=list)
    #: Records parked under ``.quarantine/`` by :meth:`ResultStore.repair`;
    #: removed only under ``purge_quarantine``.
    quarantined: List[Path] = field(default_factory=list)

    def removed_paths(self) -> List[Path]:
        """Everything this pass removes (or would, under ``dry_run``)."""
        removed = [
            *self.orphans,
            *self.corrupt,
            *self.journal_orphans,
            *self.stale_claims,
        ]
        if self.purge_quarantine:
            removed.extend(self.quarantined)
        return removed

    @property
    def removed(self) -> int:
        return len(self.removed_paths())


@dataclass
class VerifyReport:
    """What one :meth:`ResultStore.verify`/:meth:`repair` pass found.

    ``ok`` counts healthy records; ``corrupt``/``mismatched`` name the
    damaged files; ``quarantined`` names where
    :meth:`ResultStore.repair` moved them.
    """

    scenario: Optional[str] = None
    scanned: int = 0
    ok: int = 0
    corrupt: List[Path] = field(default_factory=list)
    mismatched: List[Path] = field(default_factory=list)
    orphans: List[Path] = field(default_factory=list)
    quarantined: List[Path] = field(default_factory=list)

    def bad_paths(self) -> List[Path]:
        """Every record that failed verification."""
        return [*self.corrupt, *self.mismatched]

    @property
    def clean(self) -> bool:
        """True when nothing failed (orphan tmp files are gc's business)."""
        return not self.corrupt and not self.mismatched
