"""Per-sweep write-ahead journal: which points are committed vs. mid-flight.

The result store alone cannot distinguish "this point was never started"
from "the driver was SIGKILLed while this point was half-done": a record
present on disk *looks* committed either way, and a record written by a
driver that died between ``save()`` and whatever bookkeeping would have
followed is indistinguishable from a clean one.  The journal closes that
gap the WAL way — intent is persisted *before* the action:

- ``begin(spec_hash, total_points)`` opens (or resumes) a sweep,
- ``point_started(key)`` is written before a point computes,
- ``point_finished(key)`` is written after its record is safely renamed
  into the store,
- ``complete()`` seals the sweep.

**On disk** the journal is an append-only log of canonical-JSON lines,
``.journal/<scenario>.jsonl``.  ``begin`` installs a fresh, compacted
log by temp + rename — a header line (``spec_hash``, ``total_points``,
the owner) followed by one line per mark carried over from the run it
resumes — and keeps an ``O_APPEND`` descriptor on it; every later
transition is one ``os.write`` of one line, O(1) however many points the
sweep has.  The reader folds the lines into a state dict and stops at
the first line that is torn (no newline) or does not parse, so a kill
mid-append loses at most the transition being written and the journal
survives any kill.  Nothing is ever appended after a torn tail, because
every ``begin`` starts a new file.  Nothing calls ``fsync``: the
guarantee is SIGKILL-safety, not power-loss-safety.  Every resume reads
the whole previous log, so a canonical mark line is taken apart by one
anchored regular expression; any other line goes through ``json.loads``
and folds as it always did.  Reads and marks use the log's path as a
string, never a ``Path``.

On resume, ``begin`` with the same ``spec_hash`` returns the *mid-flight*
keys — points whose start was journaled but whose finish never was.  The
orchestrator recomputes exactly those points (the determinism contract
makes the recomputation byte-identical, so a resumed store matches an
uninterrupted run), and trusts the store for everything else.  A
different ``spec_hash`` means a different sweep (other trials, tolerance,
grid): the journal resets rather than poison the new run with stale
flight state.

The journal lives in the store's ``.journal/`` dot-directory — next to
the records it guards, invisible to content-key lookups and gc scans.

**Ownership.**  Two live drivers appending to one log would tell two
stories in it.  ``begin`` therefore takes an owner lease — ``{"pid",
"token"}`` in the header plus an mtime heartbeat thread that touches the
owner's *own descriptor* while the sweep runs — and a second driver
meeting a live lease fails fast with :class:`JournalBusyError`.  A lease
is *dead* (and silently taken over) when its owner process no longer
exists or its heartbeat has gone stale for
:data:`DEFAULT_LEASE_SECONDS`; ``complete``/``release`` drop it
explicitly.  Because every takeover or reset installs a *new file* by
rename, "am I still the owner?" is one ``stat``: the inode at
:attr:`SweepJournal.path` is the inode of the descriptor this driver
opened, or it is not.  A driver that loses its lease to a takeover
(wedged past the lease window, then resumed) gets
:class:`JournalOwnershipLost` on its next write — the write never
happens, and its heartbeat only ever touches the file it lost.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
import uuid
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Set

from repro.scenarios.store import (
    JOURNAL_DIR,
    JOURNAL_SUFFIX,
    _pid_alive,
    _read_bytes,
    canonical_json,
)

#: Journal file schema version (2: the append-only line log).
JOURNAL_SCHEMA = 2

#: How stale an owner's mtime heartbeat may grow before its lease is
#: considered expired.  The heartbeat touches the file every quarter of
#: this, so a live driver — even one computing a long point with no
#: journal writes — stays multiples of the touch interval inside it.
DEFAULT_LEASE_SECONDS = 30.0

_STARTED = "started"
_FINISHED = "finished"
_COMPLETE = "complete"
_RELEASE = "release"

#: A mark line as :func:`_mark_line` writes it for a key of printable
#: ASCII without quote or backslash (every content key is hex).
_CANONICAL_MARK = re.compile(
    rb'\{"index":(-?(?:0|[1-9][0-9]*)),"key":"([ !#-\[\]-~]*)",'
    rb'"status":"(started|finished)"\}'
).fullmatch


class JournalBusyError(RuntimeError):
    """Another live driver holds this journal's owner lease.

    Raised by :meth:`SweepJournal.begin` instead of taking the log away
    from the living owner.  The message names the owner (pid + heartbeat
    age) so the operator can tell a genuinely concurrent driver from a
    stale lease about to expire on its own.
    """


class JournalOwnershipLost(RuntimeError):
    """This driver's lease was taken over while it was still writing.

    The losing driver gets this on its next mark instead of silently
    clobbering the new owner's flight state — the write never happens.
    """


def sweep_spec_hash(keys: Sequence[str]) -> str:
    """The identity of one resolved sweep: a hash over its point keys.

    The point cache keys already capture everything result-shaping
    (kind, params, trials, seed, tolerance, engine settings), so hashing
    the ordered key list pins the *whole* sweep: any change that would
    alter any point's identity changes the spec hash, and the journal of
    the old sweep is not mistaken for the new one's.
    """
    digest = hashlib.sha256(
        canonical_json(list(keys)).encode("utf-8")
    ).hexdigest()
    return digest[:32]


def _line(payload: Dict[str, Any]) -> bytes:
    return canonical_json(payload).encode("utf-8") + b"\n"


def _mark_line(key: str, index: int, status: str) -> bytes:
    """``_line({"key": key, "index": index, "status": status})``, spelled out."""
    key = encode_basestring_ascii(key)
    return f'{{"index":{index:d},"key":{key},"status":"{status}"}}\n'.encode()


def _fold(data: bytes) -> Optional[Dict[str, Any]]:
    """Fold a log's bytes into the journal state, or ``None``.

    The first line is the header; each later line is a mark or a
    ``complete``/``release`` op.  Folding stops at the first line that
    is torn (the tail has no newline) or is not one of those — a prefix
    of the transitions, never a phantom key.  No readable header means
    no journal.  Lines :data:`_CANONICAL_MARK` matches skip ``json.loads``.
    """
    lines = data.split(b"\n")
    lines.pop()  # what follows the last newline: empty, or a torn tail
    try:
        header = json.loads(lines[0])
        if not isinstance(header["spec_hash"], str):
            return None
    except (IndexError, ValueError, KeyError, TypeError):
        return None
    points: Dict[str, Any] = {}
    state = {**header, "status": "running", "points": points}
    for raw in lines[1:]:
        try:
            if (mark := _CANONICAL_MARK(raw)) is not None:
                index, key, status = mark.groups()
                points[key.decode()] = {"status": status.decode(), "index": int(index)}
                continue
            entry = json.loads(raw)
            op = entry.get("op")
            if op is None:
                status = entry["status"]
                if status not in (_STARTED, _FINISHED):
                    break
                points[entry["key"]] = {
                    "status": status,
                    "index": entry["index"],
                }
            elif op == _COMPLETE:
                state["status"] = "complete"
                state["owner"] = None
            elif op == _RELEASE:
                state["owner"] = None
            else:
                break
        except (ValueError, KeyError, TypeError, AttributeError):
            break
    return state


class SweepJournal:
    """One scenario's write-ahead journal inside a result store.

    Not thread-safe — the orchestrator's point loop is the single
    writer, which is the point: one sweep, one journal, one story.
    """

    def __init__(
        self,
        root,
        scenario: str,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
    ) -> None:
        self.scenario = scenario
        self._dir = os.path.join(root, JOURNAL_DIR)
        self._path = os.path.join(self._dir, f"{scenario}{JOURNAL_SUFFIX}")
        self.path = Path(self._path)
        self.lease_seconds = float(lease_seconds)
        self._state: Optional[Dict[str, Any]] = None
        #: This journal object's lease identity.  The pid alone cannot
        #: distinguish two drivers in one process (threads, tests); the
        #: token can.
        self._token = uuid.uuid4().hex
        #: The ``O_APPEND`` descriptor on the log this driver installed,
        #: and that file's inode; held from ``begin`` until the lease is
        #: dropped (``complete``/``release``).
        self._fd: Optional[int] = None
        self._inode: Optional[int] = None
        self._heartbeat_stop: Optional[threading.Event] = None

    def __repr__(self) -> str:
        return f"SweepJournal({str(self.path)!r})"

    # -- reading -----------------------------------------------------------

    def load(self) -> Optional[Dict[str, Any]]:
        """The journal state on disk, or ``None`` (absent / unreadable).

        Unreadable journals are treated as absent, not fatal: losing the
        journal only loses the committed-vs-mid-flight distinction, and
        the orchestrator's fallback (trust store records) is exactly the
        pre-journal behaviour.
        """
        try:
            return _fold(_read_bytes(self._path))
        except OSError:
            return None

    @staticmethod
    def _keys_in(state: Dict[str, Any], status: str) -> Set[str]:
        return {
            key
            for key, entry in state["points"].items()
            if entry["status"] == status
        }

    @classmethod
    def status(cls, root, scenario: str) -> Optional[Dict[str, Any]]:
        """A read-only summary for CLI reporting, or ``None`` if absent."""
        journal = cls(root, scenario)
        state = journal.load()
        if state is None:
            return None
        return {
            "scenario": scenario,
            "status": state.get("status"),
            "spec_hash": state.get("spec_hash"),
            "total_points": state.get("total_points"),
            "committed": len(cls._keys_in(state, _FINISHED)),
            "midflight": sorted(cls._keys_in(state, _STARTED)),
            "owner": state.get("owner"),
        }

    # -- writing -----------------------------------------------------------

    def begin(self, spec_hash: str, total_points: int) -> Set[str]:
        """Open (or resume) a sweep; returns a crashed run's mid-flight keys.

        A running journal with the same ``spec_hash`` is a crashed (or
        interrupted) instance of *this* sweep: its started-but-unfinished
        keys come back so the caller can force-recompute them.  Any other
        state — completed sweep, different spec, no journal — starts
        fresh with no mid-flight set.

        Takes the owner lease: raises :class:`JournalBusyError` when a
        *live* foreign lease holds the journal (owner process alive and
        heartbeat within :attr:`lease_seconds`); a dead or expired lease
        is taken over silently — exactly the crashed-driver resume path.

        Always installs a fresh, compacted log, so whatever a killed
        predecessor left at the tail of the old one is never appended to.
        """
        existing = self.load()
        self._check_foreign_lease(existing)
        midflight: Set[str] = set()
        points: Dict[str, Any] = {}
        if existing is not None and existing.get("spec_hash") == spec_hash:
            if existing["status"] == "running":
                midflight = self._keys_in(existing, _STARTED)
            points = existing["points"]
        self._state = {
            "schema": JOURNAL_SCHEMA,
            "scenario": self.scenario,
            "spec_hash": spec_hash,
            "status": "running",
            "total_points": total_points,
            "points": points,
            "owner": {"pid": os.getpid(), "token": self._token},
        }
        self._install()
        return midflight

    def point_started(self, key: str, index: int) -> None:
        """Journal intent to compute a point — written *before* computing."""
        self._mark(key, index, _STARTED)

    def point_finished(self, key: str, index: int) -> None:
        """Journal a point's record as safely in the store."""
        self._mark(key, index, _FINISHED)

    def complete(self) -> None:
        """Seal the sweep: every point accounted for, no flight state left.

        Dropping the owner lease is part of sealing — a later driver
        adopts the completed journal without any takeover ceremony.
        """
        self._check_still_owner(_COMPLETE)
        self._append(_line({"op": _COMPLETE}))
        self._state["status"] = "complete"
        self._state["owner"] = None
        self._close()

    def release(self) -> None:
        """Drop the owner lease without sealing; idempotent.

        The abort path (and the test stand-in for a dead driver): the
        flight state — status, started/finished marks — stays exactly as
        it is, so a later ``begin`` resumes it, but the lease is gone and
        that later driver does not have to wait it out.  Called by the
        orchestrator in a ``finally`` so an aborted sweep never leaves a
        live-looking lease behind.  A driver that lost the lease never
        touches the new owner's log: its line goes to the file it lost,
        or — once a mark has detected the loss — nowhere.
        """
        if self._fd is None:
            return
        self._append(_line({"op": _RELEASE}))
        self._state["owner"] = None
        self._close()

    def _mark(self, key: str, index: int, status: str) -> None:
        self._check_still_owner(status)
        self._append(_mark_line(key, index, status))
        self._state["points"][key] = {"status": status, "index": index}

    def _append(self, data: bytes) -> None:
        """One ``write`` on the ``O_APPEND`` descriptor: whole, or an error."""
        if os.write(self._fd, data) != len(data):
            raise OSError(f"short write to journal {self.path}")

    def _install(self) -> None:
        """Write ``_state`` as a compacted log and rename it into place.

        The descriptor is opened on the temp file and follows it through
        the rename, so from here on this driver's appends and heartbeat
        go to the file *it* installed — wherever a later takeover leaves
        that file — and ``path`` showing another inode means the lease
        moved on.
        """
        self._close()
        state = self._state
        header = {
            name: value
            for name, value in state.items()
            if name not in ("points", "status")
        }
        log = _line(header) + b"".join(
            _mark_line(key, entry["index"], entry["status"])
            for key, entry in state["points"].items()
        )
        os.makedirs(self._dir, exist_ok=True)
        # Named by the token: two drivers racing `begin` never share one.
        temp = os.path.join(
            self._dir, f"{self.scenario}.{self._token}{JOURNAL_SUFFIX}.tmp"
        )
        self._fd = os.open(
            temp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND, 0o666
        )
        try:
            self._append(log)
            os.replace(temp, self._path)
        except BaseException:
            self._close()
            raise
        self._inode = os.fstat(self._fd).st_ino
        self._start_heartbeat()

    def _close(self) -> None:
        """Stop the heartbeat and let go of the log's descriptor."""
        if self._heartbeat_stop is not None:
            self._heartbeat_stop.set()
            self._heartbeat_stop = None
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    # -- the owner lease ---------------------------------------------------

    def _lease_age(self) -> Optional[float]:
        """Seconds since the journal file was last touched, or ``None``."""
        try:
            return max(0.0, time.time() - os.stat(self._path).st_mtime)
        except OSError:
            return None

    def _check_foreign_lease(self, existing: Optional[Dict[str, Any]]) -> None:
        """Raise :class:`JournalBusyError` iff a live foreign lease holds on.

        Only a *running* journal can be held: completed sweeps carry no
        flight state worth protecting.  A lease is live when its owner
        process still exists on this host **and** the mtime heartbeat is
        within :attr:`lease_seconds` — a SIGKILLed driver fails the pid
        check immediately (no lease wait on resume), a wedged one fails
        the heartbeat check once the lease expires.
        """
        if existing is None or existing.get("status") != "running":
            return
        owner = existing.get("owner")
        if not isinstance(owner, dict) or owner.get("token") in (
            None,
            self._token,
        ):
            return
        if not _pid_alive(owner.get("pid")):
            return
        age = self._lease_age()
        if age is None or age >= self.lease_seconds:
            return
        raise JournalBusyError(
            f"journal {self.path} is held by a live driver "
            f"(pid {owner.get('pid')}, heartbeat {age:.1f}s ago, lease "
            f"{self.lease_seconds:.0f}s): refusing to interleave sweep "
            f"state — stop that driver or wait for its lease to expire"
        )

    def _check_still_owner(self, transition: str) -> None:
        """Raise :class:`JournalOwnershipLost` if the lease moved on.

        One ``stat``, no read: a takeover or reset always installs a new
        file, so the lease is still ours exactly while ``path`` is the
        file our descriptor is open on.
        """
        if self._fd is None:
            raise RuntimeError(
                f"journal.{transition} without the lease: call begin() first"
            )
        try:
            inode = os.stat(self._path).st_ino
        except FileNotFoundError:
            # Journal lost entirely — rewriting it is recovery.
            self._install()
            return
        if inode != self._inode:
            self._close()
            owner = (self.load() or {}).get("owner") or {}
            raise JournalOwnershipLost(
                f"journal {self.path} lease was taken over by pid "
                f"{owner.get('pid')} — this driver's sweep state is stale "
                f"and its writes are refused"
            )

    def _start_heartbeat(self) -> None:
        """Touch our own log's mtime every quarter lease until stopped.

        The thread touches a private ``dup`` of the descriptor, never the
        path: after a takeover the path is the *new* owner's file, and
        keeping that one fresh would hide a wedged new owner.
        """
        stop = threading.Event()
        interval = max(self.lease_seconds / 4.0, 0.05)
        fd = os.dup(self._fd)

        def touch_loop() -> None:
            try:
                while not stop.wait(interval):
                    os.utime(fd)
            finally:
                os.close(fd)

        self._heartbeat_stop = stop
        threading.Thread(
            target=touch_loop,
            name=f"repro-journal-heartbeat-{self.scenario}",
            daemon=True,
        ).start()

    def __del__(self) -> None:  # pragma: no cover - GC-timing dependent
        try:
            self._close()
        except Exception:
            pass
