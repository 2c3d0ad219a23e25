"""The sweep write-ahead journal: state machine, crash recovery, resume
semantics — including the case the store alone cannot decide, a record
present on disk for a point the journal says was still mid-flight."""

import json
import os
import tempfile
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios.journal import (
    JOURNAL_DIR,
    JournalBusyError,
    JournalOwnershipLost,
    SweepJournal,
    _fold,
    _mark_line,
    sweep_spec_hash,
)
from repro.api import run_sweep
from repro.scenarios.orchestrator import SweepOrchestrator
from repro.scenarios.runners import _RUNNERS, register_kind
from repro.scenarios.spec import Axis, ScenarioSpec
from repro.scenarios.store import ResultStore, canonical_json


@pytest.fixture
def counting_kind():
    calls = []

    @register_kind("journal-test-kind")
    def run_point(params, trials, seed, engine, batch_size=None):
        calls.append(dict(params))
        estimate = engine.estimate(
            lambda rng: rng.bernoulli(params["p"]),
            trials=trials,
            seed=seed,
            label=f"journal-{params['p']}",
        )
        return {
            "p": params["p"],
            "value": estimate.estimate,
            "trials_run": estimate.trials,
        }

    try:
        yield calls
    finally:
        _RUNNERS.pop("journal-test-kind", None)


def journal_spec(points=3, trials=40, **overrides) -> ScenarioSpec:
    values = tuple(round(0.1 + 0.2 * i, 2) for i in range(points))
    base = dict(
        name="journal-sweep",
        kind="journal-test-kind",
        axes=(Axis("p", values),),
        trials=trials,
        seed=7,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


#: A pid no process can have (above the kernel's PID_MAX_LIMIT of 2**22).
DEAD_PID = 2 ** 22 + 1


def forge_sigkill(path, keep=None) -> None:
    """Leave ``path`` as a SIGKILLed driver would: the log cut after
    ``keep`` bytes (anywhere, mid-line included) and an owner pid that no
    longer exists.  The crash is forged in the file, through no writer of
    the journal's own."""
    data = path.read_bytes()[:keep]
    path.write_bytes(
        data.replace(b'"pid":%d' % os.getpid(), b'"pid":%d' % DEAD_PID, 1)
    )


def offset_after(path, key, status) -> int:
    """The byte offset just past the line marking ``key`` as ``status``."""
    offset = 0
    for line in path.read_bytes().splitlines(keepends=True):
        offset += len(line)
        entry = json.loads(line)
        if entry.get("key") == key and entry.get("status") == status:
            return offset
    raise AssertionError(f"no {status} line for {key} in {path}")


def complete_lines(path) -> list:
    """Every newline-terminated line of the log, parsed."""
    data = path.read_bytes()
    return [json.loads(line) for line in data[: data.rfind(b"\n") + 1].splitlines()]


def marks(journal) -> dict:
    """Key -> last mark, as the journal on disk has it."""
    return {key: entry["status"] for key, entry in journal.load()["points"].items()}


class TestSpecHash:
    def test_deterministic_and_order_sensitive(self):
        assert sweep_spec_hash(["a", "b"]) == sweep_spec_hash(["a", "b"])
        assert sweep_spec_hash(["a", "b"]) != sweep_spec_hash(["b", "a"])
        assert sweep_spec_hash(["a", "b"]) != sweep_spec_hash(["a"])
        assert len(sweep_spec_hash(["a"])) == 32


class TestStateMachine:
    def test_begin_start_finish_complete(self, tmp_path):
        journal = SweepJournal(tmp_path, "scn")
        assert journal.begin("hash1", 2) == set()
        journal.point_started("k1", 0)
        assert marks(journal) == {"k1": "started"}
        journal.point_finished("k1", 0)
        assert marks(journal) == {"k1": "finished"}
        journal.point_started("k2", 1)
        journal.point_finished("k2", 1)
        assert marks(journal) == {"k1": "finished", "k2": "finished"}
        journal.complete()
        status = SweepJournal.status(tmp_path, "scn")
        assert status["status"] == "complete"
        assert status["committed"] == 2
        assert status["midflight"] == []

    def test_marks_before_begin_are_errors(self, tmp_path):
        journal = SweepJournal(tmp_path, "scn")
        with pytest.raises(RuntimeError):
            journal.point_started("k", 0)
        with pytest.raises(RuntimeError):
            journal.complete()

    def test_resume_same_hash_reports_midflight(self, tmp_path):
        first = SweepJournal(tmp_path, "scn")
        first.begin("hash1", 3)
        first.point_started("k1", 0)
        first.point_finished("k1", 0)
        first.point_started("k2", 1)
        # Driver dies here; a new journal object is the resumed driver.
        # release() drops the lease the way the orchestrator's abort
        # path does (flight state intact) — a SIGKILLed driver instead
        # fails the lease's dead-pid check, covered in TestOwnerLease.
        first.release()
        second = SweepJournal(tmp_path, "scn")
        assert second.begin("hash1", 3) == {"k2"}

    def test_different_hash_resets_flight_state(self, tmp_path):
        first = SweepJournal(tmp_path, "scn")
        first.begin("hash1", 3)
        first.point_started("k2", 1)
        first.release()
        second = SweepJournal(tmp_path, "scn")
        assert second.begin("hash2", 3) == set()
        assert marks(second) == {}

    def test_completed_sweep_resumes_clean(self, tmp_path):
        first = SweepJournal(tmp_path, "scn")
        first.begin("hash1", 1)
        first.point_started("k1", 0)
        first.point_finished("k1", 0)
        first.complete()
        second = SweepJournal(tmp_path, "scn")
        assert second.begin("hash1", 1) == set()

    def test_unreadable_journal_is_treated_as_absent(self, tmp_path):
        path = tmp_path / JOURNAL_DIR / "scn.jsonl"
        path.parent.mkdir(parents=True)
        path.write_text("{torn", encoding="utf-8")
        journal = SweepJournal(tmp_path, "scn")
        assert journal.load() is None
        assert journal.begin("hash1", 1) == set()
        assert SweepJournal.status(tmp_path, "scn")["status"] == "running"

    def test_every_line_parses_and_fold_is_expected_state(self, tmp_path):
        journal = SweepJournal(tmp_path, "scn")
        expected = {"status": "running", "points": {}}

        def check():
            lines = complete_lines(journal.path)
            assert lines[0]["spec_hash"] == "hash1"
            assert lines[0]["total_points"] == 2
            state = journal.load()
            assert state["status"] == expected["status"]
            assert state["points"] == expected["points"]
            assert not list(journal.path.parent.glob("*.tmp"))
            return lines, state

        journal.begin("hash1", 2)
        lines, state = check()
        assert len(lines) == 1
        assert state["owner"] == {"pid": os.getpid(), "token": journal._token}
        journal.point_started("k1", 0)
        expected["points"]["k1"] = {"status": "started", "index": 0}
        lines, _ = check()
        assert lines[-1] == {"key": "k1", "index": 0, "status": "started"}
        journal.point_finished("k1", 0)
        expected["points"]["k1"] = {"status": "finished", "index": 0}
        check()
        journal.point_started("k2", 1)
        expected["points"]["k2"] = {"status": "started", "index": 1}
        check()
        journal.release()
        _, state = check()
        assert state["owner"] is None
        resumed = SweepJournal(tmp_path, "scn")
        assert resumed.begin("hash1", 2) == {"k2"}
        lines, state = check()  # compacted: header + one line per mark
        assert len(lines) == 3
        assert state["owner"]["token"] == resumed._token
        resumed.point_finished("k2", 1)
        expected["points"]["k2"] = {"status": "finished", "index": 1}
        resumed.complete()
        expected["status"] = "complete"
        lines, state = check()
        assert lines[-1] == {"op": "complete"}
        assert state["owner"] is None


class TestCrashRecovery:
    """What a SIGKILL can leave behind, forged byte for byte in the log."""

    def test_resume_never_appends_after_a_torn_tail(self, tmp_path):
        first = SweepJournal(tmp_path, "scn")
        first.begin("hash1", 3)
        first.point_started("k1", 0)
        first.point_finished("k1", 0)
        first.point_started("k2", 1)
        # Killed half-way through k2's start line.
        forge_sigkill(first.path, offset_after(first.path, "k2", "started") - 9)
        assert not first.path.read_bytes().endswith(b"\n")
        second = SweepJournal(tmp_path, "scn")
        # The torn start never made it: k2 had not begun computing.
        assert second.begin("hash1", 3) == set()
        second.point_started("k3", 2)
        data = second.path.read_bytes()
        assert data.endswith(b"\n")
        lines = [json.loads(line) for line in data.splitlines()]  # all parse
        assert [line.get("key") for line in lines[1:]] == ["k1", "k3"]
        assert second.load()["points"] == {
            "k1": {"status": "finished", "index": 0},
            "k3": {"status": "started", "index": 2},
        }
        second.release()

    def test_torn_finish_line_leaves_the_point_midflight(self, tmp_path):
        first = SweepJournal(tmp_path, "scn")
        first.begin("hash1", 3)
        first.point_started("k1", 0)
        first.point_finished("k1", 0)
        first.point_started("k2", 1)
        first.point_finished("k2", 1)
        # Killed inside k2: its finish line is cut to a fragment.
        forge_sigkill(first.path, offset_after(first.path, "k2", "finished") - 1)
        second = SweepJournal(tmp_path, "scn")
        assert second.begin("hash1", 3) == {"k2"}
        second.release()

    def test_torn_header_reads_as_no_journal(self, tmp_path):
        first = SweepJournal(tmp_path, "scn")
        first.begin("hash1", 1)
        first.point_started("k1", 0)
        forge_sigkill(first.path, 40)
        assert SweepJournal.status(tmp_path, "scn") is None
        second = SweepJournal(tmp_path, "scn")
        assert second.begin("hash1", 1) == set()
        second.release()

    def test_vanished_log_is_reinstalled_from_memory(self, tmp_path):
        journal = SweepJournal(tmp_path, "scn")
        journal.begin("hash1", 2)
        journal.point_started("k1", 0)
        journal.path.unlink()
        journal.point_finished("k1", 0)  # rewriting it is recovery
        journal.point_started("k2", 1)
        state = SweepJournal(tmp_path, "scn").load()
        assert state["owner"]["token"] == journal._token
        assert state["points"] == {
            "k1": {"status": "finished", "index": 0},
            "k2": {"status": "started", "index": 1},
        }
        journal.complete()
        assert SweepJournal.status(tmp_path, "scn")["status"] == "complete"


class TestOwnerLease:
    """The lost-updates bugfix: one live lease per journal, typed refusal."""

    def test_second_live_driver_fails_fast(self, tmp_path):
        first = SweepJournal(tmp_path, "scn")
        first.begin("hash1", 3)
        second = SweepJournal(tmp_path, "scn")
        with pytest.raises(JournalBusyError, match="live driver"):
            second.begin("hash1", 3)
        # The refused driver wrote nothing: the winner's state is intact.
        assert first.load()["owner"]["token"] == first._token
        first.release()

    def test_dead_pid_lease_is_taken_over_immediately(self, tmp_path):
        """SIGKILL resume: a fresh mtime must not wedge the next driver
        when the recorded owner process no longer exists."""
        first = SweepJournal(tmp_path, "scn")
        first.begin("hash1", 2)
        first.point_started("k1", 0)
        forge_sigkill(first.path)  # the whole log, owner pid gone
        second = SweepJournal(tmp_path, "scn")
        assert second.begin("hash1", 2) == {"k1"}
        second.release()

    def test_stale_heartbeat_lease_expires(self, tmp_path):
        """A live-pid owner whose heartbeat went silent past the lease
        window (wedged driver) loses the lease to the next driver."""
        first = SweepJournal(tmp_path, "scn")  # next heartbeat: 7.5 s away
        first.begin("hash1", 1)
        # The wedge: alive pid, heartbeat silent for longer than the lease.
        old = first.path.stat().st_mtime - 5.0
        os.utime(first.path, (old, old))
        second = SweepJournal(tmp_path, "scn", lease_seconds=0.2)
        assert second.begin("hash1", 1) == set()
        second.release()

    def test_usurped_driver_cannot_write(self, tmp_path):
        """The loser of a takeover gets a typed error on its next mark
        instead of silently clobbering the new owner's flight state."""
        first = SweepJournal(tmp_path, "scn")
        first.begin("hash1", 2)
        first.point_started("k1", 0)
        old = first.path.stat().st_mtime - 5.0
        os.utime(first.path, (old, old))
        second = SweepJournal(tmp_path, "scn", lease_seconds=0.2)
        second.begin("hash1", 2)
        taken_over = second.path.read_bytes()
        with pytest.raises(JournalOwnershipLost, match=str(os.getpid())):
            first.point_finished("k1", 0)
        first.release()  # the loser's abort path writes nothing either
        assert second.path.read_bytes() == taken_over
        assert second.load()["owner"]["token"] == second._token
        second.release()

    def test_usurped_heartbeat_spares_the_new_owner(self, tmp_path):
        """The loser of a takeover, still inside a long point, keeps
        heart-beating — on the file it lost, not on the new owner's: a
        wedged new owner must still look stale."""
        first = SweepJournal(tmp_path, "scn", lease_seconds=0.2)  # 50 ms beat
        first.begin("hash1", 2)
        first.point_started("k1", 0)
        second = SweepJournal(tmp_path, "scn", lease_seconds=0.0)
        second.begin("hash1", 2)  # a zero lease is always expired
        second.release()  # ...and the new owner's own heartbeat stops
        taken_over = second.path.read_bytes()
        old = time.time() - 60.0
        os.utime(second.path, (old, old))
        os.utime(first._fd, (old, old))
        deadline = time.time() + 10.0
        while os.fstat(first._fd).st_mtime == old and time.time() < deadline:
            time.sleep(0.05)
        assert os.fstat(first._fd).st_mtime > old  # the loser still beats
        assert second.path.stat().st_mtime == old  # but not on this file
        with pytest.raises(JournalOwnershipLost):
            first.point_finished("k1", 0)
        assert second.path.read_bytes() == taken_over
        assert first._token.encode() not in taken_over

    def test_complete_releases_the_lease(self, tmp_path):
        journal = SweepJournal(tmp_path, "scn")
        journal.begin("hash1", 0)
        journal.complete()
        assert journal.load()["owner"] is None
        assert SweepJournal(tmp_path, "scn").begin("hash1", 0) == set()

    def test_racing_orchestrators_one_fails_fast(
        self, counting_kind, tmp_path
    ):
        """Two orchestrators racing one journal: exactly one runs the
        sweep, the other is refused with the typed error — never an
        interleaved journal."""
        store = ResultStore(tmp_path)
        spec = journal_spec()
        started = threading.Event()
        release = threading.Event()

        @register_kind("journal-race-kind")
        def slow_point(params, trials, seed, engine, batch_size=None):
            started.set()
            release.wait(timeout=30)
            return {"p": params["p"], "value": 0.0, "trials_run": 0}

        try:
            slow_spec = journal_spec(
                name="race-sweep", kind="journal-race-kind", points=1
            )
            winner = SweepOrchestrator(store=store)
            error: list = []

            def run_winner():
                try:
                    winner.run(slow_spec)
                except Exception as failure:  # pragma: no cover
                    error.append(failure)

            thread = threading.Thread(target=run_winner)
            thread.start()
            try:
                assert started.wait(timeout=30)
                loser = SweepOrchestrator(store=store)
                with pytest.raises(JournalBusyError):
                    loser.run(slow_spec)
            finally:
                release.set()
                thread.join(timeout=30)
            assert not error
            status = SweepJournal.status(tmp_path, slow_spec.name)
            assert status["status"] == "complete"
            assert status["midflight"] == []
        finally:
            _RUNNERS.pop("journal-race-kind", None)


class TestOrchestratorIntegration:
    def test_clean_sweep_seals_the_journal(self, counting_kind, tmp_path):
        spec = journal_spec()
        run_sweep(spec, store=ResultStore(tmp_path))
        status = SweepJournal.status(tmp_path, spec.name)
        assert status["status"] == "complete"
        assert status["committed"] == 3
        assert status["midflight"] == []

    def test_journal_dir_is_invisible_to_store_scans(
        self, counting_kind, tmp_path
    ):
        spec = journal_spec()
        store = ResultStore(tmp_path)
        run_sweep(spec, store=store)
        assert store.scenarios() == [spec.name]
        assert store.gc(dry_run=True).removed == 0

    def test_record_present_but_midflight_is_recomputed(
        self, counting_kind, tmp_path
    ):
        """The crash the journal exists for: the record landed on disk
        but the driver died before journaling the finish — the record is
        untrusted and the point recomputes (byte-identically)."""
        spec = journal_spec()
        store = ResultStore(tmp_path)
        run_sweep(spec, store=store)
        keys = store.keys(spec.name)
        victim = keys[1]
        before = (store.path_for(spec.name, victim)).read_bytes()
        # Forge the crash: the driver died right after the victim's
        # record landed, before its finish line — the record stays in
        # the store, the log ends at the victim's start line.
        journal = SweepJournal(tmp_path, spec.name)
        forge_sigkill(journal.path, offset_after(journal.path, victim, "started"))

        resumed = run_sweep(spec, store=store)
        assert (resumed.computed, resumed.cached) == (1, 2)
        assert len(counting_kind) == 4  # 3 cold + exactly the victim
        # Determinism contract: the recomputed record is byte-identical.
        assert store.path_for(spec.name, victim).read_bytes() == before
        assert SweepJournal.status(tmp_path, spec.name)["status"] == "complete"

    def test_missing_record_midflight_is_recomputed(
        self, counting_kind, tmp_path
    ):
        spec = journal_spec()
        store = ResultStore(tmp_path)
        run_sweep(spec, store=store)
        victim = store.keys(spec.name)[0]
        store.path_for(spec.name, victim).unlink()
        journal = SweepJournal(tmp_path, spec.name)
        forge_sigkill(journal.path, offset_after(journal.path, victim, "started"))
        resumed = run_sweep(spec, store=store)
        assert (resumed.computed, resumed.cached) == (1, 2)

    def test_spec_change_does_not_inherit_stale_flight_state(
        self, counting_kind, tmp_path
    ):
        spec = journal_spec()
        store = ResultStore(tmp_path)
        run_sweep(spec, store=store)
        # Killed mid-sweep: a running journal with one point in flight.
        journal = SweepJournal(tmp_path, spec.name)
        victim = store.keys(spec.name)[1]
        forge_sigkill(journal.path, offset_after(journal.path, victim, "started"))
        assert SweepJournal.status(tmp_path, spec.name)["midflight"] == [victim]
        # A different trial budget is a different sweep: every point has
        # a new key, nothing is "mid-flight", all points compute fresh.
        other = run_sweep(spec, store=store, trials=20)
        assert (other.computed, other.cached) == (3, 0)


# -- properties ---------------------------------------------------------------

KEYS = st.sampled_from(["k0", "k1", "k2", "k3"])
HASHES = st.sampled_from(["hash1", "hash2"])
TRANSITIONS = st.lists(
    st.one_of(
        st.tuples(st.just("begin"), HASHES),
        st.tuples(st.just("second-driver"), HASHES),
        st.tuples(st.just("started"), KEYS),
        st.tuples(st.just("finished"), KEYS),
        st.tuples(st.just("complete")),
        st.tuples(st.just("release")),
    ),
    max_size=24,
)


def summary(state):
    """What a journal state says, minus who says it."""
    if state is None:
        return None
    return {
        "spec_hash": state["spec_hash"],
        "status": state["status"],
        "points": {key: entry["status"] for key, entry in state["points"].items()},
        "held": state["owner"] is not None,
    }


def fold_whole_lines(data):
    """The reference reader: the log format restated over whole lines."""
    state = None
    for line in data.splitlines():
        entry = json.loads(line)
        if state is None:
            state = {**entry, "status": "running", "points": {}}
        elif "key" in entry:
            state["points"][entry["key"]] = {
                "status": entry["status"],
                "index": entry["index"],
            }
        else:
            if entry["op"] == "complete":
                state["status"] = "complete"
            state["owner"] = None
    return state


class JournalModel:
    """The journal as a plain dict: no file, no lease clock, no log."""

    def __init__(self):
        self.state = None

    def begin(self, spec_hash):
        same = self.state is not None and self.state["spec_hash"] == spec_hash
        midflight = set()
        if same and self.state["status"] == "running":
            midflight = {
                key
                for key, status in self.state["points"].items()
                if status == "started"
            }
        self.state = {
            "spec_hash": spec_hash,
            "status": "running",
            "points": self.state["points"] if same else {},
            "held": True,
        }
        return midflight

    @property
    def held(self):
        return self.state is not None and self.state["held"]


def drive(root, transitions, after_each=lambda: None):
    """Apply ``transitions`` to real journals under ``root`` and to the
    model, asserting they agree after every step."""
    model = JournalModel()
    driver = SweepJournal(root, "scn")
    opened = [driver]
    try:
        for transition in transitions:
            op = transition[0]
            if op == "begin":
                if not model.held:
                    # A driver that let go of the lease is gone; the
                    # next one to begin is a new process.
                    driver = SweepJournal(root, "scn")
                    opened.append(driver)
                assert driver.begin(transition[1], 4) == model.begin(transition[1])
            elif op == "second-driver":
                rival = SweepJournal(root, "scn")
                opened.append(rival)
                if model.held:
                    with pytest.raises(JournalBusyError):
                        rival.begin(transition[1], 4)
                else:
                    assert rival.begin(transition[1], 4) == model.begin(
                        transition[1]
                    )
                    driver = rival
            elif op in ("started", "finished"):
                mark = (
                    driver.point_started if op == "started" else driver.point_finished
                )
                if model.held:
                    mark(transition[1], 0)
                    model.state["points"][transition[1]] = op
                else:
                    with pytest.raises(RuntimeError):
                        mark(transition[1], 0)
            elif op == "complete":
                if model.held:
                    driver.complete()
                    model.state.update(status="complete", held=False)
                else:
                    with pytest.raises(RuntimeError):
                        driver.complete()
            else:
                driver.release()
                if model.held:
                    model.state["held"] = False
            assert summary(SweepJournal(root, "scn").load()) == model.state
            after_each()
    finally:
        for journal in opened:
            journal.release()


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(TRANSITIONS)
    def test_any_transition_sequence_folds_to_the_dict_model(self, transitions):
        with tempfile.TemporaryDirectory() as root:
            drive(root, transitions)

    @settings(max_examples=25, deadline=None)
    @given(TRANSITIONS)
    def test_truncation_at_any_offset_folds_to_a_prefix(self, transitions):
        """Cut the log at every byte offset: the reader returns the fold
        of the whole lines before the cut — the state after some earlier
        transition — never an exception, never a key from a torn line."""
        with tempfile.TemporaryDirectory() as root, \
                tempfile.TemporaryDirectory() as cut_root:
            live = SweepJournal(root, "scn")
            cut = SweepJournal(cut_root, "scn")
            cut.path.parent.mkdir(parents=True)

            def check_every_cut():
                if not live.path.exists():
                    return
                data = live.path.read_bytes()
                for offset in range(len(data) + 1):
                    cut.path.write_bytes(data[:offset])
                    whole = data[: data.rfind(b"\n", 0, offset) + 1]
                    assert cut.load() == fold_whole_lines(whole), offset

            drive(root, transitions, after_each=check_every_cut)

    def test_a_mark_on_a_large_journal_is_one_line_and_no_read(
        self, tmp_path, monkeypatch
    ):
        seeded = SweepJournal(tmp_path, "scn")
        seeded.begin("hash1", 2001)
        for index in range(2000):
            seeded.point_started(f"key-{index:04d}", index)
        seeded.release()
        journal = SweepJournal(tmp_path, "scn")
        assert len(journal.begin("hash1", 2001)) == 2000

        def no_read(*args, **kwargs):
            raise AssertionError("a mark must not read the log")

        monkeypatch.setattr(SweepJournal, "load", no_read)
        monkeypatch.setattr(os, "read", no_read)
        before = journal.path.stat()
        journal.point_started("key-2000", 2000)
        line = b'{"index":2000,"key":"key-2000","status":"started"}\n'
        after = journal.path.stat()
        assert after.st_size - before.st_size == len(line)
        assert after.st_ino == before.st_ino  # appended to, not replaced
        journal.point_finished("key-0000", 0)
        monkeypatch.undo()
        assert journal.path.read_bytes().endswith(
            line + b'{"index":0,"key":"key-0000","status":"finished"}\n'
        )
        assert journal.path.read_bytes().count(b"\n") == 2003
        journal.release()


# -- the fold's byte-level contract -------------------------------------------


def fold_per_line(data):
    """The fold as it was before canonical marks skipped ``json.loads``:
    every line parsed on its own, kept as the oracle for :func:`_fold`."""
    lines = data.split(b"\n")
    lines.pop()
    try:
        header = json.loads(lines[0])
        if not isinstance(header["spec_hash"], str):
            return None
    except (IndexError, ValueError, KeyError, TypeError):
        return None
    points = {}
    state = {**header, "status": "running", "points": points}
    for raw in lines[1:]:
        try:
            entry = json.loads(raw)
            op = entry.get("op")
            if op is None:
                status = entry["status"]
                if status not in ("started", "finished"):
                    break
                points[entry["key"]] = {
                    "status": status,
                    "index": entry["index"],
                }
            elif op == "complete":
                state["status"] = "complete"
                state["owner"] = None
            elif op == "release":
                state["owner"] = None
            else:
                break
        except (ValueError, KeyError, TypeError, AttributeError):
            break
    return state


TEXT_KEYS = st.text(
    st.characters(exclude_categories=()) | st.sampled_from('"\\\x00\x1f\x7f'),
    max_size=12,
)
INDICES = st.integers() | st.integers(min_value=-(10**40), max_value=10**40)
STATUSES = st.sampled_from(["started", "finished"])
HEADER = (
    b'{"owner":{"pid":1,"token":"t"},"scenario":"scn","schema":2,'
    b'"spec_hash":"h","total_points":3}'
)
#: Lines that look almost like a canonical mark, or are one spelled
#: another way: the fold must read each exactly as ``json.loads`` does.
NEAR_CANONICAL = [
    b'{"index":01,"key":"k","status":"started"}',
    b'{"index":-0,"key":"k","status":"started"}',
    b'{"index":-01,"key":"k","status":"started"}',
    b'{"index":1.0,"key":"k","status":"started"}',
    b'{"index":1e2,"key":"k","status":"started"}',
    b'{"index":1,"key":"\\u00E9","status":"started"}',
    b'{"index":1,"key":"\\u00e9","status":"finished"}',
    b'{"index":1,"key":"\\u0061","status":"started"}',
    b'{"index":1,"key":"\\/","status":"started"}',
    b'{"index":1,"key":"k\x01","status":"started"}',
    b'{"index":1,"key":"k\x1f","status":"started"}',
    b'{"index":1,"key":"k\x7f","status":"started"}',
    b'{"index":1,"key":"k\t","status":"started"}',
    b'{"index":1,"key":"k\xc3\xa9","status":"started"}',
    b'{"index":1,"key":"k\xff","status":"started"}',
    b'{ "index": 1, "key": "k", "status": "started" }',
    b'{"index":1,"key":"k","status":"started"} ',
    b'{"index":1,"key":"k","status":"started"}\r',
    b'{"index":1,"key":"k","status":"started"}x',
    b'{"index":1,"key":"k","status":"started"}{"op":"complete"}',
    b'\xef\xbb\xbf{"index":1,"key":"k","status":"started"}',
    b'{"index":1,"key":"k","status":"started","index":2}',
    b'{"index":1,"key":"k","status":"started","x":1}',
    b'{"index":1,"key":"k","status":"weird"}',
    b'{"index":1,"key":"k","status":"Started"}',
    b'{"key":"k","status":"started"}',
    b'{"index":1,"key":7,"status":"started"}',
    b'{"index":1,"key":"k","status":"started","op":"complete"}',
    b'{"index":' + b"9" * 5000 + b',"key":"k","status":"started"}',
    b'{"op":"complete"}',
    b'{"op":"release"}',
    b'{"op":"other"}',
    b'{"op":null,"index":2,"key":"n","status":"finished"}',
    b"[]",
    b'"started"',
    b"",
    b"\xff",
]
GOOD_MARK = b'{"index":2,"key":"after","status":"finished"}'


def mutated(line: bytes, position: int, byte: int) -> bytes:
    """``line`` with one byte replaced: a canonical mark one edit away."""
    position %= len(line)
    return line[:position] + bytes([byte]) + line[position + 1 :]


MARK_LINES = st.builds(
    lambda key, index, status: _mark_line(key, index, status)[:-1],
    TEXT_KEYS | st.sampled_from(["k", "0123abcdef", "k0"]),
    INDICES,
    STATUSES,
)
LOG_LINES = st.lists(
    MARK_LINES
    | st.sampled_from(NEAR_CANONICAL)
    | st.builds(mutated, MARK_LINES, st.integers(0, 200), st.integers(0, 255))
    | st.binary(max_size=16),
    max_size=12,
)


def assert_same_fold(data):
    folded, oracle = _fold(data), fold_per_line(data)
    assert folded == oracle
    if oracle is not None:
        assert list(folded["points"].items()) == list(oracle["points"].items())


class TestFoldBytes:
    """Canonical marks are read without ``json.loads``; every byte string
    still folds to what a per-line ``json.loads`` fold gives."""

    @settings(max_examples=300, deadline=None)
    @given(TEXT_KEYS, INDICES, STATUSES)
    def test_mark_line_is_the_canonical_encoding(self, key, index, status):
        payload = {"key": key, "index": index, "status": status}
        assert _mark_line(key, index, status) == (
            canonical_json(payload) + "\n"
        ).encode("utf-8")

    @pytest.mark.parametrize("line", NEAR_CANONICAL)
    def test_each_near_canonical_line_folds_as_json_reads_it(self, line):
        assert_same_fold(b"\n".join([HEADER, line, GOOD_MARK]) + b"\n")

    @pytest.mark.parametrize("header", [b'{"spec_hash":7}', b"{", b"", b"[]"])
    def test_a_bad_header_is_no_journal(self, header):
        assert _fold(header + b"\n" + GOOD_MARK + b"\n") is None
        assert_same_fold(header + b"\n" + GOOD_MARK + b"\n")

    @settings(max_examples=400, deadline=None)
    @given(LOG_LINES, st.binary(max_size=8))
    def test_fold_equals_the_per_line_fold(self, lines, tail):
        """Any lines, any torn tail: the same state, in the same order."""
        assert_same_fold(b"\n".join([HEADER, *lines]) + b"\n" + tail)

    def test_a_resumed_log_is_read_without_json_loads(self, tmp_path, monkeypatch):
        journal = SweepJournal(tmp_path, "scn")
        journal.begin("hash1", 3)
        for index, key in enumerate(["k0", "k1", "k2"]):
            journal.point_started(key, index)
            journal.point_finished(key, index)
        journal.complete()
        parsed = []
        real_loads = json.loads
        monkeypatch.setattr(
            json, "loads", lambda raw: parsed.append(raw) or real_loads(raw)
        )
        state = SweepJournal(tmp_path, "scn").load()
        # The header and the closing op only: no mark line is parsed.
        header = journal.path.read_bytes().split(b"\n")[0]
        assert parsed == [header, b'{"op":"complete"}']
        assert {key: entry["status"] for key, entry in state["points"].items()} == {
            "k0": "finished",
            "k1": "finished",
            "k2": "finished",
        }
