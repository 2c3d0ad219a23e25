"""``serve_point``: the one commit path the CLI driver and the daemon share.

Each test drives the function directly against a real store, with a
"concurrent driver" played by a claim this process holds and a thread
that commits (or just releases) a moment later.
"""

import threading

import pytest

from repro.scenarios import orchestrator
from repro.scenarios.journal import SweepJournal, sweep_spec_hash
from repro.scenarios.orchestrator import (
    build_point_record,
    resolve_entries,
    serve_point,
)
from repro.scenarios.spec import Axis, ScenarioSpec
from repro.scenarios.store import PointClaim, ResultStore

SPEC, TRIALS, (ENTRY,) = resolve_entries(
    ScenarioSpec(
        name="serve-unit",
        kind="never-resolved",  # serve_point takes compute, not a runner
        axes=(Axis("p", (0.5,)),),
        trials=10,
        seed=3,
    )
)
RESULT = {"value": 0.5, "trials_run": 10}


class RecordingSpan:
    def __init__(self):
        self.events = []

    def event(self, name, **attrs):
        self.events.append(name)


class Compute:
    """The point's computation, counting how often it ran."""

    def __init__(self, check=None):
        self.calls = 0
        self.check = check

    def __call__(self):
        self.calls += 1
        if self.check is not None:
            self.check()
        return dict(RESULT)


def serve(store, compute, span=None, **kwargs):
    return serve_point(
        store, SPEC, ENTRY, TRIALS, compute, span or RecordingSpan(), **kwargs
    )


def marks(store):
    """Key -> last mark, as the journal on disk has it."""
    state = SweepJournal(store.root, SPEC.name).load()
    return {key: entry["status"] for key, entry in state["points"].items()}


def commit(store):
    """What another driver's finished point leaves in the store."""
    record = build_point_record(SPEC, ENTRY, TRIALS, dict(RESULT))
    store.save(SPEC.name, ENTRY.key, record)
    return record


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path)


@pytest.fixture
def holder(store, monkeypatch):
    """Hold the point's claim; ``holder(save=...)`` lets go a poll later."""
    monkeypatch.setattr(orchestrator, "CLAIM_POLL_SECONDS", 0.005)
    claim = store.claim(SPEC.name, ENTRY.key)
    assert claim is not None
    threads = []

    def finish_soon(save):
        def finish():
            if save:
                commit(store)
            claim.release()

        timer = threading.Timer(0.03, finish)
        timer.start()
        threads.append(timer)

    yield finish_soon
    for timer in threads:
        timer.join(timeout=5)
        assert not timer.is_alive()


class TestStatuses:
    def test_computed_then_cached(self, store):
        compute = Compute()
        record, status = serve(store, compute)
        assert status == "computed"
        assert record["result"] == RESULT
        assert store.load_verified(SPEC.name, ENTRY.key)["result"] == RESULT
        assert not store.claim_path(SPEC.name, ENTRY.key).exists()
        again, status = serve(store, compute)
        assert status == "cached"
        assert again["from_cache"] and again["result"] == RESULT
        assert compute.calls == 1

    def test_followed_adopts_the_holders_record(self, store, holder):
        holder(save=True)
        compute, span = Compute(), RecordingSpan()
        record, status = serve(store, compute, span)
        assert status == "followed"
        assert record["from_cache"] and record["result"] == RESULT
        assert compute.calls == 0
        assert span.events == ["claim_wait"]

    def test_without_a_store_the_point_is_just_computed(self):
        record, status = serve(None, Compute())
        assert status == "computed"
        assert record == build_point_record(SPEC, ENTRY, TRIALS, dict(RESULT))


class TestForceAndSkipFirstRead:
    def test_force_never_adopts(self, store, holder):
        # A loadable record sits in the store the whole time, and the
        # holder commits nothing new — force still waits out the claim
        # and recomputes.
        commit(store)
        holder(save=False)
        compute, span = Compute(), RecordingSpan()
        record, status = serve(store, compute, span, force=True)
        assert status == "computed"
        assert compute.calls == 1
        assert span.events == ["claim_wait"]
        assert "from_cache" not in record

    def test_skip_first_read_ignores_what_the_store_holds(self, store):
        commit(store)
        compute = Compute()
        assert serve(store, compute, skip_first_read=True)[1] == "computed"
        assert compute.calls == 1

    def test_skip_first_read_still_adopts_a_followed_record(self, store, holder):
        holder(save=True)
        compute = Compute()
        record, status = serve(store, compute, skip_first_read=True)
        assert status == "followed"
        assert record["result"] == RESULT
        assert compute.calls == 0


class TestCommitOrder:
    def test_record_is_on_disk_before_the_claim_disappears(
        self, store, monkeypatch
    ):
        record_path = store.path_for(SPEC.name, ENTRY.key)
        claim_path = store.claim_path(SPEC.name, ENTRY.key)
        seen = []
        release = PointClaim.release

        def checking_release(claim):
            seen.append((record_path.exists(), claim_path.exists()))
            release(claim)

        monkeypatch.setattr(PointClaim, "release", checking_release)

        def while_computing():
            assert claim_path.exists() and not record_path.exists()

        assert serve(store, Compute(while_computing))[1] == "computed"
        assert seen == [(True, True)]
        assert not claim_path.exists()

    def test_journal_brackets_the_point(self, store):
        journal = SweepJournal(store.root, SPEC.name)
        journal.begin(sweep_spec_hash([ENTRY.key]), 1)
        claim_path = store.claim_path(SPEC.name, ENTRY.key)

        def while_computing():
            # Write-ahead: the intent is on disk before the claim is
            # taken, and stays mid-flight until the record has landed.
            assert marks(store) == {ENTRY.key: "started"}
            assert claim_path.exists()

        try:
            serve(store, Compute(while_computing), journal=journal)
            assert marks(store) == {ENTRY.key: "finished"}
        finally:
            journal.release()

    def test_failed_compute_releases_the_claim_and_stays_midflight(self, store):
        journal = SweepJournal(store.root, SPEC.name)
        journal.begin(sweep_spec_hash([ENTRY.key]), 1)

        def explode():
            raise RuntimeError("injected point failure")

        try:
            with pytest.raises(RuntimeError, match="injected point failure"):
                serve(store, explode, journal=journal)
            assert not store.claim_path(SPEC.name, ENTRY.key).exists()
            assert not store.has(SPEC.name, ENTRY.key)
            assert marks(store) == {ENTRY.key: "started"}
        finally:
            journal.release()
