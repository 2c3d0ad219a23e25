"""Result store: content-addressed keys, persistence, atomicity, integrity."""

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.backends.base import BackendSpec
from repro.scenarios import builtin_scenarios, get_scenario
from repro.scenarios.orchestrator import SweepOrchestrator, resolve_entries
from repro.scenarios.spec import Axis, EngineSettings, ScenarioSpec
from repro.scenarios.store import (
    STORE_GENERATION,
    ResultStore,
    StoreIntegrityError,
    canonical_json,
    finalize_record,
    point_cache_key,
    record_checksum,
    verify_record,
)


def backdate(path, seconds: float = 7200.0) -> None:
    """Age a file so gc's tmp grace period sees it as an old orphan."""
    stamp = path.stat().st_mtime - seconds
    os.utime(path, (stamp, stamp))


def spec_for_keys(**overrides) -> ScenarioSpec:
    base = dict(
        name="keyed",
        kind="attack_resilience",
        fixed={"population_size": 500},
        axes=(Axis("p", (0.1, 0.3)),),
        trials=40,
        seed=99,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestCacheKeys:
    def test_same_spec_and_seed_same_hash(self):
        a = point_cache_key(spec_for_keys(), {"p": 0.1})
        b = point_cache_key(spec_for_keys(), {"p": 0.1})
        assert a == b
        # And the key is stable across a serialization round trip.
        round_tripped = ScenarioSpec.from_json(spec_for_keys().to_json())
        assert point_cache_key(round_tripped, {"p": 0.1}) == a

    def test_different_seed_different_hash(self):
        a = point_cache_key(spec_for_keys(), {"p": 0.1})
        b = point_cache_key(spec_for_keys(seed=100), {"p": 0.1})
        assert a != b

    def test_each_determinant_changes_the_key(self):
        reference = point_cache_key(spec_for_keys(), {"p": 0.1})
        assert point_cache_key(spec_for_keys(), {"p": 0.3}) != reference
        assert point_cache_key(spec_for_keys(trials=41), {"p": 0.1}) != reference
        assert (
            point_cache_key(spec_for_keys(kind="churn_resilience"), {"p": 0.1})
            != reference
        )
        assert (
            point_cache_key(
                spec_for_keys(fixed={"population_size": 501}), {"p": 0.1}
            )
            != reference
        )
        assert (
            point_cache_key(spec_for_keys(), {"p": 0.1}, tolerance=0.02)
            != reference
        )
        assert (
            point_cache_key(
                spec_for_keys(engine=EngineSettings(ci_method="wilson")),
                {"p": 0.1},
            )
            != reference
        )

    def test_backend_excluded_from_key_unless_semantic(self):
        # A pinned execution backend must not invalidate existing stores:
        # the determinism contract makes jobs/worker topology unobservable,
        # and no built-in backend declares semantic options.
        reference = point_cache_key(spec_for_keys(), {"p": 0.1})
        for backend in (
            BackendSpec("serial"),
            BackendSpec("process-pool", {"jobs": 8, "chunk_size": 3}),
            BackendSpec("distributed", {"workers": ["a:1", "b:2"]}),
        ):
            pinned = spec_for_keys(engine=EngineSettings(backend=backend))
            assert point_cache_key(pinned, {"p": 0.1}) == reference, backend

    def test_name_and_description_excluded_from_key(self):
        # Content-addressing: renaming a scenario keeps its results valid.
        renamed = dataclasses.replace(
            spec_for_keys(), name="renamed", description="different words"
        )
        assert point_cache_key(renamed, {"p": 0.1}) == point_cache_key(
            spec_for_keys(), {"p": 0.1}
        )

    def test_trials_override_changes_key(self):
        spec = spec_for_keys()
        assert point_cache_key(spec, {"p": 0.1}, trials=10) != point_cache_key(
            spec, {"p": 0.1}
        )
        assert point_cache_key(spec, {"p": 0.1}, trials=40) == point_cache_key(
            spec, {"p": 0.1}
        )

    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    @staticmethod
    def key_oracle(spec, values, trials, tolerance) -> str:
        """The key payload as one dict per point, hashed the long way."""
        engine = spec.engine.to_dict()
        engine.pop("backend", None)
        payload = {
            "kind": spec.kind,
            "params": {**spec.fixed, **values},
            "trials": trials,
            "seed": spec.seed,
            "tolerance": tolerance,
            "engine": engine,
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]

    @pytest.mark.parametrize("overrides", [{}, {"trials": 7, "tolerance": 0.03}])
    def test_resolved_keys_equal_point_cache_key_for_every_scenario(self, overrides):
        """``resolve_entries`` builds each spec's shared key half once;
        every point's key is still the one-point ``point_cache_key``."""
        points = 0
        for spec in builtin_scenarios().values():
            spec, trials, entries = resolve_entries(spec, **overrides)
            for entry in entries:
                values = entry.point.values
                assert entry.key == point_cache_key(
                    spec, values, trials=trials, tolerance=entry.tolerance
                ) == self.key_oracle(spec, values, trials, entry.tolerance)
            points += len(entries)
        assert points > 500


class TestResultStore:
    def test_save_load_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        record = {"key": "abc", "result": {"value": 0.5}, "point": {"p": 0.1}}
        assert not store.has("scn", "abc")
        path = store.save("scn", "abc", record)
        assert store.has("scn", "abc")
        # Saving stamps the store-format generation and the checksum;
        # everything else round-trips untouched.
        stamped = finalize_record(record)
        assert store.load("scn", "abc") == stamped
        assert json.loads(path.read_text()) == stamped
        assert store.load("scn", "abc")["store_generation"] == STORE_GENERATION
        assert verify_record(store.load("scn", "abc")) == "ok"
        # finalize is idempotent: re-saving a loaded record is a no-op.
        assert finalize_record(stamped) == stamped

    def test_untagged_records_read_as_legacy_generation(self):
        # Why nothing reads the generation stamp back: a record of an
        # older format carries no checksum, so it never verifies.
        assert verify_record({"result": {}}) == "mismatch"
        assert verify_record({"store_generation": 2, "result": {}}) == "mismatch"

    def test_keys_and_counts(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.keys("scn") == [] and store.count("scn") == 0
        store.save("scn", "bbb", {"result": {}})
        store.save("scn", "aaa", {"result": {}})
        store.save("other", "ccc", {"result": {}})
        assert store.keys("scn") == ["aaa", "bbb"]
        assert store.count("scn") == 2
        assert store.scenarios() == ["other", "scn"]

    def test_writes_are_atomic_no_temp_left_behind(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("scn", "abc", {"result": {"value": 1.0}})
        leftovers = list((tmp_path / "scn").glob("*.tmp"))
        assert leftovers == []

    def test_missing_store_directory_is_empty_not_error(self, tmp_path):
        store = ResultStore(tmp_path / "never-created")
        assert store.keys("scn") == []
        assert store.scenarios() == []
        assert store.find("scn", "abc") is None

    def test_lookup_falls_back_across_scenario_directories(self, tmp_path):
        # Content-addressing in practice: a renamed scenario (or another
        # scenario with an overlapping grid) reuses cached records.
        store = ResultStore(tmp_path)
        record = {"key": "abc", "result": {"value": 0.5}}
        store.save("old-name", "abc", record)
        assert store.has("new-name", "abc")
        assert store.load("new-name", "abc")["result"] == record["result"]
        # The scenario's own directory wins when both exist.
        newer = {"key": "abc", "result": {"value": 0.7}}
        store.save("new-name", "abc", newer)
        assert store.load("new-name", "abc")["result"] == newer["result"]
        assert store.load("old-name", "abc")["result"] == record["result"]

    def test_a_finished_sweep_reruns_without_path_stats_or_globs(
        self, tmp_path, monkeypatch
    ):
        """A cache hit is one open of a string path: no ``Path.is_file``
        probe before it, no ``Path.glob`` scan, no ``Path.stat``."""
        store = ResultStore(tmp_path)
        spec = get_scenario("smoke")
        first = SweepOrchestrator(store=store).run(spec)

        def refuse(*args, **kwargs):
            raise AssertionError("the re-read path called a Path stat or glob")

        with monkeypatch.context() as patched:
            for name in ("is_file", "glob", "stat"):
                patched.setattr(Path, name, refuse)
            again = SweepOrchestrator(store=ResultStore(tmp_path)).run(spec)
        assert (again.computed, again.cached) == (0, len(first.records))
        assert [r["checksum"] for r in again.records] == [
            r["checksum"] for r in first.records
        ]

    def test_load_of_missing_key_is_a_clear_error(self, tmp_path):
        import pytest

        store = ResultStore(tmp_path)
        with pytest.raises(FileNotFoundError, match="no cached record"):
            store.load("scn", "missing")


class TestGarbageCollection:
    """`gc`: orphans, corrupt records, abandoned claims, quarantine."""

    @staticmethod
    def populated(tmp_path) -> ResultStore:
        store = ResultStore(tmp_path)
        store.save("scn", "aaa", {"result": {"value": 0.1}})
        store.save("scn", "bbb", {"result": {"value": 0.2}})
        store.save("other", "ccc", {"result": {"value": 0.3}})
        return store

    def test_clean_store_is_a_no_op(self, tmp_path):
        store = self.populated(tmp_path)
        report = store.gc()
        assert report.scanned == 3
        assert report.removed == 0
        assert store.count("scn") == 2

    def test_orphaned_temp_files_are_pruned_after_grace(self, tmp_path):
        store = self.populated(tmp_path)
        orphan = tmp_path / "scn" / "deadbeef.json.tmp"
        orphan.write_text("{\"half\": ")
        backdate(orphan)
        report = store.gc()
        assert [p.name for p in report.orphans] == ["deadbeef.json.tmp"]
        assert not orphan.exists()
        assert store.count("scn") == 2  # real records untouched

    def test_fresh_temp_files_survive_the_grace_period(self, tmp_path):
        # A live driver's in-flight tmp record (seconds old) must never
        # be collected from under it by a concurrent gc.
        store = self.populated(tmp_path)
        in_flight = tmp_path / "scn" / "deadbeef.json.tmp"
        in_flight.write_text("{\"half\": ")
        report = store.gc()
        assert report.orphans == []
        assert [p.name for p in report.fresh_tmp] == ["deadbeef.json.tmp"]
        assert in_flight.exists()
        # An explicit zero grace collects it (the CLI's --tmp-grace 0).
        report = store.gc(tmp_grace_seconds=0.0)
        assert [p.name for p in report.orphans] == ["deadbeef.json.tmp"]
        assert not in_flight.exists()

    def test_corrupt_records_are_pruned(self, tmp_path):
        store = self.populated(tmp_path)
        torn = tmp_path / "scn" / "cafebabe.json"
        torn.write_text("{\"result\": {\"value\":")  # torn mid-write copy
        report = store.gc()
        assert [p.name for p in report.corrupt] == ["cafebabe.json"]
        assert not torn.exists()
        assert store.keys("scn") == ["aaa", "bbb"]

    def test_valid_json_that_is_not_an_object_counts_as_corrupt(self, tmp_path):
        # Manual-edit damage: parses fine but is no record. gc must
        # classify it, not crash on it.
        store = self.populated(tmp_path)
        weird = tmp_path / "scn" / "0123.json"
        weird.write_text("[1, 2, 3]")
        report = store.gc()
        assert [p.name for p in report.corrupt] == ["0123.json"]
        assert not weird.exists()

    def test_dry_run_reports_without_deleting(self, tmp_path):
        store = self.populated(tmp_path)
        orphan = tmp_path / "scn" / "feed.json.tmp"
        orphan.write_text("x")
        backdate(orphan)
        torn = tmp_path / "scn" / "00aa.json"
        torn.write_text("{\"result\":")
        report = store.gc(dry_run=True)
        assert report.dry_run
        assert {p.name for p in report.removed_paths()} == {
            "feed.json.tmp",
            "00aa.json",
        }
        assert orphan.exists() and torn.exists()

    def test_missing_store_directory_is_empty_report(self, tmp_path):
        report = ResultStore(tmp_path / "nope").gc()
        assert report.scanned == 0 and report.removed == 0

    def test_quarantine_gets_its_own_bucket(self, tmp_path):
        store = self.populated(tmp_path)
        bad = tmp_path / "scn" / "aaa.json"
        bad.write_text("{\"torn\":")
        store.repair()
        # Quarantined records are reported, never removed by default.
        report = store.gc()
        assert [p.name for p in report.quarantined] == ["aaa.json"]
        assert report.removed == 0
        assert store.quarantine_dir("scn").is_dir()
        # Purging is an explicit decision — and empties the directories.
        report = store.gc(purge_quarantine=True)
        assert [p.name for p in report.quarantined] == ["aaa.json"]
        assert report.removed == 1
        assert not (tmp_path / ".quarantine").exists()

    def test_orphaned_journal_without_records_is_age_gated(self, tmp_path):
        # A journal whose scenario has no live store records is a
        # leftover (its records were pruned or never committed) — but
        # only once it clears the same grace period as tmp orphans.
        store = self.populated(tmp_path)
        journal_dir = tmp_path / ".journal"
        journal_dir.mkdir()
        orphan = journal_dir / "gone-scenario.jsonl"
        orphan.write_text(json.dumps({"spec_hash": "h", "owner": None}) + "\n")
        report = store.gc()
        assert report.journal_orphans == []
        assert [p.name for p in report.fresh_journals] == [
            "gone-scenario.jsonl"
        ]
        assert orphan.exists()
        backdate(orphan)
        report = store.gc()
        assert [p.name for p in report.journal_orphans] == [
            "gone-scenario.jsonl"
        ]
        assert report.removed == 1
        assert not orphan.exists()
        # The emptied .journal directory disappears with it.
        assert not journal_dir.exists()

    def test_journal_with_live_records_is_never_collected(self, tmp_path):
        store = self.populated(tmp_path)
        journal_dir = tmp_path / ".journal"
        journal_dir.mkdir()
        live = journal_dir / "scn.jsonl"  # "scn" has records in the store
        live.write_text(json.dumps({"spec_hash": "h", "owner": None}) + "\n")
        backdate(live)
        report = store.gc()
        assert report.journal_orphans == []
        assert report.fresh_journals == []
        assert live.exists()

    def test_journal_tmp_leftovers_get_the_orphan_treatment(self, tmp_path):
        store = self.populated(tmp_path)
        journal_dir = tmp_path / ".journal"
        journal_dir.mkdir()
        torn = journal_dir / "scn.0123abcd.jsonl.tmp"
        torn.write_text("{\"half\": ")
        backdate(torn)
        report = store.gc()
        assert torn.name in [p.name for p in report.orphans]
        assert not torn.exists()


class TestIntegrity:
    """Checksums + verify/repair: detect, quarantine, recompute — not crash."""

    @staticmethod
    def populated(tmp_path) -> ResultStore:
        store = ResultStore(tmp_path)
        store.save("scn", "aaa", {"key": "aaa", "result": {"value": 0.1}})
        store.save("scn", "bbb", {"key": "bbb", "result": {"value": 0.2}})
        store.save("other", "ccc", {"key": "ccc", "result": {"value": 0.3}})
        return store

    def test_checksum_is_deterministic_and_excludes_cache_marker(self):
        record = finalize_record({"key": "k", "result": {"value": 0.5}})
        assert verify_record(record) == "ok"
        # from_cache is an in-memory marker, never part of the identity.
        assert record_checksum({**record, "from_cache": True}) == (
            record_checksum(record)
        )

    def test_verify_clean_store(self, tmp_path):
        report = self.populated(tmp_path).verify()
        assert report.scanned == 3 and report.ok == 3
        assert report.clean and report.bad_paths() == []

    def test_stripping_the_checksum_does_not_defeat_the_check(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = get_scenario("smoke")
        SweepOrchestrator(store=store).run(spec, trials=20)
        victim = sorted((tmp_path / "smoke").glob("*.json"))[0]
        pristine = victim.read_bytes()
        edited = json.loads(pristine)
        del edited["checksum"]
        edited["result"]["trials_run"] = 10**6
        victim.write_text(json.dumps(edited))
        # Reported, not trusted...
        assert [p.name for p in store.verify().mismatched] == [victim.name]
        with pytest.raises(StoreIntegrityError, match="mismatch"):
            store.load_verified("smoke", victim.stem)
        # ...quarantined by repair, and recomputed byte-identically.
        assert [p.name for p in store.repair().quarantined] == [victim.name]
        report = SweepOrchestrator(store=store).run(spec, trials=20)
        assert (report.computed, report.cached) == (1, 1)
        assert victim.read_bytes() == pristine

    def test_verify_flags_torn_and_tampered_records(self, tmp_path):
        store = self.populated(tmp_path)
        torn = tmp_path / "scn" / "aaa.json"
        torn.write_text("{\"result\": {\"value\":")
        tampered_path = tmp_path / "scn" / "bbb.json"
        tampered = json.loads(tampered_path.read_text())
        tampered["result"]["value"] = 0.999  # bit-rot / manual edit
        tampered_path.write_text(json.dumps(tampered))
        report = store.verify()
        assert not report.clean
        assert [p.name for p in report.corrupt] == ["aaa.json"]
        assert [p.name for p in report.mismatched] == ["bbb.json"]
        # Scoped verify only sees its scenario.
        assert store.verify("other").clean

    def test_verify_reports_orphan_tmp_files(self, tmp_path):
        store = self.populated(tmp_path)
        (tmp_path / "scn" / "dead.json.tmp").write_text("{")
        report = store.verify()
        assert [p.name for p in report.orphans] == ["dead.json.tmp"]
        assert report.clean  # orphans are gc's business, not damage

    def test_load_verified_raises_on_damage(self, tmp_path):
        store = self.populated(tmp_path)
        (tmp_path / "scn" / "aaa.json").write_text("{\"torn\":")
        with pytest.raises(StoreIntegrityError, match="corrupt"):
            store.load_verified("scn", "aaa")
        assert store.load_verified("scn", "bbb")["result"] == {"value": 0.2}

    def test_repair_quarantines_and_next_lookup_recomputes(self, tmp_path):
        store = self.populated(tmp_path)
        (tmp_path / "scn" / "aaa.json").write_text("{\"torn\":")
        report = store.repair()
        assert [p.name for p in report.quarantined] == ["aaa.json"]
        quarantined = store.quarantine_dir("scn") / "aaa.json"
        assert quarantined.is_file()  # evidence kept, never deleted
        # The damaged key is gone from lookups (and the quarantine
        # dot-directory is invisible to content addressing), so a sweep
        # recomputes exactly this point.
        assert not store.has("scn", "aaa")
        assert store.has("scn", "bbb")
        assert store.scenarios() == ["other", "scn"]
        # Re-saving heals the store; repair is then a no-op.
        store.save("scn", "aaa", {"key": "aaa", "result": {"value": 0.1}})
        assert store.verify().clean
        assert store.repair().quarantined == []


    @staticmethod
    def rotted(tmp_path):
        """A smoke store with one byte of one record rotted into ``0xff``
        (invalid UTF-8 anywhere); returns the store, the spec, the victim
        and its pristine bytes."""
        store = ResultStore(tmp_path)
        spec = get_scenario("smoke")
        SweepOrchestrator(store=store).run(spec, trials=20)
        victim = sorted((tmp_path / "smoke").glob("*.json"))[0]
        pristine = victim.read_bytes()
        victim.write_bytes(pristine[:40] + b"\xff" + pristine[41:])
        return store, spec, victim, pristine

    def test_undecodable_record_is_corrupt_not_a_crash(self, tmp_path):
        store, _, victim, _ = self.rotted(tmp_path)
        with pytest.raises(StoreIntegrityError, match="corrupt") as damage:
            store.load_verified("smoke", victim.stem)
        assert damage.value.path == victim
        report = store.verify()
        assert [p.name for p in report.corrupt] == [victim.name]
        assert (report.scanned, report.ok) == (2, 1)
        assert store.gc(dry_run=True).corrupt == [victim]

    def test_repair_quarantines_an_undecodable_record(self, tmp_path):
        store, _, victim, _ = self.rotted(tmp_path)
        assert store.repair().quarantined == [
            store.quarantine_dir("smoke") / victim.name
        ]
        assert not store.has("smoke", victim.stem)
        assert store.verify().clean

    def test_rerun_recomputes_an_undecodable_record(self, tmp_path):
        store, spec, victim, pristine = self.rotted(tmp_path)
        report = SweepOrchestrator(store=store).run(spec, trials=20)
        assert (report.computed, report.cached) == (1, 1)
        assert victim.read_bytes() == pristine
        assert (store.quarantine_dir("smoke") / victim.name).is_file()


class TestPointClaims:
    """In-flight claims: exclusive acquire, expiry, gc awareness, no-op save."""

    def test_claim_is_exclusive_until_released(self, tmp_path):
        store = ResultStore(tmp_path)
        first = store.claim("scn", "k1")
        assert first is not None
        assert store.claim("scn", "k1") is None
        first.release()
        second = store.claim("scn", "k1")
        assert second is not None
        second.release()
        assert not store.claim_path("scn", "k1").exists()

    def test_release_is_idempotent_and_token_checked(self, tmp_path):
        store = ResultStore(tmp_path)
        claim = store.claim("scn", "k1")
        claim.release()
        claim.release()  # second release: nothing to do, no error
        # A new owner's claim is not ours to delete.
        other = store.claim("scn", "k1")
        claim.release()
        assert store.claim_path("scn", "k1").exists()
        other.release()

    def test_dead_owner_claim_is_taken_over(self, tmp_path):
        """A claim abandoned by a killed driver expires immediately via
        the dead-pid check — resume never wedges on the grace period."""
        store = ResultStore(tmp_path)
        path = store.claim_path("scn", "k1")
        path.parent.mkdir(parents=True)
        path.write_text(
            canonical_json({"pid": 2 ** 22 + os.getpid(), "token": "dead"}),
            encoding="utf-8",
        )
        claim = store.claim("scn", "k1")
        assert claim is not None
        claim.release()

    def test_aged_out_claim_is_taken_over(self, tmp_path):
        store = ResultStore(tmp_path)
        held = store.claim("scn", "k1")
        backdate(store.claim_path("scn", "k1"))
        takeover = store.claim("scn", "k1")
        assert takeover is not None
        # The original owner lost the takeover race: token-checked
        # release leaves the new owner's claim alone.
        held.release()
        assert store.claim_path("scn", "k1").exists()
        takeover.release()

    def test_undecodable_claim_reads_as_torn(self, tmp_path):
        """A fresh claim file whose bytes are not UTF-8 is kept, like a
        torn one: whoever wrote it may still be alive."""
        store = ResultStore(tmp_path)
        path = store.claim_path("scn", "k1")
        path.parent.mkdir(parents=True)
        path.write_bytes(b'{"pid":\xff}\n')
        assert store.claim("scn", "k1") is None
        assert store.gc(dry_run=True).fresh_claims == [path]

    def test_release_of_an_undecodable_claim_is_quiet(self, tmp_path):
        store = ResultStore(tmp_path)
        claim = store.claim("scn", "k1")
        claim.path.write_bytes(b"\xff")
        claim.release()  # not ours to judge: no error, nothing deleted
        assert claim.path.read_bytes() == b"\xff"

    def test_claims_are_invisible_to_record_scans(self, tmp_path):
        store = ResultStore(tmp_path)
        claim = store.claim("scn", "k1")
        assert store.keys("scn") == []
        assert store.scenarios() == []
        assert store.verify().scanned == 0
        claim.release()

    def test_gc_keeps_live_claims_and_collects_stale_ones(self, tmp_path):
        store = ResultStore(tmp_path)
        live = store.claim("scn", "live")
        store.claim("scn", "aged")  # held but aged: abandoned
        aged = store.claim_path("scn", "aged")
        backdate(aged)
        report = store.gc()
        assert aged in report.stale_claims
        assert store.claim_path("scn", "live") in report.fresh_claims
        assert not aged.exists()
        assert store.claim_path("scn", "live").exists()
        live.release()

    def test_identical_save_is_a_noop(self, tmp_path):
        store = ResultStore(tmp_path)
        record = {"key": "k1", "scenario": "scn", "result": {"v": 1}}
        path = store.save("scn", "k1", record)
        stat_before = path.stat()
        again = store.save("scn", "k1", record)
        assert again == path
        stat_after = path.stat()
        # Same inode, same mtime: the second writer never rewrote it.
        assert stat_after.st_ino == stat_before.st_ino
        assert stat_after.st_mtime_ns == stat_before.st_mtime_ns

    def test_changed_save_still_overwrites(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("scn", "k1", {"key": "k1", "result": {"v": 1}})
        store.save("scn", "k1", {"key": "k1", "result": {"v": 2}})
        assert store.load("scn", "k1")["result"] == {"v": 2}
