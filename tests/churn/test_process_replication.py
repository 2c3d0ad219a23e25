"""Churn process driving an overlay, and column replica repair (the
bookkeeping of the epoch lane's scalar oracle, ``tests/epoch_oracle.py``)."""

import pytest

from epoch_oracle import (
    ColumnReplicaSet,
    RepairOutcome,
    fresh_id_allocator,
    repair_simultaneous_deaths,
)
from repro.churn.lifetime import ExponentialLifetime
from repro.churn.process import ChurnProcess
from repro.dht.bootstrap import build_network
from repro.util.rng import RandomSource


class TestChurnProcess:
    def test_deaths_and_replacements_occur(self):
        overlay = build_network(40, seed=51)
        process = ChurnProcess(
            overlay.network,
            ExponentialLifetime(100.0),
            RandomSource(52, "churn"),
        )
        process.start()
        overlay.loop.run(until=150.0)
        summary = process.summary()
        assert summary["deaths"] > 10
        assert summary["joins"] == summary["deaths"]
        # Population stays constant: online = initial size.
        assert summary["online"] == 40

    def test_no_replacement_mode(self):
        overlay = build_network(30, seed=53)
        process = ChurnProcess(
            overlay.network,
            ExponentialLifetime(50.0),
            RandomSource(54, "churn"),
            replace_dead_nodes=False,
        )
        process.start()
        overlay.loop.run(until=100.0)
        assert process.joins == 0
        assert len(overlay.network.online_ids()) < 30

    def test_death_listener_invoked(self):
        overlay = build_network(20, seed=55)
        process = ChurnProcess(
            overlay.network,
            ExponentialLifetime(10.0),
            RandomSource(56, "churn"),
        )
        events = []
        process.on_death(lambda dead, repl: events.append((dead, repl)))
        process.start()
        overlay.loop.run(until=5.0)
        assert events
        for dead, replacement in events:
            assert dead != replacement  # replacement joined under a new id

    def test_double_start_rejected(self):
        overlay = build_network(5, seed=57)
        process = ChurnProcess(
            overlay.network, ExponentialLifetime(10.0), RandomSource(58)
        )
        process.start()
        with pytest.raises(RuntimeError):
            process.start()

    def test_deterministic_across_runs(self):
        def run():
            overlay = build_network(25, seed=59)
            process = ChurnProcess(
                overlay.network, ExponentialLifetime(20.0), RandomSource(60)
            )
            process.start()
            overlay.loop.run(until=30.0)
            return process.summary()

        assert run() == run()


class TestColumnReplicaSet:
    def make_column(self, members=(1, 2, 3), malicious=()):
        return ColumnReplicaSet(
            column_index=1,
            members=set(members),
            malicious_members=set(malicious),
        )

    def test_initial_exposure_counts_malicious(self):
        column = self.make_column(malicious=(2,))
        assert column.captured
        assert column.ever_knew_malicious == 1

    def test_repair_grows_exposure(self):
        column = self.make_column()
        outcome = column.handle_death(1, 100, replacement_is_malicious=False)
        assert outcome is RepairOutcome.REPAIRED
        assert column.alive_count == 3
        assert 100 in column.ever_knew
        assert len(column.ever_knew) == 4

    def test_malicious_replacement_captures_key(self):
        column = self.make_column()
        assert not column.captured
        column.handle_death(1, 100, replacement_is_malicious=True)
        assert column.captured

    def test_total_death_loses_column(self):
        column = self.make_column(members=(1,))
        outcome = column.handle_death(1, 100, replacement_is_malicious=False)
        assert outcome is RepairOutcome.COLUMN_LOST
        assert column.lost

    def test_non_member_death_ignored(self):
        column = self.make_column()
        assert (
            column.handle_death(999, 100, replacement_is_malicious=False)
            is RepairOutcome.NOT_A_MEMBER
        )

    def test_replacement_rejoining_rejected(self):
        column = self.make_column()
        column.handle_death(1, 100, replacement_is_malicious=False)
        with pytest.raises(ValueError):
            column.handle_death(2, 100, replacement_is_malicious=False)


class TestSimultaneousDeaths:
    """Epoch-granular repair: all deaths land before any republish."""

    def make_column(self, members=(1, 2, 3), malicious=()):
        return ColumnReplicaSet(
            column_index=1,
            members=set(members),
            malicious_members=set(malicious),
        )

    def test_whole_membership_dying_together_loses_column(self):
        # Sequential repair could never lose a k >= 2 column (each death
        # repairs before the next lands); the simultaneous step can.
        column = self.make_column()
        results = repair_simultaneous_deaths(
            column, [1, 2, 3], 0.0, RandomSource(1), fresh_id_allocator()
        )
        assert column.lost
        assert column.alive_count == 0
        assert [outcome for _, _, outcome in results] == (
            [RepairOutcome.COLUMN_LOST] * 3
        )
        assert all(replacement is None for _, replacement, _ in results)

    def test_partial_deaths_all_repair(self):
        column = self.make_column()
        results = repair_simultaneous_deaths(
            column, [1, 2], 0.0, RandomSource(1), fresh_id_allocator()
        )
        assert not column.lost
        assert column.alive_count == 3
        assert [outcome for _, _, outcome in results] == (
            [RepairOutcome.REPAIRED] * 2
        )
        # Exposure grew by both replacements.
        assert len(column.ever_knew) == 5

    def test_non_members_are_ignored(self):
        column = self.make_column()
        results = repair_simultaneous_deaths(
            column, [99], 0.0, RandomSource(1), fresh_id_allocator()
        )
        assert results == []
        assert column.alive_count == 3

    def test_lost_column_stays_lost(self):
        column = self.make_column(members=(1,))
        repair_simultaneous_deaths(
            column, [1], 0.0, RandomSource(1), fresh_id_allocator()
        )
        assert column.lost
        assert (
            repair_simultaneous_deaths(
                column, [1], 0.0, RandomSource(1), fresh_id_allocator()
            )
            == []
        )

    def test_malicious_replacement_rate_applies(self):
        rng = RandomSource(7, "simultaneous")
        allocator = fresh_id_allocator()
        captures = 0
        for _ in range(400):
            column = self.make_column()
            repair_simultaneous_deaths(column, [1], 0.5, rng, allocator)
            captures += column.captured
        assert 140 < captures < 260  # ~Binomial(400, 0.5)
