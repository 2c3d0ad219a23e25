"""Crash-safety overhead: checksummed saves, verify scans, journal writes.

The sweep journal and the store checksums buy crash-provability with
per-point disk writes; these benchmarks pin their cost so "robustness"
never silently becomes "the sweep spends its time fsyncing JSON".  Each
records to ``BENCH_crash_safety.json`` via :func:`record_bench`.
"""

import pytest
from conftest import mean_seconds, record_bench

from repro.scenarios.journal import SweepJournal, sweep_spec_hash
from repro.scenarios.store import ResultStore, finalize_record, record_checksum

BENCH = "crash_safety"

RECORDS = 200


def _record(index: int) -> dict:
    return {
        "key": f"{index:08x}",
        "scenario": "bench",
        "kind": "bench-kind",
        "point": {"p": index / RECORDS},
        "params": {"p": index / RECORDS, "population": 10000},
        "trials": 1000,
        "seed": 2017,
        "tolerance": None,
        "result": {
            "p": index / RECORDS,
            "value": (index % 97) / 97.0,
            "trials_run": 1000,
        },
    }


@pytest.mark.benchmark(group="crash-safety")
def test_checksummed_save_throughput(benchmark, tmp_path):
    """Finalize + atomic-write RECORDS point records."""
    counter = [0]

    def save_batch():
        store = ResultStore(tmp_path / f"store-{counter[0]}")
        counter[0] += 1
        for index in range(RECORDS):
            store.save("bench", f"{index:08x}", _record(index))

    benchmark.pedantic(save_batch, rounds=3, iterations=1)
    wall = mean_seconds(benchmark)
    record_bench(
        BENCH,
        benchmark,
        wall=wall,
        records=RECORDS,
        records_per_second=round(RECORDS / wall, 1) if wall else None,
        operation="save",
    )


@pytest.mark.benchmark(group="crash-safety")
def test_verify_scan_throughput(benchmark, tmp_path):
    """Re-hash RECORDS checksummed records (`repro sweep verify`)."""
    store = ResultStore(tmp_path / "store")
    for index in range(RECORDS):
        store.save("bench", f"{index:08x}", _record(index))

    report = benchmark.pedantic(
        lambda: store.verify("bench"), rounds=5, iterations=1
    )
    assert report.ok == RECORDS and report.clean
    wall = mean_seconds(benchmark)
    record_bench(
        BENCH,
        benchmark,
        wall=wall,
        records=RECORDS,
        records_per_second=round(RECORDS / wall, 1) if wall else None,
        operation="verify",
    )


@pytest.mark.benchmark(group="crash-safety")
def test_checksum_computation(benchmark):
    """The pure hash cost, no disk: one record's checksum."""
    record = finalize_record(_record(1))
    benchmark(lambda: record_checksum(record))
    record_bench(BENCH, benchmark, operation="checksum")


@pytest.mark.benchmark(group="crash-safety")
def test_journal_transition_throughput(benchmark, tmp_path):
    """One full sweep's WAL traffic: begin + 2·RECORDS marks + complete.

    This is the whole per-sweep journal overhead — ``begin`` installs
    the log by temp + rename, every later transition is one appended
    line, so cost is linear in point count; the record here keeps it so.
    """
    keys = [f"{index:08x}" for index in range(RECORDS)]
    spec_hash = sweep_spec_hash(keys)
    counter = [0]

    def journal_sweep():
        journal = SweepJournal(tmp_path / f"j-{counter[0]}", "bench")
        counter[0] += 1
        journal.begin(spec_hash, RECORDS)
        for index, key in enumerate(keys):
            journal.point_started(key, index)
            journal.point_finished(key, index)
        journal.complete()

    benchmark.pedantic(journal_sweep, rounds=3, iterations=1)
    wall = mean_seconds(benchmark)
    transitions = 2 * RECORDS + 2
    record_bench(
        BENCH,
        benchmark,
        wall=wall,
        records=RECORDS,
        transitions_per_second=(
            round(transitions / wall, 1) if wall else None
        ),
        operation="journal",
    )
