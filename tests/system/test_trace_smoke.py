"""The observability side-channel contract: a traced smoke sweep emits a
schema-valid span tree (sweep → point → engine → backend.call) and leaves
a store byte-identical to the same sweep without ``--trace``."""

from conftest import assert_same_store

from repro.obs import read_trace


def test_trace_smoke(fleet):
    fleet.sweep("run", "smoke", "store-plain")
    traced = fleet.sweep("run", "smoke", "store-traced", "--trace", "trace.jsonl")
    assert "trace written: trace.jsonl" in traced.stdout
    fleet.cli("trace", "validate", "trace.jsonl")
    fleet.cli("trace", "summary", "trace.jsonl")

    spans = {}
    for record in read_trace(fleet.dir / "trace.jsonl"):  # re-validates each line
        if record["type"] == "span":
            spans.setdefault(record["name"], []).append(record)
    assert len(spans["sweep"]) == 1, spans.keys()
    assert len(spans["point"]) == 2, spans.keys()
    assert len(spans["engine"]) == 2, spans.keys()
    assert spans["backend.call"], spans.keys()
    by_id = {span["id"]: span for group in spans.values() for span in group}
    for point in spans["point"]:
        assert point["parent"] == spans["sweep"][0]["id"]
    for engine in spans["engine"]:
        assert by_id[engine["parent"]]["name"] == "point"
    for call in spans["backend.call"]:
        assert by_id[call["parent"]]["name"] == "engine"

    records = assert_same_store(
        fleet.dir / "store-plain", fleet.dir / "store-traced", "smoke"
    )
    assert len(records) == 2
