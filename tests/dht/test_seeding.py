"""Routing tables seeded on first use equal the eager seeding loop.

``build_network`` used to add every node's contacts at build time.  It now
takes the same draws up front and each table applies its list when first
used.  The eager loop is kept here as the oracle: for every node the table
must be the same right after the build and after any mix of later
operations, and a release must only build the tables it touches.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import CloudStore
from repro.core import DataReceiver, DataSender, ReleaseTimeline
from repro.core.protocol import ProtocolContext, install_holders
from repro.dht import build_network, routing_table
from repro.dht.node_id import ID_BITS, NodeId
from repro.dht.routing_table import RoutingTable
from repro.util.rng import RandomSource

SIZES = (1, 2, 21, 22, 100, 1000)
SEEDS = (7, 41, 2017)
CONTACTS_PER_NODE = (0, 24, 5000)


def eager_tables(ids, seed, contacts_per_node):
    """The seeding loop ``build_network`` ran before tables were seeded lazily."""
    rng = RandomSource(seed, label="overlay").fork("contacts")
    bucket_size = 20  # build_network's default
    tables = {node_id: RoutingTable(node_id, bucket_size) for node_id in ids}
    ordered = sorted(ids, key=lambda node_id: node_id.value)
    index_of = {node_id: position for position, node_id in enumerate(ordered)}
    population = len(ordered)
    sample_count = min(contacts_per_node, population - 1)
    for node_id, table in tables.items():
        add_contact = table.add_contact
        position = index_of[node_id]
        lo = max(0, position - bucket_size // 2)
        hi = min(population, position + bucket_size // 2 + 1)
        for neighbour in ordered[lo:hi]:
            add_contact(neighbour)
        for _ in range(sample_count):
            add_contact(ordered[rng.randrange(population)])
    return tables


def assert_same_tables(overlay, oracle):
    for node_id in overlay.node_ids:
        table = overlay.nodes[node_id].routing_table
        assert table.all_contacts() == oracle[node_id].all_contacts()


@pytest.mark.parametrize("contacts_per_node", CONTACTS_PER_NODE)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("size", SIZES)
def test_tables_equal_the_eager_loop(size, seed, contacts_per_node):
    overlay = build_network(size, seed=seed, contacts_per_node=contacts_per_node)
    oracle = eager_tables(overlay.node_ids, seed, contacts_per_node)
    assert_same_tables(overlay, oracle)


# One operation on one node: (kind, node pick, contact pick, probe answer).
# A contact pick is an overlay member by index or, past the end, a stranger.
operations = st.lists(
    st.tuples(
        st.sampled_from(["add", "add_probed", "remove", "closest"]),
        st.integers(min_value=0, max_value=10 ** 6),
        st.one_of(
            st.integers(min_value=0, max_value=10 ** 6),
            st.integers(min_value=0, max_value=2 ** ID_BITS - 1).map(lambda v: -v - 1),
        ),
        st.booleans(),
    ),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(
    size=st.sampled_from(SIZES[:-1]),
    seed=st.sampled_from(SEEDS),
    contacts_per_node=st.sampled_from(CONTACTS_PER_NODE),
    ops=operations,
)
def test_tables_stay_equal_under_later_operations(size, seed, contacts_per_node, ops):
    overlay = build_network(size, seed=seed, contacts_per_node=contacts_per_node)
    ids = overlay.node_ids
    oracle = eager_tables(ids, seed, contacts_per_node)
    for kind, node_pick, contact_pick, alive in ops:
        owner = ids[node_pick % size]
        if contact_pick >= 0:
            contact = ids[contact_pick % size]
        else:
            contact = NodeId(-contact_pick - 1)
        outcomes = []
        for table in (overlay.nodes[owner].routing_table, oracle[owner]):
            if kind == "add":
                outcomes.append(table.add_contact(contact))
            elif kind == "add_probed":
                outcomes.append(table.add_contact(contact, probe=lambda _: alive))
            elif kind == "remove":
                outcomes.append(table.remove_contact(contact))
            else:
                outcomes.append(table.closest_contacts(contact, 1 + node_pick % 30))
        assert outcomes[0] == outcomes[1]
    assert_same_tables(overlay, oracle)


@pytest.fixture
def bucket_births(monkeypatch):
    """Every KBucket constructed while the fixture is active."""
    born = []

    class CountingBucket(routing_table.KBucket):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            born.append(self)

    monkeypatch.setattr(routing_table, "KBucket", CountingBucket)
    return born


def test_a_build_creates_no_bucket_and_a_central_release_few(bucket_births):
    overlay = build_network(100, seed=2017)
    assert bucket_births == []
    install_holders(overlay, ProtocolContext(network=overlay.network))
    alice = DataSender(
        overlay.nodes[overlay.node_ids[0]],
        CloudStore(overlay.loop.clock),
        RandomSource(2018, "alice"),
    )
    bob = DataReceiver(overlay.nodes[overlay.node_ids[1]])
    timeline = ReleaseTimeline(0.0, 100.0, 1)
    result = alice.send_centralized(b"seeded on first use", timeline, bob.node_id)
    overlay.loop.run(until=result.timeline.release_time + 60.0)
    assert bob.release_time_of(result.key_id) is not None
    with_buckets = [
        node_id
        for node_id, node in overlay.nodes.items()
        if node.routing_table._buckets
    ]
    assert 1 <= len(with_buckets) <= 3
    assert len(bucket_births) == sum(
        len(overlay.nodes[node_id].routing_table._buckets) for node_id in with_buckets
    )
