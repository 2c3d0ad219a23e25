"""k-bucket routing tables."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dht.node_id import ID_BITS, NodeId, sort_by_distance
from repro.dht.routing_table import KBucket, RoutingTable
from repro.util.rng import RandomSource


def make_ids(count, seed=1):
    rng = RandomSource(seed)
    return [NodeId.random(rng) for _ in range(count)]


# Mostly small values, so ids share high bits and pile into low buckets.
id_values = st.one_of(
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=2 ** ID_BITS - 1),
)


class TestKBucket:
    def test_insert_until_full(self):
        bucket = KBucket(capacity=3)
        ids = make_ids(3)
        for node_id in ids:
            assert bucket.touch(node_id)
        assert len(bucket) == 3

    def test_full_bucket_rejects_newcomer_without_probe(self):
        bucket = KBucket(capacity=2)
        a, b, c = make_ids(3)
        bucket.touch(a)
        bucket.touch(b)
        assert not bucket.touch(c)
        assert c not in bucket

    def test_full_bucket_refreshes_stalest_when_alive(self):
        bucket = KBucket(capacity=2)
        a, b, c = make_ids(3)
        bucket.touch(a)
        bucket.touch(b)
        assert not bucket.touch(c, probe=lambda node: True)
        # a (stalest) was probed alive and moved to the tail.
        assert bucket.stalest == b

    def test_full_bucket_evicts_dead_stalest(self):
        bucket = KBucket(capacity=2)
        a, b, c = make_ids(3)
        bucket.touch(a)
        bucket.touch(b)
        assert bucket.touch(c, probe=lambda node: False)
        assert a not in bucket
        assert c in bucket

    def test_touch_moves_to_tail(self):
        bucket = KBucket(capacity=3)
        a, b, c = make_ids(3)
        for node_id in (a, b, c):
            bucket.touch(node_id)
        bucket.touch(a)  # re-seen
        assert bucket.stalest == b

    def test_remove(self):
        bucket = KBucket(capacity=2)
        a, b = make_ids(2)
        bucket.touch(a)
        assert bucket.remove(a)
        assert not bucket.remove(b)

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            KBucket(capacity=0)


class TestRoutingTable:
    def test_own_id_never_added(self):
        ids = make_ids(2)
        table = RoutingTable(ids[0])
        assert not table.add_contact(ids[0])
        assert ids[0] not in table

    def test_add_and_contains(self):
        owner, other = make_ids(2)
        table = RoutingTable(owner)
        assert table.add_contact(other)
        assert other in table

    def test_closest_contacts_match_brute_force(self):
        ids = make_ids(200, seed=9)
        owner = ids[0]
        table = RoutingTable(owner, bucket_size=20)
        for node_id in ids[1:]:
            table.add_contact(node_id)
        target = NodeId.random(RandomSource(77))
        expected = sort_by_distance(table.all_contacts(), target)[:10]
        assert table.closest_contacts(target, 10) == expected

    def test_contact_count(self):
        # A wide bucket size guarantees nothing overflows (random ids pile
        # into the top distance buckets).
        ids = make_ids(50, seed=2)
        table = RoutingTable(ids[0], bucket_size=64)
        for node_id in ids[1:]:
            table.add_contact(node_id)
        assert table.contact_count == 49

    def test_remove_contact(self):
        owner, other = make_ids(2)
        table = RoutingTable(owner)
        table.add_contact(other)
        assert table.remove_contact(other)
        assert other not in table

    def test_remove_own_id_is_noop(self):
        owner = make_ids(1)[0]
        table = RoutingTable(owner)
        assert not table.remove_contact(owner)

    def test_bucket_sizes_sum_to_contacts(self):
        ids = make_ids(100, seed=5)
        table = RoutingTable(ids[0])
        for node_id in ids[1:]:
            table.add_contact(node_id)
        assert sum(table.bucket_sizes()) == table.contact_count

    def test_nearby_ids_land_in_low_buckets(self):
        owner = NodeId(2 ** 100)
        table = RoutingTable(owner)
        table.add_contact(NodeId(2 ** 100 + 1))  # distance 1 -> bucket 0
        assert table.bucket_sizes()[0] == 1

    def test_bucket_sizes_always_lists_every_bucket(self):
        owner, other = make_ids(2)
        table = RoutingTable(owner)
        assert table.bucket_sizes() == [0] * ID_BITS
        table.add_contact(other)
        assert len(table.bucket_sizes()) == ID_BITS

    def test_bucket_for_returns_the_bucket_contacts_land_in(self):
        owner, other = make_ids(2)
        table = RoutingTable(owner, bucket_size=4)
        bucket = table.bucket_for(other)
        assert isinstance(bucket, KBucket) and bucket.capacity == 4
        table.add_contact(other)
        assert other in bucket
        assert table.bucket_for(other) is bucket
        with pytest.raises(ValueError):
            table.bucket_for(owner)

    def test_queries_about_unseen_ids_leave_no_trace(self):
        owner, other = make_ids(2)
        table = RoutingTable(owner)
        assert other not in table
        assert not table.remove_contact(other)
        assert table.all_contacts() == []
        assert table.closest_contacts(other, 5) == []

    @pytest.mark.parametrize(
        "probe, admitted, order",
        [
            (None, False, "bca"),  # no probe: head refreshed, newcomer dropped
            (lambda node: True, False, "bca"),  # live head refreshed
            (lambda node: False, True, "bcd"),  # dead head evicted
        ],
    )
    def test_full_bucket_eviction_through_the_table(self, probe, admitted, order):
        # Same top bit as each other, different from the owner: one bucket.
        owner = NodeId(0)
        ids = dict(zip("abcd", (NodeId(2 ** 159 + n) for n in range(4))))
        table = RoutingTable(owner, bucket_size=3)
        for name in "abc":
            assert table.add_contact(ids[name])
        assert table.add_contact(ids["d"], probe=probe) is admitted
        assert table.all_contacts() == [ids[name] for name in order]
        assert table.bucket_sizes()[159] == 3


class TestOracle:
    """The table against the obvious definitions, on arbitrary input."""

    @given(
        owner=id_values,
        contacts=st.lists(id_values, max_size=60),
        removed=st.lists(id_values, max_size=10),
        target=id_values,
        count=st.integers(min_value=0, max_value=70),
        bucket_size=st.integers(min_value=1, max_value=8),
    )
    def test_closest_contacts_is_the_head_of_the_full_sort(
        self, owner, contacts, removed, target, count, bucket_size
    ):
        table = RoutingTable(NodeId(owner), bucket_size=bucket_size)
        for value in contacts:
            table.add_contact(NodeId(value))
        for value in removed:
            table.remove_contact(NodeId(value))
        everyone = table.all_contacts()
        expected = sorted(everyone, key=lambda c: c.value ^ target)[:count]
        assert table.closest_contacts(NodeId(target), count) == expected
        sizes = table.bucket_sizes()
        assert len(sizes) == ID_BITS
        assert sum(sizes) == table.contact_count == len(everyone)
        assert max(sizes) <= bucket_size
        assert NodeId(owner) not in everyone
        assert all(contact in table for contact in everyone)

    @given(
        touches=st.lists(st.tuples(st.integers(0, 9), st.sampled_from("nld")), max_size=60),
        capacity=st.integers(min_value=1, max_value=4),
    )
    def test_bucket_is_least_recently_seen_ordered(self, touches, capacity):
        """Replay against a list model of the Kademlia eviction rule."""
        probes = {"n": None, "l": lambda node: True, "d": lambda node: False}
        ids = make_ids(10, seed=4)
        bucket = KBucket(capacity)
        model = []
        for which, probe in touches:
            node_id = ids[which]
            expected = True
            if node_id in model:
                model.remove(node_id)
                model.append(node_id)
            elif len(model) < capacity:
                model.append(node_id)
            elif probe == "d":
                model.pop(0)
                model.append(node_id)
            else:
                model.append(model.pop(0))
                expected = False
            assert bucket.touch(node_id, probes[probe]) is expected
            assert bucket.contacts == model
            assert bucket.stalest == model[0]


# One step on a table: (kind, contact value, probe answer, target, count, excluded value).
table_steps = st.lists(
    st.tuples(
        st.sampled_from(["seed", "add", "add_probed", "remove", "touch"]),
        id_values,
        st.booleans(),
        id_values,
        st.integers(min_value=0, max_value=30),
        id_values,
    ),
    max_size=50,
)


class TestValueIndex:
    """The table's ``value -> NodeId`` index against the buckets it mirrors."""

    @given(
        owner=id_values,
        bucket_size=st.integers(min_value=1, max_value=4),
        steps=table_steps,
    )
    def test_index_is_the_union_of_the_buckets(self, owner, bucket_size, steps):
        table = RoutingTable(NodeId(owner), bucket_size=bucket_size)
        for kind, value, alive, target, count, excluded in steps:
            contact = NodeId(value)
            if kind == "seed":
                table.seed([contact])
            elif kind == "add":
                table.add_contact(contact)
            elif kind == "add_probed":
                table.add_contact(contact, probe=lambda _: alive)
            elif kind == "remove":
                table.remove_contact(contact)
            elif value != owner:
                table.bucket_for(contact).touch(contact, probe=lambda _: alive)
            everyone = table.all_contacts()  # applies any queued seed
            buckets = table._buckets.values()
            assert all(bucket._index is table._index for bucket in buckets)
            assert table._index == {
                contact.value: contact for bucket in buckets for contact in bucket.contacts
            }
            assert len(table._index) == len(everyone) == table.contact_count
            left = [c for c in everyone if c.value != excluded]
            assert table.closest_contacts(
                NodeId(target), count, excluding=NodeId(excluded)
            ) == sort_by_distance(left, NodeId(target))[:count]
