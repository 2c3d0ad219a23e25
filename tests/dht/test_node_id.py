"""Node ids and the XOR metric."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dht.node_id import ID_BITS, NodeId, unique_random_ids
from repro.dht.routing_table import RoutingTable
from repro.util.rng import RandomSource

id_values = st.integers(min_value=0, max_value=2 ** ID_BITS - 1)


def bucket_index(owner, other):
    """Which of ``owner``'s buckets ``other`` lands in, read off a table."""
    table = RoutingTable(owner)
    table.bucket_for(other).touch(other)
    return table.bucket_sizes().index(1)


def table_of(ids, owner=NodeId(2 ** 159)):
    table = RoutingTable(owner)
    for node_id in ids:
        table.add_contact(node_id)
    return table


class TestConstruction:
    def test_range_enforced(self):
        NodeId(0)
        NodeId(2 ** ID_BITS - 1)
        with pytest.raises(ValueError):
            NodeId(2 ** ID_BITS)
        with pytest.raises(ValueError):
            NodeId(-1)

    def test_type_enforced(self):
        with pytest.raises(TypeError):
            NodeId("abc")
        with pytest.raises(TypeError):
            NodeId("1")

    def test_bytes_roundtrip(self):
        node_id = NodeId.random(RandomSource(1))
        assert NodeId.from_bytes(node_id.to_bytes()) == node_id

    def test_from_bytes_length_checked(self):
        with pytest.raises(ValueError):
            NodeId.from_bytes(b"\x00" * 19)

    def test_hash_of_deterministic(self):
        assert NodeId.hash_of(b"key") == NodeId.hash_of(b"key")
        assert NodeId.hash_of(b"key") != NodeId.hash_of(b"other")

    def test_random_uses_rng(self):
        assert NodeId.random(RandomSource(5)) == NodeId.random(RandomSource(5))


class TestValueSemantics:
    def test_immutable(self):
        node_id = NodeId(5)
        with pytest.raises(AttributeError):
            node_id.value = 6
        with pytest.raises(AttributeError):
            node_id.other = 1
        with pytest.raises(AttributeError):
            del node_id.value
        assert node_id.value == 5

    @given(id_values)
    def test_hash_is_the_one_tuple_hash(self, value):
        # Set and dict iteration orders across the simulator, and so the
        # lane-parity golden, depend on this exact value.
        assert hash(NodeId(value)) == hash((value,))

    @given(id_values)
    def test_equal_by_value_and_only_to_node_ids(self, value):
        assert NodeId(value) == NodeId(value)
        assert not NodeId(value) != NodeId(value)
        assert NodeId(value) != value
        assert NodeId(value) != (value,)
        assert len({NodeId(value), NodeId(value)}) == 1

    @given(id_values, id_values)
    def test_total_ordering_follows_value(self, a, b):
        x, y = NodeId(a), NodeId(b)
        assert (x < y) == (a < b)
        assert (x <= y) == (a <= b)
        assert (x > y) == (a > b)
        assert (x >= y) == (a >= b)
        assert (x == y) == (a == b)

    def test_ordering_against_other_types_is_an_error(self):
        with pytest.raises(TypeError):
            NodeId(1) < 2
        assert sorted([NodeId(3), NodeId(1), NodeId(2)]) == [NodeId(1), NodeId(2), NodeId(3)]

    @given(id_values)
    def test_pickle_and_deepcopy_round_trip(self, value):
        node_id = NodeId(value)
        for clone in (
            pickle.loads(pickle.dumps(node_id)),
            copy.deepcopy(node_id),
            copy.copy(node_id),
        ):
            assert clone == node_id
            assert hash(clone) == hash(node_id)

    @given(id_values)
    def test_short_and_full_hex(self, value):
        node_id = NodeId(value)
        assert node_id.hex() == node_id.to_bytes().hex()
        assert str(node_id) == node_id.hex()[:12]
        assert repr(node_id) == f"NodeId({node_id.hex()[:12]}...)"


class TestMetric:
    @given(id_values, id_values)
    def test_symmetry(self, a, b):
        assert NodeId(a).distance_to(NodeId(b)) == NodeId(b).distance_to(NodeId(a))

    @given(id_values)
    def test_identity(self, a):
        assert NodeId(a).distance_to(NodeId(a)) == 0

    @given(id_values, id_values, id_values)
    def test_triangle_inequality(self, a, b, c):
        # XOR satisfies d(a,c) <= d(a,b) + d(b,c).
        d_ac = NodeId(a).distance_to(NodeId(c))
        d_ab = NodeId(a).distance_to(NodeId(b))
        d_bc = NodeId(b).distance_to(NodeId(c))
        assert d_ac <= d_ab + d_bc

    @given(id_values, id_values)
    def test_unidirectional(self, a, b):
        # For a given a and distance there is exactly one b.
        distance = NodeId(a).distance_to(NodeId(b))
        recovered = NodeId(a.__xor__(distance))
        assert recovered == NodeId(b)

    def test_bucket_index(self):
        origin = NodeId(0)
        assert bucket_index(origin, NodeId(1)) == 0
        assert bucket_index(origin, NodeId(2)) == 1
        assert bucket_index(origin, NodeId(3)) == 1
        assert bucket_index(origin, NodeId(2 ** 159)) == 159
        table = RoutingTable(origin)
        assert table.bucket_for(NodeId(2)) is table.bucket_for(NodeId(3))

    def test_bucket_index_self_rejected(self):
        node_id = NodeId(42)
        with pytest.raises(ValueError):
            RoutingTable(node_id).bucket_for(node_id)


class TestOrderingHelpers:
    def test_sort_by_distance(self):
        target = NodeId(8)
        table = table_of([NodeId(0), NodeId(9), NodeId(12), NodeId(8)])
        ordered = table.closest_contacts(target, 4)
        assert ordered[0] == NodeId(8)  # distance 0
        assert ordered[1] == NodeId(9)  # distance 1
        assert ordered == [NodeId(8), NodeId(9), NodeId(12), NodeId(0)]

    def test_closest(self):
        table = table_of([NodeId(100), NodeId(5), NodeId(50)])
        assert table.closest_contacts(NodeId(0), 1) == [NodeId(5)]
        assert len(table.closest_contacts(NodeId(0), 2)) == 2

    def test_unique_random_ids_distinct(self):
        ids = unique_random_ids(RandomSource(3), 500)
        assert len(set(ids)) == 500

    def test_unique_random_ids_respects_exclusion(self):
        rng_a = RandomSource(3)
        first_batch = unique_random_ids(rng_a, 10)
        rng_b = RandomSource(3)
        second_batch = unique_random_ids(rng_b, 10, exclude=set(first_batch))
        assert not (set(first_batch) & set(second_batch))


class TestDisplay:
    def test_str_is_short_hex(self):
        node_id = NodeId.random(RandomSource(1))
        assert str(node_id) == node_id.hex()[:12]

    def test_repr(self):
        assert "NodeId(" in repr(NodeId(7))
