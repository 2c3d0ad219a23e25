"""GF(2^8) field axioms and table correctness."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import gf256

elements = st.integers(min_value=0, max_value=255)
nonzero = st.integers(min_value=1, max_value=255)


def _slow_multiply(a: int, b: int) -> int:
    """Reference carry-less multiply mod the AES polynomial."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        carry = a & 0x80
        a = (a << 1) & 0xFF
        if carry:
            a ^= 0x1B  # 0x11b without the x^8 bit
        b >>= 1
    return result


class TestMultiplication:
    @given(elements, elements)
    def test_matches_reference(self, a, b):
        assert gf256.multiply(a, b) == _slow_multiply(a, b)

    @given(elements, elements)
    def test_commutative(self, a, b):
        assert gf256.multiply(a, b) == gf256.multiply(b, a)

    @given(elements, elements, elements)
    def test_associative(self, a, b, c):
        left = gf256.multiply(gf256.multiply(a, b), c)
        right = gf256.multiply(a, gf256.multiply(b, c))
        assert left == right

    @given(elements, elements, elements)
    def test_distributive(self, a, b, c):
        left = gf256.multiply(a, b ^ c)
        right = gf256.multiply(a, b) ^ gf256.multiply(a, c)
        assert left == right

    @given(elements)
    def test_one_is_identity(self, a):
        assert gf256.multiply(a, 1) == a

    @given(elements)
    def test_zero_annihilates(self, a):
        assert gf256.multiply(a, 0) == 0

    @pytest.mark.parametrize("a, b", [(-1, 0), (256, 0), (0, -1), (0, 256)])
    def test_operands_outside_the_field_rejected(self, a, b):
        with pytest.raises(ValueError, match="field elements"):
            gf256.multiply(a, b)


class TestDivision:
    @given(elements, nonzero)
    def test_divide_inverts_multiply(self, a, b):
        assert gf256.multiply(gf256.divide(a, b), b) == a

    def test_divide_by_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            gf256.divide(5, 0)

    @given(nonzero)
    def test_zero_divided_is_zero(self, a):
        assert gf256.divide(0, a) == 0

    def test_every_quotient_is_exact(self):
        for b in range(1, 256):
            for a in range(256):
                assert gf256.divide(gf256.multiply(a, b), b) == a


class TestPolynomials:
    @given(st.lists(elements, min_size=1, max_size=6), elements)
    def test_eval_matches_horner_reference(self, coefficients, point):
        expected = 0
        power = 1
        for coefficient in coefficients:
            expected ^= _slow_multiply(coefficient, power)
            power = _slow_multiply(power, point)
        assert gf256.eval_polynomial(coefficients, point) == expected

    @given(st.lists(elements, min_size=1, max_size=5))
    def test_lagrange_weights_recover_constant_term(self, coefficients):
        xs = list(range(1, len(coefficients) + 1))
        weights = gf256.lagrange_weights_at_zero(xs)
        secret = 0
        for x, weight in zip(xs, weights):
            secret ^= gf256.multiply(gf256.eval_polynomial(coefficients, x), weight)
        assert secret == coefficients[0]

    @given(elements, st.lists(elements, max_size=5))
    def test_eval_at_zero_is_the_constant_term(self, constant, rest):
        assert gf256.eval_polynomial([constant] + rest, 0) == constant

    def test_single_point_weight_is_one(self):
        for x in range(1, 256):
            assert gf256.lagrange_weights_at_zero([x]) == [1]

    @given(st.lists(nonzero, min_size=1, max_size=10, unique=True))
    def test_weights_interpolate_the_constant_one(self, xs):
        # The constant polynomial 1 takes the value 1 at every point, so its
        # interpolated value at zero, the XOR of the weights, is 1.
        total = 0
        for weight in gf256.lagrange_weights_at_zero(xs):
            total ^= weight
        assert total == 1

    def test_weights_reject_duplicate_x(self):
        with pytest.raises(ValueError):
            gf256.lagrange_weights_at_zero([1, 1])

    def test_weights_reject_x_zero(self):
        with pytest.raises(ValueError):
            gf256.lagrange_weights_at_zero([0, 1])


class TestTables:
    def test_tables_are_immutable_bytes(self):
        exp, log, mul = gf256.export_tables()
        assert isinstance(exp, bytes) and len(exp) == 510
        assert isinstance(log, bytes) and len(log) == 256
        assert isinstance(mul, bytes) and len(mul) == 256 * 256

    def test_exp_log_consistency(self):
        exp, log, _ = gf256.export_tables()
        for value in range(1, 256):
            assert exp[log[value]] == value
        assert exp[:255] == exp[255:510]

    def test_generator_has_full_order(self):
        exp, log, _ = gf256.export_tables()
        assert sorted(exp[:255]) == list(range(1, 256))
        assert log[0] == 0 and log[1] == 0

    def test_product_table_rows_match_multiply(self):
        _, _, mul = gf256.export_tables()
        for a in (0, 1, 2, 3, 0x53, 0xCA, 255):
            row = mul[a << 8 : (a + 1) << 8]
            assert list(row) == [_slow_multiply(a, b) for b in range(256)]
