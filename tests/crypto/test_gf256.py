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
        left = gf256.multiply(a, gf256.add(b, c))
        right = gf256.add(gf256.multiply(a, b), gf256.multiply(a, c))
        assert left == right

    @given(elements)
    def test_one_is_identity(self, a):
        assert gf256.multiply(a, 1) == a

    @given(elements)
    def test_zero_annihilates(self, a):
        assert gf256.multiply(a, 0) == 0


class TestInverse:
    @given(nonzero)
    def test_inverse_multiplies_to_one(self, a):
        assert gf256.multiply(a, gf256.inverse(a)) == 1

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            gf256.inverse(0)

    @given(nonzero, nonzero)
    def test_divide_consistent_with_inverse(self, a, b):
        assert gf256.divide(a, b) == gf256.multiply(a, gf256.inverse(b))

    def test_divide_by_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            gf256.divide(5, 0)

    @given(nonzero)
    def test_zero_divided_is_zero(self, a):
        assert gf256.divide(0, a) == 0


class TestPower:
    @given(elements)
    def test_power_zero_is_one(self, a):
        if a != 0:
            assert gf256.power(a, 0) == 1

    def test_zero_to_zero_is_one(self):
        assert gf256.power(0, 0) == 1

    @given(nonzero, st.integers(min_value=0, max_value=20))
    def test_power_matches_repeated_multiply(self, a, exponent):
        expected = 1
        for _ in range(exponent):
            expected = gf256.multiply(expected, a)
        assert gf256.power(a, exponent) == expected

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            gf256.power(3, -1)


class TestPolynomials:
    @given(st.lists(elements, min_size=1, max_size=6), elements)
    def test_eval_matches_horner_reference(self, coefficients, point):
        expected = 0
        for degree, coefficient in enumerate(coefficients):
            expected ^= gf256.multiply(
                coefficient, gf256.power(point, degree)
            )
        assert gf256.eval_polynomial(coefficients, point) == expected

    @given(st.lists(elements, min_size=1, max_size=5))
    def test_interpolation_recovers_constant_term(self, coefficients):
        degree = len(coefficients) - 1
        points = [
            (x, gf256.eval_polynomial(coefficients, x))
            for x in range(1, degree + 2)
        ]
        assert gf256.interpolate_at_zero(points) == coefficients[0]

    def test_interpolation_rejects_duplicate_x(self):
        with pytest.raises(ValueError):
            gf256.interpolate_at_zero([(1, 2), (1, 3)])

    def test_interpolation_rejects_x_zero(self):
        with pytest.raises(ValueError):
            gf256.interpolate_at_zero([(0, 2), (1, 3)])


class TestBatchMultiply:
    @given(st.lists(elements, max_size=10), elements)
    def test_multiply_many_matches_elementwise(self, values, scalar):
        expected = [gf256.multiply(v, scalar) for v in values]
        assert gf256.multiply_many(values, scalar) == expected


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

    def test_product_table_rows_match_multiply(self):
        _, _, mul = gf256.export_tables()
        for a in (0, 1, 2, 3, 0x53, 0xCA, 255):
            row = mul[a << 8 : (a + 1) << 8]
            assert list(row) == [_slow_multiply(a, b) for b in range(256)]
