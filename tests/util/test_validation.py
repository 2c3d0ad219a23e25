"""Tests for the argument-validation guards."""

import pytest

from repro.util.validation import check_positive, check_positive_int, check_probability


class TestProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0, 0, 1])
    def test_accepts_valid(self, value):
        assert check_probability(value, "p") == float(value)

    @pytest.mark.parametrize("value", [-0.1, 1.1, 2])
    def test_rejects_out_of_range(self, value):
        with pytest.raises(ValueError):
            check_probability(value, "p")

    @pytest.mark.parametrize("value", ["0.5", None, True])
    def test_rejects_non_numbers(self, value):
        with pytest.raises(TypeError):
            check_probability(value, "p")

    def test_error_message_names_argument(self):
        with pytest.raises(ValueError, match="my_rate"):
            check_probability(1.5, "my_rate")


class TestPositive:
    def test_accepts_positive(self):
        assert check_positive(0.5, "x") == 0.5

    def test_rejects_zero_by_default(self):
        with pytest.raises(ValueError):
            check_positive(0, "x")

    def test_allow_zero(self):
        assert check_positive(0, "x", allow_zero=True) == 0

    def test_rejects_negative_even_with_allow_zero(self):
        with pytest.raises(ValueError):
            check_positive(-1, "x", allow_zero=True)

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive(True, "x")

    def test_rejects_non_numbers(self):
        with pytest.raises(TypeError, match="mean_lifetime must be a number"):
            check_positive("1.0", "mean_lifetime")

    def test_error_message_names_argument(self):
        with pytest.raises(ValueError, match="duration must be non-negative"):
            check_positive(-0.5, "duration", allow_zero=True)


class TestPositiveInt:
    def test_accepts_minimum(self):
        assert check_positive_int(1, "n") == 1

    def test_custom_minimum(self):
        assert check_positive_int(2, "n", minimum=2) == 2
        with pytest.raises(ValueError):
            check_positive_int(1, "n", minimum=2)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            check_positive_int(1.0, "n")

    def test_error_message_names_argument(self):
        with pytest.raises(ValueError, match="share_count must be >= 1, got 0"):
            check_positive_int(0, "share_count")

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive_int(True, "n")
