"""Tests of :mod:`repro.utils.validation`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_non_negative_int,
    check_positive,
    check_positive_int,
)


class TestCheckPositive:
    @pytest.mark.parametrize("value", [1, 0.5, 1e-12, 1e12, np.float64(2.0)])
    def test_accepts_positive(self, value):
        assert check_positive(value, "x") == float(value)

    @pytest.mark.parametrize("value", [0, 0.0, -1, -0.5])
    def test_rejects_non_positive(self, value):
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive(value, "x")

    @pytest.mark.parametrize("value", ["1", None, True, [1]])
    def test_rejects_non_numbers(self, value):
        with pytest.raises(TypeError):
            check_positive(value, "x")


class TestCheckNonNegative:
    @pytest.mark.parametrize("value", [0, 0.0, 1, 3.5])
    def test_accepts_non_negative(self, value):
        assert check_non_negative(value, "x") == float(value)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="x must be >= 0"):
            check_non_negative(-0.001, "x")

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_non_negative(True, "x")


class TestCheckPositiveInt:
    @pytest.mark.parametrize("value", [1, 5, np.int64(7)])
    def test_accepts_positive_integers(self, value):
        assert check_positive_int(value, "n") == int(value)

    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_non_positive(self, value):
        with pytest.raises(ValueError):
            check_positive_int(value, "n")

    @pytest.mark.parametrize("value", [1.0, "2", True])
    def test_rejects_non_integers(self, value):
        with pytest.raises(TypeError):
            check_positive_int(value, "n")


class TestCheckNonNegativeInt:
    def test_accepts_zero(self):
        assert check_non_negative_int(0, "n") == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_non_negative_int(-1, "n")

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            check_non_negative_int(1.5, "n")


class TestCheckFraction:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_inclusive(self, value):
        assert check_fraction(value, "f") == value

    @pytest.mark.parametrize("value", [-0.1, 1.1])
    def test_rejects_outside(self, value):
        with pytest.raises(ValueError):
            check_fraction(value, "f")

    def test_exclusive_mode(self):
        assert check_fraction(0.5, "f", inclusive=False) == 0.5
        with pytest.raises(ValueError):
            check_fraction(0.0, "f", inclusive=False)
        with pytest.raises(ValueError):
            check_fraction(1.0, "f", inclusive=False)

    def test_rejects_non_number(self):
        with pytest.raises(TypeError):
            check_fraction("0.5", "f")
