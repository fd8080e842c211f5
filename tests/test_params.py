"""Tests for the numpy-free model parameters."""

import math

import pytest

from oneloop import geometry
from oneloop.params import ModelParams


class TestModelParams:
    def test_valid_values_are_normalized(self):
        params = ModelParams(2, 1)
        assert params.n == 2
        assert params.c == 1.0 and isinstance(params.c, float)
        assert ModelParams(1).c == 0.0

    def test_geometry_reexports_the_same_class(self):
        assert geometry.ModelParams is ModelParams

    @pytest.mark.parametrize("n", [True, False])
    def test_bool_n_rejected(self, n):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            ModelParams(n, 1.0)

    @pytest.mark.parametrize("c", [True, False])
    def test_bool_c_rejected(self, c):
        with pytest.raises(ValueError, match="c must be a finite non-negative real"):
            ModelParams(1, c)

    @pytest.mark.parametrize("n", [0, -1, 2.0, "2"])
    def test_bad_n_rejected(self, n):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            ModelParams(n)

    @pytest.mark.parametrize("c", [-1.0, math.inf, -math.inf, math.nan])
    def test_bad_c_rejected(self, c):
        with pytest.raises(ValueError, match="c must be a finite non-negative real"):
            ModelParams(1, c)
