"""Tests for the numpy-free model parameters and the lattice compatibility
of c."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import oneloop
from oneloop import geometry
from oneloop.params import THETA_SHEAR, VK_SHEAR, ModelParams, c_compatible


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


# c = lam * sqrt(ab) / (8 pi), as the reprs that the exact radical
# lam/2 * sqrt(ab), converted to a float, gave.  The compatibility's other
# cases, stated against the quaternion algebra, are in test_quatarith.py.
@pytest.mark.parametrize("lam, a, b, c", [
    (1, 2, 3, "0.0974621001542095"),
    (Fraction(1, 2), 3, 7, "0.09116744674312494"),
    (Fraction(2, 3), 5, 7, "0.15692889020105533"),
    (7, 1, 1, "0.2785211504108169"),
    (Fraction(3, 2), 2, 5, "0.18873454539182638"),
    (Fraction(10**20, 3), 2, 3, "3.248736671806983e+18"),
    (0, 2, 3, "0.0"),
])
def test_c_compatible_values(lam, a, b, c):
    assert repr(c_compatible(lam, a, b)) == c


# Sets the V_k shear before the rest of the package is imported, then
# reports the structure check at n = 1..3, the worst V(k) Killing row on
# acceptance criterion 1's grid and the worst V-flow pullback on criterion
# 5's grid.
SHEAR_SCRIPT = """
import json, sys
import oneloop.params
if sys.argv[1] == "repaired":
    oneloop.params.VK_SHEAR = oneloop.params.THETA_SHEAR
import numpy as np
from oneloop.fields import killing_residuals
from oneloop.flows import flow, flow_jacobian
from oneloop.geometry import ModelParams, metric_gram, seeded_points
from oneloop.liealg import structure_check

structure = [structure_check(n).ok for n in (1, 2, 3)]
killing = 0.0
for n in (1, 2, 3):
    for c in (0.0, 0.5, 2.0):
        params = ModelParams(n=n, c=c)
        residuals, _ = killing_residuals(params, seeded_points(params, 20, seed=42))
        killing = max([killing] + [r for label, r in residuals.items() if " V(" in label])
pullback = 0.0
for n, c in ((1, 0.5), (2, 1.0)):
    params = ModelParams(n=n, c=c)
    names = [f"{part} V({k})" for part in ("re", "im") for k in range(n)]
    for p in seeded_points(params, 10, seed=42):
        g = np.array(metric_gram(p, params))
        for name in names:
            q, J = flow(name, 0.37, p), np.array(flow_jacobian(name, 0.37, p))
            gap = np.max(np.abs(J.T @ np.array(metric_gram(q, params)) @ J - g)) / np.max(np.abs(g))
            pullback = max(pullback, float(gap))
print(json.dumps([structure, killing, pullback]))
"""


@pytest.mark.parametrize("shear", ["shipped", "repaired"])
def test_vk_shear_is_the_one_repair_constant(shear):
    # Setting VK_SHEAR to THETA_SHEAR alone repairs the V(k) Killing rows,
    # their flows and the algebra's central scale together; the shipped
    # value is the control, where the V(k) rows fail while it differs.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(oneloop.__file__)))
    result = subprocess.run([sys.executable, "-c", SHEAR_SCRIPT, shear], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    structure, killing, pullback = json.loads(result.stdout)
    assert structure == [True, True, True]
    if shear == "repaired" or VK_SHEAR == THETA_SHEAR:
        assert killing <= 1e-6 and pullback <= 1e-10, (killing, pullback)
    else:
        assert killing > 1e-6 and pullback > 1e-10, (killing, pullback)
