"""Tests for the numpy-free model parameters."""

import json
import math
import os
import subprocess
import sys

import pytest

import oneloop
from oneloop import geometry
from oneloop.params import THETA_SHEAR, VK_SHEAR, ModelParams


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
from oneloop.fields import flow, flow_jacobian, killing_residuals
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
