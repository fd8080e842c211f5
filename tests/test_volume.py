"""Tests for the volume density polynomial, the closed-form slab and tail
volumes with their quadrature oracles, the asymptotic constants, and the
density bounds."""

import itertools
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

import oneloop
from oneloop.geometry import (
    ModelParams,
    PointBarN,
    fiber_density_split,
    metric_gram,
    seeded_points,
)
from oneloop.volume import (
    FloatRangeError,
    _horner,
    _integrate,
    bounds_check,
    density,
    near_zero_constant,
    poly_P,
    slab_closed,
    slab_quadrature,
    tail_closed,
    tail_quadrature,
    upper_bound_constant,
    volume_rows,
)


class TestVolumePolynomial:
    def test_small_cases(self):
        assert poly_P(1) == (1, 2)
        assert poly_P(2) == (1, 3, 2)
        assert poly_P(3) == (1, 4, 5, 2)
        assert poly_P(4) == (1, 5, 9, 7, 2)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_shape_invariants(self, n):
        poly = poly_P(n)
        assert len(poly) == n + 1
        assert poly[0] == 1
        assert all(c > 0 for c in poly)
        # Top coefficient is always 2 (the factor 1 + 2x contributes it).
        assert poly[-1] == 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_evaluation_matches_product_form(self, n):
        rng = np.random.default_rng(42)
        poly = poly_P(n)
        for _ in range(10):
            rho = float(rng.uniform(0.3, 4.0))
            c = float(rng.uniform(0.0, 3.0))
            x = c / rho
            product = (1 + x) ** (n - 1) * (1 + 2 * x)
            assert _horner(poly, x) == pytest.approx(product, rel=1e-12)

    def test_exact_evaluation(self):
        poly = poly_P(3)
        x = Fraction(1, 3)
        expected = (1 + x) ** 2 * (1 + 2 * x)
        total = Fraction(0)
        for coeff in reversed(poly):
            total = total * x + coeff
        assert total == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            poly_P(0)

    def test_built_once_per_n(self):
        assert poly_P(3) is poly_P(3)
        # the cache is typed: an equal float never borrows the int's entry
        with pytest.raises(ValueError):
            poly_P(3.0)


class TestDensity:
    def test_undeformed_at_unit_rho(self):
        for n in (1, 2, 3):
            assert density(1.0, ModelParams(n=n, c=0.0)) == pytest.approx(1.0)

    def test_pinned_value(self):
        assert density(1.0, ModelParams(n=1, c=1.0)) == pytest.approx(3.0)

    def test_positive_rho_required(self):
        with pytest.raises(ValueError):
            density(0.0, ModelParams(n=1, c=1.0))

    def test_nan_rho_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            density(math.nan, ModelParams(n=1, c=1.0))

    def test_overflow_names_rho_and_n(self):
        with pytest.raises(FloatRangeError, match=r"rho = 1e-100 .* n = 1$"):
            density(1e-100, ModelParams(n=1, c=1.0))

    def test_agrees_with_product_route(self):
        # The polynomial route and the product form of the same factor.
        rng = np.random.default_rng(7)
        for n in (1, 2, 3):
            for c in (0.0, 0.5, 2.0):
                params = ModelParams(n=n, c=c)
                for _ in range(5):
                    rho = float(rng.uniform(0.3, 5.0))
                    product = (rho ** -(n + 2) * ((rho + c) / rho) ** (n - 1)
                               * ((rho + 2 * c) / rho))
                    assert density(rho, params) == pytest.approx(product, rel=1e-12)

    def test_factorizes_full_gram_determinant(self):
        # Measure the invariant fiber density at one rho, then predict
        # sqrt(det g) at other rho values on the same fiber via the density
        # factor alone.
        for n, c in ((1, 1.0), (2, 0.5), (3, 2.0)):
            params = ModelParams(n=n, c=c)
            base = seeded_points(params, 3, seed=42)
            for p in base:
                _, f_inv = fiber_density_split(p, params)
                for rho in (0.7, 1.9, 3.3):
                    moved = PointBarN(p.X, p.w, p.phi_tilde, rho)
                    g = metric_gram(moved, params)
                    predicted = density(rho, params) * f_inv
                    actual = math.sqrt(np.linalg.det(g))
                    assert actual == pytest.approx(predicted, rel=1e-8)


class TestClosedForms:
    def test_undeformed_tail_value(self):
        # integral of rho^-3 from 1 to infinity = 1/2.
        assert tail_closed(1.0, ModelParams(n=1, c=0.0), 1.0) == pytest.approx(0.5)

    def test_underflowing_power_names_rho_and_n(self):
        # rho0^13 underflows to 0, which used to escape as ZeroDivisionError.
        with pytest.raises(FloatRangeError, match=r"rho = 1e-30 .* n = 6$"):
            tail_closed(1e-30, ModelParams(n=6, c=1.0), 1.0)
        assert issubclass(FloatRangeError, ArithmeticError)

    def test_overflowing_slab_names_rho_and_n(self):
        # rho1^-3 overflows, which used to escape as a bare OverflowError.
        with pytest.raises(FloatRangeError, match=r"rho = 1e-200 .* n = 2$"):
            slab_closed(1e-200, 1.0, ModelParams(n=2, c=1.0), 1.0)

    def test_undeformed_slab_formula(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            params = ModelParams(n=n, c=0.0)
            for _ in range(5):
                r1 = float(rng.uniform(0.2, 1.0))
                r0 = r1 + float(rng.uniform(0.5, 3.0))
                vd = float(rng.uniform(0.5, 4.0))
                expected = vd * (r1 ** (-n - 1) - r0 ** (-n - 1)) / (n + 1)
                assert slab_closed(r1, r0, params, vd) == pytest.approx(
                    expected, rel=1e-12
                )

    def test_slab_additivity(self):
        params = ModelParams(n=2, c=1.5)
        r1, r2, r3 = 0.4, 1.3, 3.7
        vd = 2.0
        lhs = slab_closed(r1, r2, params, vd) + slab_closed(r2, r3, params, vd)
        assert lhs == pytest.approx(slab_closed(r1, r3, params, vd), rel=1e-12)

    def test_slab_converges_to_tail(self):
        params = ModelParams(n=2, c=1.0)
        tail = tail_closed(0.8, params, 1.0)
        assert slab_closed(0.8, 1e8, params, 1.0) == pytest.approx(tail, rel=1e-6)

    def test_tail_monotone_decreasing(self):
        params = ModelParams(n=2, c=2.0)
        grid = [0.3, 0.5, 1.0, 2.0, 5.0, 10.0]
        values = [tail_closed(r, params, 1.0) for r in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_bound_validation(self):
        params = ModelParams(n=1, c=1.0)
        with pytest.raises(ValueError):
            slab_closed(2.0, 1.0, params, 1.0)
        with pytest.raises(ValueError):
            slab_closed(-1.0, 1.0, params, 1.0)
        with pytest.raises(ValueError):
            tail_closed(0.0, params, 1.0)
        with pytest.raises(ValueError):
            tail_closed(1.0, params, -2.0)


class TestQuadratureOracle:
    def test_slab_quadrature_matches_closed_form(self):
        rng = np.random.default_rng(42)
        checked = 0
        for n in (1, 2, 3):
            for c in (0.0, 0.5, 2.0):
                params = ModelParams(n=n, c=c)
                for _ in range(6):
                    r1 = float(rng.uniform(0.05, 1.0))
                    r0 = r1 + float(rng.uniform(0.1, 9.0))
                    vd = float(rng.uniform(0.1, 5.0))
                    closed = slab_closed(r1, r0, params, vd)
                    quad = slab_quadrature(r1, r0, params, vd)
                    assert quad == pytest.approx(closed, rel=1e-8)
                    checked += 1
        assert checked >= 50

    def test_tail_quadrature_matches_closed_form(self):
        rng = np.random.default_rng(43)
        for n in (1, 2, 3):
            for c in (0.0, 0.5, 2.0):
                params = ModelParams(n=n, c=c)
                r0 = float(rng.uniform(0.3, 3.0))
                assert tail_quadrature(r0, params, 1.0) == pytest.approx(
                    tail_closed(r0, params, 1.0), rel=1e-8
                )

    def test_tail_quadrature_holds_at_every_scale(self):
        # rho = rho0/t keeps rho0 exact; the map rho0 + (1-t)/t lost it to
        # rounding at small rho0 and was off by up to 1e15 relative.
        compared = 0
        for n, c in itertools.product(range(1, 7), (0.0, 0.5, 1.0, 3.0)):
            params = ModelParams(n=n, c=c)
            for k in range(-30, 31, 3):
                rho0 = 10.0**k
                try:
                    closed = tail_closed(rho0, params, 1.0)
                except ArithmeticError:  # a power of rho0 leaves the float range
                    continue
                if math.isfinite(closed):
                    quad = tail_quadrature(rho0, params, 1.0)
                    assert quad == pytest.approx(closed, rel=1e-8), (n, c, rho0)
                    compared += 1
        assert compared >= 450  # of 504

    def test_agrees_with_scipy_quad_at_cli_precision(self):
        # scipy's QUADPACK quad is the oracle's oracle: at the CLI's 12
        # significant digits both give the same string wherever quad itself
        # reports no trouble.
        integrate = pytest.importorskip("scipy.integrate")
        rhos = (0.1, 0.3, 1, 2, 4, 7, 100)
        compared = 0
        for n, c in itertools.product((1, 2, 3, 4), (0, 0.5, 1, 2.5)):
            params = ModelParams(n=n, c=c)
            cases = [(r0, math.inf) for r0 in rhos]
            cases += list(itertools.combinations(rhos, 2))
            for lo, hi in cases:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", integrate.IntegrationWarning)
                    try:
                        expected, _ = integrate.quad(
                            lambda rho: density(rho, params), lo, hi,
                            epsabs=0.0, epsrel=1e-10, limit=200,
                        )
                    except integrate.IntegrationWarning:
                        continue
                if hi == math.inf:
                    value = tail_quadrature(lo, params, 1.0)
                else:
                    value = slab_quadrature(lo, hi, params, 1.0)
                assert f"{value:.12g}" == f"{expected:.12g}", (n, c, lo, hi)
                compared += 1
        # 448 cases in all; allow quad to flag a few in other versions.
        assert compared >= 392

    def test_non_integrable_integrand_exhausts_panels(self):
        with pytest.raises(ValueError, match="200 panels"):
            _integrate(lambda x: 1.0 / x, 0.0, 1.0)

    def test_nan_integrand_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            _integrate(lambda x: math.nan, 0.0, 1.0)

    def test_cli_never_loads_scipy(self):
        # The oracle is in-house, so no subcommand pays for importing scipy.
        script = (
            "import sys\n"
            "import oneloop.cli\n"
            "assert oneloop.cli.main(['volume-table', '--n', '2']) == 0\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
        )
        src = os.path.dirname(os.path.dirname(oneloop.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("rho,density,closed_tail,")

    def test_exact_commands_never_load_numpy(self):
        # Only the float commands (verify-killing, curvature) import numpy,
        # the exact fields and the algebra load none, and import alone loads
        # no suite; the last line shows the check can fail.  No command
        # loads dataclasses or inspect, whose imports cost every process
        # start-up time.
        script = (
            "import contextlib, io, sys\n"
            "import oneloop.cli\n"
            "suites = {'numpy', 'oneloop.liealg', 'oneloop.quatarith', 'oneloop.volume'}\n"
            "assert not suites & set(sys.modules)\n"
            "unused = {'dataclasses', 'inspect'}\n"
            "assert not unused & set(sys.modules)\n"
            "import oneloop.polyfields, oneloop.liealg\n"
            "assert 'numpy' not in sys.modules\n"
            "for argv in (['center', '--n', '2'], ['lattice', '--bound', '2'],\n"
            "             ['volume-table', '--n', '1'], ['structure', '--n', '2']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert oneloop.cli.main(argv) == 0, argv\n"
            "    assert 'numpy' not in sys.modules, argv\n"
            "    assert not unused & set(sys.modules), (argv, unused & set(sys.modules))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    oneloop.cli.main(['verify-killing', '--n', '1', '--points', '1'])\n"
            "assert 'numpy' in sys.modules\n"
        )
        src = os.path.dirname(os.path.dirname(oneloop.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr


class TestAsymptotics:
    @pytest.mark.parametrize("n", [1, 2])
    def test_tail_coefficient_at_large_rho(self, n):
        params = ModelParams(n=n, c=1.0)
        rho0 = 1e3
        scaled = rho0 ** (n + 1) * tail_closed(rho0, params, 1.0)
        assert abs(scaled - 1.0 / (n + 1)) <= 0.01 * (1.0 / (n + 1))

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("vd", [1.0, 2.5])
    def test_near_origin_limit_is_the_leading_coefficient(self, n, vd):
        params = ModelParams(n=n, c=1.0)
        rho1 = 1e-3
        scaled = rho1 ** (2 * n + 1) * slab_closed(rho1, 1.0, params, vd)
        limit = near_zero_constant(params, vd)
        assert abs(scaled - limit) <= 0.01 * limit

    def test_leading_coefficient_values(self):
        assert near_zero_constant(ModelParams(n=1, c=1.0), 1.0) == pytest.approx(
            2.0 / 3.0
        )
        assert near_zero_constant(ModelParams(n=2, c=1.0), 1.0) == pytest.approx(
            0.4
        )

    def test_claimed_constant_value_and_discrepancy(self):
        # The near-origin constant is the limit it is defined to be:
        # 2 c^n V_D / (2n+1), the leading coefficient of the slab at
        # rho1 -> 0.
        for n in (1, 2, 3):
            claimed = near_zero_constant(ModelParams(n=n, c=0.5), 2.0)
            assert claimed == pytest.approx(2 * 0.5**n * 2.0 / (2 * n + 1), rel=1e-14)
        params = ModelParams(n=1, c=1.0)
        assert near_zero_constant(params, 1.0) == pytest.approx(2.0 / 3.0)
        rho1 = 1e-3
        scaled = rho1**3 * slab_closed(rho1, 1.0, params, 1.0)
        # The scaled slab converges to the constant itself.
        assert scaled / near_zero_constant(params, 1.0) == pytest.approx(
            1.0, abs=0.01
        )

    def test_near_origin_undeformed_branch(self):
        # For c = 0 the constants are rejected and the slab grows like
        # V_D * rho1^-(n+1) / (n+1) instead.
        params = ModelParams(n=2, c=0.0)
        with pytest.raises(ValueError, match="c > 0"):
            near_zero_constant(params, 1.0)
        rho1 = 1e-3
        scaled = rho1 ** (params.n + 1) * slab_closed(rho1, 1.0, params, 1.0)
        assert abs(scaled - 1.0 / (params.n + 1)) <= 0.01 / (params.n + 1)


class TestBounds:
    def test_undeformed_equalities(self):
        params = ModelParams(n=2, c=0.0)
        for rho in (0.5, 1.0, 3.0):
            lower, upper = bounds_check(rho, 0.5, params)
            assert lower and upper
            assert density(rho, params) * rho ** (params.n + 2) == pytest.approx(
                1.0, rel=1e-12
            )
            assert upper_bound_constant(0.5, params) == pytest.approx(1.0)

    def test_seeded_grid(self):
        rng = np.random.default_rng(17)
        count = 0
        for n in (1, 2, 3):
            for c in (0.0, 0.5, 2.0):
                params = ModelParams(n=n, c=c)
                for _ in range(12):
                    floor = float(rng.uniform(0.1, 1.0))
                    rho = floor + float(rng.uniform(0.0, 9.0))
                    lower, upper = bounds_check(rho, floor, params)
                    assert lower and upper
                    count += 1
        assert count >= 100

    def test_normalized_density_window(self):
        params = ModelParams(n=2, c=1.0)
        floor = 0.4
        ceiling = upper_bound_constant(floor, params)
        for rho in np.linspace(floor, 20.0, 40):
            value = density(float(rho), params) * float(rho) ** 4
            assert 1.0 - 1e-12 <= value <= ceiling * (1 + 1e-12)

    def test_overflowing_constant_names_rho_and_n(self):
        # c / rho_floor is inf here, and P(inf) used to come back as nan.
        with pytest.raises(FloatRangeError, match=r"rho = 1e-320 .* n = 3$"):
            upper_bound_constant(1e-320, ModelParams(n=3, c=1.0))

    def test_below_floor_rejected(self):
        with pytest.raises(ValueError, match="rho_floor"):
            bounds_check(0.3, 0.5, ModelParams(n=1, c=1.0))


class TestVolumeTable:
    def test_pinned_undeformed_column(self):
        rows = volume_rows([1.0, 2.0, 4.0], ModelParams(n=1, c=0.0), 1.0)
        keys = ["rho", "density", "closed_tail", "quadrature_tail", "ratio_to_asymptote"]
        assert all(list(row) == keys for row in rows)
        tails = [row["closed_tail"] for row in rows]
        assert tails == pytest.approx([0.5, 0.125, 0.03125], rel=1e-12)

    def test_ratio_column_tends_to_one(self):
        rows = volume_rows([1.0, 10.0, 100.0], ModelParams(n=2, c=1.0), 1.0)
        ratios = [row["ratio_to_asymptote"] for row in rows]
        assert ratios[0] > ratios[1] > ratios[2] > 1.0
        assert ratios[2] == pytest.approx(1.0, abs=0.05)

    def test_deterministic(self):
        params = ModelParams(n=2, c=0.5)
        assert volume_rows([0.5, 1.5], params, 2.0) == volume_rows(
            [0.5, 1.5], params, 2.0
        )
