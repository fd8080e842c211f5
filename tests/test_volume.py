"""Tests for the volume density polynomial, the closed-form slab and tail
volumes with their quadrature oracles, the asymptotic constants, and the
density bounds."""

import itertools
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

import oneloop
from oneloop.geometry import (
    ModelParams,
    gram_det,
    metric_gram,
    seeded_points,
)
from oneloop.volume import (
    FloatRangeError,
    _gauss_legendre,
    _horner,
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
        with pytest.raises(ValueError):
            poly_P(True)

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
        # Read the invariant fiber density from the closed det g at one rho,
        # then predict numpy's sqrt(det g) at other rho values on the same
        # fiber via the density factor alone.
        for n, c in ((1, 1.0), (2, 0.5), (3, 2.0)):
            params = ModelParams(n=n, c=c)
            base = seeded_points(params, 3, seed=42)
            for p in base:
                f_inv = math.sqrt(gram_det(p, params)) / density(p[0], params)
                for rho in (0.7, 1.9, 3.3):
                    g = metric_gram([rho, *p[1:]], params)
                    predicted = density(rho, params) * f_inv
                    actual = math.sqrt(np.linalg.det(g))
                    assert actual == pytest.approx(predicted, rel=1e-8)


class TestClosedForms:
    def test_undeformed_tail_value(self):
        # integral of rho^-3 from 1 to infinity = 1/2.
        assert tail_closed(1.0, ModelParams(n=1, c=0.0)) == pytest.approx(0.5)

    def test_underflowing_power_names_rho_and_n(self):
        # The tail, about 1e390, overflows.
        with pytest.raises(FloatRangeError, match=r"rho = 1e-30 .* n = 6$"):
            tail_closed(1e-30, ModelParams(n=6, c=1.0))
        assert issubclass(FloatRangeError, ArithmeticError)

    def test_overflowing_slab_names_rho_and_n(self):
        # The slab, about 1e1000, overflows.
        with pytest.raises(FloatRangeError, match=r"rho = 1e-200 .* n = 2$"):
            slab_closed(1e-200, 1.0, ModelParams(n=2, c=1.0))

    def test_no_power_of_rho_on_its_own(self):
        # Here rho^(n+1+k) on its own underflows or is subnormal, though each
        # volume is an ordinary float.
        assert tail_closed(1e-148, ModelParams(n=1, c=0.0)) == pytest.approx(5e295, rel=1e-15)
        slab = slab_closed(1e111, 2e111, ModelParams(n=1, c=1e300))
        assert slab == pytest.approx(7 / 12 * 1e-33, rel=1e-12)
        params = ModelParams(n=5, c=1e-5)
        assert tail_closed(1e-29, params) == pytest.approx(
            tail_quadrature(1e-29, params), rel=1e-12)

    def test_undeformed_slab_formula(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            params = ModelParams(n=n, c=0.0)
            for _ in range(5):
                r1 = float(rng.uniform(0.2, 1.0))
                r0 = r1 + float(rng.uniform(0.5, 3.0))
                expected = (r1 ** (-n - 1) - r0 ** (-n - 1)) / (n + 1)
                assert slab_closed(r1, r0, params) == pytest.approx(expected, rel=1e-12)

    def test_slab_additivity(self):
        params = ModelParams(n=2, c=1.5)
        r1, r2, r3 = 0.4, 1.3, 3.7
        lhs = slab_closed(r1, r2, params) + slab_closed(r2, r3, params)
        assert lhs == pytest.approx(slab_closed(r1, r3, params), rel=1e-12)

    def test_slab_converges_to_tail(self):
        params = ModelParams(n=2, c=1.0)
        tail = tail_closed(0.8, params)
        assert slab_closed(0.8, 1e8, params) == pytest.approx(tail, rel=1e-6)

    def test_tail_monotone_decreasing(self):
        params = ModelParams(n=2, c=2.0)
        grid = [0.3, 0.5, 1.0, 2.0, 5.0, 10.0]
        values = [tail_closed(r, params) for r in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_bound_validation(self):
        params = ModelParams(n=1, c=1.0)
        with pytest.raises(ValueError):
            slab_closed(2.0, 1.0, params)
        with pytest.raises(ValueError):
            slab_closed(-1.0, 1.0, params)
        with pytest.raises(ValueError):
            tail_closed(0.0, params)


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
                    closed = slab_closed(r1, r0, params)
                    quad = slab_quadrature(r1, r0, params)
                    assert quad == pytest.approx(closed, rel=1e-8)
                    checked += 1
        assert checked >= 50

    def test_tail_quadrature_matches_closed_form(self):
        rng = np.random.default_rng(43)
        for n in (1, 2, 3):
            for c in (0.0, 0.5, 2.0):
                params = ModelParams(n=n, c=c)
                r0 = float(rng.uniform(0.3, 3.0))
                assert tail_quadrature(r0, params) == pytest.approx(
                    tail_closed(r0, params), rel=1e-8
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
                    closed = tail_closed(rho0, params)
                except FloatRangeError:  # the tail is not a normal float
                    continue
                quad = tail_quadrature(rho0, params)
                assert quad == pytest.approx(closed, rel=1e-8), (n, c, rho0)
                compared += 1
        assert compared >= 480  # of 504

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
                    value = tail_quadrature(lo, params)
                else:
                    value = slab_quadrature(lo, hi, params)
                assert f"{value:.12g}" == f"{expected:.12g}", (n, c, lo, hi)
                compared += 1
        # 448 cases in all; allow quad to flag a few in other versions.
        assert compared >= 392

    @pytest.mark.parametrize("m", range(1, 31))
    def test_rule_integrates_its_degree(self, m):
        # t^k turns a node's half-ulp rounding into k/2 ulps, hence the bound.
        rule = _gauss_legendre(m)
        assert len(rule) == m
        for k in range(2 * m):
            exact = 1.0 / (k + 1)
            value = sum(weight * t**k for t, weight in rule)
            assert abs(value - exact) <= (4 + k / 2) * math.ulp(exact), (m, k)

    def test_oracles_match_closed_forms_to_rounding(self):
        compared = 0
        for n, c in itertools.product(range(1, 21), (0.0, 0.5, 1.0, 3.0)):
            params = ModelParams(n=n, c=c)
            for k in range(-6, 7):
                rho = 10.0**k
                for closed, oracle, bounds in (
                    (tail_closed, tail_quadrature, (rho,)),
                    (slab_closed, slab_quadrature, (rho, 3 * rho)),
                ):
                    try:
                        expected = closed(*bounds, params)
                    except FloatRangeError:
                        continue
                    got = oracle(*bounds, params)
                    assert got == pytest.approx(expected, rel=1e-12), (n, c, bounds)
                    compared += 1
        assert compared >= 1500  # of 2080

    @pytest.mark.parametrize("closed, oracle, args, n, message", [
        (tail_closed, tail_quadrature, (1e300,), 3, r"rho = 1e\+300 .* n = 3$"),
        (tail_closed, tail_quadrature, (1e-320,), 1, r"rho = 1e-320 .* n = 1$"),
        (slab_closed, slab_quadrature, (1e-320, 1.0), 1, r"rho = 1e-320 .* n = 1$"),
    ], ids=["tail-1e300", "tail-1e-320", "slab-1e-320"])
    def test_oracle_fails_where_the_closed_form_fails(self, closed, oracle, args, n,
                                                      message):
        # These used to escape as a bare OverflowError, a non-finite estimate
        # and a missed panel target.
        params = ModelParams(n=n, c=1.0)
        with pytest.raises(FloatRangeError, match=message):
            closed(*args, params)
        with pytest.raises(FloatRangeError, match=message):
            oracle(*args, params)

    def test_oracles_fail_wherever_the_closed_forms_fail(self):
        # Across the float range, including where the volume is 0.0 or a
        # subnormal.
        failures = 0
        for n, c in itertools.product((1, 2, 5, 20), (0.0, 1e-200, 1.0, 1e100)):
            params = ModelParams(n=n, c=c)
            for k in range(-323, 308, 5):
                rho = 10.0**k
                for closed, oracle, bounds in (
                    (tail_closed, tail_quadrature, (rho,)),
                    (slab_closed, slab_quadrature, (rho, 2 * rho)),
                ):
                    try:
                        closed(*bounds, params)
                    except FloatRangeError as exc:
                        with pytest.raises(FloatRangeError) as caught:
                            oracle(*bounds, params)
                        assert str(caught.value) == str(exc)
                        failures += 1
                    else:
                        oracle(*bounds, params)
        assert failures >= 1000

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
        # The exact commands load neither numpy nor the float geometry, the
        # exact fields and the algebra load none, and import alone loads no
        # suite.  No command loads dataclasses or inspect, whose imports
        # cost every process start-up time.  The last lines show that the
        # geometry check can fail: a float command loads it.
        script = (
            "import contextlib, io, sys\n"
            "import oneloop.cli\n"
            "suites = {'numpy', 'oneloop.geometry', 'oneloop.liealg', 'oneloop.quatarith',\n"
            "          'oneloop.volume'}\n"
            "assert not suites & set(sys.modules)\n"
            "unused = {'dataclasses', 'inspect'}\n"
            "assert not unused & set(sys.modules)\n"
            "import oneloop.polyfields, oneloop.liealg\n"
            "float_layer = {'numpy', 'oneloop.geometry'}\n"
            "assert not float_layer & set(sys.modules)\n"
            "for argv in (['center', '--n', '2'], ['lattice', '--bound', '2'],\n"
            "             ['volume-table', '--n', '1'], ['structure', '--n', '2']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert oneloop.cli.main(argv) == 0, argv\n"
            "    assert not float_layer & set(sys.modules), argv\n"
            "    assert not unused & set(sys.modules), (argv, unused & set(sys.modules))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    oneloop.cli.main(['verify-killing', '--n', '1', '--points', '1'])\n"
            "assert 'oneloop.geometry' in sys.modules\n"
            "assert not unused & set(sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(oneloop.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr


def _exact_horner(coefficients, x):
    total = Fraction(0)
    for coeff in reversed(coefficients):
        total = total * x + coeff
    return total


class TestRangeRule:
    def test_values_match_the_exact_sums_or_are_refused(self):
        # Every other rho = 10^k of the sweep k = -323, -318, ..., 307, with
        # each slab over [rho, 2 rho], against the exact sums at the same
        # floats.  A function returns a normal float within 1e-12 of the
        # exact value, or refuses where that value is not a normal float or
        # P(c/rho) overflows, and an oracle refuses where its closed form
        # does, with the same message.
        checked = refused = 0
        for n, c in itertools.product((1, 2, 5, 20), (0.0, 1e-200, 1.0, 1e100)):
            params = ModelParams(n=n, c=c)
            P = poly_P(n)
            H = [Fraction(p, n + 1 + k) for k, p in enumerate(P)]

            def tail(r):
                return _exact_horner(H, Fraction(c) / r) / r ** (n + 1)

            for k in range(-323, 308, 10):
                rho = 10.0**k
                r = Fraction(rho)
                polynomial = _exact_horner(P, Fraction(c) / r)
                slab = tail(r) - tail(2 * r)
                messages = {}
                for function, bounds, exact in (
                    (density, (rho,), polynomial / r ** (n + 2)),
                    (tail_closed, (rho,), tail(r)),
                    (tail_quadrature, (rho,), tail(r)),
                    (slab_closed, (rho, 2 * rho), slab),
                    (slab_quadrature, (rho, 2 * rho), slab),
                ):
                    case = (function.__name__, n, c, rho)
                    try:
                        value = function(*bounds, params)
                    except FloatRangeError as exc:
                        messages[function] = str(exc)
                        try:
                            rounded = float(exact)
                        except OverflowError:
                            rounded = math.inf
                        assert (not 2.0**-1022 <= rounded < math.inf
                                or polynomial > sys.float_info.max), case
                        refused += 1
                        continue
                    messages[function] = None
                    assert 2.0**-1022 <= value < math.inf, case
                    assert abs(Fraction(value) - exact) <= exact / 10**12, case
                    checked += 1
                assert messages[tail_quadrature] == messages[tail_closed]
                assert messages[slab_quadrature] == messages[slab_closed]
        assert checked >= 1000 and refused >= 4000

    def test_large_n(self):
        # The frexp mantissa 0.50000005 of rho, raised to -1027, overflows;
        # taken in [1/sqrt(2), sqrt(2)) it does not.
        assert density(1.0000001, ModelParams(n=1025)) == pytest.approx(
            1.0000001**-1027, rel=1e-12)
        # The density reads P as its product, which is 1 at c = 0 for every
        # n.  From n = 1040 on, H has a coefficient beyond the largest float,
        # and the closed tail and slab refuse.
        params = ModelParams(n=1100, c=0.0)
        assert density(1.0, params) == 1.0
        for call in (lambda: tail_closed(1.0, params), lambda: slab_closed(1.0, 2.0, params)):
            with pytest.raises(FloatRangeError, match=r"rho = 1.0 .* n = 1100$"):
                call()

    @pytest.mark.parametrize("c, rho", [(0.5, 1.0), (0.5, 2.0), (1.0, 1.5), (1.5, 1.5)])
    def test_closed_forms_where_horner_partial_sums_overflow(self, c, rho):
        # At n = 1039 H's largest coefficient is within 2^24 of the largest
        # float, and for c/rho < 1 Horner's partial sums exceed H itself.
        # The closed tail, the slab and the ratio column read H from
        # coefficients scaled by a power of two, and match the exact sums.
        # At c/rho = 1, H and P are beyond the largest float, but the
        # density, the tails and the slabs are not: the power of two goes
        # into the exponent, and only the ratio column, (n+1) H, refuses.
        n = 1039
        params = ModelParams(n=n, c=c)
        P = poly_P(n)
        H = [Fraction(p, n + 1 + k) for k, p in enumerate(P)]

        def tail(r):
            return _exact_horner(H, Fraction(c) / r) / r ** (n + 1)

        r = Fraction(rho)
        ratio = (n + 1) * _exact_horner(H, Fraction(c) / r)
        slab = tail(r) - tail(2 * r)
        for value, exact in ((density(rho, params), _exact_horner(P, Fraction(c) / r) / r ** (n + 2)),
                             (tail_closed(rho, params), tail(r)),
                             (tail_quadrature(rho, params), tail(r)),
                             (slab_closed(rho, 2 * rho, params), slab),
                             (slab_quadrature(rho, 2 * rho, params), slab)):
            assert abs(Fraction(value) - exact) <= exact / 10**12
        if ratio > sys.float_info.max:
            with pytest.raises(ValueError, match=rf"rho = {rho!r} leaves the float range"):
                volume_rows([rho], params)
        else:
            (row,) = volume_rows([rho], params)
            assert row["quadrature_tail"] == tail_quadrature(rho, params)
            assert abs(Fraction(row["ratio_to_asymptote"]) - ratio) <= ratio / 10**12

    @pytest.mark.parametrize("n", [1040, 1100])
    def test_oracles_refuse_before_building_a_rule(self, n):
        # From n = 1040 on, H has a coefficient beyond the largest float: the
        # closed forms refuse, and so do their oracles, with the same
        # message, before any (n+1)-point rule is built.
        params = ModelParams(n=n)
        _gauss_legendre.cache_clear()
        for oracle, closed, bounds in ((tail_quadrature, tail_closed, (1.0,)),
                                       (slab_quadrature, slab_closed, (1.0, 2.0))):
            messages = []
            for function in (oracle, closed):
                with pytest.raises(FloatRangeError, match=rf"rho = 1.0 .* n = {n}$") as caught:
                    function(*bounds, params)
                messages.append(str(caught.value))
            assert messages[0] == messages[1]
        assert _gauss_legendre.cache_info().currsize == 0

    @pytest.mark.parametrize("c", [0.0, 0.5])
    def test_oracles_agree_where_p_has_no_float_coefficients(self, c):
        # At n = 1030, P's coefficients p_k leave the float range but H's do
        # not, and the oracles read P as its product: both forms agree.
        params = ModelParams(n=1030, c=c)
        for oracle, closed, bounds in ((tail_quadrature, tail_closed, (1.0,)),
                                       (slab_quadrature, slab_closed, (1.0, 2.0))):
            expected = closed(*bounds, params)
            assert oracle(*bounds, params) == pytest.approx(expected, rel=1e-12)


class TestAsymptotics:
    @pytest.mark.parametrize("n", [1, 2])
    def test_tail_coefficient_at_large_rho(self, n):
        params = ModelParams(n=n, c=1.0)
        rho0 = 1e3
        scaled = rho0 ** (n + 1) * tail_closed(rho0, params)
        assert abs(scaled - 1.0 / (n + 1)) <= 0.01 * (1.0 / (n + 1))

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("c", [1.0, 2.5])
    def test_near_origin_limit_is_the_leading_coefficient(self, n, c):
        params = ModelParams(n=n, c=c)
        rho1 = 1e-3
        scaled = rho1 ** (2 * n + 1) * slab_closed(rho1, 1.0, params)
        limit = near_zero_constant(params)
        assert abs(scaled - limit) <= 0.01 * limit

    def test_near_origin_constant_follows_the_range_rule(self):
        # A normal 2 c^n / (2n+1) within 1e-14 of the exact value, or a
        # FloatRangeError naming c and n exactly where that value is not a
        # normal float; c^n alone is not formed.
        value = near_zero_constant(ModelParams(n=5, c=1e61))
        assert abs(Fraction(value) - 2 * Fraction(1e61) ** 5 / 11) <= value / 10**15
        assert f"{value:.13e}" == "1.8181818181818e+304"
        for n, c in ((5, 1e100), (2, 1e-200)):
            with pytest.raises(FloatRangeError, match=re.escape(f"c = {c!r}") + f" .* n = {n}$"):
                near_zero_constant(ModelParams(n=n, c=c))
        checked = refused = 0
        for n in (1, 2, 5, 20):
            for k in range(-323, 308, 3):
                c = 10.0**k
                exact = 2 * Fraction(c) ** n / (2 * n + 1)
                try:
                    rounded = float(exact)
                except OverflowError:
                    rounded = math.inf
                if 2.0**-1022 <= rounded < math.inf:
                    value = near_zero_constant(ModelParams(n=n, c=c))
                    assert abs(Fraction(value) - exact) <= exact / 10**14, (n, c)
                    checked += 1
                else:
                    with pytest.raises(FloatRangeError):
                        near_zero_constant(ModelParams(n=n, c=c))
                    refused += 1
        assert checked >= 300 and refused >= 300

    def test_leading_coefficient_values(self):
        assert near_zero_constant(ModelParams(n=1, c=1.0)) == pytest.approx(2.0 / 3.0)
        assert near_zero_constant(ModelParams(n=2, c=1.0)) == pytest.approx(0.4)

    def test_claimed_constant_value_and_discrepancy(self):
        # The near-origin constant is the limit it is defined to be:
        # 2 c^n / (2n+1), the leading coefficient of the slab at rho1 -> 0.
        for n in (1, 2, 3):
            claimed = near_zero_constant(ModelParams(n=n, c=0.5))
            assert claimed == pytest.approx(2 * 0.5**n / (2 * n + 1), rel=1e-14)
        params = ModelParams(n=1, c=1.0)
        assert near_zero_constant(params) == pytest.approx(2.0 / 3.0)
        rho1 = 1e-3
        scaled = rho1**3 * slab_closed(rho1, 1.0, params)
        # The scaled slab converges to the constant itself.
        assert scaled / near_zero_constant(params) == pytest.approx(
            1.0, abs=0.01
        )

    def test_near_origin_undeformed_branch(self):
        # For c = 0 the constants are rejected and the slab grows like
        # rho1^-(n+1) / (n+1) instead.
        params = ModelParams(n=2, c=0.0)
        with pytest.raises(ValueError, match="c > 0"):
            near_zero_constant(params)
        rho1 = 1e-3
        scaled = rho1 ** (params.n + 1) * slab_closed(rho1, 1.0, params)
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

    def test_normalized_density_without_a_power_of_rho(self):
        # rho^3 alone overflows, though the density and P(c/rho) are floats.
        params = ModelParams(n=1, c=1.7e308)
        assert bounds_check(5.7e102, 1e102, params) == (True, True)

    def test_below_floor_rejected(self):
        with pytest.raises(ValueError, match="rho_floor"):
            bounds_check(0.3, 0.5, ModelParams(n=1, c=1.0))


class TestVolumeTable:
    def test_pinned_undeformed_column(self):
        rows = volume_rows([1.0, 2.0, 4.0], ModelParams(n=1, c=0.0))
        keys = ["rho", "density", "closed_tail", "quadrature_tail", "ratio_to_asymptote"]
        assert all(list(row) == keys for row in rows)
        tails = [row["closed_tail"] for row in rows]
        assert tails == pytest.approx([0.5, 0.125, 0.03125], rel=1e-12)

    def test_ratio_column_tends_to_one(self):
        rows = volume_rows([1.0, 10.0, 100.0], ModelParams(n=2, c=1.0))
        ratios = [row["ratio_to_asymptote"] for row in rows]
        assert ratios[0] > ratios[1] > ratios[2] > 1.0
        assert ratios[2] == pytest.approx(1.0, abs=0.05)

    def test_deterministic(self):
        params = ModelParams(n=2, c=0.5)
        assert volume_rows([0.5, 1.5], params) == volume_rows([0.5, 1.5], params)
