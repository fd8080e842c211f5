"""Exact-arithmetic core: Gaussian rationals, polynomials, radicals, solvers."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oneloop.exact import (QI, Poly, Rad, RadC, VarTable,
                           as_fraction, integer_solution,
                           solve_rational)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
gaussians = st.builds(QI, rationals, rationals)


class TestQI:
    def test_basic_arithmetic(self):
        z = QI(1, 2) * QI(3, -1)
        assert z == QI(5, 5)
        assert QI(1, 2) + QI(Fraction(1, 2)) == QI(Fraction(3, 2), 2)
        assert QI(2, 1) - QI(2, 1) == QI(0)
        assert -QI(1, -3) == QI(-1, 3)

    def test_division_and_conj(self):
        z = QI(1, 2)
        assert z * z.conj() == QI(5)
        assert (z / z) == QI(1)
        assert QI(5) / QI(1, 2) == QI(1, -2)
        with pytest.raises(ZeroDivisionError):
            QI(1) / QI(0)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            QI(0.5)

    def test_scalar_coercion(self):
        assert 2 * QI(1, 1) == QI(2, 2)
        assert QI(1, 1) + Fraction(1, 3) == QI(Fraction(4, 3), 1)
        assert QI(3) == 3

    @given(gaussians, gaussians, gaussians)
    def test_ring_axioms(self, x, y, z):
        assert (x + y) * z == x * z + y * z
        assert x * (y * z) == (x * y) * z
        assert x * y == y * x
        assert (x * y).conj() == x.conj() * y.conj()

    @given(gaussians)
    def test_division_inverts(self, x):
        if not x.is_zero():
            assert (x / x) == QI(1)
            assert (QI(1) / x) * x == QI(1)


class TestVarTable:
    def test_layout_n3(self):
        t = VarTable(3)
        assert t.nvars == 11
        assert [t.x(1), t.x(2)] == [0, 1]
        assert [t.xb(1), t.xb(2)] == [2, 3]
        assert [t.w(0), t.w(1), t.w(2)] == [4, 5, 6]
        assert [t.wb(0), t.wb(1), t.wb(2)] == [7, 8, 9]
        assert t.c == 10

    def test_layout_n1(self):
        t = VarTable(1)
        assert t.nvars == 3
        assert t.w(0) == 0 and t.wb(0) == 1 and t.c == 2
        with pytest.raises(IndexError):
            t.x(1)

    def test_conj_perm_involution(self):
        t = VarTable(2)
        perm = t.conj_perm()
        assert [perm[i] for i in perm] == list(range(t.nvars))
        assert perm[t.x(1)] == t.xb(1)
        assert perm[t.w(1)] == t.wb(1)
        assert perm[t.c] == t.c


class TestPoly:
    def setup_method(self):
        self.t = VarTable(2)
        self.X = Poly.variable(self.t.nvars, self.t.x(1))
        self.Xb = Poly.variable(self.t.nvars, self.t.xb(1))
        self.w0 = Poly.variable(self.t.nvars, self.t.w(0))
        self.c = Poly.variable(self.t.nvars, self.t.c)

    def test_mul_and_diff(self):
        p = (self.X + self.w0) * (self.X - self.w0)
        assert p == self.X * self.X - self.w0 * self.w0
        assert p.diff(self.t.x(1)) == 2 * self.X
        assert p.diff(self.t.w(0)) == (-2) * self.w0
        assert not p.diff(self.t.c)

    def test_subs_exact(self):
        p = self.X * self.w0 + QI(0, 2) * self.c
        q = p.subs({self.t.x(1): QI(1, 1), self.t.w(0): QI(0, 1)})
        # (1+i)*i = -1+i, plus the untouched 2i*c term
        expected = Poly.const(self.t.nvars, QI(-1, 1)) + QI(0, 2) * self.c
        assert q == expected

    def test_eval_complex(self):
        # Polynomials are evaluated by the chart evaluator, here as the
        # angle component of a field.
        from oneloop.fields import PolyVectorField, _ChartEvaluator
        from oneloop.geometry import PointBarN

        p = self.X * self.X + QI(0, 1) * self.w0
        comps = [Poly.zero(self.t.nvars)] * (self.t.nvars - 1) + [p]
        point = PointBarN((0.5 + 0.25j,), (1 - 1j, 0), 0.0, 1.0)
        table = _ChartEvaluator([PolyVectorField(2, comps)]).table(point, 0.0)
        assert table[0, -1, -1] == (0.5 + 0.25j) ** 2 + 1j * (1 - 1j)

    def test_conj_swap(self):
        p = QI(0, 1) * self.X * self.w0 + self.c
        q = p.conj_swap(self.t.conj_perm())
        expected = (QI(0, -1) * self.Xb
                    * Poly.variable(self.t.nvars, self.t.wb(0)) + self.c)
        assert q == expected
        assert q.conj_swap(self.t.conj_perm()) == p

    @given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
    def test_product_rule(self, a, b, d):
        p = a * self.X + b * self.w0 * self.X
        q = d * self.X * self.X + self.w0
        i = self.t.x(1)
        lhs = (p * q).diff(i)
        rhs = p.diff(i) * q + p * q.diff(i)
        assert lhs == rhs


class TestRad:
    def test_multiplication_table(self):
        a, b = 2, 3
        one = Rad(a, b, 1)
        sa = Rad(a, b, 0, 1)
        sb = Rad(a, b, 0, 0, 1)
        sab = Rad(a, b, 0, 0, 0, 1)
        assert sa * sa == Rad(a, b, a)
        assert sb * sb == Rad(a, b, b)
        assert sa * sb == sab
        assert sa * sab == Rad(a, b, 0, 0, a)           # sa*sab = a*sb
        assert sb * sab == Rad(a, b, 0, b)              # sb*sab = b*sa
        assert sab * sab == Rad(a, b, a * b)
        assert one * sab == sab

    def test_no_squarefree_assumption(self):
        # a = 4 stays formal: sa**2 = 4 but sa itself is not folded to 2
        sa = Rad(4, 7, 0, 1)
        assert sa * sa == Rad(4, 7, 4)
        assert sa != Rad(4, 7, 2)
        assert abs(sa.to_float() - 2.0) < 1e-15

    @given(st.tuples(*[st.integers(-9, 9)] * 4), st.tuples(*[st.integers(-9, 9)] * 4))
    @settings(max_examples=60)
    def test_float_embedding_is_homomorphism(self, u, v):
        x = Rad(2, 3, *u)
        y = Rad(2, 3, *v)
        assert math.isclose((x * y).to_float(), x.to_float() * y.to_float(),
                            rel_tol=1e-12, abs_tol=1e-9)
        assert math.isclose((x + y).to_float(), x.to_float() + y.to_float(),
                            rel_tol=1e-12, abs_tol=1e-9)

    @pytest.mark.parametrize("ab", [(2, 3), (1, 3), (5, 1), (1, 1)])
    def test_int_and_fraction_construction_agree(self, ab):
        # Integer components take a shortcut (denominator 1, no lcm); the
        # value must be the one the Fraction route builds, folds included.
        for parts in ((1, 2, 3, 4), (0, -1, 0, 5), (-7, 0, 0, 0), (0, 0, 0, 0)):
            x = Rad(*ab, *parts)
            y = Rad(*ab, *map(Fraction, parts))
            assert x == y
            assert x.numerators() == y.numerators()
            assert hash(x) == hash(y)

    def test_float_component_rejected(self):
        with pytest.raises(TypeError, match="exact rational required"):
            Rad(2, 3, 1, 0.5)

    def test_radc_complex_ops(self):
        a, b = 2, 5
        z = RadC(Rad(a, b, 1), Rad(a, b, 0, 1))        # 1 + i*sqrt(a)
        w = RadC(Rad(a, b, 0, 0, 1), Rad(a, b, 2))     # sqrt(b) + 2i
        prod = z * w
        def value(u):
            return u.re.to_float() + 1j * u.im.to_float()

        assert abs(value(prod) - value(z) * value(w)) < 1e-12
        assert z.conj().im == -z.im
        assert (z * z.conj()).im.is_zero()


class TestQuad:
    """Rad(d, 1) is the quadratic ring Q(sqrt(d)) on its (r1, ra) slots."""

    def test_arithmetic(self):
        x = Rad(5, 1, 1, 2)
        y = Rad(5, 1, 3, -1)
        assert x * y == Rad(5, 1, 3 - 10, 6 - 1)
        assert x + y == Rad(5, 1, 4, 1)
        assert abs(x.to_float() - (1 + 2 * math.sqrt(5))) < 1e-15

    @given(st.integers(2, 7), rationals, rationals, rationals, rationals)
    @settings(max_examples=60)
    def test_matches_quadratic_formula(self, d, p, q, p2, q2):
        x = Rad(d, 1, p, q)
        y = Rad(d, 1, p2, q2)
        assert (x * y).components() == (
            p * p2 + d * q * q2, p * q2 + q * p2, 0, 0)
        assert (x + y).components() == (p + p2, q + q2, 0, 0)

    def test_d1_folds(self):
        assert Rad(1, 1, 1, 2) == Rad(1, 1, 3)
        assert Rad(1, 1, 0, 1).components() == (1, 0, 0, 0)
        assert Rad(1, 1, 1, 2, 3, 4).components() == (10, 0, 0, 0)

    def test_unit_parameter_folds(self):
        # b = 1: sb = 1 and sab = sa; a = 1: sa = 1 and sab = sb.
        assert Rad(5, 1, 1, 2, 3, 4).components() == (4, 6, 0, 0)
        assert Rad(1, 3, 1, 2, 3, 4).components() == (3, 0, 7, 0)
        sb = Rad(1, 3, 0, 0, 1)
        assert sb * sb == Rad(1, 3, 3)

    def test_mixed_d_rejected(self):
        with pytest.raises(ValueError):
            Rad(2, 1, 1) + Rad(3, 1, 1)

    def test_quadc(self):
        z = RadC(Rad(2, 1, 1), Rad(2, 1, 0, 1))   # 1 + i*sqrt(2)
        assert (z * z.conj()).re == Rad(2, 1, 3)
        assert (z * z.conj()).im.is_zero()


class TestCoerce:
    def test_rad_lifts_rationals_and_passes_same_ring(self):
        x = Rad(2, 3, 1, 2, 3, 4)
        assert x.coerce(x) is x
        assert x.coerce(3) == Rad(2, 3, 3)
        assert x.coerce(Fraction(1, 2)) == Rad(2, 3, Fraction(1, 2))

    def test_radc_lifts_rationals_and_gaussians(self):
        z = RadC(Rad(2, 3, 1), Rad(2, 3, 0, 1))
        assert z.coerce(z) is z
        assert z.coerce(2) == RadC(Rad(2, 3, 2))
        assert z.coerce(QI(1, Fraction(-1, 2))) == RadC(
            Rad(2, 3, 1), Rad(2, 3, Fraction(-1, 2)))

    @pytest.mark.parametrize("bad", [0.5, 1.5 + 0j])
    def test_floats_rejected(self, bad):
        with pytest.raises(ValueError, match="exact"):
            Rad(2, 3).coerce(bad)
        with pytest.raises(ValueError, match="exact"):
            RadC(Rad(2, 3)).coerce(bad)

    def test_rad_addition_lifts_rationals(self):
        x = Rad(2, 3, 1, 2, 3, 4)
        for k in (3, -1, Fraction(1, 2)):
            expected = Rad(2, 3, 1 + k, 2, 3, 4)
            assert x + k == expected
            assert k + x == expected
        assert sum([x, x], 0) == Rad(2, 3, 2, 4, 6, 8)
        assert x - 1 == Rad(2, 3, 0, 2, 3, 4)

    @pytest.mark.parametrize("bad", [0.5, 1.5 + 0j])
    def test_rad_addition_rejects_floats(self, bad):
        with pytest.raises(ValueError, match="exact"):
            Rad(2, 3, 1) + bad
        with pytest.raises(ValueError, match="exact"):
            bad + Rad(2, 3, 1)

    def test_mixed_parameters_rejected(self):
        with pytest.raises(ValueError, match="mixed"):
            Rad(2, 3) + Rad(2, 5, 1)
        with pytest.raises(ValueError, match="mixed"):
            Rad(2, 3).coerce(Rad(2, 5, 1))
        with pytest.raises(ValueError, match="mixed"):
            RadC(Rad(2, 3)).coerce(RadC(Rad(3, 2, 1)))
        with pytest.raises(ValueError, match="mixed"):
            RadC(Rad(5, 1)).coerce(RadC(Rad(6, 1, 1)))

    # Every binary operator lifts a foreign operand through its ring's coerce.
    def test_radc_operators_lift_rationals(self):
        z = RadC(Rad(2, 3, 1))
        assert z + 1 == 1 + z == RadC(Rad(2, 3, 2))
        assert z - 1 == RadC(Rad(2, 3)) and 1 - z == RadC(Rad(2, 3))
        assert z * QI(0, 2) == QI(0, 2) * z == RadC(Rad(2, 3), Rad(2, 3, 2))
        assert Rad(2, 3, 1) + z == z + Rad(2, 3, 1) == RadC(Rad(2, 3, 2))

    def test_rad_reflected_subtraction(self):
        assert 1 - Rad(2, 3, 1) == Rad(2, 3)
        assert Fraction(1, 2) - Rad(2, 3, 1, 1) == Rad(2, 3, Fraction(-1, 2), -1)

    @pytest.mark.parametrize("op", [
        lambda x: x * 0.5, lambda x: 0.5 * x, lambda x: x + 0.5,
        lambda x: x - 0.5, lambda x: 0.5 - x])
    def test_rad_and_radc_operators_reject_floats_alike(self, op):
        with pytest.raises(ValueError, match="exact value over Rad"):
            op(Rad(2, 3, 1))
        with pytest.raises(ValueError, match="exact value over Rad"):
            op(RadC(Rad(2, 3, 1)))

    @pytest.mark.parametrize("op", [
        lambda x: x + 0.5, lambda x: x * 0.5, lambda x: 0.5 - x,
        lambda x: x - 0.5j])
    def test_qi_operators_reject_floats_through_coerce(self, op):
        with pytest.raises(TypeError, match="exact rational required"):
            op(QI(1))


class TestSolvers:
    def test_unique_solution(self):
        m = [[1, 2], [3, 5], [0, 1]]
        x = [Fraction(7), Fraction(3)]
        rhs = [sum(as_fraction(mij) * xj for mij, xj in zip(row, x)) for row in m]
        assert solve_rational(m, rhs) == x

    def test_inconsistent(self):
        assert solve_rational([[1, 0], [0, 1], [1, 1]], [1, 1, 3]) is None

    def test_dependent_columns(self):
        with pytest.raises(ValueError):
            solve_rational([[1, 2], [2, 4]], [1, 2])

    def test_integer_solution(self):
        assert integer_solution([[2, 0], [0, 3]], [4, 9]) == [2, 3]
        assert integer_solution([[2, 0], [0, 3]], [3, 9]) is None

    @given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9),
           st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
    @settings(max_examples=60)
    def test_roundtrip(self, a, b, c, d, x0, x1):
        if a * d - b * c == 0:
            return
        m = [[a, b], [c, d]]
        rhs = [a * x0 + b * x1, c * x0 + d * x1]
        assert solve_rational(m, rhs) == [Fraction(x0), Fraction(x1)]


MONOMIALS = ((0, 0), (1, 0), (0, 1), (1, 1))   # 1, sa, sb, sab as (i, j) exponents
radical_params = st.integers(1, 7)
quads = st.tuples(rationals, rationals, rationals, rationals)


def folded(a, b, coords):
    """Reference fold of Fraction coordinates: a root equal to 1 joins the rationals."""
    r1, ra, rb, rab = (Fraction(c) for c in coords)
    if b == 1:
        r1, ra, rb, rab = r1 + rb, ra + rab, Fraction(0), Fraction(0)
    if a == 1:
        r1, rb, ra, rab = r1 + ra, rb + rab, Fraction(0), Fraction(0)
    return (r1, ra, rb, rab)


def reference_product(a, b, u, v):
    """Product in Fractions, monomial by monomial: sa^2 = a, sb^2 = b."""
    out = [Fraction(0)] * 4
    for (i1, j1), x in zip(MONOMIALS, u):
        for (i2, j2), y in zip(MONOMIALS, v):
            i, j = i1 + i2, j1 + j2
            out[MONOMIALS.index((i % 2, j % 2))] += x * y * a ** (i // 2) * b ** (j // 2)
    return folded(a, b, out)


def assert_canonical(value):
    """The stored numerators and denominator are integers in lowest terms."""
    if isinstance(value, QI):
        nums, d = (value._x, value._y), value._d
    else:
        nums, d = value.numerators()
    assert d > 0
    assert math.gcd(*nums, d) == 1
    assert all(type(n) is int for n in nums) and type(d) is int


class TestIntegerForm:
    """QI and Rad hold integer numerators over one denominator, in lowest terms."""

    @given(rationals, rationals, rationals, rationals, rationals)
    @settings(max_examples=80)
    def test_qi_matches_fraction_reference(self, p, q, r, s, k):
        x, y = QI(p, q), QI(r, s)
        cases = {
            "add": (x + y, (p + r, q + s)),
            "sub": (x - y, (p - r, q - s)),
            "mul": (x * y, (p * r - q * s, p * s + q * r)),
            "neg": (-x, (-p, -q)),
            "conj": (x.conj(), (p, -q)),
            "scale": (x * k, (p * k, q * k)),
            "rscale": (k * x, (p * k, q * k)),
        }
        for name, (value, (re, im)) in cases.items():
            assert (value.re, value.im) == (re, im), name
            assert_canonical(value)
            assert value == QI(re, im), name
            assert hash(value) == hash(QI(re, im)), name
            assert value.to_complex() == complex(float(re), float(im)), name

    @given(radical_params, radical_params, quads, quads, rationals)
    @settings(max_examples=120)
    def test_rad_matches_fraction_reference(self, a, b, u, v, k):
        x, y = Rad(a, b, *u), Rad(a, b, *v)
        fu, fv = folded(a, b, u), folded(a, b, v)
        cases = {
            "init": (x, fu),
            "add": (x + y, tuple(s + t for s, t in zip(fu, fv))),
            "sub": (x - y, tuple(s - t for s, t in zip(fu, fv))),
            "mul": (x * y, reference_product(a, b, fu, fv)),
            "neg": (-x, tuple(-s for s in fu)),
            "scale": (x.scale(k), tuple(s * k for s in fu)),
            "rscale": (k * x, tuple(s * k for s in fu)),
        }
        for name, (value, expected) in cases.items():
            assert value.components() == expected, name
            assert_canonical(value)
            assert value == Rad(a, b, *expected), name
            assert hash(value) == hash(Rad(a, b, *expected)), name
            assert value.is_zero() == (expected == (0, 0, 0, 0)), name

    @given(radical_params, radical_params, quads, st.integers(1, 12))
    @settings(max_examples=60)
    def test_equal_values_hash_equal(self, a, b, u, m):
        x = Rad(a, b, *u)
        # the same value with every coordinate written over an unreduced denominator
        y = Rad(a, b, *(Fraction(c.numerator * m, c.denominator * m) for c in u))
        assert x == y and hash(x) == hash(y)
        z = (x * Rad(a, b, m)).scale(Fraction(1, m))
        assert z == x and hash(z) == hash(x)
        g = QI(u[0], u[1])
        h = (g * m) * QI(Fraction(1, m))
        assert h == g and hash(h) == hash(g)

    def test_views_are_fractions(self):
        z = QI(Fraction(3, 4), 2) * QI(1, Fraction(-1, 6))
        assert type(z.re) is Fraction and type(z.im) is Fraction
        x = Rad(2, 3, Fraction(1, 2), 3, 0, Fraction(-5, 6)) * Rad(2, 3, 1, 1)
        assert all(type(c) is Fraction for c in x.components())
        assert all(type(c) is Fraction for c in (x.r1, x.ra, x.rb, x.rab))
        assert all(type(c) is Fraction for c in RadC(x, x).components())

    def test_ring_operations_build_no_fraction(self, monkeypatch):
        x, y = QI(Fraction(3, 4), -2), QI(Fraction(-1, 6), 5)
        r, s = Rad(2, 5, Fraction(1, 2), 3, -1, 4), Rad(2, 5, 1, Fraction(2, 3), 0, 1)
        z, w = RadC(r, s), RadC(s, r)
        k = Fraction(5, 7)
        built = []
        original = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            built.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        for _ in range(3):
            x + y, x - y, x * y, -x, x.conj(), x * k, 3 * x, x == y, x.is_zero()
            x.to_complex(), x == k, hash(x)
            r + s, r - s, r * s, -r, r.scale(k), r * 3, r == s, r.is_zero(), r == k
            r.to_float(), hash(r)
            z + w, z - w, z * w, -z, z.conj(), z * 2, z == w, z.is_zero()
        assert built == []
