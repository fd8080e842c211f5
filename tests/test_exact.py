"""Exact-arithmetic core: Gaussian rationals, polynomials, radicals, solvers."""

import copy
import math
import pickle
from fractions import Fraction
from operator import add, mul, sub

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oneloop import exact
from oneloop.exact import (QI, Poly, Rad, RadC, as_fraction, integer_solution,
                           solve_rational)
from oneloop.generators import VarTable


def variable(nv, i):
    """The polynomial var_i in nv variables."""
    return Poly(nv, {tuple(int(j == i) for j in range(nv)): 1})


def coefficients(x):
    """The rational coefficients of a ring value, in numerator order."""
    nums, d = x.numerators()
    return tuple([Fraction(n, d) for n in nums])


def as_float(x):
    """The real value of a Rad, read from its Fraction coefficients."""
    r1, ra, rb, rab = map(float, coefficients(x))
    return r1 + ra * math.sqrt(x.a) + rb * math.sqrt(x.b) + rab * math.sqrt(x.a * x.b)


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
        if x:
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
        self.X = variable(self.t.nvars, self.t.x(1))
        self.Xb = variable(self.t.nvars, self.t.xb(1))
        self.w0 = variable(self.t.nvars, self.t.w(0))
        self.c = variable(self.t.nvars, self.t.c)

    def test_mul_and_diff(self):
        p = (self.X + self.w0) * (self.X - self.w0)
        assert p == self.X * self.X - self.w0 * self.w0
        assert p.diff(self.t.x(1)) == self.X.scale(2)
        assert p.diff(self.t.w(0)) == self.w0.scale(-2)
        assert not p.diff(self.t.c)

    @pytest.mark.parametrize("op", [
        lambda p: p + 3, lambda p: p - 3, lambda p: p * 3, lambda p: 3 * p,
        lambda p: 3 + p, lambda p: p * QI(0, 1), lambda p: QI(0, 1) * p,
        lambda p: p - QI(1)])
    def test_operators_take_only_polys(self, op):
        # A coefficient goes through scale.
        with pytest.raises(TypeError):
            op(self.X)
        assert self.X.scale(3) == self.X + self.X + self.X

    def test_eval_complex(self):
        # Polynomials are evaluated term by term in the chart; the chart
        # evaluator reads the real part of an angle component, substituted
        # into the real chart (the value here is exact in floats).
        from oneloop.fields import _ChartEvaluator
        from oneloop.geometry import ix_phi
        from oneloop.polyfields import PolyVectorField
        from test_fields import chart_polys, chart_values, termwise

        p = self.X * self.X + self.w0.scale(QI(0, 1))
        comps = [Poly(self.t.nvars)] * (self.t.nvars - 1) + [p]
        point = [1.0, 0.5, 0.25, 1.0, -1.0, 0.0, 0.0, 0.0]  # X = 0.5 + 0.25i, w = (1 - i, 0)
        value = (0.5 + 0.25j) ** 2 + 1j * (1 - 1j)
        assert termwise(p, chart_values(point, 0.0, self.t)) == value
        vecs, _ = _ChartEvaluator([chart_polys(PolyVectorField(2, comps))])(point, 0.0)
        assert vecs == [[(ix_phi(2), value.real)]]

    def test_conj_swap(self):
        p = self.X.scale(QI(0, 1)) * self.w0 + self.c
        q = p.conj_swap(self.t.conj_perm())
        expected = (self.Xb.scale(QI(0, -1))
                    * variable(self.t.nvars, self.t.wb(0)) + self.c)
        assert q == expected
        assert q.conj_swap(self.t.conj_perm()) == p

    @given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
    def test_product_rule(self, a, b, d):
        p = self.X.scale(a) + (self.w0 * self.X).scale(b)
        q = (self.X * self.X).scale(d) + self.w0
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
        assert abs(as_float(sa) - 2.0) < 1e-15

    @given(st.tuples(*[st.integers(-9, 9)] * 4), st.tuples(*[st.integers(-9, 9)] * 4))
    @settings(max_examples=60)
    def test_float_embedding_is_homomorphism(self, u, v):
        x = Rad(2, 3, *u)
        y = Rad(2, 3, *v)
        assert math.isclose(as_float(x * y), as_float(x) * as_float(y),
                            rel_tol=1e-12, abs_tol=1e-9)
        assert math.isclose(as_float(x + y), as_float(x) + as_float(y),
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
            return as_float(u.re) + 1j * as_float(u.im)

        assert abs(value(prod) - value(z) * value(w)) < 1e-12
        assert z.conj().im == -z.im
        assert not (z * z.conj()).im


class TestQuad:
    """Rad(d, 1) is the quadratic ring Q(sqrt(d)) on its (r1, ra) slots."""

    def test_arithmetic(self):
        x = Rad(5, 1, 1, 2)
        y = Rad(5, 1, 3, -1)
        assert x * y == Rad(5, 1, 3 - 10, 6 - 1)
        assert x + y == Rad(5, 1, 4, 1)
        assert abs(as_float(x) - (1 + 2 * math.sqrt(5))) < 1e-15

    @given(st.integers(2, 7), rationals, rationals, rationals, rationals)
    @settings(max_examples=60)
    def test_matches_quadratic_formula(self, d, p, q, p2, q2):
        x = Rad(d, 1, p, q)
        y = Rad(d, 1, p2, q2)
        assert coefficients(x * y) == (
            p * p2 + d * q * q2, p * q2 + q * p2, 0, 0)
        assert coefficients(x + y) == (p + p2, q + q2, 0, 0)

    def test_d1_folds(self):
        assert Rad(1, 1, 1, 2) == Rad(1, 1, 3)
        assert coefficients(Rad(1, 1, 0, 1)) == (1, 0, 0, 0)
        assert coefficients(Rad(1, 1, 1, 2, 3, 4)) == (10, 0, 0, 0)

    def test_unit_parameter_folds(self):
        # b = 1: sb = 1 and sab = sa; a = 1: sa = 1 and sab = sb.
        assert coefficients(Rad(5, 1, 1, 2, 3, 4)) == (4, 6, 0, 0)
        assert coefficients(Rad(1, 3, 1, 2, 3, 4)) == (3, 0, 7, 0)
        sb = Rad(1, 3, 0, 0, 1)
        assert sb * sb == Rad(1, 3, 3)

    def test_mixed_d_rejected(self):
        with pytest.raises(ValueError):
            Rad(2, 1, 1) + Rad(3, 1, 1)

    def test_quadc(self):
        z = RadC(Rad(2, 1, 1), Rad(2, 1, 0, 1))   # 1 + i*sqrt(2)
        assert (z * z.conj()).re == Rad(2, 1, 3)
        assert not (z * z.conj()).im


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

    def test_radc_parts_from_different_rings_rejected(self):
        # Otherwise coerce and components would answer from two rings while
        # + and * refuse the value.
        with pytest.raises(ValueError, match="mixed radical parameters"):
            RadC(Rad(2, 3, 1), Rad(5, 7, 1))
        with pytest.raises(ValueError, match="mixed radical parameters"):
            RadC(Rad(5, 1), Rad(5, 2))

    # Every binary operator lifts an int or a Fraction; a narrower ring's
    # value lifts through coerce.
    def test_radc_operators_lift_rationals(self):
        z = RadC(Rad(2, 3, 1))
        assert z + 1 == 1 + z == RadC(Rad(2, 3, 2))
        assert z - 1 == RadC(Rad(2, 3)) and 1 - z == RadC(Rad(2, 3))
        i2 = z.coerce(QI(0, 2))
        assert z * i2 == i2 * z == RadC(Rad(2, 3), Rad(2, 3, 2))
        one = z.coerce(Rad(2, 3, 1))
        assert one + z == z + one == RadC(Rad(2, 3, 2))

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

    @pytest.mark.parametrize("a, b", [(True, 3), (2, True), (2.0, 3), (0, 3), (2, -1)])
    def test_radical_parameters_are_positive_ints(self, a, b):
        # One check for every radical constructor; a bool is not a parameter.
        with pytest.raises(ValueError, match="positive integer parameters"):
            Rad(a, b, 1)
        with pytest.raises(ValueError, match="positive integer parameters"):
            RadC.from_ints(a, b, (1, 0, 0, 0))

    @pytest.mark.parametrize("op", [
        lambda x: x + 0.5, lambda x: x * 0.5, lambda x: 0.5 - x,
        lambda x: x - 0.5j])
    def test_qi_operators_reject_floats_through_coerce(self, op):
        with pytest.raises(TypeError, match="exact rational required"):
            op(QI(1))


ONE_OF_EACH = {"QI": QI(1, 2), "Rad": Rad(2, 3, 1, 1),
               "RadC": RadC(Rad(2, 3, 1), Rad(2, 3, 2))}

# Values that often equal each other or a rational: most components are 0.
parts = st.tuples(*[st.sampled_from([0, 0, 0, 1, -1, Fraction(1, 2)])] * 8)
radical_pairs = st.sampled_from([(2, 3), (5, 1)])
exact_values = st.one_of(
    st.integers(-1, 2), st.sampled_from([Fraction(1, 2), Fraction(-1, 2)]),
    st.builds(lambda c: QI(*c[:2]), parts),
    st.builds(lambda p, c: Rad(*p, *c[:4]), radical_pairs, parts),
    st.builds(lambda p, c: RadC(Rad(*p, *c[:4]), Rad(*p, *c[4:])), radical_pairs, parts))


class TestOneDoor:
    """Operators stay inside their ring; coerce alone lifts into a wider one."""

    @pytest.mark.parametrize("op", [add, sub, mul])
    @pytest.mark.parametrize("left, right", [
        (x, y) for x in ONE_OF_EACH for y in ONE_OF_EACH if x != y])
    def test_operators_refuse_another_ring(self, left, right, op):
        # The left operand's ring decides the error, whichever ring is wider.
        error, message = ((TypeError, "exact rational required") if left == "QI"
                          else (ValueError, "exact value over Rad"))
        with pytest.raises(error, match=message):
            op(ONE_OF_EACH[left], ONE_OF_EACH[right])
        assert ONE_OF_EACH[left] != ONE_OF_EACH[right]

    @given(exact_values, exact_values)
    @example(RadC(Rad(2, 3, 1), Rad(2, 3, 2)), QI(1, 2))
    @settings(max_examples=300)
    def test_difference_and_equality_agree(self, x, y):
        try:
            difference = x - y
        except (TypeError, ValueError):
            pass
        else:
            assert (difference == 0) == (x == y)
        if x == y:
            assert hash(x) == hash(y)

    @pytest.mark.parametrize("build", [
        lambda: QI("1/2"), lambda: QI(1, "1/2"), lambda: Rad(2, 3, "1/2"),
        lambda: as_fraction("1/2")])
    def test_constructors_take_ints_and_fractions(self, build):
        with pytest.raises(TypeError, match="exact rational required, got str"):
            build()

    def test_no_second_path(self):
        # Each job has one spelling: bool is the zero test, Poly(nvars) the
        # zero polynomial, the named views and numerators() read a value, and
        # _build writes the methods with no template.  That no operator
        # defers to another ring is test_operators_refuse_another_ring's.
        assert not hasattr(exact._Ring, "scale") and not hasattr(exact, "_rational")
        assert "__rmul__" not in vars(Poly)
        assert not hasattr(exact._Ring, "is_zero") and not hasattr(exact._Ring, "components")
        assert not hasattr(Poly, "zero")
        assert not hasattr(exact, "_METHODS") and not hasattr(exact, "_CONJ")


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

    def test_dependent_columns_raise_before_consistency_is_read(self):
        # [[1, 1], [1, 1]] x = [1, 2] has no solution, but its columns are
        # dependent, and that is what the solver reports.
        with pytest.raises(ValueError, match="dependent"):
            solve_rational([[1, 1], [1, 1]], [1, 2])

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


radical_params = st.integers(1, 7)
quads = st.tuples(rationals, rationals, rationals, rationals)
octets = st.tuples(*[rationals] * 8)

# Each ring as the squares of its generators, in bit order, a builder from
# Fraction coordinates (numerator S is the coefficient of the product of the
# generators in the bits of S) and its coordinate views.
RINGS = {
    "QI": lambda a, b: ((-1,), lambda c: QI(*c), lambda z: (z.re, z.im)),
    "Rad": lambda a, b: ((a, b), lambda c: Rad(a, b, *c), lambda z: (z.r1, z.ra, z.rb, z.rab)),
    "RadC": lambda a, b: ((a, b, -1), lambda c: RadC(Rad(a, b, *c[:4]), Rad(a, b, *c[4:])),
                          lambda z: tuple([getattr(part, view) for part in (z.re, z.im)
                                           for view in ("r1", "ra", "rb", "rab")])),
}


def oracle_fold(squares, coords):
    """Coordinates with every generator whose square is 1 set to 1."""
    out = [Fraction(c) for c in coords]
    for j, square in enumerate(squares):
        if square == 1:
            for s in range(len(out)):
                if s >> j & 1:
                    out[s ^ 1 << j] += out[s]
                    out[s] = Fraction(0)
    return tuple(out)


def oracle(squares, op, u, v=None):
    """op on Fraction coordinates, term by term: x_s * y_t goes to s ^ t,
    times the squares of the generators in s & t; conj negates the terms
    holding the generator whose square is -1."""
    if op == "mul":
        out = [Fraction(0)] * len(u)
        for s, x in enumerate(u):
            for t, y in enumerate(v):
                both = s & t
                out[s ^ t] += x * y * math.prod(q for j, q in enumerate(squares) if both >> j & 1)
    elif op == "conj":
        out = [-x if any(q == -1 and s >> j & 1 for j, q in enumerate(squares)) else x
               for s, x in enumerate(u)]
    else:
        out = [x + y if op == "add" else x - y for x, y in zip(u, v)]
    return oracle_fold(squares, out)


def assert_canonical(value):
    """The stored numerators and denominator are integers in lowest terms."""
    nums, d = value.numerators()
    assert d > 0
    assert math.gcd(*nums, d) == 1
    assert all(type(n) is int for n in nums) and type(d) is int


class TestIntegerForm:
    """Ring values hold integer numerators over one denominator, in lowest terms."""

    @pytest.mark.parametrize("ring", RINGS)
    @given(radical_params, radical_params, octets, octets, rationals)
    @example(1, 1, (1, Fraction(1, 2), 3, 4, 0, 1, 1, 1), (0, 0, Fraction(2, 3), 0, 5, 1, 0, 0),
             Fraction(3, 4))
    @example(5, 1, (Fraction(1, 2), 1, 1, Fraction(1, 3), 1, 0, Fraction(1, 5), 0),
             (0, Fraction(1, 4), 0, 1, Fraction(2, 7), 0, 0, 3), -2)
    @example(1, 3, (1, Fraction(1, 2), 0, 1, 0, 1, Fraction(1, 4), 0),
             (Fraction(1, 9), 0, 1, 0, 1, 1, 0, Fraction(1, 8)), Fraction(-1, 6))
    @settings(max_examples=80)
    def test_matches_fraction_oracle(self, ring, a, b, u, v, k):
        squares, build, views = RINGS[ring](a, b)
        u, v = u[:1 << len(squares)], v[:1 << len(squares)]
        x, y = build(u), build(v)
        fu, fv, fk = oracle_fold(squares, u), oracle_fold(squares, v), oracle_fold(
            squares, (k,) + (0,) * (len(u) - 1))
        cases = {
            "init": (x, fu),
            "add": (x + y, oracle(squares, "add", fu, fv)),
            "sub": (x - y, oracle(squares, "sub", fu, fv)),
            "mul": (x * y, oracle(squares, "mul", fu, fv)),
            "neg": (-x, oracle(squares, "sub", (0,) * len(fu), fu)),
            "radd": (k + x, oracle(squares, "add", fk, fu)),
            "rsub": (k - x, oracle(squares, "sub", fk, fu)),
            "mul k": (x * k, oracle(squares, "mul", fu, fk)),
            "rmul k": (k * x, oracle(squares, "mul", fk, fu)),
        }
        if ring != "Rad":
            cases["conj"] = (x.conj(), oracle(squares, "conj", fu))
        if ring == "RadC":
            # A narrower ring's value is refused by every operator, on either
            # side, and lifted by coerce.
            q, r = QI(*u[:2]), Rad(a, b, *u[:4])
            for name, narrow, coords in (("QI", q, (u[0], 0, 0, 0, u[1], 0, 0, 0)),
                                         ("Rad", r, u[:4] + (0,) * 4)):
                coords = oracle_fold(squares, coords)
                lifted = y.coerce(narrow)
                for op, f in (("add", add), ("sub", sub), ("mul", mul)):
                    with pytest.raises(ValueError, match="exact value over Rad"):
                        f(y, narrow)
                    with pytest.raises((TypeError, ValueError), match="exact"):
                        f(narrow, y)
                    cases[f"{op} {name}"] = (f(y, lifted), oracle(squares, op, fv, coords))
                    cases[f"r{op} {name}"] = (f(lifted, y), oracle(squares, op, coords, fv))
        for name, (value, expected) in cases.items():
            assert type(value) is type(x), name
            assert coefficients(value) == expected == views(value), name
            assert_canonical(value)
            assert value == build(expected), name
            assert hash(value) == hash(build(expected)), name
            assert bool(value) == any(expected), name

    @given(radical_params, radical_params,
           st.tuples(*[st.integers(-9, 9)] * 4), st.tuples(*[st.integers(-9, 9)] * 4))
    @settings(max_examples=60)
    def test_radc_from_ints_folds_as_rad(self, a, b, re, im):
        assert RadC.from_ints(a, b, re, im) == RadC(Rad(a, b, *re), Rad(a, b, *im))
        assert RadC.from_ints(a, b, re) == RadC(Rad(a, b, *re))

    @pytest.mark.parametrize("args", [
        (2, 3, (1, Fraction(1, 2), 0, 0)), (2, 3, (1, 0, 0, 0), (0.5, 0, 0, 0)),
        (0, 3, (1, 0, 0, 0)), (2, 3.0, (1, 0, 0, 0)), (True, 3, (1, 0, 0, 0))])
    def test_radc_from_ints_rejects_non_integers(self, args):
        with pytest.raises(ValueError, match="positive integer parameters"):
            RadC.from_ints(*args)

    @given(radical_params, radical_params, quads, st.integers(1, 12))
    @settings(max_examples=60)
    def test_equal_values_hash_equal(self, a, b, u, m):
        x = Rad(a, b, *u)
        # the same value with every coordinate written over an unreduced denominator
        y = Rad(a, b, *(Fraction(c.numerator * m, c.denominator * m) for c in u))
        assert x == y and hash(x) == hash(y)
        z = (x * Rad(a, b, m)) * Fraction(1, m)
        assert z == x and hash(z) == hash(x)
        g = QI(u[0], u[1])
        h = (g * m) * QI(Fraction(1, m))
        assert h == g and hash(h) == hash(g)

    @pytest.mark.parametrize("value, rational", [
        (QI(3), 3), (QI(-1), -1), (QI(0), 0), (QI(Fraction(1, 2)), Fraction(1, 2)),
        (QI(Fraction(-5, 3)), Fraction(-5, 3)), (Rad(2, 3, 3), 3), (Rad(2, 3, -1), -1),
        (Rad(5, 7, Fraction(-3, 4)), Fraction(-3, 4)), (Rad(1, 3, 2, 5), 7),
        (RadC(Rad(2, 3, 3)), 3), (RadC(Rad(2, 3, -2)), -2),
        (RadC(Rad(5, 1, Fraction(7, 6))), Fraction(7, 6)),
    ])
    def test_rational_values_hash_as_the_rational(self, value, rational):
        # Values that compare equal must hash equal, so a set or dict key
        # holds one of them.
        assert value == rational and hash(value) == hash(rational)
        assert len({value, rational}) == 1

    @pytest.mark.parametrize("value", [
        QI(Fraction(1, 2), 3), Rad(2, 3, 1, Fraction(-1, 4), 0, 5), Rad(5, 1, 1, 2),
        RadC(Rad(2, 3, 1), Rad(2, 3, 0, Fraction(1, 6)))], ids=["QI", "Rad", "Rad-folded", "RadC"])
    def test_values_copy_and_pickle(self, value):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)

    def test_views_are_fractions(self):
        z = QI(Fraction(3, 4), 2) * QI(1, Fraction(-1, 6))
        assert type(z.re) is Fraction and type(z.im) is Fraction
        x = Rad(2, 3, Fraction(1, 2), 3, 0, Fraction(-5, 6)) * Rad(2, 3, 1, 1)
        assert all(type(c) is Fraction for c in (x.r1, x.ra, x.rb, x.rab))
        z = RadC(x, x)
        assert all(type(c) is Fraction for part in (z.re, z.im)
                   for c in (part.r1, part.ra, part.rb, part.rab))

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
            x + y, x - y, x * y, -x, x.conj(), x * k, 3 * x, x == y, not x
            x == k, hash(x)
            r + s, r - s, r * s, -r, r * k, r * 3, r == s, not r, r == k
            hash(r)
            z + w, z - w, z * w, -z, z.conj(), z * 2, z == w, not z
        assert built == []


def test_each_ring_owns_the_operators_the_tracer_rebinds():
    # bench/tracer.py times QI's + and each ring's * by rebinding the function
    # objects in the class dicts by identity: one function shared by two rings
    # would merge their traced metrics.
    products = [vars(cls)["__mul__"] for cls in (QI, Rad, RadC)]
    assert len(set(products)) == 3
    assert "__add__" in vars(QI)
    assert QI.__rmul__ is QI.__mul__
