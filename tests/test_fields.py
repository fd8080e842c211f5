"""Tests for the exact symmetry vector fields, brackets, flows, and the
Killing-property checker."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oneloop.fields
import oneloop.generators
import oneloop.geometry
from oneloop.exact import QI, QI_I, Poly
from oneloop.fields import (
    _ChartEvaluator,
    _chart_catalogue,
    killing_residuals,
    real_killing_catalogue,
)
from oneloop.flows import flow, flow_jacobian
from oneloop.geometry import (
    ModelParams,
    ix_phi,
    ix_rho,
    ix_u,
    ix_v,
    ix_x,
    ix_y,
    metric_first_derivatives,
    metric_gram,
    seeded_points,
)
from oneloop.generators import VarTable
from oneloop.params import THETA_SHEAR
from oneloop.polyfields import (
    PolyVectorField,
    bracket,
    generator,
    imag_part,
    real_part,
)

TAU = 2.0 * math.pi


def variable(nv, i):
    """The polynomial var_i in nv variables."""
    return Poly(nv, {tuple(int(j == i) for j in range(nv)): 1})


def constant(nv, coeff):
    """The constant polynomial coeff in nv variables."""
    return Poly(nv, {(0,) * nv: coeff})


def zero_field_with_phi(n, phi_poly):
    nv = 4 * n - 1
    comps = [Poly(nv)] * nv
    comps[nv - 1] = phi_poly
    return PolyVectorField(n, comps)


def two_c_dphi(n):
    """The field 2c * d/dphi."""
    return zero_field_with_phi(n, variable(4 * n - 1, 4 * n - 2).scale(2))


def comm_closed_form(a, b, params):
    """Independent closed-form oracle for the shear commutator [Ya, conj(Yb)].

    delta_ab * (sum_d X^d dX^d - Xbar^d dXbar^d + w0 dw0 - wbar0 dwbar0
    - 2ic dphi) + X^a dX^b - Xbar^b dXbar^a + wbar^a dwbar^b - w^b dw^a.
    """
    n = params.n
    vt = VarTable(n)
    nv = vt.nvars

    def var(j):
        return variable(nv, j)

    comps = [Poly(nv)] * nv
    if a == b:
        for d in range(1, n):
            comps[vt.x(d)] = comps[vt.x(d)] + var(vt.x(d))
            comps[vt.xb(d)] = comps[vt.xb(d)] - var(vt.xb(d))
        comps[vt.w(0)] = comps[vt.w(0)] + var(vt.w(0))
        comps[vt.wb(0)] = comps[vt.wb(0)] - var(vt.wb(0))
        comps[nv - 1] = var(vt.c).scale(QI(0, -2))
    comps[vt.x(b)] = comps[vt.x(b)] + var(vt.x(a))
    comps[vt.xb(a)] = comps[vt.xb(a)] - var(vt.xb(b))
    comps[vt.wb(b)] = comps[vt.wb(b)] + var(vt.wb(a))
    comps[vt.w(a)] = comps[vt.w(a)] - var(vt.w(b))
    return PolyVectorField(n, comps)


def chart_values(q, c_value, vt):
    """The complex variables of ``vt`` at the chart point q: X^a = x^a + i y^a,
    w^k = u^k + i v^k and their conjugates, and c."""
    n = vt.n
    vals = [0j] * vt.nvars
    for h, hb, x, y in ([(vt.x(a), vt.xb(a), ix_x(a), ix_y(a)) for a in range(1, n)]
                        + [(vt.w(k), vt.wb(k), ix_u(k, n), ix_v(k, n)) for k in range(n)]):
        vals[h] = complex(q[x], q[y])
        vals[hb] = vals[h].conjugate()
    vals[vt.c] = complex(c_value)
    return vals


def qi_complex(q):
    """A Gaussian rational's float value, each part rounded once."""
    (x, y), d = q.numerators()
    return complex(x / d, y / d)


def termwise(poly, values):
    """A polynomial's value, term by term, in Python complex arithmetic."""
    total = 0j
    for mono, coeff in poly.terms.items():
        term = qi_complex(coeff)
        for i, e in enumerate(mono):
            if e:
                term *= values[i] ** e
        total += term
    return total


def vector_oracle(F, p, c_value):
    """Real chart vector from the termwise value of each component."""
    n = F.n
    vt = VarTable(n)
    vals = chart_values(p, c_value, vt)
    comps = [termwise(comp, vals) for comp in F.comps]
    out = np.zeros(4 * n)
    for a in range(1, n):
        out[ix_x(a)], out[ix_y(a)] = comps[vt.x(a)].real, comps[vt.x(a)].imag
    for k in range(n):
        out[ix_u(k, n)], out[ix_v(k, n)] = comps[vt.w(k)].real, comps[vt.w(k)].imag
    out[ix_phi(n)] = comps[-1].real
    return out


def jacobian_oracle(F, p, c_value):
    """Real chart Jacobian by a termwise loop over every partial."""
    n = F.n
    vt = VarTable(n)
    vals = chart_values(p, c_value, vt)
    nv = vt.nvars
    dval = np.zeros((nv, nv - 1), dtype=complex)
    for i in range(nv):
        for j in range(nv - 1):
            poly = F.comps[i].diff(j)
            if poly:
                dval[i, j] = termwise(poly, vals)

    m = 4 * n
    J = np.zeros((m, m))

    def cols(i):
        """Complex chart-partials of component i: one per real column."""
        out = np.zeros(m, dtype=complex)
        for b in range(1, n):
            fx = dval[i, vt.x(b)]
            fxb = dval[i, vt.xb(b)]
            out[ix_x(b)] = fx + fxb
            out[ix_y(b)] = 1j * (fx - fxb)
        for k in range(n):
            fw = dval[i, vt.w(k)]
            fwb = dval[i, vt.wb(k)]
            out[ix_u(k, n)] = fw + fwb
            out[ix_v(k, n)] = 1j * (fw - fwb)
        return out

    for a in range(1, n):
        row = cols(vt.x(a))
        J[ix_x(a)] = row.real
        J[ix_y(a)] = row.imag
    for k in range(n):
        row = cols(vt.w(k))
        J[ix_u(k, n)] = row.real
        J[ix_v(k, n)] = row.imag
    J[ix_phi(n)] = cols(nv - 1).real
    return J


def lie_oracle(F, p, c_value, D1, g):
    """L_F g = F^k d_k g + J^T g + g J, symmetrized, from the oracles above;
    D1 holds the flat triangles of metric_first_derivatives."""
    J = jacobian_oracle(F, p, c_value)
    D1 = np.array([oneloop.geometry._symmetric(Dk, len(D1)) for Dk in D1])
    g = np.array(g)
    L = np.einsum("k,kij->ij", vector_oracle(F, p, c_value), D1) + J.T @ g + g @ J
    return 0.5 * (L + L.T)


def lie_derivative(F, p, params):
    """L_F g at p with finite-difference metric derivatives."""
    D1 = metric_first_derivatives(p, params)
    return lie_oracle(F, p, params.c, D1, metric_gram(p, params))


def dense_vector(entries, n):
    """A real chart vector from the evaluator's (index, value) entries."""
    out = np.zeros(4 * n)
    for k, value in entries:
        out[k] = value
    return out


def dense_jacobian(entries, n):
    """A real chart Jacobian from the evaluator's (row, column, value) entries."""
    out = np.zeros((4 * n, 4 * n))
    for i, j, value in entries:
        out[i, j] = value
    return out


def chart_form(F):
    """An exact field in the real chart, by Poly arithmetic: per chart
    coordinate a Poly over the chart coordinates and c (variable 4n), with
    real coefficients.  Along each complex coordinate they are Re and Im of
    the holomorphic component with X = x + iy and Xbar = x - iy (likewise
    w = u + iv) substituted; the angle coordinate takes the real part of the
    angle component."""
    n = F.n
    vt = VarTable(n)
    m = 4 * n + 1
    image = [None] * vt.nvars
    planes = []
    for h, hb, x, y in ([(vt.x(a), vt.xb(a), ix_x(a), ix_y(a)) for a in range(1, n)]
                        + [(vt.w(k), vt.wb(k), ix_u(k, n), ix_v(k, n)) for k in range(n)]):
        iy = variable(m, y).scale(QI_I)
        image[h], image[hb] = variable(m, x) + iy, variable(m, x) - iy
        planes.append((h, x, y))
    image[vt.c] = variable(m, 4 * n)
    out = [Poly(m)] * (4 * n)
    for h, x, y in planes + [(vt.nvars - 1, ix_phi(n), None)]:
        H = Poly(m)
        for mono, coeff in F.comps[h].terms.items():
            term = constant(m, coeff)
            for v, e in enumerate(mono):
                for _ in range(e):
                    term = term * image[v]
            H = H + term
        out[x] = Poly(m, {mono: q.re for mono, q in H.terms.items()})
        if y is not None:
            out[y] = Poly(m, {mono: q.im for mono, q in H.terms.items()})
    return out


def factors(mono):
    """An exponent tuple as the chart evaluator's monomial: the tuple of its
    variables in increasing order, each repeated by its exponent."""
    return tuple(v for v, e in enumerate(mono) for _ in range(e))


def chart_polys(F):
    """The chart evaluator's input for an exact field: chart_form(F), each
    coefficient rounded once to a float."""
    return [{factors(mono): float(coeff.re) for mono, coeff in comp.terms.items()}
            for comp in chart_form(F)]


def real_termwise(poly, values):
    """A chart polynomial's value, term by term: each coefficient times its
    variables in order, the terms summed in order, in float arithmetic."""
    total = 0.0
    for mono, coeff in poly.items():
        for v in mono:
            coeff *= values[v]
        total += coeff
    return total


def real_partial(poly, v):
    """The partial derivative of a chart polynomial along variable v."""
    return {mono[:mono.index(v)] + mono[mono.index(v) + 1:]: coeff * mono.count(v)
            for mono, coeff in poly.items() if v in mono}


def real_vector_oracle(polys, p, c_value):
    """Real chart vector of chart polynomials, termwise."""
    values = [*p, c_value]
    return np.array([real_termwise(poly, values) for poly in polys])


def real_jacobian_oracle(polys, p, c_value):
    """Real chart Jacobian of chart polynomials, termwise, over every
    (row, column) pair."""
    values = [*p, c_value]
    return np.array([[real_termwise(real_partial(poly, j), values) for j in range(len(polys))]
                     for poly in polys])


def chart_vector(F, p, c_value):
    """Real chart vector of one field through the chart evaluator."""
    return dense_vector(_ChartEvaluator([chart_polys(F)])(p, c_value)[0][0], F.n)


def chart_jacobian(F, p, c_value):
    """Real chart Jacobian of one field through the chart evaluator."""
    return dense_jacobian(_ChartEvaluator([chart_polys(F)])(p, c_value)[1][0], F.n)


def complex_components(F, p, c_value):
    """Complex components (on dX, dXbar, dw, dwbar, dphi) of one field,
    termwise."""
    vals = chart_values(p, c_value, VarTable(F.n))
    return np.array([termwise(comp, vals) for comp in F.comps])


def killing_oracle(params, points):
    """killing_residuals with one field at a time and the oracles above."""
    catalogue = real_killing_catalogue(params)
    residuals = {label: 0.0 for label, _ in catalogue}
    control = 0.0
    for p in points:
        D1 = metric_first_derivatives(p, params)
        g = metric_gram(p, params)
        ginf = float(np.max(np.abs(g)))
        for label, F in catalogue:
            rel = float(np.max(np.abs(lie_oracle(F, p, params.c, D1, g)))) / ginf
            if rel > residuals[label] or math.isnan(rel):
                residuals[label] = rel
        rel_control = float(np.max(np.abs(D1[ix_rho()]))) / ginf
        if rel_control > control or math.isnan(rel_control):
            control = rel_control
    return residuals, control


def killing_one_field_at_a_time(params, points):
    """killing_residuals through the same plain-Python path, with one chart
    evaluator per field instead of one for the catalogue."""
    max_abs = oneloop.geometry._max_abs
    catalogue = real_killing_catalogue(params)
    evaluators = [(label, _ChartEvaluator([chart_polys(F)])) for label, F in catalogue]
    residuals = {label: 0.0 for label, _ in catalogue}
    control = 0.0
    for p in points:
        D1 = metric_first_derivatives(p, params)
        g = metric_gram(p, params)
        ginf = max_abs([x for row in g for x in row])
        for label, evaluate in evaluators:
            (L,) = oneloop.fields._lie_derivatives(evaluate, p, params, D1, g)
            rel = max_abs(L) / ginf
            if rel > residuals[label] or math.isnan(rel):
                residuals[label] = rel
        rel_control = max_abs(D1[ix_rho()]) / ginf
        if rel_control > control or math.isnan(rel_control):
            control = rel_control
    return residuals, control


def base_point(n, rho=1.25, phi=0.0):
    """The chart point X = 0, w = 0."""
    return [rho] + [0.0] * (4 * n - 2) + [phi]


class TestGeneratorTables:
    def test_yc_components(self):
        n = 3
        vt = VarTable(3)
        F = generator("YC", n)
        for k in range(3):
            assert F.comps[vt.w(k)] == variable(vt.nvars, vt.w(k)).scale(QI(0, -1))
            assert F.comps[vt.wb(k)] == variable(vt.nvars, vt.wb(k)).scale(QI(0, 1))
        assert F.comps[4 * 3 - 2] == variable(vt.nvars, vt.c).scale(-2)
        for a in range(1, 3):
            assert not F.comps[vt.x(a)]
            assert not F.comps[vt.xb(a)]

    def test_v0_components(self):
        n = 2
        vt = VarTable(2)
        F = generator("Vk", n, 0)
        assert F.comps[vt.w(0)] == constant(vt.nvars, 1)
        assert F.comps[4 * 2 - 2] == variable(vt.nvars, vt.wb(0)).scale(QI(0, 1))
        assert not F.comps[vt.w(1)]

    def test_va_phi_sign_flips_for_positive_index(self):
        n = 3
        vt = VarTable(3)
        F = generator("Vk", n, 2)
        assert F.comps[4 * 3 - 2] == variable(vt.nvars, vt.wb(2)).scale(QI(0, -1))

    def test_t_is_unit_angle_field(self):
        n = 2
        F = generator("T", n)
        assert F.comps[-1] == constant(4 * 2 - 1, 1)
        assert not any(F.comps[:-1])

    def test_c1_has_no_angle_component(self):
        n = 2
        vt = VarTable(2)
        F = generator("C1", n)
        assert not F.comps[-1]
        assert F.comps[vt.w(0)] == variable(vt.nvars, vt.w(0)).scale(QI(0, -1))

    def test_ya_full_table_n3(self):
        n = 3
        vt = VarTable(3)
        nv = vt.nvars
        F = generator("Ya", n, 1)
        assert F.comps[vt.xb(1)] == constant(nv, 1)
        for b in (1, 2):
            expect = (variable(nv, vt.x(1)) * variable(nv, vt.x(b))).scale(-1)
            assert F.comps[vt.x(b)] == expect
        assert F.comps[vt.w(1)] == variable(nv, vt.w(0)).scale(-1)
        assert F.comps[vt.wb(0)] == variable(nv, vt.wb(1)).scale(-1)
        phi = (variable(nv, vt.c) * variable(nv, vt.x(1))).scale(QI(0, 1))
        assert F.comps[nv - 1] == phi
        assert not F.comps[vt.xb(2)]
        assert not F.comps[vt.w(2)]

    def test_index_range_errors(self):
        n = 2
        with pytest.raises(IndexError):
            generator("Ya", n, 0)
        with pytest.raises(IndexError):
            generator("Ya", n, 2)
        with pytest.raises(IndexError):
            generator("Vk", n, 2)
        with pytest.raises(IndexError):
            generator("Vk", n, -1)
        for a, b in ((0, 0), (1, 2), (2, 1)):
            with pytest.raises(IndexError):
                generator("CommYaYbBar", n, a, b)

    def test_generator_name_validation(self):
        # The table checks the kind and how many indices it takes; a
        # conjugate kind hands its indices to the kind it conjugates.
        cases = [("bogus", (), "unknown generator kind 'bogus'"),
                 ("Ya", (), "generator Ya takes 1 "), ("YaBar", (), "generator Ya takes 1 "),
                 ("T", (1,), "generator T takes 0 "), ("C2", (None, 1), "generator C2 takes 0 "),
                 ("Vk", (0, 1), "generator Vk takes 1 "),
                 ("CommYaYbBar", (1,), "generator CommYaYbBar takes 2 ")]
        for kind, indices, message in cases:
            with pytest.raises(ValueError, match=message):
                generator(kind, 3, *indices)

    def test_labels(self):
        # One label per catalogue field: the verify-killing row, and the
        # name that flow takes.
        labels = [label for label, _ in _chart_catalogue(3)]
        assert labels[:4] == ["YC", "T", "C1", "C2"]
        assert {"re Ya(2)", "im V(0)", "re Comm(1,2)", "im Comm(2,2)"} <= set(labels)
        assert len(set(labels)) == len(labels)


class TestReality:
    def test_catalogue_is_real(self):
        # real_killing_catalogue itself asserts reality of each entry
        items = real_killing_catalogue(ModelParams(n=3, c=0.5))
        assert len(items) == 4 + 2 * 2 + 2 * 3 + 2 * 3

    @pytest.mark.parametrize("n", range(1, 6))
    def test_the_zero_fields_are_the_diagonal_re_commutators(self, n):
        # [Ya, conj(Ya)] is minus its own conjugate, so its real part
        # F + conj(F) vanishes: the verify-killing row of re Comm(a,a) reads
        # 0 and cannot fail.  No other catalogue field is zero.
        want = [f"re Comm({a},{a})" for a in range(1, n)]
        assert [label for label, F in _chart_catalogue(n) if not any(F)] == want
        assert [label for label, F in real_killing_catalogue(ModelParams(n=n))
                if not any(F.comps)] == want

    def test_yc_real_ya_not(self):
        n = 2
        assert generator("YC", n).is_real()
        assert not generator("Ya", n, 1).is_real()

    def test_conjugate_involution(self):
        n = 3
        for kind, *indices in (("Ya", 2), ("Vk", 1), ("CommYaYbBar", 1, 2)):
            F = generator(kind, n, *indices)
            assert F.conjugate().conjugate() == F

    def test_conjugate_of_ya_is_yabar(self):
        n = 3
        F = generator("Ya", n, 2)
        G = generator("YaBar", n, 2)
        assert F.conjugate() == G

    def test_no_radial_component_structurally(self):
        params = ModelParams(n=2, c=1.0)
        for _, F in real_killing_catalogue(params):
            assert len(F.comps) == 4 * 2 - 1
            p = seeded_points(params, 1)[0]
            assert chart_vector(F, p, params.c)[ix_rho()] == 0.0


def dense_bracket(F, G):
    """The bracket's defining double loop over every (i, j): the oracle."""
    nv = 4 * F.n - 1
    comps = []
    for i in range(nv):
        acc = Poly(nv)
        for j in range(nv - 1):
            acc = acc + F.comps[j] * G.comps[i].diff(j)
            acc = acc - G.comps[j] * F.comps[i].diff(j)
        comps.append(acc)
    return PolyVectorField(F.n, comps)


def bracket_catalogue(params):
    """The real Killing catalogue plus the complex shears and translations."""
    fields = [field for _, field in real_killing_catalogue(params)]
    for a in range(1, params.n):
        fields.append(generator("Ya", params.n, a))
        fields.append(generator("YaBar", params.n, a))
    for k in range(params.n):
        fields.append(generator("Vk", params.n, k))
        fields.append(generator("VkBar", params.n, k))
    return fields


class TestBracket:
    @pytest.mark.parametrize("n", [2, 3])
    def test_sparse_bracket_matches_dense_oracle(self, n):
        fields = bracket_catalogue(ModelParams(n=n, c=1.0))
        for F in fields:
            for G in fields:
                assert bracket(F, G) == dense_bracket(F, G)

    def test_yc_with_vk_gives_i_vk(self):
        n = 3
        YC = generator("YC", n)
        for k in range(3):
            Vk = generator("Vk", n, k)
            assert bracket(YC, Vk) == Vk.scale(QI_I)

    def test_v0_with_v0bar(self):
        n = 2
        V0 = generator("Vk", n, 0)
        V0b = generator("VkBar", n, 0)
        expected = zero_field_with_phi(2, constant(4 * 2 - 1, QI(0, -2)))
        assert bracket(V0, V0b) == expected

    def test_shears_commute(self):
        n = 3
        for a in (1, 2):
            for b in (1, 2):
                F = generator("Ya", n, a)
                G = generator("Ya", n, b)
                assert not any(bracket(F, G).comps)

    @staticmethod
    def assert_comm_closed_forms(params):
        # The exact bracket [Ya, conj(Yb)] is the table's closed form, which
        # structure checks it against, and the independent oracle, for
        # every pair, a > b included.
        n = params.n
        for a in range(1, n):
            for b in range(1, n):
                K = bracket(generator("Ya", n, a), generator("YaBar", n, b))
                assert K == generator("CommYaYbBar", n, a, b), (a, b)
                assert K == comm_closed_form(a, b, params), (a, b)

    def test_comm_matches_closed_form(self):
        self.assert_comm_closed_forms(ModelParams(n=3, c=1.0))

    def test_comm_matches_closed_form_n4(self):
        self.assert_comm_closed_forms(ModelParams(n=4, c=0.0))

    def test_antisymmetry(self):
        n = 2
        F = generator("Ya", n, 1)
        G = generator("VkBar", n, 1)
        assert bracket(F, G) == -bracket(G, F)

    def test_jacobi_identity(self):
        n = 3
        triples = [
            (("Ya", 1), ("YaBar", 2), ("Vk", 0)),
            (("Ya", 1), ("YaBar", 1), ("YC",)),
            (("Vk", 0), ("VkBar", 0), ("Ya", 2)),
        ]
        for names in triples:
            A, B, C = (generator(kind, n, *indices) for kind, *indices in names)
            J = (bracket(A, bracket(B, C)) + bracket(B, bracket(C, A))
                 + bracket(C, bracket(A, B)))
            assert not any(J.comps)

    def test_scale_linearity(self):
        n = 2
        F = generator("Ya", n, 1)
        G = generator("Vk", n, 0)
        q = QI(Fraction(2, 3), Fraction(-1, 5))
        assert bracket(F.scale(q), G) == bracket(F, G).scale(q)

    def test_partials_are_the_nonzero_diffs(self):
        nv = 4 * 3 - 1
        for F in bracket_catalogue(ModelParams(n=3, c=1.0)):
            for comp, partials in zip(F.comps, F.partials()):
                want = {j: comp.diff(j) for j in range(nv - 1) if comp.diff(j)}
                assert partials == want
                assert list(partials) == sorted(partials)
            assert F.partials() is F.partials()

    @pytest.mark.parametrize("n", [2, 3])
    def test_term_order_of_poly_operator_sums(self, n):
        # The float Killing table compiles bracket results in dict order, so
        # the bracket keeps the order that summing Poly products gives: every
        # F_j * d(G_i)/d(var_j) in increasing j, then every G_j * d(F_i)/d(var_j).
        nv = 4 * n - 1
        fields = bracket_catalogue(ModelParams(n=n, c=1.0))
        for F in fields:
            for G in fields:
                for i, comp in enumerate(bracket(F, G).comps):
                    acc = Poly(nv)
                    for j in range(nv - 1):
                        if F.comps[j] and G.comps[i].diff(j):
                            acc = acc + F.comps[j] * G.comps[i].diff(j)
                    for j in range(nv - 1):
                        if G.comps[j] and F.comps[i].diff(j):
                            acc = acc - G.comps[j] * F.comps[i].diff(j)
                    assert list(comp.terms.items()) == list(acc.terms.items())


class TestEval:
    def test_t_unit_vector(self):
        params = ModelParams(n=2, c=1.0)
        F = generator("T", params.n)
        p = seeded_points(params, 1)[0]
        vec = complex_components(F, p, params.c)
        assert vec[-1] == 1.0
        assert np.allclose(vec[:-1], 0.0)

    def test_yc_at_base_point(self):
        params = ModelParams(n=2, c=0.7)
        F = generator("YC", params.n)
        vec = complex_components(F, base_point(2), params.c)
        assert vec[-1] == pytest.approx(-1.4)
        assert np.allclose(vec[:-1], 0.0)

    def test_comm_at_base_point(self):
        params = ModelParams(n=3, c=0.8)
        for a in (1, 2):
            for b in (1, 2):
                F = generator("CommYaYbBar", params.n, a, b)
                vec = complex_components(F, base_point(3), params.c)
                expect = -2j * params.c if a == b else 0.0
                assert vec[-1] == pytest.approx(expect)
                assert np.allclose(vec[:-1], 0.0)

    def test_real_chart_vector_of_re_v0(self):
        params = ModelParams(n=1, c=0.0)
        F = real_part(generator("Vk", params.n, 0))
        p = [1.0, 0.0, 1.0, 0.0]  # w = i
        vec = chart_vector(F, p, params.c)
        assert vec[ix_u(0, 1)] == 1.0
        assert vec[ix_v(0, 1)] == 0.0
        assert vec[ix_phi(1)] == 2.0
        assert vec[ix_rho()] == 0.0

    def test_real_chart_jacobian_matches_finite_difference(self):
        params = ModelParams(n=2, c=0.75)
        F = imag_part(generator("Ya", params.n, 1))
        p = seeded_points(params, 1)[0]
        J = chart_jacobian(F, p, params.c)
        h = 1e-6
        for j in range(8):
            qp = p.copy()
            qm = p.copy()
            qp[j] += h
            qm[j] -= h
            vp = chart_vector(F, qp, params.c)
            vm = chart_vector(F, qm, params.c)
            fd = (vp - vm) / (2 * h)
            assert np.allclose(J[:, j], fd, atol=1e-6)


class TestBatchedEvaluation:
    """The catalogue evaluator reproduces the termwise evaluation exactly."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_catalogue_field_matches_termwise_oracle(self, n):
        for c in (0.0, 0.75):
            params = ModelParams(n=n, c=c)
            catalogue = real_killing_catalogue(params)
            evaluate = _ChartEvaluator([F for _, F in _chart_catalogue(n)])
            for p in seeded_points(params, 3, seed=n) + [base_point(n)]:
                vecs, jacs = evaluate(p, c)
                for (label, F), vec, jac in zip(catalogue, vecs, jacs):
                    vec, jac = dense_vector(vec, n), dense_jacobian(jac, n)
                    assert np.array_equal(vec, vector_oracle(F, p, c)), label
                    assert np.array_equal(jac, jacobian_oracle(F, p, c)), label
                    assert np.array_equal(chart_vector(F, p, c), vec)
                    assert np.array_equal(chart_jacobian(F, p, c), jac)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_killing_residuals_match_one_field_at_a_time(self, n):
        # Batching the catalogue changes no bit.  The dense numpy oracle
        # sums the Lie derivative in another order than the sparse one, so
        # against it the residuals, relative to |g|, agree to rounding.
        params = ModelParams(n=n, c=0.5)
        points = seeded_points(params, 3, seed=7)
        residuals, control = killing_residuals(params, points)
        assert (residuals, control) == killing_one_field_at_a_time(params, points)
        expected, expected_control = killing_oracle(params, points)
        assert list(residuals) == list(expected)
        for label, value in residuals.items():
            assert abs(value - expected[label]) <= 1e-12, label
        assert abs(control - expected_control) <= 1e-12

    def test_higher_powers_follow_python_arithmetic(self):
        # X^3 wbar^2 + (1/3 + 2i) c X Xbar: powers above 2 and a coefficient
        # whose product does not commute with rounding
        n = 2
        vt = VarTable(n)
        nv = vt.nvars
        mono = [0] * nv
        mono[vt.x(1)], mono[vt.wb(0)] = 3, 2
        other = [0] * nv
        other[vt.x(1)] = other[vt.xb(1)] = other[vt.c] = 1
        poly = Poly(nv, {tuple(mono): 1, tuple(other): QI(Fraction(1, 3), 2)})
        comps = [Poly(nv)] * nv
        comps[vt.x(1)] = comps[nv - 1] = poly
        F = PolyVectorField(n, comps)
        polys = chart_polys(F)
        assert max(len(mono) for comp in polys for mono in comp) == 5  # x^3 v^2 among them
        for p in seeded_points(ModelParams(n=n, c=1.5), 4, seed=2):
            assert np.array_equal(chart_vector(F, p, 1.5), real_vector_oracle(polys, p, 1.5))
            assert np.array_equal(chart_jacobian(F, p, 1.5),
                                  real_jacobian_oracle(polys, p, 1.5))

    @pytest.mark.parametrize("n, polys, terms", [(1, 20, 20), (2, 83, 87), (3, 226, 242)])
    def test_compiles_only_what_the_chart_reads(self, n, polys, terms):
        # The nonzero components and their nonzero partials along the
        # coordinates of the complex planes.  At n = 1: YC, C1 and C2 have
        # the components (v, -u) with two partials, YC also -2c on the angle,
        # T the constant angle, re V(0) (1, 2v) and im V(0) (1, -2u) on the
        # (u, angle) and (v, angle) coordinates, with one partial each.
        evaluate = _ChartEvaluator([F for _, F in _chart_catalogue(n)])
        compiled = [terms for spec in evaluate.vectors for _, terms in spec]
        compiled += [terms for spec in evaluate.jacobians for _, _, terms in spec]
        assert (len(compiled), sum(map(len, compiled))) == (polys, terms)

    def test_a_c_whose_square_overflows_is_refused(self):
        # No catalogue term reads c^2, but x^2 reaches degree 2 from n = 2
        # on, and there a c whose square leaves the float range is refused
        # before any term is formed: its residuals would mean nothing.
        big = 1.5e154
        p = [1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]  # X = 0.5, w = 0
        evaluate = _ChartEvaluator([F for _, F in _chart_catalogue(2)])
        assert evaluate.degree == 2
        evaluate(p, math.sqrt(1.7e308))
        with pytest.raises(OverflowError, match=r"at c = 1\.5e\+154: a power of degree <= 2 "
                                                r"overflows"):
            evaluate(p, big)
        one = _ChartEvaluator([F for _, F in _chart_catalogue(1)])
        assert one.degree == 1
        vecs, _ = one(base_point(1), big)
        assert dict(vecs[0])[ix_phi(1)] == -2 * big  # YC's angle component -2c


class TestFloatCatalogue:
    """The integer chart catalogue that killing_residuals evaluates is the
    exact catalogue in the real chart, term for term."""

    @staticmethod
    def assert_identical(n):
        exact = [(label, chart_form(F)) for label, F in real_killing_catalogue(ModelParams(n=n))]
        table = _chart_catalogue(n)
        assert [label for label, _ in table] == [label for label, _ in exact]
        for (label, got), (_, want) in zip(table, exact):
            assert len(got) == len(want) == 4 * n, label
            for comp, poly in zip(got, want):
                assert list(comp.items()) == [(factors(mono), coeff.re)
                                              for mono, coeff in poly.terms.items()], label
                assert all(type(coeff) is int for coeff in comp.values()), label

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_the_exact_catalogue(self, n):
        self.assert_identical(n)

    def test_re_v0_reads_as_the_readme_writes_it(self):
        # Re V0 = du + 2v dphi, as integers.
        F = dict(_chart_catalogue(2))["re V(0)"]
        assert [(i, comp) for i, comp in enumerate(F) if comp] == [
            (ix_u(0, 2), {(): 1}), (ix_phi(2), {(ix_v(0, 2),): 2})]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_at_the_metric_shear(self, monkeypatch, n):
        # The V(k) repair of criterion 1 sets VK_SHEAR = THETA_SHEAR; both
        # catalogues read it from the one table.
        monkeypatch.setattr(oneloop.generators, "VK_SHEAR", THETA_SHEAR)
        self.assert_identical(n)
        angle = dict(_chart_catalogue(n))["re V(0)"][ix_phi(n)]
        assert angle == {(ix_v(0, n),): THETA_SHEAR}

    @pytest.mark.parametrize("n", range(1, 5))
    def test_substitution_is_exact_at_dyadic_points(self, n):
        # An oracle apart from the substitution: each exact catalogue field
        # evaluated in QI at X = x + iy, its chart partials from Poly.diff
        # (d/dx = d/dX + d/dXbar, d/dy = i(d/dX - d/dXbar)), read as
        # (Re, Im) of the holomorphic part, and the table's polynomials and
        # their partials evaluated in Fractions at the same dyadic point.
        vt = VarTable(n)
        rng = random.Random(n)
        for _ in range(3):
            q = [Fraction(rng.randint(-64, 64), 128) for _ in range(4 * n)] + [
                Fraction(rng.randint(0, 64), 32)]
            values = [None] * vt.nvars
            planes = ([(vt.x(a), vt.xb(a), ix_x(a), ix_y(a)) for a in range(1, n)]
                      + [(vt.w(k), vt.wb(k), ix_u(k, n), ix_v(k, n)) for k in range(n)])
            for h, hb, x, y in planes:
                values[h], values[hb] = QI(q[x], q[y]), QI(q[x], -q[y])
            values[vt.c] = QI(q[4 * n])
            table = dict(_chart_catalogue(n))
            for label, F in real_killing_catalogue(ModelParams(n=n)):
                got = table[label]

                def chart(poly):
                    return sum((coeff * math.prod(q[v] for v in mono)
                                for mono, coeff in poly.items()), Fraction(0))

                def exact(poly):
                    total = QI(0)
                    for mono, coeff in poly.terms.items():
                        for v, e in enumerate(mono):
                            for _ in range(e):
                                coeff = coeff * values[v]
                        total = total + coeff
                    return total

                rows = [(h, x, y) for h, _, x, y in planes] + [(vt.nvars - 1, ix_phi(n), None)]
                for h, x, y in rows:
                    H = exact(F.comps[h])
                    assert chart(got[x]) == H.re, (label, x)
                    if y is not None:
                        assert chart(got[y]) == H.im, (label, y)
                    for d, db, dx, dy in planes:
                        hol, antihol = exact(F.comps[h].diff(d)), exact(F.comps[h].diff(db))
                        Hx, Hy = hol + antihol, (hol - antihol) * QI_I
                        assert chart(real_partial(got[x], dx)) == Hx.re, (label, x, dx)
                        assert chart(real_partial(got[x], dy)) == Hy.re, (label, x, dy)
                        if y is not None:
                            assert chart(real_partial(got[y], dx)) == Hx.im, (label, y, dx)
                            assert chart(real_partial(got[y], dy)) == Hy.im, (label, y, dy)

    @pytest.mark.parametrize("shear", [3, 4.0])
    def test_a_shear_the_table_cannot_hold_is_refused(self, monkeypatch, shear):
        # The V(k) angle coefficients +-(VK_SHEAR/2) i are held as Gaussian
        # integers: an odd or non-integer shear is refused, never floored.
        monkeypatch.setattr(oneloop.generators, "VK_SHEAR", shear)
        for build in (lambda: _chart_catalogue(2),
                      lambda: generator("Vk", 2, 1)):
            with pytest.raises(ValueError, match="VK_SHEAR must be an even integer"):
                build()


def small_polys(nv):
    """Polynomials in nv variables (c last) of degree <= 2 with small
    Gaussian-rational coefficients; c-linear terms included."""
    monomial = st.lists(st.integers(0, nv - 1), max_size=2).map(
        lambda factors: tuple(factors.count(v) for v in range(nv)))
    part = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    return st.dictionaries(monomial, st.builds(QI, part, part), max_size=3).map(
        lambda terms: Poly(nv, terms))


@st.composite
def small_real_fields(draw):
    """real_part(F) or imag_part(F) of a random field F with small_polys
    components."""
    n = draw(st.integers(1, 3))
    F = PolyVectorField(n, draw(st.lists(small_polys(4 * n - 1), min_size=4 * n - 1,
                                         max_size=4 * n - 1)))
    return draw(st.sampled_from([real_part, imag_part]))(F)


@settings(max_examples=60, deadline=None)
@given(small_real_fields(), st.integers(0, 2**16), st.sampled_from([0.0, 0.75, 2.0]))
def test_random_real_fields_match_termwise_oracles(F, seed, c):
    p = seeded_points(ModelParams(n=F.n, c=c), 1, seed=seed)[0]
    polys = chart_polys(F)
    (vec,), (jac,) = _ChartEvaluator([polys])(p, c)
    assert np.array_equal(dense_vector(vec, F.n), real_vector_oracle(polys, p, c))
    assert np.array_equal(dense_jacobian(jac, F.n), real_jacobian_oracle(polys, p, c))


def _is_fiber_translation(label):
    return label.startswith("re V(") or label.startswith("im V(")


def sheared_fiber_translation(k, n, shear):
    """d/dw^k + (shear/2) i eps_k conj(w^k) d/dphi, eps_0 = 1 and eps_a = -1:
    the fiber translation V_k with angle shear ``shear``, built here so that
    the checks below do not move with the catalogue's VK_SHEAR."""
    vt = VarTable(n)
    nv = vt.nvars
    comps = [Poly(nv)] * nv
    comps[vt.w(k)] = constant(nv, 1)
    half = QI(0, Fraction(shear if k == 0 else -shear, 2))
    comps[nv - 1] = variable(nv, vt.wb(k)).scale(half)
    return PolyVectorField(n, comps)


def sheared_translation_flow(p, k, imaginary, shear, t):
    """The point and the Jacobian of the time-t flow of the real (or, with
    ``imaginary``, the imaginary) part of sheared_fiber_translation(k, n,
    shear): an affine chart map that moves u^k (v^k) by t and the angle by
    eps_k * shear * t * v^k (-eps_k * shear * t * u^k)."""
    n = len(p) // 4
    J = np.eye(4 * n)
    angle = (shear if k == 0 else -shear) * t
    if imaginary:
        J[ix_phi(n), ix_u(k, n)] = -angle
        moved = ix_v(k, n)
    else:
        J[ix_phi(n), ix_v(k, n)] = angle
        moved = ix_u(k, n)
    image = J @ np.array(p)
    image[moved] += t
    return image.tolist(), J


def max_relative_lie_derivative(F, params, points):
    """max over the points of max|L_F g| / max|g|, as killing_residuals."""
    return max(np.max(np.abs(lie_derivative(F, p, params)))
               / np.max(np.abs(metric_gram(p, params))) for p in points)


class TestKilling:
    """The rotation/translation/shear generators are exact symmetries.  A
    fiber translation is Killing only with the metric's angle shear
    THETA_SHEAR; with half of it, its residuals sit at O(0.1) instead of
    vanishing.  Both behaviors are pinned on explicitly built fields.
    """

    def test_rotations_translations_shears_killing_n2(self):
        params = ModelParams(n=2, c=0.5)
        points = seeded_points(params, 4)
        residuals, control = killing_residuals(params, points)
        for label, res in residuals.items():
            if not _is_fiber_translation(label):
                assert res <= 2e-6, f"{label} residual {res}"
        assert control > 1e-2

    def test_rotations_translations_shears_killing_n1_deformed(self):
        params = ModelParams(n=1, c=2.0)
        points = seeded_points(params, 3)
        residuals, control = killing_residuals(params, points)
        for label, res in residuals.items():
            if not _is_fiber_translation(label):
                assert res <= 2e-6, f"{label} residual {res}"
        assert control > 1e-2

    def test_nan_residual_fails_every_row(self, monkeypatch):
        # NaN metric derivatives make every Lie derivative NaN; the maxima
        # must carry the NaN instead of keeping their 0.0 start value.
        params = ModelParams(1, 1.0)
        points = seeded_points(params, 2)
        monkeypatch.setattr(oneloop.fields, "metric_first_derivatives",
                            lambda q, params: [[math.nan] * 10] * 4)
        residuals, control = killing_residuals(params, points)
        assert residuals and all(math.isnan(res) for res in residuals.values())
        assert not any(res <= 1e-6 for res in residuals.values())
        assert math.isnan(control)

    def test_fiber_translations_miss_by_angle_shear_mismatch(self):
        # Characterization: a fiber translation with half the metric's angle
        # shear is NOT Killing; its residual is an O(0.1) quantity, far above
        # FD noise and far below the O(1) control.
        params = ModelParams(n=2, c=0.5)
        points = seeded_points(params, 4)
        for k in range(params.n):
            F = sheared_fiber_translation(k, params.n, THETA_SHEAR // 2)
            for part in (real_part(F), imag_part(F)):
                res = max_relative_lie_derivative(part, params, points)
                assert 1e-3 < res < 1.0, f"V({k}) residual {res}"

    def test_doubling_angle_shear_makes_fiber_translations_killing(self):
        # The field d/dw^0 + 2i conj(w^0) d/dphi, with the metric's angle
        # shear, IS Killing for this metric -- pinning the half-shear miss
        # to exactly a factor of two in the angle shear.
        params = ModelParams(n=2, c=0.5)
        for k in range(params.n):
            F = sheared_fiber_translation(k, params.n, THETA_SHEAR)
            for part in (real_part(F), imag_part(F)):
                res = max_relative_lie_derivative(part, params, seeded_points(params, 2))
                assert res <= 2e-6

    def test_radial_control_large(self):
        params = ModelParams(n=2, c=1.0)
        p = seeded_points(params, 1)[0]
        # The radial field has constant components: its Lie derivative is
        # the radial partial of the Gram matrix.
        L = metric_first_derivatives(p, params)[ix_rho()]
        g = metric_gram(p, params)
        assert np.max(np.abs(L)) / np.max(np.abs(g)) > 1e-2


def frame_rank(p, params, tol=1e-8):
    """Rank of the complex coefficient matrix of the fiberwise frame: base
    shears, fiber translations, their conjugates and the angle field."""
    n = params.n
    fields = [generator("Ya", n, a) for a in range(1, n)]
    fields += [generator("Vk", n, k) for k in range(n)]
    fields += [F.conjugate() for F in fields] + [generator("T", n)]
    M = np.array([complex_components(F, p, params.c) for F in fields])
    return int(np.linalg.matrix_rank(M, tol=tol))


class TestFrameRank:
    def test_n2_origin(self):
        params = ModelParams(n=2, c=0.0)
        p = [1.0, 0.0, 0.0, 0.3, 0.1, 0.0, -0.2, 0.4]  # w = (0.3 + 0.1i, -0.2i)
        assert frame_rank(p, params) == 7

    def test_n2_near_boundary(self):
        params = ModelParams(n=2, c=1.0)
        p = [2.0, 0.9, 0.0, 1.5, 0.0, 0.5, -1.0, -0.7]  # X = 0.9, w = (1.5, 0.5 - i)
        assert frame_rank(p, params) == 7

    def test_n3_seeded(self):
        params = ModelParams(n=3, c=0.5)
        p = seeded_points(params, 1)[0]
        assert frame_rank(p, params) == 11


def stabilizer_basis(params):
    """Real generators vanishing at the base point X = 0, w = 0: the rotation
    YC + 2c dphi and the normalized real and imaginary parts of the shear
    commutators, the diagonal imaginary parts corrected by 2c dphi."""
    n = params.n
    out = [generator("YC", n) + two_c_dphi(n)]
    for a in range(1, n):
        for b in range(a, n):
            K = generator("CommYaYbBar", n, a, b)
            if a < b:  # (K + conj K)/2 and (K - conj K)/2i
                out.append(real_part(K).scale(Fraction(1, 2)))
            im = imag_part(K).scale(Fraction(-1, 2))
            out.append(im + two_c_dphi(n) if a == b else im)
    return out


class TestStabilizer:
    def test_counts(self):
        assert len(stabilizer_basis(ModelParams(n=1, c=1.0))) == 1
        assert len(stabilizer_basis(ModelParams(n=2, c=1.0))) == 2
        assert len(stabilizer_basis(ModelParams(n=3, c=1.0))) == 5

    def test_all_real(self):
        for F in stabilizer_basis(ModelParams(n=3, c=2.0)):
            assert F.is_real()

    def test_exact_vanishing_at_base_point(self):
        # c is the last variable and stays symbolic: a component vanishes at
        # X = w = 0 for every c exactly when each of its monomials has a
        # positive coordinate exponent.
        for n in (1, 2, 3):
            params = ModelParams(n=n, c=1.0)
            vt = VarTable(n)
            assert vt.c == vt.nvars - 1
            for F in stabilizer_basis(params):
                assert all(any(mono[:-1]) for comp in F.comps for mono in comp.terms)

    def test_stabilizer_fields_are_killing(self):
        params = ModelParams(n=2, c=0.5)
        points = seeded_points(params, 2)
        for F in stabilizer_basis(params):
            for p in points:
                L = lie_derivative(F, p, params)
                g = metric_gram(p, params)
                assert np.max(np.abs(L)) <= 1e-6 * np.max(np.abs(g))


class TestFlows:
    def seeded(self, n, c):
        return seeded_points(ModelParams(n=n, c=c), 3)

    def test_c1_full_period_is_identity_exactly(self):
        for p in self.seeded(2, 0.5):
            assert flow("C1", TAU, p) == p

    def test_c2_period_is_identity_exactly(self):
        for n in (1, 2, 3):
            for p in self.seeded(n, 1.0):
                assert flow("C2", TAU / n, p) == p

    def test_t_translates_angle(self):
        p = self.seeded(2, 0.0)[0]
        q = flow("T", 0.75, p)
        assert q[ix_phi(2)] == p[ix_phi(2)] + 0.75
        assert q[:ix_phi(2)] == p[:ix_phi(2)]

    def test_re_v0_example(self):
        p = [1.0, 0.0, 1.0, 0.0]  # w = i
        q = flow("re V(0)", 1.0, p)
        assert (q[ix_u(0, 1)], q[ix_v(0, 1)]) == (1.0, 1.0)
        assert q[ix_phi(1)] == 2.0 and q[ix_rho()] == 1.0

    def test_translation_group_law_exact_at_dyadic_times(self):
        p = [2.0, 0.25, 0.0, 0.5, -0.25, 0.0, 1.5, 0.5]  # X = 0.25, w = (0.5 - 0.25i, 1.5i)
        s, t = 0.25, 0.5
        for name in ("T", "re V(0)", "im V(0)", "re V(1)", "im V(1)"):
            one = flow(name, s + t, p)
            two = flow(name, s, flow(name, t, p))
            assert one == two

    def test_rotation_group_law_close_at_generic_times(self):
        p = self.seeded(3, 0.5)[0]
        s, t = 0.37, -1.21
        for name in ("C1", "C2"):
            one = flow(name, s + t, p)
            two = flow(name, s, flow(name, t, p))
            assert np.allclose(one, two, atol=1e-12)

    def test_rotation_and_angle_flows_are_isometries(self):
        params = ModelParams(n=2, c=0.5)
        names = ("C1", "C2", "T")
        for p in seeded_points(params, 3):
            g_p = np.array(metric_gram(p, params))
            scale = np.max(np.abs(g_p))
            for name in names:
                t = 0.37
                q = flow(name, t, p)
                J = np.array(flow_jacobian(name, t, p))
                pulled = J.T @ np.array(metric_gram(q, params)) @ J
                assert np.max(np.abs(pulled - g_p)) <= 1e-10 * scale

    def test_fiber_translation_flows_pull_back_with_shear_mismatch(self):
        # Characterization: the w-translation flows with half the metric's
        # angle shear pull the metric back to one that differs from it by an
        # O(0.1) relative amount.
        params = ModelParams(n=2, c=0.5)
        for p in seeded_points(params, 3):
            g_p = np.array(metric_gram(p, params))
            scale = np.max(np.abs(g_p))
            for k, imaginary in ((0, False), (1, True)):
                q, J = sheared_translation_flow(p, k, imaginary, THETA_SHEAR // 2, 0.37)
                pulled = J.T @ np.array(metric_gram(q, params)) @ J
                rel = np.max(np.abs(pulled - g_p)) / scale
                assert 1e-4 < rel < 1.0, f"V({k}) flow pullback gap {rel}"

    def test_flow_jacobian_matches_finite_difference(self):
        params = ModelParams(n=2, c=1.0)
        p = seeded_points(params, 1)[0]
        for name in ("C2", "im V(1)"):
            t = 0.83
            J = np.array(flow_jacobian(name, t, p))
            h = 1e-6
            for j in range(8):
                qp = p.copy()
                qm = p.copy()
                qp[j] += h
                qm[j] -= h
                fp = np.array(flow(name, t, qp))
                fm = np.array(flow(name, t, qm))
                assert np.allclose(J[:, j], (fp - fm) / (2 * h), atol=1e-6)

    def test_unsupported_flow_raises(self):
        # re Ya(1) is quadratic, YC depends on c, and n = 2 has no V(2).
        p = [1.0, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]  # X = 0.1, w = 0
        for label in ("re Ya(1)", "YC", "re V(2)", "bogus"):
            for call in (flow, flow_jacobian):
                with pytest.raises(ValueError, match="closed-form flow"):
                    call(label, 1.0, p)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_flows_integrate_the_affine_fields(self, n):
        # Every catalogue field of coordinate degree <= 1 without c flows, and
        # its flow is q -> exp(tA) q + t b for the field A q + b, with A and b
        # read from the exact catalogue.  The times are small: scipy's expm
        # itself drifts by ~1e-13 at rotation angles near 8.
        from scipy.linalg import expm

        pairs = [(a, b) for a in range(1, n) for b in range(a, n)]
        want = ({"T", "C1", "C2"} | {f"{part} V({k})" for part in ("re", "im") for k in range(n)}
                | {f"re Comm({a},{b})" for a, b in pairs}
                | {f"im Comm({a},{b})" for a, b in pairs if a < b})
        origin = base_point(n, rho=1.0)
        flowing = set()
        for label, F in real_killing_catalogue(ModelParams(n=n)):
            try:
                flow(label, 0.0, origin)
            except ValueError:
                continue
            flowing.add(label)
            A, b = chart_jacobian(F, origin, 0.0), chart_vector(F, origin, 0.0)
            for t in (0.37, -0.37):
                assert np.max(np.abs(np.array(flow_jacobian(label, t, origin))
                                     - expm(t * A))) <= 1e-14, (label, t)
                moved = np.array(flow(label, t, origin)) - origin
                assert np.max(np.abs(moved - t * b)) <= 1e-14, (label, t)
        assert flowing == want

    @pytest.mark.parametrize("c", [0.5, 1.0])
    def test_commutator_flows_are_isometries(self, c):
        from test_acceptance import PULLBACK_TOL

        params = ModelParams(n=3, c=c)
        for p in seeded_points(params, 5):
            g_p = np.array(metric_gram(p, params))
            for label in ("re Comm(1,2)", "im Comm(1,2)"):
                q = flow(label, 0.37, p)
                J = np.array(flow_jacobian(label, 0.37, p))
                pulled = J.T @ np.array(metric_gram(q, params)) @ J
                assert np.max(np.abs(pulled - g_p)) <= PULLBACK_TOL * np.max(np.abs(g_p))

    def test_flow_preserves_radius(self):
        p = self.seeded(2, 2.0)[1]
        for name in ("C1", "C2", "re V(0)"):
            assert flow(name, 1.3, p)[ix_rho()] == p[ix_rho()]


class TestModuleBindings:
    """The float module keeps the names the benchmark tracer wraps."""

    def test_float_bindings(self):
        fields = oneloop.fields
        assert callable(fields.killing_residuals)
        assert callable(fields.real_killing_catalogue)
        assert fields.metric_first_derivatives is oneloop.geometry.metric_first_derivatives

