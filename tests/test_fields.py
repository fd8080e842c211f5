"""Tests for the exact symmetry vector fields, brackets, flows, and the
Killing-property checker."""

import math
from fractions import Fraction

import numpy as np
import pytest

import oneloop.fields
import oneloop.geometry
import oneloop.polyfields
from oneloop.exact import QI, QI_I, Poly, VarTable
from oneloop.fields import (
    GeneratorName,
    PolyVectorField,
    _ChartEvaluator,
    bracket,
    flow,
    flow_jacobian,
    generator,
    imag_part,
    killing_residuals,
    real_killing_catalogue,
    real_part,
)
from oneloop.geometry import (
    ModelParams,
    PointBarN,
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
from oneloop.polyfields import _two_c_dphi

TAU = 2.0 * math.pi


def zero_field_with_phi(n, phi_poly):
    nv = 4 * n - 1
    comps = [Poly.zero(nv)] * nv
    comps[nv - 1] = phi_poly
    return PolyVectorField(n, comps)


def comm_closed_form(a, b, params):
    """Independent closed-form oracle for the shear commutator [Ya, conj(Yb)].

    delta_ab * (sum_d X^d dX^d - Xbar^d dXbar^d + w0 dw0 - wbar0 dwbar0
    - 2ic dphi) + X^a dX^b - Xbar^b dXbar^a + wbar^a dwbar^b - w^b dw^a.
    """
    n = params.n
    vt = VarTable(n)
    nv = vt.nvars

    def var(j):
        return Poly.variable(nv, j)

    comps = [Poly.zero(nv)] * nv
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


def chart_values(p, c_value, vt):
    vals = [0j] * vt.nvars
    for a in range(1, vt.n):
        vals[vt.x(a)] = complex(p.X[a - 1])
        vals[vt.xb(a)] = complex(p.X[a - 1]).conjugate()
    for k in range(vt.n):
        vals[vt.w(k)] = complex(p.w[k])
        vals[vt.wb(k)] = complex(p.w[k]).conjugate()
    vals[vt.c] = complex(c_value)
    return vals


def termwise(poly, values):
    """A polynomial's value, term by term, in Python complex arithmetic."""
    total = 0j
    for mono, coeff in poly.terms.items():
        term = coeff.to_complex()
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
    """L_F g = F^k d_k g + J^T g + g J, symmetrized, from the oracles above."""
    J = jacobian_oracle(F, p, c_value)
    L = np.einsum("k,kij->ij", vector_oracle(F, p, c_value), D1) + J.T @ g + g @ J
    return 0.5 * (L + L.T)


def lie_derivative(F, p, params):
    """L_F g at p with finite-difference metric derivatives."""
    D1 = metric_first_derivatives(p.to_chart(), params)
    return lie_oracle(F, p, params.c, D1, metric_gram(p, params))


def chart_vector(F, p, c_value):
    """Real chart vector of one field through the chart evaluator."""
    return _ChartEvaluator([F])(p, c_value)[0][0]


def chart_jacobian(F, p, c_value):
    """Real chart Jacobian of one field through the chart evaluator."""
    return _ChartEvaluator([F])(p, c_value)[1][0]


def complex_components(F, p, c_value):
    """Complex components (on dX, dXbar, dw, dwbar, dphi) of one field."""
    return _ChartEvaluator([F]).table(p, c_value)[0, :, -1]


def killing_oracle(params, points, step=1e-3):
    """killing_residuals with one field at a time and the oracles above."""
    catalogue = real_killing_catalogue(params)
    residuals = {label: 0.0 for label, _ in catalogue}
    control = 0.0
    for p in points:
        D1 = metric_first_derivatives(p.to_chart(), params, step=step)
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


def base_point(n, rho=1.25, phi=0.0):
    return PointBarN((0.0,) * (n - 1), (0.0,) * n, phi, rho)


class TestGeneratorTables:
    def test_yc_components(self):
        params = ModelParams(n=3, c=0.0)
        vt = VarTable(3)
        F = generator(GeneratorName("YC"), params)
        for k in range(3):
            assert F.comps[vt.w(k)] == Poly.variable(vt.nvars, vt.w(k)).scale(QI(0, -1))
            assert F.comps[vt.wb(k)] == Poly.variable(vt.nvars, vt.wb(k)).scale(QI(0, 1))
        assert F.comps[4 * 3 - 2] == Poly.variable(vt.nvars, vt.c).scale(-2)
        for a in range(1, 3):
            assert not F.comps[vt.x(a)]
            assert not F.comps[vt.xb(a)]

    def test_v0_components(self):
        params = ModelParams(n=2, c=1.0)
        vt = VarTable(2)
        F = generator(GeneratorName("Vk", 0), params)
        assert F.comps[vt.w(0)] == Poly.const(vt.nvars, 1)
        assert F.comps[4 * 2 - 2] == Poly.variable(vt.nvars, vt.wb(0)).scale(QI(0, 1))
        assert not F.comps[vt.w(1)]

    def test_va_phi_sign_flips_for_positive_index(self):
        params = ModelParams(n=3, c=0.0)
        vt = VarTable(3)
        F = generator(GeneratorName("Vk", 2), params)
        assert F.comps[4 * 3 - 2] == Poly.variable(vt.nvars, vt.wb(2)).scale(QI(0, -1))

    def test_t_is_unit_angle_field(self):
        params = ModelParams(n=2, c=0.5)
        F = generator(GeneratorName("T"), params)
        assert F.comps[-1] == Poly.const(4 * 2 - 1, 1)
        assert not any(F.comps[:-1])

    def test_c1_has_no_angle_component(self):
        params = ModelParams(n=2, c=2.0)
        vt = VarTable(2)
        F = generator(GeneratorName("C1"), params)
        assert not F.comps[-1]
        assert F.comps[vt.w(0)] == Poly.variable(vt.nvars, vt.w(0)).scale(QI(0, -1))

    def test_ya_full_table_n3(self):
        params = ModelParams(n=3, c=1.0)
        vt = VarTable(3)
        nv = vt.nvars
        F = generator(GeneratorName("Ya", 1), params)
        assert F.comps[vt.xb(1)] == Poly.const(nv, 1)
        for b in (1, 2):
            expect = (Poly.variable(nv, vt.x(1)) * Poly.variable(nv, vt.x(b))).scale(-1)
            assert F.comps[vt.x(b)] == expect
        assert F.comps[vt.w(1)] == Poly.variable(nv, vt.w(0)).scale(-1)
        assert F.comps[vt.wb(0)] == Poly.variable(nv, vt.wb(1)).scale(-1)
        phi = (Poly.variable(nv, vt.c) * Poly.variable(nv, vt.x(1))).scale(QI(0, 1))
        assert F.comps[nv - 1] == phi
        assert not F.comps[vt.xb(2)]
        assert not F.comps[vt.w(2)]

    def test_index_range_errors(self):
        params = ModelParams(n=2, c=0.0)
        with pytest.raises(IndexError):
            generator(GeneratorName("Ya", 0), params)
        with pytest.raises(IndexError):
            generator(GeneratorName("Ya", 2), params)
        with pytest.raises(IndexError):
            generator(GeneratorName("Vk", 2), params)
        with pytest.raises(IndexError):
            generator(GeneratorName("Vk", -1), params)

    def test_generator_name_validation(self):
        with pytest.raises(ValueError):
            GeneratorName("bogus")
        with pytest.raises(ValueError):
            GeneratorName("Ya")
        with pytest.raises(ValueError):
            GeneratorName("T", 1)
        with pytest.raises(ValueError):
            GeneratorName("CommYaYbBar", 1)

    def test_labels(self):
        assert GeneratorName("YC").label() == "YC"
        assert GeneratorName("Ya", 2).label() == "Ya(2)"
        assert GeneratorName("CommYaYbBar", 1, 2).label() == "Comm(1,2)"


class TestReality:
    def test_catalogue_is_real(self):
        # real_killing_catalogue itself asserts reality of each entry
        items = real_killing_catalogue(ModelParams(n=3, c=0.5))
        assert len(items) == 4 + 2 * 2 + 2 * 3 + 2 * 3

    def test_yc_real_ya_not(self):
        params = ModelParams(n=2, c=1.0)
        assert generator(GeneratorName("YC"), params).is_real()
        assert not generator(GeneratorName("Ya", 1), params).is_real()

    def test_conjugate_involution(self):
        params = ModelParams(n=3, c=2.0)
        for name in (GeneratorName("Ya", 2), GeneratorName("Vk", 1),
                     GeneratorName("CommYaYbBar", 1, 2)):
            F = generator(name, params)
            assert F.conjugate().conjugate() == F

    def test_conjugate_of_ya_is_yabar(self):
        params = ModelParams(n=3, c=1.0)
        F = generator(GeneratorName("Ya", 2), params)
        G = generator(GeneratorName("YaBar", 2), params)
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
        acc = Poly.zero(nv)
        for j in range(nv - 1):
            acc = acc + F.comps[j] * G.comps[i].diff(j)
            acc = acc - G.comps[j] * F.comps[i].diff(j)
        comps.append(acc)
    return PolyVectorField(F.n, comps)


def bracket_catalogue(params):
    """The real Killing catalogue plus the complex shears and translations."""
    fields = [field for _, field in real_killing_catalogue(params)]
    for a in range(1, params.n):
        fields.append(generator(GeneratorName("Ya", a), params))
        fields.append(generator(GeneratorName("YaBar", a), params))
    for k in range(params.n):
        fields.append(generator(GeneratorName("Vk", k), params))
        fields.append(generator(GeneratorName("VkBar", k), params))
    return fields


class TestBracket:
    @pytest.mark.parametrize("n", [2, 3])
    def test_sparse_bracket_matches_dense_oracle(self, n):
        fields = bracket_catalogue(ModelParams(n=n, c=1.0))
        for F in fields:
            for G in fields:
                assert bracket(F, G) == dense_bracket(F, G)

    def test_yc_with_vk_gives_i_vk(self):
        params = ModelParams(n=3, c=0.5)
        YC = generator(GeneratorName("YC"), params)
        for k in range(3):
            Vk = generator(GeneratorName("Vk", k), params)
            assert bracket(YC, Vk) == Vk.scale(QI_I)

    def test_v0_with_v0bar(self):
        params = ModelParams(n=2, c=1.0)
        V0 = generator(GeneratorName("Vk", 0), params)
        V0b = generator(GeneratorName("VkBar", 0), params)
        expected = zero_field_with_phi(2, Poly.const(4 * 2 - 1, QI(0, -2)))
        assert bracket(V0, V0b) == expected

    def test_shears_commute(self):
        params = ModelParams(n=3, c=2.0)
        for a in (1, 2):
            for b in (1, 2):
                F = generator(GeneratorName("Ya", a), params)
                G = generator(GeneratorName("Ya", b), params)
                assert not any(bracket(F, G).comps)

    def test_comm_matches_closed_form(self):
        params = ModelParams(n=3, c=1.0)
        for a in (1, 2):
            for b in (1, 2):
                K = generator(GeneratorName("CommYaYbBar", a, b), params)
                assert K == comm_closed_form(a, b, params)

    def test_comm_matches_closed_form_n4(self):
        params = ModelParams(n=4, c=0.0)
        for a in (1, 3):
            for b in (2, 3):
                K = generator(GeneratorName("CommYaYbBar", a, b), params)
                assert K == comm_closed_form(a, b, params)

    def test_antisymmetry(self):
        params = ModelParams(n=2, c=1.0)
        F = generator(GeneratorName("Ya", 1), params)
        G = generator(GeneratorName("VkBar", 1), params)
        assert bracket(F, G) == -bracket(G, F)

    def test_jacobi_identity(self):
        params = ModelParams(n=3, c=1.0)
        triples = [
            (GeneratorName("Ya", 1), GeneratorName("YaBar", 2), GeneratorName("Vk", 0)),
            (GeneratorName("Ya", 1), GeneratorName("YaBar", 1), GeneratorName("YC")),
            (GeneratorName("Vk", 0), GeneratorName("VkBar", 0), GeneratorName("Ya", 2)),
        ]
        for na, nb, nc in triples:
            A = generator(na, params)
            B = generator(nb, params)
            C = generator(nc, params)
            J = (bracket(A, bracket(B, C)) + bracket(B, bracket(C, A))
                 + bracket(C, bracket(A, B)))
            assert not any(J.comps)

    def test_scale_linearity(self):
        params = ModelParams(n=2, c=0.5)
        F = generator(GeneratorName("Ya", 1), params)
        G = generator(GeneratorName("Vk", 0), params)
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
                    acc = Poly.zero(nv)
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
        F = generator(GeneratorName("T"), params)
        p = seeded_points(params, 1)[0]
        vec = complex_components(F, p, params.c)
        assert vec[-1] == 1.0
        assert np.allclose(vec[:-1], 0.0)

    def test_yc_at_base_point(self):
        params = ModelParams(n=2, c=0.7)
        F = generator(GeneratorName("YC"), params)
        vec = complex_components(F, base_point(2), params.c)
        assert vec[-1] == pytest.approx(-1.4)
        assert np.allclose(vec[:-1], 0.0)

    def test_comm_at_base_point(self):
        params = ModelParams(n=3, c=0.8)
        for a in (1, 2):
            for b in (1, 2):
                F = generator(GeneratorName("CommYaYbBar", a, b), params)
                vec = complex_components(F, base_point(3), params.c)
                expect = -2j * params.c if a == b else 0.0
                assert vec[-1] == pytest.approx(expect)
                assert np.allclose(vec[:-1], 0.0)

    def test_real_chart_vector_of_re_v0(self):
        params = ModelParams(n=1, c=0.0)
        F = generator(GeneratorName("VkRe", 0), params)
        p = PointBarN((), (1j,), 0.0, 1.0)
        vec = chart_vector(F, p, params.c)
        assert vec[ix_u(0, 1)] == 1.0
        assert vec[ix_v(0, 1)] == 0.0
        assert vec[ix_phi(1)] == 2.0
        assert vec[ix_rho()] == 0.0

    def test_real_chart_jacobian_matches_finite_difference(self):
        params = ModelParams(n=2, c=0.75)
        F = imag_part(generator(GeneratorName("Ya", 1), params))
        p = seeded_points(params, 1)[0]
        J = chart_jacobian(F, p, params.c)
        q0 = p.to_chart()
        h = 1e-6
        for j in range(8):
            qp = q0.copy()
            qm = q0.copy()
            qp[j] += h
            qm[j] -= h
            vp = chart_vector(F, PointBarN.from_chart(qp), params.c)
            vm = chart_vector(F, PointBarN.from_chart(qm), params.c)
            fd = (vp - vm) / (2 * h)
            assert np.allclose(J[:, j], fd, atol=1e-6)


class TestBatchedEvaluation:
    """The catalogue evaluator reproduces the termwise evaluation exactly."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_catalogue_field_matches_termwise_oracle(self, n):
        for c in (0.0, 0.75):
            params = ModelParams(n=n, c=c)
            catalogue = real_killing_catalogue(params)
            evaluate = _ChartEvaluator([F for _, F in catalogue])
            for p in seeded_points(params, 3, seed=n) + [base_point(n)]:
                vecs, jacs = evaluate(p, c)
                for (label, F), vec, jac in zip(catalogue, vecs, jacs):
                    assert np.array_equal(vec, vector_oracle(F, p, c)), label
                    assert np.array_equal(jac, jacobian_oracle(F, p, c)), label
                    assert np.array_equal(chart_vector(F, p, c), vec)
                    assert np.array_equal(chart_jacobian(F, p, c), jac)
                    vt = VarTable(n)
                    values = [termwise(comp, chart_values(p, c, vt))
                              for comp in F.comps]
                    assert np.array_equal(complex_components(F, p, c), values)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_killing_residuals_match_one_field_at_a_time(self, n):
        params = ModelParams(n=n, c=0.5)
        points = seeded_points(params, 3, seed=7)
        assert killing_residuals(params, points) == killing_oracle(params, points)

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
        comps = [Poly.zero(nv)] * nv
        comps[vt.x(1)] = comps[nv - 1] = poly
        F = PolyVectorField(n, comps)
        for p in seeded_points(ModelParams(n=n, c=1.5), 4, seed=2):
            assert np.array_equal(chart_vector(F, p, 1.5), vector_oracle(F, p, 1.5))
            assert np.array_equal(chart_jacobian(F, p, 1.5),
                                  jacobian_oracle(F, p, 1.5))


def _is_fiber_translation(label):
    return label.startswith("re V(") or label.startswith("im V(")


class TestKilling:
    """The rotation/translation/shear generators are exact symmetries; the
    fiber-translation family V(k) carries an angle shear of 2 against the
    metric's angle shear of 4 (documented normalization mismatch), so its
    residuals sit at O(0.1) instead of vanishing.  Both behaviors are pinned.
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
                            lambda q, params, step: np.full((4, 4, 4), np.nan))
        residuals, control = killing_residuals(params, points)
        assert residuals and all(math.isnan(res) for res in residuals.values())
        assert not any(res <= 1e-6 for res in residuals.values())
        assert math.isnan(control)

    def test_nan_step_is_rejected(self):
        # A NaN step fails the step check instead of yielding NaN rows.
        params = ModelParams(1, 1.0)
        with pytest.raises(ValueError, match="step must be positive"):
            killing_residuals(params, seeded_points(params, 1), step=float("nan"))

    def test_fiber_translations_miss_by_angle_shear_mismatch(self):
        # Characterization: the V-family is NOT Killing for this metric; its
        # residual is an O(0.1) quantity produced by the factor-two angle
        # shear mismatch, far above FD noise and far below the O(1) control.
        params = ModelParams(n=2, c=0.5)
        points = seeded_points(params, 4)
        residuals, _ = killing_residuals(params, points)
        v_rows = {k: v for k, v in residuals.items() if _is_fiber_translation(k)}
        assert len(v_rows) == 4
        for label, res in v_rows.items():
            assert 1e-3 < res < 1.0, f"{label} residual {res}"

    def test_doubling_angle_shear_makes_fiber_translations_killing(self):
        # The repaired field d/dw^0 + 2i conj(w^0) d/dphi (double the
        # catalogue's angle component) IS Killing for this metric -- pinning
        # the mismatch to exactly a factor of two in the angle shear.
        params = ModelParams(n=2, c=0.5)
        for k in range(params.n):
            F = generator(GeneratorName("Vk", k), params)
            doubled = F + zero_field_with_phi(params.n, F.comps[-1])
            for part in (real_part(doubled), imag_part(doubled)):
                for p in seeded_points(params, 2):
                    L = lie_derivative(part, p, params)
                    g = metric_gram(p, params)
                    assert np.max(np.abs(L)) / np.max(np.abs(g)) <= 2e-6

    def test_radial_control_large(self):
        params = ModelParams(n=2, c=1.0)
        p = seeded_points(params, 1)[0]
        # The radial field has constant components: its Lie derivative is
        # the radial partial of the Gram matrix.
        L = metric_first_derivatives(p.to_chart(), params)[ix_rho()]
        g = metric_gram(p, params)
        assert np.max(np.abs(L)) / np.max(np.abs(g)) > 1e-2


def frame_rank(p, params, tol=1e-8):
    """Rank of the complex coefficient matrix of the fiberwise frame: base
    shears, fiber translations, their conjugates and the angle field."""
    n = params.n
    names = [GeneratorName("Ya", a) for a in range(1, n)]
    names += [GeneratorName("Vk", k) for k in range(n)]
    fields = [generator(name, params) for name in names]
    fields += [F.conjugate() for F in fields] + [generator(GeneratorName("T"), params)]
    M = _ChartEvaluator(fields).table(p, params.c)[:, :, -1]
    return int(np.linalg.matrix_rank(M, tol=tol))


class TestFrameRank:
    def test_n2_origin(self):
        params = ModelParams(n=2, c=0.0)
        p = PointBarN((0.0,), (0.3 + 0.1j, -0.2j), 0.4, 1.0)
        assert frame_rank(p, params) == 7

    def test_n2_near_boundary(self):
        params = ModelParams(n=2, c=1.0)
        p = PointBarN((0.9,), (1.5, 0.5 - 1.0j), -0.7, 2.0)
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
    out = [generator(GeneratorName("YC"), params) + _two_c_dphi(n)]
    for a in range(1, n):
        for b in range(a, n):
            K = generator(GeneratorName("CommYaYbBar", a, b), params)
            if a < b:  # (K + conj K)/2 and (K - conj K)/2i
                out.append(real_part(K).scale(Fraction(1, 2)))
            im = imag_part(K).scale(Fraction(-1, 2))
            out.append(im + _two_c_dphi(n) if a == b else im)
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
        for n in (1, 2, 3):
            params = ModelParams(n=n, c=1.0)
            vt = VarTable(n)
            assign = {vt.x(a): 0 for a in range(1, n)}
            assign.update({vt.xb(a): 0 for a in range(1, n)})
            assign.update({vt.w(k): 0 for k in range(n)})
            assign.update({vt.wb(k): 0 for k in range(n)})
            for F in stabilizer_basis(params):
                # c stays symbolic: vanishing must hold for every c
                assert not any(comp.subs(assign) for comp in F.comps)

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
            q = flow(GeneratorName("C1"), TAU, p)
            assert q.X == p.X and q.w == p.w
            assert q.phi_tilde == p.phi_tilde and q.rho == p.rho

    def test_c2_period_is_identity_exactly(self):
        for n in (1, 2, 3):
            for p in self.seeded(n, 1.0):
                q = flow(GeneratorName("C2"), TAU / n, p)
                assert q.X == p.X and q.w == p.w
                assert q.phi_tilde == p.phi_tilde and q.rho == p.rho

    def test_t_translates_angle(self):
        p = self.seeded(2, 0.0)[0]
        q = flow(GeneratorName("T"), 0.75, p)
        assert q.phi_tilde == p.phi_tilde + 0.75
        assert q.X == p.X and q.w == p.w

    def test_re_v0_example(self):
        p = PointBarN((), (1j,), 0.0, 1.0)
        q = flow(GeneratorName("VkRe", 0), 1.0, p)
        assert q.w[0] == 1.0 + 1.0j
        assert q.phi_tilde == 2.0

    def test_translation_group_law_exact_at_dyadic_times(self):
        p = PointBarN((0.25,), (0.5 - 0.25j, 1.5j), 0.5, 2.0)
        s, t = 0.25, 0.5
        for name in (GeneratorName("T"), GeneratorName("VkRe", 0),
                      GeneratorName("VkIm", 0), GeneratorName("VkRe", 1),
                      GeneratorName("VkIm", 1)):
            one = flow(name, s + t, p)
            two = flow(name, s, flow(name, t, p))
            assert one.X == two.X and one.w == two.w
            assert one.phi_tilde == two.phi_tilde and one.rho == two.rho

    def test_rotation_group_law_close_at_generic_times(self):
        p = self.seeded(3, 0.5)[0]
        s, t = 0.37, -1.21
        for name in (GeneratorName("C1"), GeneratorName("C2")):
            one = flow(name, s + t, p)
            two = flow(name, s, flow(name, t, p))
            assert np.allclose(one.to_chart(), two.to_chart(), atol=1e-12)

    def test_rotation_and_angle_flows_are_isometries(self):
        params = ModelParams(n=2, c=0.5)
        names = (GeneratorName("C1"), GeneratorName("C2"), GeneratorName("T"))
        for p in seeded_points(params, 3):
            g_p = metric_gram(p, params)
            scale = np.max(np.abs(g_p))
            for name in names:
                t = 0.37
                q = flow(name, t, p)
                J = flow_jacobian(name, t, p)
                pulled = J.T @ metric_gram(q, params) @ J
                assert np.max(np.abs(pulled - g_p)) <= 1e-10 * scale

    def test_fiber_translation_flows_pull_back_with_shear_mismatch(self):
        # Characterization: the w-translation flows integrate the catalogued
        # V-family with its angle shear of 2, so their pullback differs from
        # the metric (whose angle shear is 4) by an O(0.1) relative amount.
        params = ModelParams(n=2, c=0.5)
        names = (GeneratorName("VkRe", 0), GeneratorName("VkIm", 1))
        for p in seeded_points(params, 3):
            g_p = metric_gram(p, params)
            scale = np.max(np.abs(g_p))
            for name in names:
                t = 0.37
                q = flow(name, t, p)
                J = flow_jacobian(name, t, p)
                pulled = J.T @ metric_gram(q, params) @ J
                rel = np.max(np.abs(pulled - g_p)) / scale
                assert 1e-4 < rel < 1.0, f"{name.label()} pullback gap {rel}"

    def test_flow_jacobian_matches_finite_difference(self):
        params = ModelParams(n=2, c=1.0)
        p = seeded_points(params, 1)[0]
        for name in (GeneratorName("C2"), GeneratorName("VkIm", 1)):
            t = 0.83
            J = flow_jacobian(name, t, p)
            q0 = p.to_chart()
            h = 1e-6
            for j in range(8):
                qp = q0.copy()
                qm = q0.copy()
                qp[j] += h
                qm[j] -= h
                fp = flow(name, t, PointBarN.from_chart(qp)).to_chart()
                fm = flow(name, t, PointBarN.from_chart(qm)).to_chart()
                assert np.allclose(J[:, j], (fp - fm) / (2 * h), atol=1e-6)

    def test_unsupported_flow_raises(self):
        p = PointBarN((0.1,), (0.0, 0.0), 0.0, 1.0)
        with pytest.raises(ValueError, match="closed-form flow"):
            flow(GeneratorName("Ya", 1), 1.0, p)
        with pytest.raises(ValueError, match="closed-form flow"):
            flow_jacobian(GeneratorName("YC"), 1.0, p)

    def test_flow_preserves_radius(self):
        p = self.seeded(2, 2.0)[1]
        for name in (GeneratorName("C1"), GeneratorName("C2"),
                      GeneratorName("VkRe", 0)):
            assert flow(name, 1.3, p).rho == p.rho


class TestModuleBindings:
    """The float module keeps the names the benchmark tracer wraps, and
    re-exports the exact half as the very objects of polyfields."""

    def test_float_bindings(self):
        fields = oneloop.fields
        assert callable(fields.killing_residuals)
        assert callable(fields.real_killing_catalogue)
        assert fields.metric_first_derivatives is oneloop.geometry.metric_first_derivatives

    @pytest.mark.parametrize("name", ["PolyVectorField", "GeneratorName",
                                      "generator", "bracket", "real_part",
                                      "imag_part"])
    def test_exact_names_are_reexported(self, name):
        assert getattr(oneloop.fields, name) is getattr(oneloop.polyfields, name)
