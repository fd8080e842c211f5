"""Metric family: Bergman block, full Gram matrix, determinant, fiber data, Ricci."""

import hashlib
import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from oneloop import geometry
from oneloop.geometry import (ModelParams, _gram_from_chart,
                              einstein_diagnostic, gram_det, ix_phi, ix_rho, ix_u, ix_v,
                              ix_x, ix_y, metric_first_derivatives, metric_gram, ricci_fd,
                              seeded_points)
from oneloop.params import THETA_SHEAR
from oneloop.volume import FloatRangeError, density, poly_P

# ricci_fd against the numpy einsum assembly on the same pattern-zeroed
# derivatives, relative to max |Ric|; measured <= 2.4e-15 at n = 1, 2, 3 and
# c = 0, 1, 3.
RICCI_TOLERANCE = 1e-12


def _sym_pair(A, B):
    """Realified symmetric product of 1-forms: (1/2)(A (x) conj(B) + conj(B) (x) A).

    A, B are complex coefficient rows over the real chart; with A = B this is
    the realification of dz (.) dzbar normalized so dz (.) dzbar = dx^2 + dy^2.
    """
    return 0.5 * (np.outer(A, np.conj(B)) + np.outer(np.conj(B), A))


def gram_oracle(q, params):
    """Outer-product assembly of the Gram matrix, one _sym_pair per 1-form:
    the reference for the closed-form assembly in geometry._gram_from_chart."""
    n = params.n
    dim = 4 * n
    q = np.asarray(q, dtype=float)
    rho = q[0]
    c = params.c

    X = np.array([q[ix_x(a)] + 1j * q[ix_y(a)] for a in range(1, n)])
    w = np.array([q[ix_u(k, n)] + 1j * q[ix_v(k, n)] for k in range(n)])
    s = float(np.sum(np.abs(X) ** 2))

    # Complex coefficient rows of the coordinate 1-forms over the real chart.
    rows_X = []
    for a in range(1, n):
        r = np.zeros(dim, dtype=complex)
        r[ix_x(a)] = 1.0
        r[ix_y(a)] = 1.0j
        rows_X.append(r)
    rows_w = []
    for k in range(n):
        r = np.zeros(dim, dtype=complex)
        r[ix_u(k, n)] = 1.0
        r[ix_v(k, n)] = 1.0j
        rows_w.append(r)
    row_rho = np.zeros(dim)
    row_rho[0] = 1.0
    row_phi = np.zeros(dim)
    row_phi[ix_phi(n)] = 1.0

    one_minus = 1.0 - s

    # sigma = sum_a conj(X^a) dX^a ; pi = dw^0 + sum_a X^a dw^a
    sigma = np.zeros(dim, dtype=complex)
    for a in range(1, n):
        sigma += np.conj(X[a - 1]) * rows_X[a - 1]
    pi = rows_w[0].copy()
    for a in range(1, n):
        pi += X[a - 1] * rows_w[a]

    # theta = dphi - THETA_SHEAR * Im(conj(w^0)dw^0 - sum_a conj(w^a)dw^a)
    #              + (2c/(1-s)) Im(sum_a conj(X^a)dX^a)
    im_w = np.conj(w[0]) * rows_w[0]
    for a in range(1, n):
        im_w -= np.conj(w[a]) * rows_w[a]
    theta = row_phi - THETA_SHEAR * im_w.imag
    if n > 1:
        theta = theta + (2.0 * c / one_minus) * sigma.imag

    g = np.zeros((dim, dim))
    g += ((rho + 2 * c) / (rho + c)) / (4 * rho**2) * np.outer(row_rho, row_rho)
    g += ((rho + c) / (rho + 2 * c)) / (4 * rho**2) * np.outer(theta, theta)

    if n > 1:
        bergman = np.zeros((dim, dim), dtype=complex)
        for r in rows_X:
            bergman += _sym_pair(r, r)
        bergman += (1.0 / one_minus) * _sym_pair(sigma, sigma)
        g += ((rho + c) / rho) * (bergman.real / one_minus)

    w_term = _sym_pair(rows_w[0], rows_w[0])
    for a in range(1, n):
        w_term = w_term - _sym_pair(rows_w[a], rows_w[a])
    g -= (2.0 / rho) * w_term.real
    g += (4.0 * (rho + c) / (rho**2 * one_minus)) * _sym_pair(pi, pi).real

    return g


def gram_termwise(q, params):
    """The Gram matrix from its formula, term by term in plain Python: the
    five rows V written out per coordinate, then each entry, i <= j, the sum
    over the rows in order of (k_r V[r][i]) V[r][j] plus the diagonal value,
    copied to (j, i).  The generated kernel must give these bits."""
    n = params.n
    dim = 4 * n
    rho, c = q[0], params.c
    s = 0.0
    for x in q[1:2 * n - 1]:
        s += x * x
    one_minus = 1.0 - s
    t = 2 * c / one_minus
    V = [[0] * dim for _ in range(5)]
    for a in range(1, n):
        x, y = q[ix_x(a)], q[ix_y(a)]
        V[0][ix_x(a)], V[0][ix_y(a)] = x, y      # Re sigma
        V[1][ix_x(a)], V[1][ix_y(a)] = -y, x     # Im sigma
        V[2][ix_u(a, n)], V[2][ix_v(a, n)] = x, -y   # Re pi
        V[3][ix_u(a, n)], V[3][ix_v(a, n)] = y, x    # Im pi
        V[4][ix_x(a)], V[4][ix_y(a)] = -y * t, x * t  # theta
    V[2][ix_u(0, n)] = V[3][ix_v(0, n)] = V[4][ix_phi(n)] = 1
    for k in range(n):
        shear = THETA_SHEAR if k == 0 else -THETA_SHEAR
        V[4][ix_u(k, n)] = shear * q[ix_v(k, n)]
        V[4][ix_v(k, n)] = -shear * q[ix_u(k, n)]
    k_sigma = (rho + c) / (rho * one_minus**2)
    k_pi = 4 * (rho + c) / (rho**2 * one_minus)
    k_theta = ((rho + c) / (rho + 2 * c)) / (4 * rho**2)
    weights = (k_sigma, k_sigma, k_pi, k_pi, k_theta)
    diagonal = [((rho + 2 * c) / (rho + c)) / (4 * rho**2)]
    diagonal += [(rho + c) / (rho * one_minus)] * (2 * n - 2)
    diagonal += [-2 / rho] * 2 + [2 / rho] * (2 * n - 2) + [0]
    g = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            total = 0
            for weight, row in zip(weights, V):
                total += (weight * row[i]) * row[j]
            if i == j:
                total += diagonal[i]
            g[i][j] = g[j][i] = total
    return g


def gram_matrix(q, params):
    """The Gram matrix at q as a numpy array, mirrored from the kernel's
    flat upper triangle."""
    return np.array(geometry._symmetric(_gram_from_chart(list(q), params), len(q)))


def on_pattern(entries, dim):
    """Boolean dim x dim mask of the triangle entries ``entries``, both
    (i, j) and (j, i)."""
    mask = np.zeros((dim, dim), dtype=bool)
    pairs = geometry._upper(dim)[1]
    for e in entries:
        i, j = pairs[e]
        mask[i, j] = mask[j, i] = True
    return mask


def first_derivatives_numpy(q, params):
    """metric_first_derivatives as dense numpy stencil loops, on the same
    Gram matrices and steps 1e-3 max(1, |q_k|), as an array D1[k, i, j]: the
    oracle for the plain-Python stencils."""
    q = np.asarray(q, dtype=float)
    dim = q.size
    h = 1e-3 * np.maximum(1.0, np.abs(q))
    D1 = np.empty((dim, dim, dim))
    qq = q.copy()
    for k in range(dim):
        qk, hk = float(q[k]), float(h[k])
        acc = np.zeros((dim, dim))
        for off, wgt in zip(geometry._D1_OFFSETS, geometry._D1_WEIGHTS):
            qq[k] = qk + off * hk
            acc += wgt * gram_matrix(qq, params)
        qq[k] = qk
        D1[k] = acc / (12.0 * h[k])
    return D1


def second_derivatives_numpy(q, params):
    """geometry._metric_second_derivatives as dense numpy stencil loops, as
    an array D2[k, l, i, j]."""
    q = np.asarray(q, dtype=float)
    dim = q.size
    h = 1e-3 * np.maximum(1.0, np.abs(q))
    D2 = np.empty((dim, dim, dim, dim))
    qq = q.copy()
    for k in range(dim):
        qk, hk = float(q[k]), float(h[k])
        acc = np.zeros((dim, dim))
        for off, wgt in zip(geometry._D2_OFFSETS, geometry._D2_WEIGHTS):
            qq[k] = qk + off * hk
            acc += wgt * gram_matrix(qq, params)
        qq[k] = qk
        D2[k, k] = acc / (12.0 * h[k] ** 2)
    for k in range(dim):
        qk, hk = float(q[k]), float(h[k])
        for l in range(k + 1, dim):
            ql, hl = float(q[l]), float(h[l])
            acc = np.zeros((dim, dim))
            for off1, wgt1 in zip(geometry._D1_OFFSETS, geometry._D1_WEIGHTS):
                qq[k] = qk + off1 * hk
                for off2, wgt2 in zip(geometry._D1_OFFSETS, geometry._D1_WEIGHTS):
                    qq[l] = ql + off2 * hl
                    acc += wgt1 * wgt2 * gram_matrix(qq, params)
            qq[k], qq[l] = qk, ql
            D2[k, l] = D2[l, k] = acc / (144.0 * h[k] * h[l])
    return D2


def ricci_numpy(q, params, D1, D2):
    """The Ricci tensor by numpy's einsum contractions of the full
    Christoffel symbols and their derivatives, from metric derivatives given
    as arrays D1[k, i, j] and D2[k, l, i, j]: the oracle for ricci_fd's
    assembly."""
    ginv = np.linalg.inv(gram_matrix(q, params))

    # S[j,l,k] = d_j g_{lk} + d_k g_{lj} - d_l g_{jk}
    S = D1 + np.transpose(D1, (2, 1, 0)) - np.transpose(D1, (1, 0, 2))
    Gamma = 0.5 * np.einsum("il,jlk->ijk", ginv, S)

    dginv = -np.einsum("ia,mab,bj->mij", ginv, D1, ginv)
    dS = D2 + np.transpose(D2, (0, 3, 2, 1)) - np.transpose(D2, (0, 2, 1, 3))
    dGamma = 0.5 * (np.einsum("mil,jlk->mijk", dginv, S)
                    + np.einsum("il,mjlk->mijk", ginv, dS))

    term1 = np.einsum("kkij->ij", dGamma)
    term2 = np.einsum("ikkj->ij", dGamma)
    contracted = np.einsum("kkl->l", Gamma)
    term3 = np.einsum("l,lij->ij", contracted, Gamma)
    term4 = np.einsum("kil,lkj->ij", Gamma, Gamma)
    ric = term1 - term2 + term3 - term4
    return 0.5 * (ric + ric.T)


def hermitian_realification(H):
    """Independent realification oracle: sum_ab H_ab dX^a (.) dXbar^b with H
    hermitian becomes 2x2 blocks [[Re H, Im H], [-Im H, Re H]] (expand
    H*dX^a (.) dXbar^b + conj by hand: the (x_a, y_b) entry carries +Im H)."""
    m = H.shape[0]
    G = np.zeros((2 * m, 2 * m))
    for a in range(m):
        for b in range(m):
            G[2 * a, 2 * b] = H[a, b].real
            G[2 * a, 2 * b + 1] = H[a, b].imag
            G[2 * a + 1, 2 * b] = -H[a, b].imag
            G[2 * a + 1, 2 * b + 1] = H[a, b].real
    return G


def base_point(n, rho=1.0, phi=0.0):
    """The chart point X = 0, w = 0."""
    return [rho] + [0.0] * (4 * n - 2) + [phi]


def chart_point(X, w, phi_tilde=0.0, rho=1.0):
    """The chart vector of the point (X, w, phi_tilde, rho), X and w complex."""
    return [rho, *(part for z in map(complex, [*X, *w]) for part in (z.real, z.imag)), phi_tilde]


def expected_gram_p0(n, c, rho):
    """Block formula for the Gram matrix at X=0, w=0."""
    dim = 4 * n
    g = np.zeros((dim, dim))
    g[0, 0] = (rho + 2 * c) / (rho + c) / (4 * rho**2)
    for i in range(1, 2 * n - 1):
        g[i, i] = (rho + c) / rho
    g[ix_u(0, n), ix_u(0, n)] = g[ix_v(0, n), ix_v(0, n)] = \
        2 / rho * (rho + 2 * c) / rho
    for k in range(1, n):
        g[ix_u(k, n), ix_u(k, n)] = g[ix_v(k, n), ix_v(k, n)] = 2 / rho
    g[dim - 1, dim - 1] = (rho + c) / (rho + 2 * c) / (4 * rho**2)
    return g


def bergman_block(X):
    """The base block of metric_gram at c = 0 and w = 0: there the deformed
    metric restricts to the Bergman ball metric."""
    n = len(X) + 1
    g = np.array(metric_gram(chart_point(X, (0,) * n), ModelParams(n, 0.0)))
    return g[1:2 * n - 1, 1:2 * n - 1]


def fiber_block(w, phi_tilde, rho0, params):
    """The block of metric_gram at X = 0 over (u^0, v^0, ..., phi)."""
    n = params.n
    q = chart_point((0,) * (n - 1), w, phi_tilde, rho0)
    return np.array(metric_gram(q, params))[ix_u(0, n):, ix_u(0, n):]


class TestBergman:
    def test_origin_is_identity(self):
        assert np.allclose(bergman_block([0]), np.eye(2))

    def test_half_radius_value(self):
        g = bergman_block([0.5])
        assert np.allclose(g, (16 / 9) * np.eye(2), rtol=0, atol=1e-14)

    def test_termwise_oracle_n3(self):
        X = np.array([0.3, 0.4j])
        s = float(np.sum(np.abs(X) ** 2))
        H = np.eye(2, dtype=complex) / (1 - s) + \
            np.outer(np.conj(X), X) / (1 - s) ** 2
        expected = hermitian_realification(H)
        g = bergman_block(X)
        assert np.allclose(g, expected, rtol=0, atol=1e-14)
        assert np.allclose(g, g.T)
        assert np.all(np.linalg.eigvalsh(g) > 0)

    def test_rejects_outside_ball(self):
        with pytest.raises(ValueError):
            bergman_block([1.0])
        with pytest.raises(ValueError):
            bergman_block([0.8, 0.7])

    def test_n1_block_is_empty(self):
        assert bergman_block([]).shape == (0, 0)


class TestMetricGram:
    def test_n1_base_point(self):
        g = metric_gram(base_point(1), ModelParams(1, 0.0))
        assert np.allclose(g, np.diag([0.25, 2.0, 2.0, 0.25]), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("c", [0.0, 1.0, 3.0])
    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
    def test_base_point_blocks(self, n, c, rho):
        g = metric_gram(base_point(n, rho=rho), ModelParams(n, c))
        assert np.allclose(g, expected_gram_p0(n, c, rho), rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("n,c", [(1, 0.0), (2, 1.0), (3, 0.5)])
    def test_symmetric_positive_definite(self, n, c):
        params = ModelParams(n, c)
        for p in seeded_points(params, 8, seed=7):
            g = np.array(metric_gram(p, params))
            assert np.array_equal(g, g.T)
            np.linalg.cholesky(g)  # raises if not PD

    @pytest.mark.parametrize("n, c, seed", [(2, 1e103, 42), (2, 1e16, 0), (2, 1e20, 1),
                                            (3, 1e50, 2)])
    def test_positive_definiteness_test_agrees_with_numpy(self, n, c, seed):
        # At large c the Cholesky test decides on rounding; at these seeded
        # points the plain factorization and numpy's (LAPACK's) agree.
        params = ModelParams(n, c)
        p = seeded_points(params, 1, seed=seed)[0]
        try:
            np.linalg.cholesky(gram_matrix(p, params))
        except np.linalg.LinAlgError:
            with pytest.raises(ArithmeticError, match="positive-definiteness"):
                metric_gram(p, params)
        else:
            metric_gram(p, params)

    @pytest.mark.parametrize("function", [metric_gram, ricci_fd, einstein_diagnostic])
    def test_ill_conditioning_names_rho(self, function):
        # c = 0 is the undeformed metric: the entries of order 1/rho^2 have
        # left the normal floats, so the message names rho with c and n.
        p = chart_point((), (0.5 + 0.5j,), 0.3, 1e154)
        with pytest.raises(ArithmeticError) as error:
            function(p, ModelParams(1, 0.0))
        assert str(error.value) == (
            "Gram matrix at c = 0.0, n = 1, rho = 1e+154 is finite but fails the "
            "floating-point positive-definiteness test: it is too ill-conditioned "
            "at this c and rho")

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cholesky_factor_and_inverse(self, n):
        params = ModelParams(n, 0.5)
        for p in seeded_points(params, 3, seed=4):
            g = metric_gram(p, params)
            L = np.zeros((4 * n, 4 * n))
            for i, row in enumerate(geometry._cholesky(g, params, p[0])):
                L[i, :i + 1] = row
            ginv = geometry._spd_inverse(g, params, p[0])
            assert np.max(np.abs(L @ L.T - np.array(g))) <= 1e-14 * np.max(np.abs(g))
            assert ginv == [list(column) for column in zip(*ginv)]
            assert np.allclose(np.array(ginv) @ np.array(g), np.eye(4 * n), rtol=0, atol=1e-12)

    def test_rejects_bad_points(self):
        for function in (metric_gram, gram_det):
            with pytest.raises(ValueError, match="outside the open unit ball"):
                function(chart_point((0.9, 0.9), (0, 0, 0)), ModelParams(3, 0.0))
            with pytest.raises(ValueError, match="outside the open unit ball"):
                function(chart_point((1.0, 0.0), (0, 0, 0)), ModelParams(3, 0.0))  # |X| = 1
            for rho in (-1.0, 0.0):
                with pytest.raises(ValueError, match="rho must be positive"):
                    function(base_point(1, rho=rho), ModelParams(1, 0.0))
            with pytest.raises(ValueError, match="does not match n="):
                function(base_point(2), ModelParams(3, 0.0))

    @pytest.mark.parametrize("coords", [
        [math.nan, 0.0, 0.0, 0.0],                          # rho
        [math.inf, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, math.nan],                          # phi_tilde
        [1.0, math.nan, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],      # x^1
        [1.0, 0.1, math.nan, 0.0, 0.0, 0.0, 0.0, 0.0],      # y^1
        [1.0, math.nan, 0.0, 0.0],                          # u^0
        [1.0, 0.1, 0.0, 0.0, 0.0, 0.0, math.inf, 0.0],      # v^1
    ])
    def test_rejects_non_finite_coordinates(self, coords):
        # Checked once per point, before the Gram matrix: the angle, which
        # no Gram entry reads, included.
        params = ModelParams(len(coords) // 4, 0.0)
        for function in (metric_gram, einstein_diagnostic, gram_det):
            with pytest.raises(ValueError, match="^point coordinates must be finite$"):
                function(coords, params)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_seeded_points_follow_the_chart_layout(self, n):
        # Each point is the list [rho, x^1, y^1, ..., u^0, v^0, ..., phi_tilde]
        # of floats: the draws of the seeded_points docstring, replayed, land
        # at the indices ix_* give.
        rng = random.Random(3)
        for q in seeded_points(ModelParams(n, 1.0), 4, seed=3):
            assert type(q) is list and len(q) == 4 * n
            assert all(type(x) is float for x in q)
            pairs = [geometry._polar_normals(rng) for _ in range(n - 1)]
            if pairs:
                norm = math.sqrt(sum(x * x + y * y for x, y in pairs))
                scale = 0.9 * math.sqrt(rng.random()) / norm
                for a, (x, y) in enumerate(pairs, 1):
                    assert (q[ix_x(a)], q[ix_y(a)]) == (scale * x, scale * y)
            for k in range(n):
                r, t = 2.0 * math.sqrt(rng.random()), 2.0 * math.pi * rng.random()
                assert (q[ix_u(k, n)], q[ix_v(k, n)]) == (r * math.cos(t), r * math.sin(t))
            assert q[ix_phi(n)] == -2.0 + 4.0 * rng.random()
            assert q[ix_rho()] == 0.5 + 3.5 * rng.random()


class TestGramAssembly:
    """The closed-form Gram assembly against the outer-product oracle."""

    @staticmethod
    def gram_points(params):
        """Six seeded points, one with |X| = 0.95 (n > 1) and one at rho = 0.05."""
        n = params.n
        points = seeded_points(params, 6, seed=13)
        p = points[0]
        if n > 1:  # near the boundary of the ball: |X| = 0.95
            raw = np.random.default_rng(n).normal(size=(2, n - 1))
            xy = (raw.T * (0.95 / np.linalg.norm(raw))).ravel().tolist()
            points.append([p[0], *xy, *p[2 * n - 1:]])
        points.append([0.05, *p[1:]])
        return points

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("c", [0.0, 0.5, 3.0])
    def test_matches_outer_product_oracle(self, n, c):
        params = ModelParams(n, c)
        for q in self.gram_points(params):
            ref = gram_oracle(q, params)
            g = gram_matrix(q, params)
            assert np.max(np.abs(g - ref)) <= 1e-13 * np.max(np.abs(ref))
            assert np.array_equal(g, g.T)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("c", [0.0, 0.5, 3.0])
    def test_cached_layout_is_bit_identical_to_row_assembly(self, n, c):
        # The generated kernel forms each upper entry as the term-by-term
        # sum of the formula: equal bits, and exact symmetry once mirrored.
        params = ModelParams(n, c)
        for q in self.gram_points(params):
            h = [1e-3 * max(1.0, abs(x)) for x in q]
            for k in range(4 * n):
                for off in (2, 1, 0, -1, -2):
                    qq = list(q)
                    qq[k] += off * h[k]
                    g = geometry._symmetric(_gram_from_chart(qq, params), 4 * n)
                    assert g == gram_termwise(qq, params)
                    assert g == [list(column) for column in zip(*g)]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_kernel_runs_over_fractions(self, n):
        # The kernel holds no float literal, so rational input stays exact;
        # its values round to the float kernel's.
        params = ModelParams(n, 0.5)
        p = seeded_points(params, 1, seed=n)[0]
        q = [Fraction(x) for x in p]
        s = sum(x * x for x in q[1:2 * n - 1])
        exact = geometry._gram_kernel(n)(q, Fraction(1, 2), 1 - s)
        assert all(isinstance(x, (Fraction, int)) for x in exact)
        g = np.array(_gram_from_chart(p, params))
        assert np.max(np.abs(np.array(exact, dtype=float) - g)) <= 1e-14 * np.max(np.abs(g))

    def test_rejects_points_off_the_chart(self):
        params = ModelParams(2, 1.0)
        q = base_point(2)
        with pytest.raises(ValueError, match="does not match"):
            _gram_from_chart(q[:-1], params)
        for rho in (0.0, -1.0, float("nan")):
            q[0] = rho
            with pytest.raises(ValueError, match="rho must be positive"):
                _gram_from_chart(q, params)
        for x in (1.0, float("nan")):
            q[0], q[ix_x(1)] = 1.0, x
            with pytest.raises(ValueError, match="unit ball"):
                _gram_from_chart(q, params)


class TestStencilCounts:
    """One Gram evaluation per stencil point: 4 per coordinate for the first
    derivatives, 5 per coordinate and 16 per coordinate pair for the second."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_gram_evaluations_per_call(self, n, monkeypatch):
        params = ModelParams(n, 0.5)
        p = seeded_points(params, 1, seed=2)[0]
        calls = []
        original = geometry._gram_from_chart

        def counting(q, params):
            calls.append(q)
            return original(q, params)

        monkeypatch.setattr(geometry, "_gram_from_chart", counting)
        d = 4 * n
        metric_first_derivatives(p, params)
        assert len(calls) == 4 * d
        calls.clear()
        ricci_fd(p, params)
        assert len(calls) == 1 + 9 * d + 8 * d * (d - 1)


class TestPattern:
    """The structural zeros of the derivatives: an entry outside the pattern
    of a coordinate is computed from the same numbers at every stencil point
    along it, so the kernel gives it the same bits there, and the stencil
    sum of equal values is 0 in exact arithmetic."""

    @staticmethod
    def stencil_grams(q, params, shifts):
        """The Gram triangles at q moved by each {index: offset} of shifts,
        in steps of 1e-3 max(1, |q_k|)."""
        h = [1e-3 * max(1.0, abs(x)) for x in q]
        out = []
        for shift in shifts:
            qq = list(q)
            for k, off in shift.items():
                qq[k] = q[k] + off * h[k]
            out.append(_gram_from_chart(qq, params))
        return out

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("c", [0.0, 1.0, 3.0])
    def test_entries_off_the_pattern_keep_their_bits(self, n, c):
        params = ModelParams(n, c)
        first, second = geometry._pattern(n)
        dim = 4 * n
        for q in seeded_points(params, 2, seed=29 + n):
            for k in range(dim):
                grams = self.stencil_grams(q, params, [{k: off} for off in geometry._D1_OFFSETS])
                for e in set(range(len(grams[0]))) - set(first[k]):
                    assert len({g[e] for g in grams}) == 1, (k, e)
                for l in range(k + 1, dim):
                    # Off the pair's pattern an entry depends on at most one of
                    # q_k and q_l: the 4 x 4 grid of the mixed stencil holds
                    # it constant along the other.
                    grams = self.stencil_grams(q, params, [
                        {k: o1, l: o2} for o1 in geometry._D1_OFFSETS for o2 in geometry._D1_OFFSETS])
                    for e in set(range(len(grams[0]))) - set(second[k][l]):
                        grid = [[g[e] for g in grams[row:row + 4]] for row in range(0, 16, 4)]
                        along_l = all(len(set(row)) == 1 for row in grid)
                        along_k = all(len(set(column)) == 1 for column in zip(*grid))
                        assert along_k or along_l, (k, l, e)
                        if e not in first[k] and e not in first[l]:
                            assert along_k and along_l, (k, l, e)

    def test_pattern_shape(self):
        # Only 39 % of the first and 21 % of the second derivatives at n = 3
        # can be non-zero; d_phi g and 11 of the 66 mixed pairs vanish.
        first, second = geometry._pattern(3)
        assert [len(entries) for entries in first] == [67] + [58] * 4 + [11] * 6 + [0]
        assert all(second[k][k] == first[k] for k in range(12))
        assert sum(not second[k][l] for k in range(12) for l in range(k + 1, 12)) == 11
        for k in range(12):
            for l in range(12):
                assert second[k][l] == second[l][k]
                assert set(second[k][l]) <= set(first[k]) & set(first[l])

    def test_ricci_keeps_every_gram_evaluation_at_n3(self, monkeypatch):
        # 1 + 9d + 8d(d - 1) = 1165 at d = 12: the all-zero pairs are still
        # evaluated, one Gram per stencil point.
        params = ModelParams(3, 1.0)
        p = seeded_points(params, 1, seed=2)[0]
        calls = [0]
        original = geometry._gram_from_chart

        def counting(q, params):
            calls[0] += 1
            return original(q, params)

        monkeypatch.setattr(geometry, "_gram_from_chart", counting)
        ricci_fd(p, params)
        assert calls[0] == 1165


def rounding_bound(weights, gram, divisor):
    """Largest rounding a dense stencil sum (sum_t weights[t] * G) / divisor
    can leave on entries where every G_t equals ``gram``: each of the
    len(weights) additions rounds by at most eps times sum_t |weights[t]| |G|."""
    return (len(weights) * np.finfo(float).eps * sum(map(abs, weights))
            * np.abs(gram) / divisor)


class TestStencilBits:
    """On the pattern, the plain-Python stencils give the bits of dense
    numpy stencil loops on the same Gram matrices; off it they are exact
    0.0, where the dense loops hold only the rounding of terms that cancel.
    The stencils leave the point where it was."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_first_derivatives(self, n):
        params = ModelParams(n, 0.5)
        dim = 4 * n
        first = geometry._pattern(n)[0]
        for q in seeded_points(params, 2, seed=19):
            before = list(q)
            D1 = metric_first_derivatives(q, params)
            oracle = first_derivatives_numpy(q, params)
            g = gram_matrix(q, params)
            assert q == before  # the point is not moved
            for k in range(dim):
                mask = on_pattern(first[k], dim)
                Dk = np.array(geometry._symmetric(D1[k], dim))
                assert np.array_equal(Dk[mask], oracle[k][mask])
                assert np.all(Dk[~mask] == 0.0)
                bound = rounding_bound(geometry._D1_WEIGHTS, g, 12.0 * 1e-3 * max(1.0, abs(q[k])))
                assert np.all(np.abs(oracle[k][~mask]) <= bound[~mask])

    @pytest.mark.parametrize("n", [1, 2])
    def test_second_derivatives(self, n):
        params = ModelParams(n, 1.0)
        dim = 4 * n
        second = geometry._pattern(n)[1]
        q = seeded_points(params, 1, seed=23)[0]
        D2 = geometry._metric_second_derivatives(q, params)
        oracle = second_derivatives_numpy(q, params)
        g = gram_matrix(q, params)
        h = [1e-3 * max(1.0, abs(x)) for x in q]
        for k in range(dim):
            for l in range(dim):
                mask = on_pattern(second[k][l], dim)
                Dkl = np.array(geometry._symmetric(D2[k][l], dim))
                assert np.array_equal(Dkl[mask], oracle[k, l][mask])
                assert np.all(Dkl[~mask] == 0.0)
                if k == l:
                    bound = rounding_bound(geometry._D2_WEIGHTS, g, 12.0 * h[k] ** 2)
                else:
                    bound = rounding_bound(geometry._MIXED_WEIGHTS, g, 144.0 * h[k] * h[l])
                assert np.all(np.abs(oracle[k, l][~mask]) <= bound[~mask])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_ricci(self, n):
        # The einsum oracle gets the pattern-zeroed derivatives: on dense
        # ones the rounding of the cancelling second-derivative sums, about
        # 1e-11 |g| at h = 1e-3, would exceed the tolerance.
        params = ModelParams(n, 1.0)
        dim = 4 * n
        first, second = geometry._pattern(n)
        q = seeded_points(params, 1, seed=23)[0]
        D1 = first_derivatives_numpy(q, params)
        D2 = second_derivatives_numpy(q, params)
        for k in range(dim):
            D1[k][~on_pattern(first[k], dim)] = 0.0
            for l in range(dim):
                D2[k, l][~on_pattern(second[k][l], dim)] = 0.0
        ric = np.array(ricci_fd(q, params)[0])
        reference = ricci_numpy(q, params, D1, D2)
        assert np.array_equal(ric, ric.T)
        assert np.max(np.abs(ric - reference)) <= RICCI_TOLERANCE * np.max(np.abs(reference))


def dyadic_points(params, count, seed, bits=6):
    """Seeded chart points rounded to multiples of 2^-bits, as Fractions:
    each is also an exact float point, and still on the chart."""
    scale = 1 << bits
    return [[Fraction(round(x * scale), scale) for x in p]
            for p in seeded_points(params, count, seed=seed)]


def squared_X(q, n):
    """s = |X|^2 of a chart vector, exactly."""
    return sum(Fraction(x) ** 2 for x in q[1:2 * n - 1])


def exact_gram(q, c):
    """The Gram matrix at a rational point, as rows of Fractions, from the
    kernel ``_gram_kernel(n)`` run over Fraction."""
    dim = len(q)
    n = dim // 4
    return geometry._symmetric(geometry._gram_kernel(n)(q, Fraction(c), 1 - squared_X(q, n)), dim)


def exact_det(rows):
    """det of a square matrix of Fractions by Gaussian elimination."""
    a = [list(map(Fraction, row)) for row in rows]
    det = Fraction(1)
    for j in range(len(a)):
        pivot = next((i for i in range(j, len(a)) if a[i][j]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != j:
            a[j], a[pivot] = a[pivot], a[j]
            det = -det
        det *= a[j][j]
        for i in range(j + 1, len(a)):
            ratio = a[i][j] / a[j][j]
            if ratio:
                a[i] = [x - ratio * y for x, y in zip(a[i], a[j])]
    return det


def exact_density(rho, n, c):
    """rho^-(n+2) P(c/rho) exactly, P from ``poly_P``."""
    rho, c = Fraction(rho), Fraction(c)
    return rho ** -(n + 2) * sum(p * (c / rho) ** k for k, p in enumerate(poly_P(n)))


def closed_det(rho, s, n, c):
    """(2^(n-2) rho^-(n+2) P(c/rho) (1-s)^-n)^2 exactly, s = |X|^2."""
    return (Fraction(2) ** (n - 2) * exact_density(rho, n, c) * (1 - Fraction(s)) ** -n) ** 2


class TestDeterminant:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("c", [0.0, 1.0, 3.0])
    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
    def test_closed_form_matches_numeric(self, n, c, rho):
        # numpy's determinant is the independent reference, at the base
        # point and at seeded points of every X and w.
        params = ModelParams(n, c)
        points = [base_point(n, rho=rho)] + [[rho, *p[1:]] for p in seeded_points(params, 3)]
        for q in points:
            closed = gram_det(q, params)
            assert abs(np.linalg.det(metric_gram(q, params)) - closed) <= 1e-10 * closed

    def test_pinned_values(self):
        assert gram_det(base_point(1), ModelParams(1, 0.0)) == 0.25
        assert gram_det(base_point(2, rho=2.0), ModelParams(2, 1.0)) == pytest.approx(9 / 256)
        for n in (1, 2, 3, 4):
            assert gram_det(base_point(n), ModelParams(n, 0.0)) == 2.0 ** (2 * n - 4)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("c", [Fraction(0), Fraction(1, 2), Fraction(3)])
    def test_closed_form_is_exact(self, n, c):
        # Gaussian elimination of the kernel's own output over Fraction, at
        # dyadic points: det g is the closed form exactly, for every X, w and
        # phi_tilde, and gram_det on the same float point rounds it.
        params = ModelParams(n, float(c))
        for q in dyadic_points(params, 3, seed=10 + n):
            exact = exact_det(exact_gram(q, c))
            assert exact == closed_det(q[0], squared_X(q, n), n, c)
            value = gram_det([float(x) for x in q], params)
            assert abs(Fraction(value) - exact) <= Fraction(1, 10 ** 14) * exact

    @pytest.mark.parametrize("n, rho, c, pattern", [
        (1, 1e-300, 1.0, r"^density at rho = 1e-300 leaves the float range at n = 1$"),
        (40, 1e-3, 1.0, r"^det g at rho = 0.001 leaves the float range at n = 40$"),
        (2, 1e50, 0.0, r"^det g at rho = 1e\+50 leaves the float range at n = 2$"),
    ])
    def test_out_of_range_names_rho_and_n(self, n, rho, c, pattern):
        # rho^-(4n+4) leaves the floats: det g overflows in the first two, in
        # the first with density(rho), and underflows in the last, where
        # density(rho) = 1e-200 is normal.
        with pytest.raises(FloatRangeError, match=pattern):
            gram_det(base_point(n, rho=rho), ModelParams(n, c))

    def test_ball_edge_overflow_names_rho_and_n(self):
        # The largest float below 1 as |X|^2, at n = 10: (1-s)^-2n = 2^1060.
        X = (0.5 + 0.5j, 0.5 + (0.5 - 2.0 ** -53) * 1j) + (0,) * 7
        q = chart_point(X, (0,) * 10)
        assert geometry._one_minus_s(q, ModelParams(10, 1.0)) == 2.0 ** -53
        with pytest.raises(FloatRangeError, match=r"^det g at rho = 1.0 .* n = 10$"):
            gram_det(q, ModelParams(10, 1.0))

    @pytest.mark.parametrize("n", [2, 3])
    def test_near_the_ball_edge_is_normal(self, n):
        # |X|^2 = 1 - 2^-40 as the float sum the chart check forms, which
        # the Gram kernel reads too: a large, normal det g.
        q = chart_point((1 - 2.0 ** -41,) + (0,) * (n - 2), (0,) * n)
        assert geometry._one_minus_s(q, ModelParams(n, 1.0)) == 2.0 ** -40
        value = gram_det(q, ModelParams(n, 1.0))
        exact = closed_det(1, 1 - Fraction(2) ** -40, n, 1)
        assert abs(Fraction(value) - exact) <= Fraction(1, 10 ** 14) * exact
        if n == 2:
            assert value == math.ldexp(36, 160)

    def test_a_normal_float_or_a_range_error(self):
        # Across rho, n, c and s: a normal float within 1e-14 of the exact
        # closed form, or FloatRangeError where det g, or density(rho), is
        # not a normal float (by a factor 2 of margin); never 0.0, a
        # subnormal or inf.
        tiny, huge = Fraction(2.0 ** -1022), Fraction(sys.float_info.max)
        for rho, n, c, x in itertools.product(
                [10.0 ** k for k in range(-300, 301, 50)] + [2.5e-8, 3.0e7],
                (1, 2, 3, 10, 40), (0.0, 1.0, 1e10), (0.0, 0.75, 1 - 2.0 ** -20)):
            q = [rho, x] + [0.0] * (4 * n - 2) if n > 1 else [rho, 0.0, 0.0, 0.0]
            exact = closed_det(rho, squared_X(q, n), n, c)
            try:
                value = gram_det(q, ModelParams(n, c))
            except FloatRangeError:
                in_range = 2 * tiny <= exact <= huge / 2
                assert not in_range or not tiny <= exact_density(rho, n, c) <= huge, (rho, n, c, x)
                continue
            assert 2.0 ** -1022 <= value < math.inf
            assert abs(Fraction(value) - exact) <= Fraction(1, 10 ** 14) * exact, (rho, n, c, x)


class TestFiberDensity:
    """sqrt(det g) / density(rho), the invariant fiber density, from
    ``gram_det`` and from numpy's determinant."""

    @staticmethod
    def fiber(q, params):
        return math.sqrt(gram_det(q, params)) / density(q[0], params)

    @staticmethod
    def numpy_fiber(q, params):
        return math.sqrt(np.linalg.det(metric_gram(q, params))) / density(q[0], params)

    @pytest.mark.parametrize("n,c", [(1, 0.0), (2, 1.0), (3, 2.0)])
    def test_base_point_normalization(self, n, c):
        params = ModelParams(n, c)
        for rho in (0.5, 1.0, 2.0):
            q = base_point(n, rho=rho)
            assert self.fiber(q, params) == pytest.approx(2.0 ** (n - 2), rel=1e-14)
            assert self.numpy_fiber(q, params) == pytest.approx(2.0 ** (n - 2), rel=1e-10)

    def test_rho_independence(self):
        params = ModelParams(2, 1.0)
        for p in seeded_points(params, 6, seed=11):
            for fiber, tolerance in ((self.fiber, 1e-14), (self.numpy_fiber, 1e-8)):
                vals = [fiber([rho, *p[1:]], params) for rho in (0.5, 1.0, 2.0)]
                assert max(vals) - min(vals) <= tolerance * max(vals)

    def test_n1_constant_everywhere(self):
        params = ModelParams(1, 1.5)
        for fiber in (self.fiber, self.numpy_fiber):
            vals = [fiber(p, params) for p in seeded_points(params, 10, seed=3)]
            assert max(vals) - min(vals) <= 1e-10 * max(vals)
            assert vals[0] == pytest.approx(0.5, rel=1e-10)

    def test_factor_value(self):
        # sqrt(det g) at X = 0, w = 0 is density(rho) 2^(n-2), here 2^-4 * 1.5 * 2.
        root = math.sqrt(gram_det(base_point(2, rho=2.0), ModelParams(2, 1.0)))
        assert root == pytest.approx(2.0 ** (-4) * 1.5 * 2.0, rel=1e-15)


class TestScaling:
    """ROADMAP Direction 32: Phi_lam(rho, X, w, phi_tilde) = (lam rho, X,
    sqrt(lam) w, lam phi_tilde) pulls g_{lam c} back to g_c, exactly."""

    @staticmethod
    def pulled_back(q, n, c, lam, w_scale):
        """J^T g_{lam c}(Phi q) J as a flat upper triangle, with J = diag(lam,
        1..1, w_scale..w_scale, lam) and Phi q = J q."""
        J = [lam] + [1] * (2 * n - 2) + [w_scale] * (2 * n) + [lam]
        image = [j * x for j, x in zip(J, q)]
        g = geometry._gram_kernel(n)(image, lam * c, 1 - squared_X(q, n))
        return [J[i] * J[j] * x for (i, j), x in zip(geometry._upper(4 * n)[1], g)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("lam, root", [(Fraction(4), Fraction(2)),
                                           (Fraction(1, 9), Fraction(1, 3)),
                                           (Fraction(25, 4), Fraction(5, 2))])
    def test_is_an_isometry_exactly(self, n, lam, root):
        for c in (Fraction(0), Fraction(1, 2), Fraction(3)):
            for q in dyadic_points(ModelParams(n, float(c)), 3, seed=20 + n):
                gram = geometry._gram_kernel(n)(q, c, 1 - squared_X(q, n))
                assert self.pulled_back(q, n, c, lam, root) == gram

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_scaling_w_by_lam_is_not(self, n):
        lam, c = Fraction(4), Fraction(1, 2)
        q = dyadic_points(ModelParams(n, float(c)), 1, seed=20 + n)[0]
        gram = geometry._gram_kernel(n)(q, c, 1 - squared_X(q, n))
        assert self.pulled_back(q, n, c, lam, lam) != gram


class TestFiberMetric:
    @pytest.mark.parametrize("n,c,rho0", [(1, 0.0, 1.0), (2, 1.0, 2.0), (3, 0.5, 0.75)])
    def test_w0_diagonal_values(self, n, c, rho0):
        h = fiber_block((0,) * n, 0.0, rho0, ModelParams(n, c))
        assert h.shape == (2 * n + 1, 2 * n + 1)
        assert np.allclose(h, np.diag(np.diag(h)))
        # 0-block carries the deformation factor, a-blocks do not
        assert h[0, 0] == pytest.approx(2 / rho0 * (rho0 + 2 * c) / rho0)
        assert h[1, 1] == pytest.approx(h[0, 0])
        for k in range(1, n):
            assert h[2 * k, 2 * k] == pytest.approx(2 / rho0)
        assert h[0, 0] / (2 / rho0) == pytest.approx((rho0 + 2 * c) / rho0)
        assert h[-1, -1] == pytest.approx(
            (rho0 + c) / (rho0 + 2 * c) / (4 * rho0**2))

    def test_c0_blocks_match(self):
        h = fiber_block((0, 0), 0.0, 1.0, ModelParams(2, 0.0))
        assert h[0, 0] == pytest.approx(h[2, 2])


class TestRicci:
    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_einstein_n1(self, c):
        params = ModelParams(1, c)
        lams = []
        for p in seeded_points(params, 2, seed=5):
            g = np.array(metric_gram(p, params))
            ric = np.array(ricci_fd(p, params)[0])
            lam, residual = einstein_diagnostic(p, params)
            assert residual <= 1e-4
            assert lam < 0
            assert abs(lam + 6.0) <= 1e-6 * 6.0
            assert np.max(np.abs(ric - lam * g)) <= 1e-4 * np.max(np.abs(g))
            lams.append(lam)
        assert abs(lams[0] - lams[1]) <= 1e-4 * abs(lams[0])

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_gram_inverse_per_point(self, n, monkeypatch):
        # ricci_fd returns the inverse of metric_gram's matrix, bit for bit,
        # and einstein_diagnostic reads it instead of inverting again.
        params = ModelParams(n, 0.5)
        p = seeded_points(params, 1, seed=4)[0]
        ginv = ricci_fd(p, params)[1]
        assert ginv == geometry._spd_inverse(metric_gram(p, params), params, p[0])
        calls = []
        original = geometry._spd_inverse

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(geometry, "_spd_inverse", counting)
        einstein_diagnostic(p, params)
        assert len(calls) == 1

    @pytest.mark.parametrize("c", [0.0, 1.0])
    @pytest.mark.parametrize("n, count", [(2, 2), (3, 1)])
    def test_einstein_constant_higher_n(self, n, count, c):
        # lambda = -2(n+2); one ricci_fd per point keeps n = 3 affordable.
        params = ModelParams(n, c)
        expected = -2.0 * (n + 2)
        for p in seeded_points(params, count, seed=5):
            lam, residual = einstein_diagnostic(p, params)
            assert residual <= 1e-4
            assert abs(lam - expected) <= 1e-6 * abs(expected)

    def test_stencil_range_error(self):
        p = base_point(1, rho=1e-5)
        with pytest.raises(ValueError, match="stencil"):
            ricci_fd(p, ModelParams(1, 0.0))

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinate_error(self, x):
        # One error naming the coordinate, before any Gram evaluation, in
        # place of NaN derivatives mixed with finite ones.
        q = [1.0, x, 0.5, 0.1]
        message = rf"^finite-difference stencil needs finite chart coordinates, got q\[1\] = {x!r}$"
        for derivatives in (metric_first_derivatives, geometry._metric_second_derivatives):
            with pytest.raises(ValueError, match=message):
                derivatives(q, ModelParams(1, 1.0))


class TestSampling:
    def test_bounds_and_determinism(self):
        params = ModelParams(3, 1.0)
        pts1 = seeded_points(params, 12, seed=42)
        pts2 = seeded_points(params, 12, seed=42)
        assert pts1 == pts2
        n = params.n
        for q in pts1:
            assert math.sqrt(sum(x * x for x in q[ix_x(1):ix_y(n - 1) + 1])) <= 0.9 + 1e-12
            assert all(math.hypot(q[ix_u(k, n)], q[ix_v(k, n)]) <= 2.0 + 1e-12 for k in range(n))
            assert abs(q[ix_phi(n)]) <= 2.0
            assert 0.5 <= q[ix_rho()] <= 4.0
        assert seeded_points(params, 3, seed=1) != seeded_points(params, 3, seed=2)

    # sha256 of repr(seeded_points(ModelParams(n, 1.0), 5, seed)), a list of
    # chart lists: the stream of random.Random, the polar method and the draw
    # order of the docstring.
    # The values pass through math.log, math.cos and math.sin, so a libm that
    # rounds differently may move their last digits.
    STREAM_SHA256 = {
        (1, 42): "c76ce49dc47432707a33290c70cf408e58b0b73a52294c8390e8d588770b8520",
        (2, 7): "6c87f738848f29e019e81ef6953ab17631fc87a0179e2535a07eb27c332b7f37",
        (3, 2**64 - 1): "1e8a7b066898304441fee694b9552ca848a43547feeeecaacbbe81f6286f35df",
    }

    @pytest.mark.parametrize("n, seed", list(STREAM_SHA256))
    def test_pinned_stream(self, n, seed):
        points = seeded_points(ModelParams(n, 1.0), 5, seed=seed)
        digest = hashlib.sha256(repr(points).encode("utf-8")).hexdigest()
        assert digest == self.STREAM_SHA256[(n, seed)]

    @staticmethod
    def ks_uniform(values):
        """Kolmogorov-Smirnov distance of a sample from U(0, 1)."""
        u = np.sort(values)
        i = np.arange(1, u.size + 1)
        return max(np.max(i / u.size - u), np.max(u - (i - 1) / u.size))

    def test_law(self):
        # X = 0.9 sqrt(U) times a uniform direction, |w| = 2 sqrt(U) with a
        # uniform angle: the squared radii and the angle are uniform on [0, 1).
        n = 3
        points = np.array(seeded_points(ModelParams(n, 1.0), 4000, seed=5))
        X = points[:, ix_x(1):ix_y(n - 1) + 1]
        u = points[:, [ix_u(k, n) for k in range(n)]]
        v = points[:, [ix_v(k, n) for k in range(n)]]
        phi = points[:, ix_phi(n)]
        rho = points[:, ix_rho()]
        samples = {
            "X radius": (np.linalg.norm(X, axis=1) / 0.9) ** 2,
            "w radius": (np.hypot(u, v).ravel() / 2.0) ** 2,
            "w angle": np.arctan2(v, u).ravel() / (2 * np.pi) % 1.0,
        }
        for name, values in samples.items():
            assert self.ks_uniform(values) < 0.03, name
        # |mean X^a|, the x^a and y^a means taken together
        assert np.max(np.hypot(X[:, 0::2].mean(axis=0), X[:, 1::2].mean(axis=0))) < 0.03
        assert -2.0 <= phi.min() < -1.99 and 1.99 < phi.max() < 2.0
        assert 0.5 <= rho.min() < 0.51 and 3.99 < rho.max() < 4.0
