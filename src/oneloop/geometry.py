"""The one-loop deformed metric family on the 4n-dimensional total space.

Points live in global coordinates (X, w, phi_tilde, rho) with X in the open
unit ball of C^{n-1} and w in C^n.  Every Gram matrix uses the fixed real
chart ordering

    [rho, x^1, y^1, ..., x^{n-1}, y^{n-1}, u^0, v^0, ..., u^{n-1}, v^{n-1},
     phi_tilde]

with X^a = x^a + i y^a and w^k = u^k + i v^k.  The module evaluates the
deformed metric, its determinant at the base point, the fiber volume-density
factorization, and a finite-difference Ricci tensor for Einstein diagnostics.
"""

from __future__ import annotations

import cmath
import functools
import math
import random

import numpy as np

from .params import THETA_SHEAR, ModelParams  # noqa: F401 -- ModelParams is re-exported
from .record import record


@record(frozen=True)
class PointBarN:
    """A point (X, w, phi_tilde, rho): ||X|| < 1, rho > 0; len(X) = len(w) - 1."""

    X: tuple
    w: tuple
    phi_tilde: float
    rho: float

    def __post_init__(self):
        X = tuple(complex(z) for z in self.X)
        w = tuple(complex(z) for z in self.w)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "phi_tilde", float(self.phi_tilde))
        object.__setattr__(self, "rho", float(self.rho))
        if len(w) != len(X) + 1:
            raise ValueError("w must have one more component than X")
        if not all(map(cmath.isfinite, X + w + (self.phi_tilde, self.rho))):
            raise ValueError("point coordinates must be finite")
        if self.rho <= 0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if sum(abs(z) ** 2 for z in X) >= 1.0:
            raise ValueError("X lies outside the open unit ball")

    @property
    def n(self):
        return len(self.w)

    def to_chart(self):
        """Real-chart coordinate vector of length 4n."""
        n = self.n
        q = np.empty(4 * n)
        q[0] = self.rho
        for a in range(1, n):
            q[ix_x(a)] = self.X[a - 1].real
            q[ix_y(a)] = self.X[a - 1].imag
        for k in range(n):
            q[ix_u(k, n)] = self.w[k].real
            q[ix_v(k, n)] = self.w[k].imag
        q[ix_phi(n)] = self.phi_tilde
        return q

    @staticmethod
    def from_chart(q):
        q = np.asarray(q, dtype=float)
        if q.ndim != 1 or q.size % 4 != 0 or q.size == 0:
            raise ValueError("chart vector must have length 4n")
        n = q.size // 4
        X = tuple(complex(q[ix_x(a)], q[ix_y(a)]) for a in range(1, n))
        w = tuple(complex(q[ix_u(k, n)], q[ix_v(k, n)]) for k in range(n))
        return PointBarN(X=X, w=w, phi_tilde=q[ix_phi(n)], rho=q[0])


def ix_rho():
    return 0


def ix_x(a):
    return 2 * a - 1


def ix_y(a):
    return 2 * a


def ix_u(k, n):
    return 2 * n - 1 + 2 * k


def ix_v(k, n):
    return 2 * n + 2 * k


def ix_phi(n):
    return 4 * n - 1


@functools.lru_cache(maxsize=None)
def _gram_layout(n):
    """Read-only layout of the five rows V and the diagonal at fixed n.

    V is the constant row block ``base`` (the 1s of Re pi, Im pi and theta)
    with V.flat[dst] = sign * q[src] scattered over it; every sign is +-1 or
    +-THETA_SHEAR, a power of two, so each product is exact.  theta's X block
    holds Im sigma until the caller scales it by 2c/(1-s).  ``pick`` maps each
    chart index to one of the five diagonal values (rho, X block, w^0, w^a,
    phi).
    """
    dim = 4 * n
    base = np.zeros((5, dim))
    base[2, ix_u(0, n)] = base[3, ix_v(0, n)] = base[4, ix_phi(n)] = 1.0
    entries = []  # (row, chart column, sign, source chart index)
    for a in range(1, n):
        x, y, u, v = ix_x(a), ix_y(a), ix_u(a, n), ix_v(a, n)
        entries += [
            (0, x, 1.0, x), (0, y, 1.0, y),     # Re sigma = x dx + y dy
            (1, x, -1.0, y), (1, y, 1.0, x),    # Im sigma = x dy - y dx
            (2, u, 1.0, x), (2, v, -1.0, y),    # Re pi: Re(X^a dw^a)
            (3, u, 1.0, y), (3, v, 1.0, x),     # Im pi: Im(X^a dw^a)
            (4, x, -1.0, y), (4, y, 1.0, x),    # theta: Im sigma, scaled later
        ]
    for k in range(n):
        shear = THETA_SHEAR if k == 0 else -THETA_SHEAR  # + on w^0, - on w^a
        u, v = ix_u(k, n), ix_v(k, n)
        entries += [(4, u, shear, v), (4, v, -shear, u)]
    rows, cols, sign, src = (np.array(col) for col in zip(*entries))
    pick = np.full(dim, 3)
    pick[0], pick[1:2 * n - 1], pick[2 * n - 1:2 * n + 1], pick[-1] = 0, 1, 2, 4
    layout = (base, rows * dim + cols, sign, src, pick)
    for array in layout:
        array.flags.writeable = False
    return layout


def _gram_from_chart(q, params):
    """Gram matrix of the deformed metric at a real-chart point (internal).

    With sigma = sum_a conj(X^a) dX^a, pi = dw^0 + sum_a X^a dw^a and the
    angle form theta = dphi - THETA_SHEAR * Im(conj(w^0)dw^0 - sum_a
    conj(w^a)dw^a) + (2c/(1-s)) Im sigma, s = |X|^2, the metric is

        (rho+2c)/(rho+c) drho^2/(4 rho^2) + (rho+c)/(rho+2c) theta^2/(4 rho^2)
        + (rho+c)/rho (|dX|^2/(1-s) + |sigma|^2/(1-s)^2)
        - (2/rho)(|dw^0|^2 - sum_a |dw^a|^2) + 4(rho+c)/(rho^2 (1-s)) |pi|^2.

    Each |A|^2 = (Re A)^2 + (Im A)^2, so the non-constant part is V^T diag(k) V
    over the five real rows Re sigma, Im sigma, Re pi, Im pi, theta; the rest
    is diagonal.
    """
    n = params.n
    dim = 4 * n
    q = np.asarray(q, dtype=float)
    if q.size != dim:
        raise ValueError(f"chart vector of length {q.size} does not match n={n}")
    rho = float(q[0])
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    xy = q[1:2 * n - 1]
    s = float(xy @ xy)
    if not s < 1.0:
        raise ValueError("X lies outside the open unit ball")
    c = params.c
    one_minus = 1.0 - s
    base, dst, sign, src, pick = _gram_layout(n)

    V = base.copy()
    V.flat[dst] = sign * q[src]
    V[4, 1:2 * n - 1] *= 2.0 * c / one_minus

    k_sigma = (rho + c) / (rho * one_minus**2)
    k_pi = 4.0 * (rho + c) / (rho**2 * one_minus)
    k_theta = ((rho + c) / (rho + 2 * c)) / (4 * rho**2)
    g = (V.T * (k_sigma, k_sigma, k_pi, k_pi, k_theta)) @ V
    k_x = (rho + c) / (rho * one_minus)
    k_w = 2.0 / rho
    k_rho = ((rho + 2 * c) / (rho + c)) / (4 * rho**2)
    g.flat[::dim + 1] += np.array((k_rho, k_x, -k_w, k_w, 0.0))[pick]
    return 0.5 * (g + g.T)  # the product rounds g[i, j] and g[j, i] apart


def metric_gram(p, params):
    """Gram matrix of the deformed metric at p, RealChart order; checked
    finite, then positive definite."""
    if p.n != params.n:
        raise ValueError(f"point has n={p.n} but params has n={params.n}")
    g = _gram_from_chart(p.to_chart(), params)
    if not np.isfinite(g).all():
        raise OverflowError(f"Gram matrix leaves the float range at c = {params.c!r}")
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(
            f"Gram matrix at c = {params.c!r}, n = {params.n} is finite but fails "
            "the floating-point positive-definiteness test: it is too "
            "ill-conditioned at this c") from exc
    return g


def gram_det_p0(rho, params):
    """Closed-form det of the Gram matrix at X=0, w=0: the base-point formula."""
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    n, c = params.n, params.c
    return (2.0 ** (2 * n - 4) / rho ** (2 * n + 4)
            * ((rho + c) / rho) ** (2 * n - 2)
            * ((rho + 2 * c) / rho) ** 2)


def fiber_density_split(p, params):
    """Split sqrt(det metric_gram) = rho_factor * f_inv.

    rho_factor is ``volume.density``; f_inv is the density of the invariant
    fiber volume form, independent of rho at fixed fiber coordinates and
    equal to 2^(n-2) at X=0, w=0.
    """
    from .volume import density  # here, so that importing geometry skips volume

    g = metric_gram(p, params)
    rho_factor = density(p.rho, params)
    sign, logdet = np.linalg.slogdet(g)
    if sign <= 0:
        raise ArithmeticError("Gram determinant is not positive")
    f_inv = np.exp(0.5 * logdet) / rho_factor
    return rho_factor, f_inv


# Fourth-order central stencils; first-derivative weights divide by 12h, the
# second-derivative weights by 12h^2.
_D1_OFFSETS = (2, 1, -1, -2)
_D1_WEIGHTS = (-1.0, 8.0, -8.0, 1.0)
_D2_OFFSETS = (2, 1, 0, -1, -2)
_D2_WEIGHTS = (-1.0, 16.0, -30.0, 16.0, -1.0)


def _stencil_eval(q, params):
    try:
        return _gram_from_chart(q, params)
    except ValueError as exc:
        raise ValueError(f"finite-difference stencil leaves the chart: {exc}") from exc
    except OverflowError as exc:  # only rho**2 can overflow in the assembly
        raise OverflowError(
            f"finite-difference stencil leaves the float range: rho**2 "
            f"overflows at chart coordinate rho = {float(q[0])!r}") from exc


def _fd_steps(q, step):
    if not step > 0:
        raise ValueError("step must be positive")
    return step * np.maximum(1.0, np.abs(q))


def metric_first_derivatives(q, params, step=1e-3):
    """d_k g_{ij} at a chart point via 4th-order central differences.

    Returns D1 with D1[k] the derivative of the Gram matrix along chart
    coordinate k, using per-coordinate steps step*max(1, |q_k|).
    """
    q = np.asarray(q, dtype=float)
    dim = q.size
    h = _fd_steps(q, step)
    D1 = np.empty((dim, dim, dim))
    qq = q.copy()  # the stencil point; each loop restores what it shifts
    for k in range(dim):
        qk, hk = float(q[k]), float(h[k])
        acc = np.zeros((dim, dim))
        for off, wgt in zip(_D1_OFFSETS, _D1_WEIGHTS):
            qq[k] = qk + off * hk
            acc += wgt * _stencil_eval(qq, params)
        qq[k] = qk
        D1[k] = acc / (12.0 * h[k])
    return D1


def _metric_second_derivatives(q, params, step):
    """d_k d_l g_{ij}: 5-point diagonal and tensor-product mixed stencils."""
    q = np.asarray(q, dtype=float)
    dim = q.size
    h = _fd_steps(q, step)
    D2 = np.empty((dim, dim, dim, dim))
    qq = q.copy()  # the stencil point; each loop restores what it shifts
    for k in range(dim):
        qk, hk = float(q[k]), float(h[k])
        acc = np.zeros((dim, dim))
        for off, wgt in zip(_D2_OFFSETS, _D2_WEIGHTS):
            qq[k] = qk + off * hk
            acc += wgt * _stencil_eval(qq, params)
        qq[k] = qk
        D2[k, k] = acc / (12.0 * h[k] ** 2)
    for k in range(dim):
        qk, hk = float(q[k]), float(h[k])
        for l in range(k + 1, dim):
            ql, hl = float(q[l]), float(h[l])
            acc = np.zeros((dim, dim))
            for off1, wgt1 in zip(_D1_OFFSETS, _D1_WEIGHTS):
                qq[k] = qk + off1 * hk
                for off2, wgt2 in zip(_D1_OFFSETS, _D1_WEIGHTS):
                    qq[l] = ql + off2 * hl
                    acc += wgt1 * wgt2 * _stencil_eval(qq, params)
            qq[k], qq[l] = qk, ql
            D2[k, l] = D2[l, k] = acc / (144.0 * h[k] * h[l])
    return D2


def ricci_fd(p, params, step=1e-3):
    """Ricci tensor at p from finite differences of the Gram matrix.

    Assembles Christoffel symbols and their derivatives from central-difference
    metric derivatives; rejects configurations whose stencil leaves the chart.
    """
    q = p.to_chart()
    g0 = _gram_from_chart(q, params)
    ginv = np.linalg.inv(g0)
    D1 = metric_first_derivatives(q, params, step)
    D2 = _metric_second_derivatives(q, params, step)

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


def einstein_diagnostic(p, params, step=1e-3):
    """(lambda, relative residual) of the Einstein condition Ric = lambda*g at p.

    lambda = trace(g^{-1} Ric)/(4n); the residual is max|Ric - lambda*g|
    relative to max|g|.
    """
    g = metric_gram(p, params)
    ric = ricci_fd(p, params, step)
    lam = float(np.trace(np.linalg.inv(g) @ ric)) / (4 * params.n)
    residual = float(np.max(np.abs(ric - lam * g))) / float(np.max(np.abs(g)))
    return lam, residual


def _polar_normals(rng):
    """Two independent standard normals, as one complex number, by Marsaglia's
    polar method from ``rng.random()`` draws only."""
    while True:
        u, v = 2.0 * rng.random() - 1.0, 2.0 * rng.random() - 1.0
        s = u * u + v * v
        if 0.0 < s < 1.0:
            scale = math.sqrt(-2.0 * math.log(s) / s)
            return complex(u * scale, v * scale)


def seeded_points(params, count, seed=42):
    """Deterministic sample of valid points: ||X|| <= 0.9, |w^k| <= 2,
    |phi_tilde| <= 2, rho in [0.5, 4].

    Every draw is ``random.Random(seed).random()``, whose sequence Python
    keeps across versions.  The law: X = 0.9 sqrt(U) times a uniform unit
    vector of C^{n-1} (normalized polar-method normals), w^k = 2 sqrt(U)
    exp(2 pi i U'), phi_tilde = -2 + 4U, rho = 0.5 + 3.5U.  Each point draws,
    in this order: the n-1 complex normals of X (each one accepted (u, v)
    pair of the polar method), the radius of X, the radius and then the angle
    of each w^k in k order, phi_tilde, rho.  This order fixes every report
    that samples points.
    """
    rng = random.Random(seed)
    n = params.n
    points = []
    for _ in range(count):
        raw = [_polar_normals(rng) for _ in range(n - 1)]
        if raw:
            norm = math.sqrt(sum(z.real * z.real + z.imag * z.imag for z in raw))
            scale = 0.9 * math.sqrt(rng.random()) / norm
            X = tuple(scale * z for z in raw)
        else:
            X = ()
        w = tuple(cmath.rect(2.0 * math.sqrt(rng.random()), 2.0 * math.pi * rng.random())
                  for _ in range(n))
        phi = -2.0 + 4.0 * rng.random()
        rho = 0.5 + 3.5 * rng.random()
        points.append(PointBarN(X=X, w=w, phi_tilde=phi, rho=rho))
    return points
