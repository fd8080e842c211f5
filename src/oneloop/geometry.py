"""The one-loop deformed metric family on the 4n-dimensional total space.

Points live in global coordinates (X, w, phi_tilde, rho) with X in the open
unit ball of C^{n-1} and w in C^n.  Every Gram matrix uses the fixed real
chart ordering

    [rho, x^1, y^1, ..., x^{n-1}, y^{n-1}, u^0, v^0, ..., u^{n-1}, v^{n-1},
     phi_tilde]

with X^a = x^a + i y^a and w^k = u^k + i v^k.  The module evaluates the
deformed metric, its determinant at the base point, the fiber volume-density
factorization, and a finite-difference Ricci tensor for Einstein diagnostics.
Everything is plain Python floats, a matrix a list of rows: at the sizes the
commands use (12x12 at n = 3) numpy's import would cost more than the work.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
from itertools import chain
from operator import mul

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
        """Real-chart coordinate list of length 4n."""
        q = [self.rho]
        for z in self.X + self.w:
            q += (z.real, z.imag)
        q.append(self.phi_tilde)
        return q

    @staticmethod
    def from_chart(q):
        q = [float(x) for x in q]
        if not q or len(q) % 4:
            raise ValueError("chart vector must have length 4n")
        n = len(q) // 4
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
    """The five rows V and the diagonal at fixed n, as a table.

    V[row][column] is 1 at each (row, column) of ``ones`` (Re pi, Im pi and
    theta) and sign * q[source] at each (row, column, sign, source) of
    ``entries``; every sign is +-1 or +-THETA_SHEAR, a power of two, so each
    product is exact.  theta's X block holds Im sigma until it is scaled by
    2c/(1-s).  ``pick`` maps each chart index to one of the five diagonal
    values (rho, X block, w^0, w^a, phi).
    """
    ones = ((2, ix_u(0, n)), (3, ix_v(0, n)), (4, ix_phi(n)))
    entries = []
    for a in range(1, n):
        x, y, u, v = ix_x(a), ix_y(a), ix_u(a, n), ix_v(a, n)
        entries += [
            (0, x, 1, x), (0, y, 1, y),     # Re sigma = x dx + y dy
            (1, x, -1, y), (1, y, 1, x),    # Im sigma = x dy - y dx
            (2, u, 1, x), (2, v, -1, y),    # Re pi: Re(X^a dw^a)
            (3, u, 1, y), (3, v, 1, x),     # Im pi: Im(X^a dw^a)
            (4, x, -1, y), (4, y, 1, x),    # theta: Im sigma, scaled later
        ]
    for k in range(n):
        shear = THETA_SHEAR if k == 0 else -THETA_SHEAR  # + on w^0, - on w^a
        u, v = ix_u(k, n), ix_v(k, n)
        entries += [(4, u, shear, v), (4, v, -shear, u)]
    pick = (0,) + (1,) * (2 * n - 2) + (2, 2) + (3,) * (2 * n - 2) + (4,)
    return ones, tuple(entries), pick


# Kernel names of the weights of V's five rows, and the sign and name of the
# diagonal value that ``pick`` selects (phi's is 0).
_ROW_WEIGHTS = ("k_sigma", "k_sigma", "k_pi", "k_pi", "k_theta")
_DIAGONAL = (("+", "k_rho"), ("+", "k_x"), ("-", "k_w"), ("+", "k_w"), None)


@functools.lru_cache(maxsize=None)
def _gram_kernel(n):
    """The Gram matrix at fixed n as straight-line code, written once from
    ``_gram_layout(n)``.

    The kernel takes the chart vector q, c and 1 - s.  Entry g[i][j], i <= j,
    is the sum over the rows r of V, in order, of (k_r V[r][i]) V[r][j],
    leaving out the rows where either factor is structurally 0, plus the
    diagonal value; g[j][i] is the same value, so the matrix is exactly
    symmetric.  Factors of 1 are left out, which changes no bit.  The code
    holds only +, -, *, /, integer powers and integer literals.
    """
    ones, entries, pick = _gram_layout(n)
    dim = 4 * n
    V = [{col: None for r, col in ones if r == row} for row in range(5)]
    lines = [
        f"def gram_n{n}(q, c, one_minus):",
        "    rho, " + ", ".join(f"q{i}" for i in range(1, dim)) + " = q",
        "    t = 2 * c / one_minus",
        "    k_sigma = (rho + c) / (rho * one_minus**2)",
        "    k_pi = 4 * (rho + c) / (rho**2 * one_minus)",
        "    k_theta = ((rho + c) / (rho + 2 * c)) / (4 * rho**2)",
        "    k_x = (rho + c) / (rho * one_minus)",
        "    k_w = 2 / rho",
        "    k_rho = ((rho + 2 * c) / (rho + c)) / (4 * rho**2)",
    ]
    for row, col, sign, src in entries:
        value = f"q{src}" if sign == 1 else f"-q{src}" if sign == -1 else f"{sign} * q{src}"
        if row == 4 and col < 2 * n - 1:
            value += " * t"
        if value != f"q{src}":
            lines.append(f"    v{row}_{col} = {value}")
            value = f"v{row}_{col}"
        V[row][col] = value
        lines.append(f"    w{row}_{col} = {_ROW_WEIGHTS[row]} * {value}")
    nonzero = set()
    for i in range(dim):
        for j in range(i, dim):
            terms = []
            for row in range(5):
                if i in V[row] and j in V[row]:
                    left = _ROW_WEIGHTS[row] if V[row][i] is None else f"w{row}_{i}"
                    terms.append(left if V[row][j] is None else f"{left} * {V[row][j]}")
            expr = " + ".join(terms)
            diagonal = _DIAGONAL[pick[i]] if i == j else None
            if diagonal is not None:
                sign, name = diagonal
                expr = f"{expr} {sign} {name}" if expr else f"{sign.strip('+')}{name}"
            if expr:
                lines.append(f"    g{i}_{j} = {expr}")
                nonzero.add((i, j))

    def entry(i, j):
        i, j = min(i, j), max(i, j)
        return f"g{i}_{j}" if (i, j) in nonzero else "0"

    lines.append("    return [")
    lines += ["        [" + ", ".join(entry(i, j) for j in range(dim)) + "],"
              for i in range(dim)]
    lines.append("    ]")
    namespace = {}
    exec("\n".join(lines), namespace)
    return namespace[f"gram_n{n}"]


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
    is diagonal.  ``q`` is a sequence of 4n floats; the result is a list of
    rows, from the kernel ``_gram_kernel(n)``.
    """
    n = params.n
    if len(q) != 4 * n:
        raise ValueError(f"chart vector of length {len(q)} does not match n={n}")
    rho = q[0]
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    s = 0.0
    for x in q[1:2 * n - 1]:
        s += x * x
    if not s < 1.0:
        raise ValueError("X lies outside the open unit ball")
    return _gram_kernel(n)(q, params.c, 1.0 - s)


def _mirror(upper):
    """The symmetric matrix whose row i from the diagonal on is upper[i]."""
    rows = []
    for i, tail in enumerate(upper):
        rows.append([row[i] for row in rows] + tail)
    return rows


@functools.lru_cache(maxsize=None)
def _weighted_sum(count):
    """(sum_t weights[t] * vectors[t][e]) / divisor for every entry e, the
    terms added in order, as straight-line code for ``count`` terms."""
    weights = ", ".join(f"w{t}" for t in range(count))
    entries = ", ".join(f"a{t}" for t in range(count))
    terms = " + ".join(f"w{t} * a{t}" for t in range(count))
    namespace = {}
    exec(f"def weighted_sum(weights, vectors, divisor):\n"
         f"    {weights}, = weights\n"
         f"    return [({terms}) / divisor for {entries}, in zip(*vectors)]\n", namespace)
    return namespace["weighted_sum"]


def _max_abs(values):
    """max |v| over a list of numbers; NaN when one of them is NaN, as
    numpy's max gives it, so that no tolerance check passes it."""
    total = sum(values)  # NaN when a value is NaN (or when inf meets -inf)
    if total != total and any(map(math.isnan, values)):
        return math.nan
    return max(map(abs, values))


def _cholesky(g, params):
    """Lower-triangular L with L L^T = g, as rows, column by column as
    LAPACK's unblocked Cholesky forms it.  A pivot that is not positive
    fails the floating-point positive-definiteness test: ArithmeticError."""
    dim = len(g)
    L = [[] for _ in range(dim)]
    for j in range(dim):
        Lj = L[j]
        pivot = g[j][j] - sum(map(mul, Lj, Lj))
        if not pivot > 0:
            raise ArithmeticError(
                f"Gram matrix at c = {params.c!r}, n = {params.n} is finite but fails "
                "the floating-point positive-definiteness test: it is too "
                "ill-conditioned at this c")
        pivot = math.sqrt(pivot)
        scale = 1.0 / pivot
        for i in range(j + 1, dim):
            L[i].append((g[i][j] - sum(map(mul, L[i], Lj))) * scale)
        Lj.append(pivot)
    return L


def _spd_inverse(g, params):
    """g^-1 = L^-T L^-1 from the Cholesky factor; exactly symmetric."""
    L = _cholesky(g, params)
    dim = len(L)
    M = []  # L^-1, lower triangular, by forward substitution
    for i, row in enumerate(L):
        inv = 1.0 / row[i]
        M.append([-sum(row[k] * M[k][j] for k in range(j, i)) * inv for j in range(i)] + [inv])
    cols = [[M[k][j] for k in range(j, dim)] for j in range(dim)]  # from the diagonal down
    return _mirror([[sum(map(mul, cols[i][j - i:], cols[j])) for j in range(i, dim)]
                    for i in range(dim)])


def metric_gram(p, params):
    """Gram matrix of the deformed metric at p, RealChart order, as a list of
    rows; checked finite, then positive definite."""
    if p.n != params.n:
        raise ValueError(f"point has n={p.n} but params has n={params.n}")
    g = _gram_from_chart(p.to_chart(), params)
    if not all(math.isfinite(x) for row in g for x in row):
        raise OverflowError(f"Gram matrix leaves the float range at c = {params.c!r}")
    _cholesky(g, params)
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
    equal to 2^(n-2) at X=0, w=0.  sqrt(det g) is the product of the
    Cholesky factor's diagonal, taken through its logarithm.
    """
    from .volume import density  # here, so that importing geometry skips volume

    g = metric_gram(p, params)
    rho_factor = density(p.rho, params)
    log_root_det = sum(math.log(row[-1]) for row in _cholesky(g, params))
    return rho_factor, math.exp(log_root_det) / rho_factor


# Fourth-order central stencils; first-derivative weights divide by 12h, the
# second-derivative weights by 12h^2.
_D1_OFFSETS = (2, 1, -1, -2)
_D1_WEIGHTS = (-1.0, 8.0, -8.0, 1.0)
_D2_OFFSETS = (2, 1, 0, -1, -2)
_D2_WEIGHTS = (-1.0, 16.0, -30.0, 16.0, -1.0)
# The mixed stencil is the product of two first-derivative stencils.
_MIXED_WEIGHTS = tuple(w1 * w2 for w1 in _D1_WEIGHTS for w2 in _D1_WEIGHTS)


def _stencil_eval(q, params):
    try:
        return _gram_from_chart(q, params)
    except ValueError as exc:
        raise ValueError(f"finite-difference stencil leaves the chart: {exc}") from exc
    except OverflowError as exc:  # only rho**2 can overflow in the assembly
        raise OverflowError(
            f"finite-difference stencil leaves the float range: rho**2 "
            f"overflows at chart coordinate rho = {q[0]!r}") from exc


def _fd_steps(q, step):
    if not step > 0:
        raise ValueError("step must be positive")
    return [step * max(1.0, abs(x)) for x in q]


def _stencil_sum(weights, grams, divisor):
    """sum_t weights[t] * grams[t] / divisor, entry by entry, the terms added
    in stencil order, as a list of rows.  Entries (i, j) and (j, i) are the
    same sums of the same numbers, so the result is exactly symmetric."""
    dim = len(grams[0])
    flat = _weighted_sum(len(weights))(
        weights, [chain.from_iterable(gram) for gram in grams], divisor)
    return [flat[start:start + dim] for start in range(0, dim * dim, dim)]


def metric_first_derivatives(q, params, step=1e-3):
    """d_k g_{ij} at a chart point via 4th-order central differences.

    Returns D1 with D1[k] the derivative of the Gram matrix along chart
    coordinate k (a list of rows), using per-coordinate steps
    step*max(1, |q_k|).
    """
    q = [float(x) for x in q]
    h = _fd_steps(q, step)
    D1 = []
    qq = list(q)  # the stencil point; each loop restores what it shifts
    for k, (qk, hk) in enumerate(zip(q, h)):
        grams = []
        for off in _D1_OFFSETS:
            qq[k] = qk + off * hk
            grams.append(_stencil_eval(qq, params))
        qq[k] = qk
        D1.append(_stencil_sum(_D1_WEIGHTS, grams, 12.0 * hk))
    return D1


def _metric_second_derivatives(q, params, step):
    """d_k d_l g_{ij}: 5-point diagonal and tensor-product mixed stencils.

    D2[k][l] is the matrix of second derivatives along k and l; D2[l][k] is
    the same list.
    """
    q = [float(x) for x in q]
    dim = len(q)
    h = _fd_steps(q, step)
    D2 = [[None] * dim for _ in range(dim)]
    qq = list(q)  # the stencil point; each loop restores what it shifts
    for k, (qk, hk) in enumerate(zip(q, h)):
        grams = []
        for off in _D2_OFFSETS:
            qq[k] = qk + off * hk
            grams.append(_stencil_eval(qq, params))
        qq[k] = qk
        D2[k][k] = _stencil_sum(_D2_WEIGHTS, grams, 12.0 * hk ** 2)
    for k, (qk, hk) in enumerate(zip(q, h)):
        for l in range(k + 1, dim):
            ql, hl = q[l], h[l]
            grams = []
            for off1 in _D1_OFFSETS:
                qq[k] = qk + off1 * hk
                for off2 in _D1_OFFSETS:
                    qq[l] = ql + off2 * hl
                    grams.append(_stencil_eval(qq, params))
            qq[k], qq[l] = qk, ql
            D2[k][l] = D2[l][k] = _stencil_sum(_MIXED_WEIGHTS, grams, 144.0 * hk * hl)
    return D2


def ricci_fd(p, params, step=1e-3):
    """Ricci tensor at p from finite differences of the Gram matrix.

    Ric_ij = d_k Gamma^k_ij - d_i Gamma^k_kj + Gamma^k_kl Gamma^l_ij
    - Gamma^k_il Gamma^l_kj, from the first and second metric derivatives
    through g^-1, S_jlk = d_j g_lk + d_k g_lj - d_l g_jk and its derivatives;
    the trace Gamma^k_kj is (1/2) tr(g^-1 d_j g).  Each entry is formed once,
    on the upper triangle.  Rejects configurations whose stencil leaves the
    chart.
    """
    q = p.to_chart()
    ginv = _spd_inverse(_gram_from_chart(q, params), params)
    D1 = metric_first_derivatives(q, params, step)
    D2 = _metric_second_derivatives(q, params, step)
    dim = len(q)
    span = range(dim)

    def dot(a, b):
        return sum(map(mul, a, b))

    def flat(matrix):
        return list(chain.from_iterable(matrix))

    # lowered[i][j][l] = Gamma_{l,ij} = S_ilj / 2 and gamma[i][j][k] =
    # Gamma^k_ij = g^kl Gamma_{l,ij}; [i][j] and [j][i] are one list.
    lowered = [[None] * dim for _ in span]
    gamma = [[None] * dim for _ in span]
    for i in span:
        for j in range(i, dim):
            low = [0.5 * (D1[i][l][j] + D1[j][l][i] - D1[l][i][j]) for l in span]
            lowered[i][j] = lowered[j][i] = low
            gamma[i][j] = gamma[j][i] = [dot(row, low) for row in ginv]
    # A_m = g^-1 d_m g (d_m g is symmetric: its rows are its columns).  With
    # G_i[k][l] = Gamma^k_il, tr(A_i A_j) and tr(G_i G_j) are dot products of
    # one flattened matrix and another's transpose.
    A = [[[dot(row, col) for col in D1[m]] for row in ginv] for m in span]
    flat_A = [flat(A[m]) for m in span]
    flat_AT = [flat(zip(*A[m])) for m in span]
    flat_G = [flat(zip(*gamma[i])) for i in span]
    flat_GT = [flat(gamma[i]) for i in span]
    flat_ginv = flat(ginv)
    # d_k g^kl = -(g^-1 u)_l with u_b = sum_k A_k[k][b]; contracted_l = Gamma^k_kl.
    u = [sum(A[k][k][b] for k in span) for b in span]
    div_ginv = [-dot(row, u) for row in ginv]
    contracted = [sum(gamma[k][l][k] for k in span) for l in span]
    # Row-major d x d: P_ij = g^kl d_k d_l g_ij and Q_ij = g^kl d_k d_i g_lj.
    P = [dot(flat_ginv, column)
         for column in zip(*[flat(D2[k][l]) for k in span for l in span])]
    Q = [dot(flat_ginv, column)
         for i in span for column in zip(*[D2[k][i][l] for k in span for l in span])]
    ric = []
    for i in span:
        row = []
        for j in range(i, dim):
            d_gamma = (dot(div_ginv, lowered[i][j])
                       + 0.5 * (Q[i * dim + j] + Q[j * dim + i] - P[i * dim + j]))
            d_trace = 0.5 * (dot(flat_ginv, flat(D2[i][j])) - dot(flat_A[i], flat_AT[j]))
            row.append(d_gamma - d_trace + dot(contracted, gamma[i][j])
                       - dot(flat_G[i], flat_GT[j]))
        ric.append(row)
    return _mirror(ric)


def einstein_diagnostic(p, params, step=1e-3):
    """(lambda, relative residual) of the Einstein condition Ric = lambda*g at p.

    lambda = trace(g^{-1} Ric)/(4n); the residual is max|Ric - lambda*g|
    relative to max|g|.
    """
    g = metric_gram(p, params)
    ric = ricci_fd(p, params, step)
    ginv = _spd_inverse(g, params)
    lam = sum(x * y for grow, rrow in zip(ginv, ric) for x, y in zip(grow, rrow)) / (4 * params.n)
    deviation = [r - lam * x for rrow, grow in zip(ric, g) for r, x in zip(rrow, grow)]
    return lam, _max_abs(deviation) / _max_abs([x for row in g for x in row])


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
