"""The one-loop deformed metric family on the 4n-dimensional total space.

The space has global coordinates (rho, X, w, phi_tilde) with rho > 0, X in
the open unit ball of C^{n-1} and w in C^n, and a point is its chart vector:
the list of 4n real numbers

    [rho, x^1, y^1, ..., x^{n-1}, y^{n-1}, u^0, v^0, ..., u^{n-1}, v^{n-1},
     phi_tilde]

with X^a = x^a + i y^a and w^k = u^k + i v^k, at the indices ``ix_*``
give.  Every Gram matrix uses the same ordering.  The module evaluates the
deformed metric, its determinant at the base point, the fiber volume-density
factorization, and a finite-difference Ricci tensor for Einstein diagnostics.
Everything is plain Python floats, a matrix a list of rows (a symmetric one
inside the module often its flat upper triangle, ``_upper``): at the sizes the
commands use (12x12 at n = 3) numpy's import would cost more than the work.
"""

from __future__ import annotations

import functools
import math
import random
from itertools import chain
from operator import itemgetter, mul

from .params import THETA_SHEAR, ModelParams  # noqa: F401 -- ModelParams is re-exported


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

    The kernel takes the chart vector q, c and 1 - s and returns the upper
    triangle, g[i][j] for i <= j row by row, as one flat list (``_upper``).
    Entry g[i][j] is the sum over the rows r of V, in order, of
    (k_r V[r][i]) V[r][j], leaving out the rows where either factor is
    structurally 0 (an entry with none is the integer 0), plus the diagonal
    value.  Factors of 1 are left out, which changes no bit.  The code holds
    only +, -, *, /, integer powers and integer literals.
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
    upper = []
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
            upper.append(expr or "0")
    lines.append("    return [" + ",\n        ".join(upper) + "]")
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
    is diagonal.  ``q`` is a sequence of 4n floats; the result is the flat
    upper triangle from the kernel ``_gram_kernel(n)``.
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


@functools.lru_cache(maxsize=None)
def _upper(dim):
    """The flat upper triangle g[i][j], i <= j, row by row, of a symmetric
    dim x dim matrix: index[i][j] = index[j][i] is the position of {i, j},
    pairs[e] the (i, j) at e, and rows[i] reads row i from the triangle."""
    index = [[0] * dim for _ in range(dim)]
    pairs = [(i, j) for i in range(dim) for j in range(i, dim)]
    for e, (i, j) in enumerate(pairs):
        index[i][j] = index[j][i] = e
    return index, pairs, [itemgetter(*row) for row in index]


def _symmetric(upper, dim):
    """The symmetric matrix, as a list of rows, of a flat upper triangle."""
    return [list(row(upper)) for row in _upper(dim)[2]]


class _Depends(frozenset):
    """A number that is only the set of chart indices it depends on: the
    union of its operands' sets, none for an integer literal (``_pattern``)."""

    def __add__(self, other):
        return _Depends(self | other) if isinstance(other, frozenset) else self

    __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = __truediv__ = __rtruediv__ = __add__
    __pow__ = __add__

    def __neg__(self):
        return self


@functools.lru_cache(maxsize=None)
def _pattern(n):
    """The entries of the flat Gram triangle that each derivative can make
    non-zero: first[k] lists those whose value depends on q_k, second[k][l]
    those that depend on q_k and q_l (second[k][k] is first[k]), from
    ``_gram_kernel(n)`` run over ``_Depends`` with q_i depending on {i}, c on
    nothing and 1 - s on the X coordinates.  Another entry keeps its bits at
    every stencil point along k (or l), so its derivative is exactly 0."""
    dim = 4 * n
    q = [_Depends({i}) for i in range(dim)]
    on = _gram_kernel(n)(q, _Depends(), _Depends(range(1, 2 * n - 1)))
    first = [[e for e, deps in enumerate(on) if k in (deps or ())] for k in range(dim)]
    second = [[None] * dim for _ in range(dim)]
    for k in range(dim):
        for l in range(k, dim):
            second[k][l] = second[l][k] = [e for e in first[k] if l in on[e]]
    return first, second


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


def _cholesky(g, params, rho):
    """Lower-triangular L with L L^T = g, as rows, column by column as
    LAPACK's unblocked Cholesky forms it.  A pivot that is not positive
    fails the floating-point positive-definiteness test: ArithmeticError,
    naming c, n and the rho of the point where g was evaluated."""
    dim = len(g)
    L = [[] for _ in range(dim)]
    for j in range(dim):
        Lj = L[j]
        pivot = g[j][j] - sum(map(mul, Lj, Lj))
        if not pivot > 0:
            raise ArithmeticError(
                f"Gram matrix at c = {params.c!r}, n = {params.n}, rho = {rho!r} is finite "
                "but fails the floating-point positive-definiteness test: it is too "
                "ill-conditioned at this c and rho")
        pivot = math.sqrt(pivot)
        scale = 1.0 / pivot
        for i in range(j + 1, dim):
            L[i].append((g[i][j] - sum(map(mul, L[i], Lj))) * scale)
        Lj.append(pivot)
    return L


def _spd_inverse(g, params, rho):
    """g^-1 = L^-T L^-1 from the Cholesky factor; exactly symmetric."""
    L = _cholesky(g, params, rho)
    dim = len(L)
    M = []  # L^-1, lower triangular, by forward substitution
    for i, row in enumerate(L):
        inv = 1.0 / row[i]
        M.append([-sum(row[k] * M[k][j] for k in range(j, i)) * inv for j in range(i)] + [inv])
    cols = [[M[k][j] for k in range(j, dim)] for j in range(dim)]  # from the diagonal down
    return _symmetric([sum(map(mul, cols[i][j - i:], cols[j]))
                       for i in range(dim) for j in range(i, dim)], dim)


def metric_gram(q, params):
    """Gram matrix of the deformed metric at the chart point q, as a list of
    rows; q checked finite, and the matrix checked finite, then positive
    definite."""
    if not all(map(math.isfinite, q)):
        raise ValueError("point coordinates must be finite")
    g = _gram_from_chart(q, params)
    if not all(map(math.isfinite, g)):
        raise OverflowError(f"Gram matrix leaves the float range at c = {params.c!r}")
    g = _symmetric(g, 4 * params.n)
    _cholesky(g, params, q[0])
    return g


def gram_det_p0(rho, params):
    """Closed-form det of the Gram matrix at X=0, w=0: the base-point formula."""
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    n, c = params.n, params.c
    return (2.0 ** (2 * n - 4) / rho ** (2 * n + 4)
            * ((rho + c) / rho) ** (2 * n - 2)
            * ((rho + 2 * c) / rho) ** 2)


def fiber_density_split(q, params):
    """Split sqrt(det metric_gram) = rho_factor * f_inv.

    rho_factor is ``volume.density``; f_inv is the density of the invariant
    fiber volume form, independent of rho at fixed fiber coordinates and
    equal to 2^(n-2) at X=0, w=0.  sqrt(det g) is the product of the
    Cholesky factor's diagonal, taken through its logarithm.
    """
    from .volume import density  # here, so that importing geometry skips volume

    g = metric_gram(q, params)
    rho_factor = density(q[0], params)
    log_root_det = sum(math.log(row[-1]) for row in _cholesky(g, params, q[0]))
    return rho_factor, math.exp(log_root_det) / rho_factor


# Fourth-order central stencils with steps FD_STEP*max(1, |q_k|); the
# verdicts' tolerances are calibrated at this step.  First-derivative weights
# divide by 12h, the second-derivative weights by 12h^2.
FD_STEP = 1e-3
_D1_OFFSETS = (2, 1, -1, -2)
_D1_WEIGHTS = (-1.0, 8.0, -8.0, 1.0)
_D2_OFFSETS = (2, 1, 0, -1, -2)
_D2_WEIGHTS = (-1.0, 16.0, -30.0, 16.0, -1.0)
# The mixed stencil is the product of two first-derivative stencils.
_MIXED_WEIGHTS = tuple(w1 * w2 for w1 in _D1_WEIGHTS for w2 in _D1_WEIGHTS)


def _fd_steps(q):
    """The per-coordinate steps FD_STEP*max(1, |q_k|).  A non-finite q_k
    raises ValueError: no stencil around it is finite."""
    for k, x in enumerate(q):
        if not math.isfinite(x):
            raise ValueError(f"finite-difference stencil needs finite chart coordinates, "
                             f"got q[{k}] = {x!r}")
    return [FD_STEP * max(1.0, abs(x)) for x in q]


def _stencil(q, params, points, weights, divisor, entries):
    """One stencil: a Gram evaluation at q with coordinates k and l set to
    q_k and q_l for each (k, q_k, l, q_l) of ``points``, then
    sum_t weights[t] * G_t[e] / divisor on each entry e of ``entries``, the
    terms added in stencil order, and exact 0.0 on the other entries."""
    qq = list(q)
    grams = []
    try:
        for k, qk, l, ql in points:
            qq[k], qq[l] = qk, ql
            grams.append(_gram_from_chart(qq, params))
    except ValueError as exc:
        raise ValueError(f"finite-difference stencil leaves the chart: {exc}") from exc
    except OverflowError as exc:  # only rho**2 can overflow in the assembly
        raise OverflowError(
            f"finite-difference stencil leaves the float range: rho**2 "
            f"overflows at chart coordinate rho = {qq[0]!r}") from exc
    out = [0.0] * len(grams[0])
    if entries:
        pick = itemgetter(*entries) if len(entries) > 1 else lambda g, e=entries[0]: (g[e],)
        values = _weighted_sum(len(weights))(weights, [pick(g) for g in grams], divisor)
        for e, value in zip(entries, values):
            out[e] = value
    return out


def metric_first_derivatives(q, params):
    """d_k g_{ij} at a chart point via 4th-order central differences.

    Returns D1 with D1[k] the derivative of the Gram matrix along chart
    coordinate k as a flat upper triangle (``_upper``), using per-coordinate
    steps FD_STEP*max(1, |q_k|).  Each coordinate costs four Gram evaluations;
    the stencil is summed only on the entries of ``_pattern(n)[0][k]``, and
    every other one, which cannot depend on q_k (all of d_phi g), is 0.0.
    """
    q = [float(x) for x in q]
    first = _pattern(params.n)[0]
    return [_stencil(q, params, [(k, q[k] + off * hk) * 2 for off in _D1_OFFSETS], _D1_WEIGHTS,
                     12.0 * hk, first[k]) for k, hk in enumerate(_fd_steps(q))]


def _metric_second_derivatives(q, params):
    """d_k d_l g_{ij}: 5-point diagonal and tensor-product mixed stencils.

    D2[k][l] is the flat upper triangle of second derivatives along k and l,
    exact 0.0 off ``_pattern(n)[1][k][l]``; D2[l][k] is the same list.
    """
    q = [float(x) for x in q]
    h = _fd_steps(q)
    second = _pattern(params.n)[1]
    D2 = [[None] * len(q) for _ in q]
    for k, hk in enumerate(h):
        D2[k][k] = _stencil(q, params, [(k, q[k] + off * hk) * 2 for off in _D2_OFFSETS],
                            _D2_WEIGHTS, 12.0 * hk ** 2, second[k][k])
    for k, hk in enumerate(h):
        for l in range(k + 1, len(q)):
            points = [(k, q[k] + o1 * hk, l, q[l] + o2 * h[l])
                      for o1 in _D1_OFFSETS for o2 in _D1_OFFSETS]
            D2[k][l] = D2[l][k] = _stencil(q, params, points, _MIXED_WEIGHTS, 144.0 * hk * h[l],
                                           second[k][l])
    return D2


def ricci_fd(q, params):
    """(Ricci tensor, g^-1) at the chart point q from finite differences of
    the Gram matrix.

    Ric_ij = d_k Gamma^k_ij - d_i Gamma^k_kj + Gamma^k_kl Gamma^l_ij
    - Gamma^k_il Gamma^l_kj, through g^-1 and the first and second metric
    derivatives, each entry formed once, on the upper triangle.  Every
    stencil point costs one Gram evaluation, 1 + 9d + 8d(d-1) in all for
    d = 4n, the mixed pairs whose derivatives all vanish structurally
    included; the derivatives are summed, and the second ones contracted,
    only on the entries ``_pattern(n)`` lets be non-zero.  Rejects
    configurations whose stencil leaves the chart.  g^-1 is the inverse
    ``_spd_inverse`` gives of ``metric_gram(q, params)``, returned for
    ``einstein_diagnostic``.
    """
    dim = len(q)
    span = range(dim)
    index, pairs, rows = _upper(dim)
    second = _pattern(params.n)[1]
    ginv = _spd_inverse(_symmetric(_gram_from_chart(q, params), dim), params, q[0])
    D1 = metric_first_derivatives(q, params)
    D2 = _metric_second_derivatives(q, params)
    combine = _weighted_sum(dim)
    # lowered[e][l] = Gamma_{l,ij} for each entry e = (i, j) of the triangle,
    # gamma[k][e] = Gamma^k_ij and G[i][k * dim + l] = Gamma^k_il.
    M = [[row(Dm) for row in rows] for Dm in D1]  # M[m][a]: row a of d_m g
    lowered = [[0.5 * (x + y - z) for x, y, z in zip(M[i][j], M[j][i], by_l)]
               for (i, j), by_l in zip(pairs, zip(*D1))]
    by_l = list(zip(*lowered))
    gamma = [combine(row, by_l, 1.0) for row in ginv]
    G = [list(chain.from_iterable(row(gamma_k) for gamma_k in gamma)) for row in rows]
    # Y[k][i * dim + l] = Y_i[k][l], Y_i = A_i - G_i = g^-1 Lambda_i for A_m = g^-1 d_m g
    # and Lambda_i[m][l] = Gamma_{l,im}; YT[i] is Y_i^T.  tr(A_i A_j)/2 - tr(G_i G_j) =
    # tr(Y_i G_j): g^-1 d_i g g^-1 is symmetric, Gamma_{.,j.} - d_j g / 2 antisymmetric.
    by_m = [list(chain.from_iterable(lowered[index[i][m]] for i in span)) for m in span]
    Y = [combine(row, by_m, 1.0) for row in ginv]
    YT = [list(chain.from_iterable(zip(*[Yk[i * dim:(i + 1) * dim] for Yk in Y]))) for i in span]
    # With d_k g^kl = -(g^-1 u)_l, u_l = sum_k A_k[k][l], the terms holding Gamma_{l,ij}
    # undifferentiated are v . lowered[e], v = g^-1 (Gamma^k_k. - u) = -g^-1 sum_k Y_k[k].
    shift = [-sum(Y[k][k * dim + l] for k in span) for l in span]
    v = [sum(map(mul, row, shift)) for row in ginv]
    # The terms linear in d d g, on the entries of the pattern only: P_e =
    # g^kl d_k d_l g_e, T_ij = g^kl d_i d_j g_kl and Q[i][j] = g^kl d_k d_i g_lj.
    weight = [ginv[i][j] if i == j else 2.0 * ginv[i][j] for i, j in pairs]
    P, T, Q = [0.0] * len(pairs), [0.0] * len(pairs), [[0.0] * dim for _ in span]
    for f, (k, i) in enumerate(pairs):
        D, gk, gi, Qi, Qk = D2[k][i], ginv[k], ginv[i], Q[i], Q[k]
        for e in second[k][i]:
            a, b = pairs[e]
            value = D[e]
            P[e] += weight[f] * value
            T[f] += weight[e] * value
            Qi[b] += gk[a] * value
            if a != b:
                Qi[a] += gk[b] * value
            if k != i:
                Qk[b] += gi[a] * value
                if a != b:
                    Qk[a] += gi[b] * value
    return _symmetric([sum(map(mul, v, low)) + sum(map(mul, YT[i], G[j]))
                       + 0.5 * (Q[i][j] + Q[j][i] - P[e] - T[e])
                       for e, ((i, j), low) in enumerate(zip(pairs, lowered))], dim), ginv


def einstein_diagnostic(q, params):
    """(lambda, relative residual) of the Einstein condition Ric = lambda*g
    at the chart point q.

    lambda = trace(g^{-1} Ric)/(4n); the residual is max|Ric - lambda*g|
    relative to max|g|.
    """
    g = metric_gram(q, params)
    ric, ginv = ricci_fd(q, params)
    lam = sum(x * y for grow, rrow in zip(ginv, ric) for x, y in zip(grow, rrow)) / (4 * params.n)
    deviation = [r - lam * x for rrow, grow in zip(ric, g) for r, x in zip(rrow, grow)]
    return lam, _max_abs(deviation) / _max_abs([x for row in g for x in row])


def _polar_normals(rng):
    """Two independent standard normals, as a pair, by Marsaglia's polar
    method from ``rng.random()`` draws only."""
    while True:
        u, v = 2.0 * rng.random() - 1.0, 2.0 * rng.random() - 1.0
        s = u * u + v * v
        if 0.0 < s < 1.0:
            scale = math.sqrt(-2.0 * math.log(s) / s)
            return u * scale, v * scale


def seeded_points(params, count, seed=42):
    """Deterministic sample of valid chart points: |X| <= 0.9 (|X|^2 the sum
    of the X block's squares), u^k^2 + v^k^2 <= 4, |phi_tilde| <= 2, rho in
    [0.5, 4].

    Every draw is ``random.Random(seed).random()``, whose sequence Python
    keeps across versions.  The law: (x^1, y^1, ..., x^{n-1}, y^{n-1}) =
    0.9 sqrt(U) times a uniform unit vector of R^{2n-2} (normalized
    polar-method normals, one pair per plane), (u^k, v^k) = 2 sqrt(U)
    (cos 2 pi U', sin 2 pi U'), phi_tilde = -2 + 4U, rho = 0.5 + 3.5U.  Each
    point draws, in this order: the n-1 normal pairs of the X block (each
    one accepted (u, v) pair of the polar method), the radius of X, the
    radius and then the angle of each (u^k, v^k) in k order, phi_tilde, rho.
    This order fixes every report that samples points.
    """
    rng = random.Random(seed)
    n = params.n
    points = []
    for _ in range(count):
        raw = [_polar_normals(rng) for _ in range(n - 1)]
        xy = []
        if raw:
            norm = math.sqrt(sum(x * x + y * y for x, y in raw))
            scale = 0.9 * math.sqrt(rng.random()) / norm
            xy = [scale * x for pair in raw for x in pair]
        uv = []
        for _ in range(n):
            r = 2.0 * math.sqrt(rng.random())
            t = 2.0 * math.pi * rng.random()
            uv += (r * math.cos(t), r * math.sin(t))
        phi = -2.0 + 4.0 * rng.random()
        rho = 0.5 + 3.5 * rng.random()
        points.append([rho, *xy, *uv, phi])
    return points


EINSTEIN_TOLERANCE = 1e-4


def cmd_curvature(config) -> tuple[dict, None]:
    """The ``curvature`` report of :mod:`oneloop.cli`, on its RunConfig;
    ``all_pass`` (residuals and lambda spread within tolerance, mean lambda
    negative) decides the exit status."""
    params = ModelParams(n=config.n, c=config.effective_c)
    points = seeded_points(params, config.points, seed=config.seed)
    rows = []
    lambdas = []
    max_residual = 0.0
    for index, q in enumerate(points):
        lam, residual = einstein_diagnostic(q, params)
        if not (math.isfinite(lam) and math.isfinite(residual)):
            raise OverflowError(
                f"curvature at point {index} leaves the float range at "
                f"c = {params.c!r}: lambda = {lam!r}, residual = {residual!r}")
        rows.append({"lambda": lam, "residual": residual})
        lambdas.append(lam)
        max_residual = max(max_residual, residual)
    mean_lambda = sum(lambdas) / len(lambdas)
    spread = (max(lambdas) - min(lambdas)) / abs(mean_lambda) if mean_lambda else float("inf")
    all_pass = (
        max_residual <= EINSTEIN_TOLERANCE
        and mean_lambda < 0
        and spread <= EINSTEIN_TOLERANCE
    )
    payload = {
        "config": dict(config.echo(), step=FD_STEP),
        "tolerance": EINSTEIN_TOLERANCE,
        "rows": rows,
        "lambda_mean": mean_lambda,
        "lambda_spread_relative": spread,
        "max_residual": max_residual,
        "all_pass": all_pass,
    }
    return payload, None
