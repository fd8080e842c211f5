"""Fiber volume density, closed-form slab/tail volumes, and asymptotics.

Integrating the metric volume form over a fundamental domain in a fixed
rho-level set leaves a one-dimensional integral in rho: the density
factorizes as rho^-(n+2) * P(c/rho) times an invariant fiber density,
where P(x) = (1+x)^(n-1) * (1+2x) is a degree-n polynomial with positive
integer coefficients and constant term 1.  This module expands P exactly,
evaluates the density, integrates it in closed form over slabs
[rho1, rho0] and tails [rho0, infinity), cross-checks the closed forms by
adaptive Gauss-Kronrod 7/15 quadrature (relative target 1e-10; the tail
is mapped onto (0, 1] by rho = rho0/t, which keeps rho0 exact at every
scale and turns the integrand into a polynomial in t), and exposes the
asymptotic constants:

* the tail coefficient V_D / (n+1): rho0^(n+1) * tail -> V_D/(n+1);
* the near-origin constant 2 c^n V_D / (2n+1) (``near_zero_constant``):
  for c > 0, rho1^(2n+1) * slab -> that value as rho1 -> 0, since only the
  k = n term of the slab integral (p_n = 2) carries rho1^-(2n+1).

The fundamental-domain volume V_D is a caller-supplied positive scalar;
computing it from a lattice is out of scope.
"""

from __future__ import annotations

import heapq
import math
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from .params import ModelParams

__all__ = [
    "FloatRangeError",
    "poly_P",
    "density",
    "slab_closed",
    "tail_closed",
    "slab_quadrature",
    "tail_quadrature",
    "near_zero_constant",
    "upper_bound_constant",
    "bounds_check",
    "volume_rows",
]


@lru_cache(maxsize=None, typed=True)
def poly_P(n: int) -> Tuple[int, ...]:
    """Exact coefficients p_0..p_n of P(x) = (1+x)^(n-1) * (1+2x), n >= 1.

    The coefficient of x^k is C(n-1, k) + 2*C(n-1, k-1): all positive, with
    p_0 = 1 and p_n = 2.  The tuple is built once per n: ``density`` asks
    for it at every quadrature node.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    return tuple(
        math.comb(n - 1, k) + 2 * (math.comb(n - 1, k - 1) if k >= 1 else 0)
        for k in range(n + 1)
    )


def _horner(coefficients: Tuple[int, ...], x: float) -> float:
    """The polynomial with these coefficients (constant term first) at x."""
    total = 0.0
    for coeff in reversed(coefficients):
        total = total * x + coeff
    return total


class FloatRangeError(ArithmeticError):
    """A volume quantity at the given rho does not fit in a float."""


def _finite(what: str, rho: float, n: int, value: float) -> float:
    if not math.isfinite(value):
        raise FloatRangeError(f"{what} at rho = {rho!r} leaves the float range at n = {n}")
    return value


def density(rho: float, params: ModelParams) -> float:
    """The rho-dependent volume density factor rho^-(n+2) * P(c/rho).

    The full density sqrt(det g) is this factor times the rho-independent
    invariant fiber density, so slab volumes are V_D times the integral of
    this function.
    """
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    n = params.n
    try:
        value = rho ** (-(n + 2)) * _horner(poly_P(n), params.c / rho)
    except OverflowError:
        value = math.inf
    return _finite("density", rho, n, value)


def _check_vd(V_D: float) -> None:
    if not V_D > 0:
        raise ValueError("the fundamental-domain volume V_D must be positive")


def tail_closed(rho0: float, params: ModelParams, V_D: float) -> float:
    """Exact antiderivative of the density over [rho0, infinity).

    Equals V_D * sum_k p_k c^k / ((n+1+k) * rho0^(n+1+k)); the k = 0 term
    V_D / ((n+1) rho0^(n+1)) dominates as rho0 grows.
    """
    if not rho0 > 0:
        raise ValueError(f"rho0 must be positive, got {rho0}")
    _check_vd(V_D)
    n, c = params.n, params.c
    total = 0.0
    try:
        for k, p_k in enumerate(poly_P(n)):
            total += p_k * c**k / ((n + 1 + k) * rho0 ** (n + 1 + k))
    except ArithmeticError:  # a power overflows or underflows to zero
        total = math.inf
    return _finite("tail volume", rho0, n, V_D * total)


def slab_closed(rho1: float, rho0: float, params: ModelParams, V_D: float) -> float:
    """Exact antiderivative of the density over [rho1, rho0], 0 < rho1 < rho0."""
    if not 0 < rho1 < rho0:
        raise ValueError(
            f"slab bounds must satisfy 0 < rho1 < rho0, got [{rho1}, {rho0}]"
        )
    _check_vd(V_D)
    n, c = params.n, params.c
    total = 0.0
    try:
        for k, p_k in enumerate(poly_P(n)):
            power = n + 1 + k
            total += p_k * c**k / power * (rho1 ** (-power) - rho0 ** (-power))
    except OverflowError:  # a power of 1/rho1 leaves the float range
        total = math.inf
    return _finite("slab volume", rho1, n, V_D * total)


# Gauss-Kronrod 7/15 rule (QUADPACK qk15) on [-1, 1]: the Kronrod nodes from
# the outermost inwards, their weights, and the weights of the 7-point Gauss
# rule on the odd-indexed nodes.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)
_QUAD_REL_TOL = 1e-10
_QUAD_MAX_PANELS = 200


def _gk15(f, lo: float, hi: float) -> Tuple[float, float]:
    """K15 integral of f over [lo, hi] and its error estimate |K15 - G7|."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    f_center = f(center)
    kronrod = _WGK[7] * f_center
    gauss = _WG[3] * f_center
    for j in range(7):
        dx = half * _XGK[j]
        pair = f(center - dx) + f(center + dx)
        kronrod += _WGK[j] * pair
        if j % 2:
            gauss += _WG[j // 2] * pair
    return kronrod * half, abs(kronrod - gauss) * half


def _integrate(f, lo: float, hi: float) -> float:
    """Adaptive Gauss-Kronrod 7/15 integral of f over [lo, hi].

    Bisects the panel with the largest error estimate until the summed
    estimates are at most 1e-10 of |value|.  The rule never evaluates f at
    lo or hi.  Raises ValueError when an estimate is not finite or 200
    panels do not reach the target.
    """
    value, error = _gk15(f, lo, hi)
    panels = [(-error, lo, hi, value)]
    while True:
        total = math.fsum(panel[3] for panel in panels)
        total_error = math.fsum(-panel[0] for panel in panels)
        if not (math.isfinite(total) and math.isfinite(total_error)):
            raise ValueError("quadrature estimate is not finite")
        if total_error <= _QUAD_REL_TOL * abs(total):
            return total
        if len(panels) == _QUAD_MAX_PANELS:
            raise ValueError(
                f"quadrature missed relative error {_QUAD_REL_TOL} "
                f"with {_QUAD_MAX_PANELS} panels"
            )
        _, a, b, _ = heapq.heappop(panels)
        mid = 0.5 * (a + b)
        for sub_lo, sub_hi in ((a, mid), (mid, b)):
            value, error = _gk15(f, sub_lo, sub_hi)
            heapq.heappush(panels, (-error, sub_lo, sub_hi, value))


def slab_quadrature(
    rho1: float, rho0: float, params: ModelParams, V_D: float
) -> float:
    """Quadrature oracle for slab_closed on [rho1, rho0].

    Adaptive Gauss-Kronrod 7/15 quadrature of the density, relative target
    1e-10; ValueError if 200 panels do not reach it.
    """
    if not 0 < rho1 < rho0:
        raise ValueError(
            f"slab bounds must satisfy 0 < rho1 < rho0, got [{rho1}, {rho0}]"
        )
    _check_vd(V_D)
    return V_D * _integrate(lambda rho: density(rho, params), rho1, rho0)


def tail_quadrature(rho0: float, params: ModelParams, V_D: float) -> float:
    """Quadrature oracle for tail_closed on [rho0, infinity).

    Adaptive Gauss-Kronrod 7/15 quadrature, relative target 1e-10, over
    t in (0, 1] after the substitution rho = rho0/t, whose Jacobian is
    rho0/t^2.  The integrand becomes rho0^-(n+1) t^n P(c t/rho0); the
    factor rho0^-(n+1) is taken out of the integral, so no node loses
    rho0 to rounding.  ValueError if 200 panels do not reach the target.
    """
    if not rho0 > 0:
        raise ValueError(f"rho0 must be positive, got {rho0}")
    _check_vd(V_D)
    n, x = params.n, params.c / rho0
    poly = poly_P(n)
    integral = _integrate(lambda t: t**n * _horner(poly, x * t), 0.0, 1.0)
    return V_D * integral / rho0 ** (n + 1)


def near_zero_constant(params: ModelParams, V_D: float) -> float:
    """The near-origin constant: the limit of rho1^(2n+1) * slab, c > 0.

    The density's strongest pole at rho = 0 comes from the top coefficient
    p_n = 2 of P, giving 2 c^n / rho^(2n+2): the k-th term of
    ``slab_closed`` scales as rho1^-(n+1+k), so only k = n survives the
    rho1^(2n+1) scaling, and the limit is 2 c^n V_D / (2n+1) for every
    n >= 1.  c = 0 is a different asymptotic regime (the slab then grows
    like rho1^-(n+1)) and is rejected.
    """
    _check_vd(V_D)
    n, c = params.n, params.c
    if c == 0:
        raise ValueError(
            "the near-origin coefficient applies to c > 0 only; for c = 0 "
            "the slab volume grows like V_D * rho1**-(n+1) / (n+1) instead"
        )
    return 2 * c**n * V_D / (2 * n + 1)


def upper_bound_constant(rho_floor: float, params: ModelParams) -> float:
    """C(rho_floor) = (1 + c/rho_floor)^(n-1) * (1 + 2c/rho_floor).

    For rho >= rho_floor the density is at most C(rho_floor) * rho^-(n+2);
    this is P evaluated at c/rho_floor.
    """
    if not rho_floor > 0:
        raise ValueError(f"rho_floor must be positive, got {rho_floor}")
    # c / rho_floor overflows to inf for a tiny floor, and P(inf) is nan.
    value = _horner(poly_P(params.n), params.c / rho_floor)
    return _finite("upper bound constant", rho_floor, params.n, value)


_BOUND_SLACK = 1e-12


def bounds_check(
    rho: float, rho_floor: float, params: ModelParams
) -> Tuple[bool, bool]:
    """Verify the two density bounds at rho, relative to the floor rho_floor.

    Lower: density * rho^(n+2) >= 1 for every rho > 0 (P has constant term
    1 and positive coefficients).  Upper: density * rho^(n+2) <=
    C(rho_floor) for rho >= rho_floor (P is increasing).  Returns the pair
    (lower_ok, upper_ok), each decided with relative slack 1e-12 for
    floating-point round-off.  rho < rho_floor is rejected because the
    upper bound is only claimed above the floor.
    """
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    if rho < rho_floor:
        raise ValueError(
            f"the upper bound applies for rho >= rho_floor, got rho = {rho} "
            f"< rho_floor = {rho_floor}"
        )
    normalized = density(rho, params) * rho ** (params.n + 2)
    ceiling = upper_bound_constant(rho_floor, params)
    lower_ok = normalized >= 1.0 - _BOUND_SLACK
    upper_ok = normalized <= ceiling * (1.0 + _BOUND_SLACK)
    return lower_ok, upper_ok


def volume_rows(
    rho_grid: Sequence[float], params: ModelParams, V_D: float
) -> List[Dict[str, float]]:
    """The volume table over the rho grid, one dict per value.

    Keys: rho, density, closed_tail, quadrature_tail, ratio_to_asymptote,
    where the last divides the closed tail by its leading asymptote
    V_D / ((n+1) rho^(n+1)) and tends to 1 for large rho.  A grid value
    at which any entry leaves the float range raises ValueError naming it.
    """
    _check_vd(V_D)
    n = params.n
    rows = []
    for rho in rho_grid:
        try:
            closed = tail_closed(rho, params, V_D)
            row = {
                "rho": rho,
                "density": density(rho, params),
                "closed_tail": closed,
                "quadrature_tail": tail_quadrature(rho, params, V_D),
                "ratio_to_asymptote": closed / (V_D / ((n + 1) * rho ** (n + 1))),
            }
        except ArithmeticError:
            row = None
        if row is None or not all(map(math.isfinite, row.values())):
            raise ValueError(f"rho = {rho!r} leaves the float range at n = {n}")
        rows.append(row)
    return rows


# The benchmark tracer binds this name; it is the same function.
volume_table_csv = volume_rows
