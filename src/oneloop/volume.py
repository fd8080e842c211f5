"""Fiber volume density, closed-form slab/tail volumes, and asymptotics.

Integrating the metric volume form over a fundamental domain in a fixed
rho-level set leaves a one-dimensional integral in rho: the density
factorizes as rho^-(n+2) * P(c/rho) times an invariant fiber density,
where P(x) = (1+x)^(n-1) * (1+2x) is a degree-n polynomial with positive
integer coefficients and constant term 1.  This module expands P exactly,
evaluates the density, integrates it in closed form over slabs
[rho1, rho0] and tails [rho0, infinity), cross-checks the closed forms by
a Gauss-Legendre rule, exact for the polynomial in t that each integral
becomes under rho = rho_i/t, and exposes the asymptotic constants:

* the tail coefficient V_D / (n+1): rho0^(n+1) * tail -> V_D/(n+1);
* the near-origin constant 2 c^n V_D / (2n+1) (``near_zero_constant``):
  for c > 0, rho1^(2n+1) * slab -> that value as rho1 -> 0, since only the
  k = n term of the slab integral (p_n = 2) carries rho1^-(2n+1).

The fundamental-domain volume V_D is a caller-supplied positive scalar;
computing it from a lattice is out of scope.
"""

from __future__ import annotations

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
    p_0 = 1 and p_n = 2.  The tuple is built once per n.
    """
    if type(n) is not int or n < 1:
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


@lru_cache(maxsize=None)
def _gauss_legendre(m: int) -> Tuple[Tuple[float, float], ...]:
    """The m-point Gauss-Legendre rule on [0, 1] as (node, weight) pairs.

    Exact up to rounding below degree 2m (Davis & Rabinowitz, Methods of
    Numerical Integration, 2nd ed., 1984, section 2.7).  Each root
    x = 1 - u > 0 of P_m, found by Newton's method in u, gives the nodes u/2
    and 1 - u/2, both of weight 1/((1 - x^2) P_m'(x)^2).
    """
    def legendre(u: float) -> Tuple[float, float]:
        # P_m(1 - u) and its u-derivative by (k+1) P_(k+1) = (2k+1) x P_k -
        # k P_(k-1), run on P_(k+1) - P_k so that u is never rounded to 1 - u.
        lower, difference = 1.0, -u  # P_0 and P_1 - P_0
        for k in range(1, m):
            lower += difference
            difference = (k * difference - (2 * k + 1) * u * lower) / (k + 1)
        value = lower + difference  # P_m, and lower is P_(m-1)
        return value, m * ((1.0 - u) * value - lower) / (u * (2.0 - u))

    rule = [(0.5, 1.0 / legendre(1.0)[1] ** 2)] if m % 2 else []
    for i in range(1, m // 2 + 1):
        u = 2.0 * math.sin(math.pi * (i - 0.25) / (2 * m + 1)) ** 2
        step = u
        while abs(step) > 1e-13 * u:
            value, slope = legendre(u)
            step = value / slope
            u -= step
        weight = 1.0 / (u * (2.0 - u) * legendre(u)[1] ** 2)
        rule += [(u / 2, weight), (1.0 - u / 2, weight)]
    return tuple(rule)


def _scaled_quadrature(
    what: str, rho: float, lo: float, power: int, params: ModelParams, V_D: float
) -> float:
    """V_D rho^-(n+1) times the integral of t^n P(c t/rho) over [lo, 1].

    The (n+1)-point rule integrates this polynomial of degree 2n exactly up
    to rounding.  FloatRangeError names rho and n where the result leaves
    the float range, and wherever the closed form raises it: where a term
    p_k c^k or rho^power overflows, or a divisor rho^power (power > 0)
    underflows to 0.
    """
    _check_vd(V_D)
    n, poly, x = params.n, poly_P(params.n), params.c / rho
    width, total = 1.0 - lo, 0.0
    try:
        if not ((rho**power > 0 or power < 0) and _horner(poly, params.c) < math.inf):
            raise OverflowError
        for node, weight in _gauss_legendre(n + 1):
            t = lo + width * node
            total += weight * t**n * _horner(poly, x * t)
        value = V_D * width * total * rho ** -(n + 1)
    except ArithmeticError:
        value = math.inf
    return _finite(what, rho, n, value)


def slab_quadrature(
    rho1: float, rho0: float, params: ModelParams, V_D: float
) -> float:
    """Quadrature oracle for slab_closed on [rho1, rho0].

    rho = rho1/t maps the slab onto t in [rho1/rho0, 1].
    """
    if not 0 < rho1 < rho0:
        raise ValueError(
            f"slab bounds must satisfy 0 < rho1 < rho0, got [{rho1}, {rho0}]"
        )
    power = -(2 * params.n + 1)  # slab_closed multiplies by rho1^-(n+1+k)
    return _scaled_quadrature("slab volume", rho1, rho1 / rho0, power, params, V_D)


def tail_quadrature(rho0: float, params: ModelParams, V_D: float) -> float:
    """Quadrature oracle for tail_closed on [rho0, infinity).

    rho = rho0/t maps the tail onto t in (0, 1], and rho0 is never rounded
    into a node, so the oracle holds at every scale.
    """
    if not rho0 > 0:
        raise ValueError(f"rho0 must be positive, got {rho0}")
    power = 2 * params.n + 1  # tail_closed divides by rho0^(n+1+k)
    return _scaled_quadrature("tail volume", rho0, 0.0, power, params, V_D)


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
