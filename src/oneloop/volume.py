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

* the tail coefficient 1/(n+1): rho0^(n+1) * tail -> 1/(n+1);
* the near-origin constant 2 c^n / (2n+1) (``near_zero_constant``):
  for c > 0, rho1^(2n+1) * slab -> that value as rho1 -> 0, since only the
  k = n term of the slab integral (p_n = 2) carries rho1^-(2n+1).

Volumes are per unit of the fundamental-domain volume V_D.  Each quantity
is rho^-p * F(c/rho) for a polynomial F: the density has p = n+2 and F = P,
a tail p = n+1 and F = H, H(x) = sum_k p_k x^k / (n+1+k), and a slab is the
difference of two tails.  One helper forms rho^-p * F without a power of
rho on its own, taking the powers of two that keep F's float form in
range into its binary exponent, and each function raises FloatRangeError
naming rho and n wherever its value is not a normal positive float, and
elsewhere only where P(c/rho) itself leaves the float range.  The closed forms
read P's coefficients; the density and the rule read P as its product, so
the rule shares no coefficient with what it checks.
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
    "cmd_volume_table",
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


@lru_cache(maxsize=None)
def _coefficients(n: int) -> Tuple[Tuple[float, ...], int]:
    """H's coefficients p_k / (n+1+k) as floats, times 2^-s, and s: the tail
    over [rho0, infinity) is rho0^-(n+1) * H(c/rho0).  s > 0 only where the
    largest coefficient's binary exponent exceeds 1000, from n = 1016 on:
    there Horner's partial sums, which exceed H itself for c/rho0 < 1, would
    leave the float range before H does, and a larger s would make p_0/(n+1)
    subnormal.  ((inf,), 0) where a coefficient leaves the float range, from
    n = 1040 on."""
    try:
        coefficients = [p / (n + 1 + k) for k, p in enumerate(poly_P(n))]
    except OverflowError:
        return (math.inf,), 0
    s = max(0, math.frexp(max(coefficients))[1] - 1000)
    return tuple([math.ldexp(coeff, -s) for coeff in coefficients]), s


def _tail_polynomial(n: int, x: float) -> Tuple[float, int]:
    """(h, s) with H(x) = h 2^s: Horner's value on the scaled coefficients,
    and their s, which ``_scaled`` takes into its binary exponent.  The
    closed tail, the slab and the ratio column all read H here."""
    coefficients, s = _coefficients(n)
    return _horner(coefficients, x), s


def _product(n: int, x: float) -> Tuple[float, int]:
    """(v, s) with P(x) = v 2^s, P as its product (1+x)^(n-1) * (1+2x) and s
    that of ``_coefficients(n)``: the density's and the quadrature rule's P,
    scaled as the closed forms scale H, and v = inf where it leaves the
    float range.  Where the product overflows, its power is formed as
    m^(n-1) 2^(e(n-1)), 1+x = m 2^e with m in [1/sqrt(2), sqrt(2))."""
    s = _coefficients(n)[1]
    try:
        value, k = (1.0 + x) ** (n - 1) * (1.0 + 2.0 * x), 0
    except OverflowError:
        value = math.inf
    if value == math.inf:
        m, e = _mantissa(1.0 + x)
        value, k = m ** (n - 1) * (1.0 + 2.0 * x), e * (n - 1)
    try:
        return math.ldexp(value, k - s), s
    except OverflowError:
        return math.inf, s


def _horner(coefficients: Tuple[float, ...], x: float) -> float:
    """The polynomial with these coefficients (constant term first) at x."""
    total = 0.0
    for coeff in reversed(coefficients):
        total = total * x + coeff
    return total


class FloatRangeError(ArithmeticError):
    """A volume quantity at the given rho is not a normal positive float."""


def _normal(what: str, rho: float, n: int, value: float, name: str = "rho") -> float:
    """value, or FloatRangeError naming rho (or the input ``name``) and n
    unless it is a normal positive float; 0.0, subnormals, inf and nan all
    fail."""
    if not 2.0**-1022 <= value < math.inf:
        raise FloatRangeError(f"{what} at {name} = {rho!r} leaves the float range at n = {n}")
    return value


def _mantissa(x: float) -> Tuple[float, int]:
    """(m, e) with x = m 2^e and m in [1/sqrt(2), sqrt(2)), for x > 0."""
    m, e = math.frexp(x)
    if m < 0.7071067811865476:
        m, e = 2 * m, e - 1
    return m, e


def _scaled(rho: float, p: int, value: float, shift: int = 0) -> float:
    """rho^-p * value * 2^shift as f m^-p 2^(g + shift - e p), where rho =
    m 2^e with m in [1/sqrt(2), sqrt(2)) and value = f 2^g (``math.frexp``):
    no power of rho or of two is formed on its own, m^-p lies within a
    factor 2^(|p|/2) of 1, and only the final ``ldexp`` leaves the float
    range, giving 0.0, a subnormal or inf, exactly where the product does."""
    m, e = _mantissa(rho)
    f, g = math.frexp(value)
    try:
        return math.ldexp(f * m**-p, g + shift - e * p)
    except OverflowError:
        return math.inf


def density(rho: float, params: ModelParams) -> float:
    """The rho-dependent volume density factor rho^-(n+2) * P(c/rho).

    The full density sqrt(det g) is this factor times the rho-independent
    invariant fiber density; slab volumes per unit V_D integrate it.
    """
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    n = params.n
    value = _scaled(rho, n + 2, *_product(n, params.c / rho))
    return _normal("density", rho, n, value)


def tail_closed(rho0: float, params: ModelParams) -> float:
    """Exact antiderivative of the density over [rho0, infinity).

    Equals rho0^-(n+1) H(c/rho0) = sum_k p_k c^k / ((n+1+k) * rho0^(n+1+k));
    the k = 0 term 1 / ((n+1) rho0^(n+1)) dominates as rho0 grows.
    """
    if not rho0 > 0:
        raise ValueError(f"rho0 must be positive, got {rho0}")
    n = params.n
    value = _scaled(rho0, n + 1, *_tail_polynomial(n, params.c / rho0))
    return _normal("tail volume", rho0, n, value)


def slab_closed(rho1: float, rho0: float, params: ModelParams) -> float:
    """Exact antiderivative of the density over [rho1, rho0], 0 < rho1 < rho0.

    The tail at rho1 minus the tail at rho0, both in units of rho1^-(n+1):
    rho1^-(n+1) * (H(c/rho1) - (rho0/rho1)^-(n+1) H(c/rho0)), the two H
    sharing their 2^s.
    """
    if not 0 < rho1 < rho0:
        raise ValueError(
            f"slab bounds must satisfy 0 < rho1 < rho0, got [{rho1}, {rho0}]"
        )
    n = params.n
    outer = _scaled(rho0 / rho1, n + 1, _tail_polynomial(n, params.c / rho0)[0])
    inner, s = _tail_polynomial(n, params.c / rho1)
    value = _scaled(rho1, n + 1, inner - outer, s)
    return _normal("slab volume", rho1, n, value)


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


def _scaled_quadrature(what: str, rho: float, lo: float, params: ModelParams) -> float:
    """rho^-(n+1) times the integral of t^n P(c t/rho) over [lo, 1].

    The (n+1)-point rule integrates this polynomial of degree 2n exactly up
    to rounding, and the result follows the closed forms' range rule.  Where
    the closed forms' coefficients leave the float range, n >= 1040, the
    oracle refuses before any rule is built.
    """
    n, x = params.n, params.c / rho
    if _coefficients(n)[0] == (math.inf,):
        return _normal(what, rho, n, math.inf)
    width, total = 1.0 - lo, 0.0
    for node, weight in _gauss_legendre(n + 1):
        t = lo + width * node
        value, s = _product(n, x * t)
        total += weight * t**n * value
    return _normal(what, rho, n, _scaled(rho, n + 1, width * total, s))


def slab_quadrature(rho1: float, rho0: float, params: ModelParams) -> float:
    """Quadrature oracle for slab_closed on [rho1, rho0].

    rho = rho1/t maps the slab onto t in [rho1/rho0, 1].
    """
    if not 0 < rho1 < rho0:
        raise ValueError(
            f"slab bounds must satisfy 0 < rho1 < rho0, got [{rho1}, {rho0}]"
        )
    return _scaled_quadrature("slab volume", rho1, rho1 / rho0, params)


def tail_quadrature(rho0: float, params: ModelParams) -> float:
    """Quadrature oracle for tail_closed on [rho0, infinity).

    rho = rho0/t maps the tail onto t in (0, 1], and rho0 is never rounded
    into a node, so the oracle holds at every scale.
    """
    if not rho0 > 0:
        raise ValueError(f"rho0 must be positive, got {rho0}")
    return _scaled_quadrature("tail volume", rho0, 0.0, params)


def near_zero_constant(params: ModelParams) -> float:
    """The near-origin constant: the limit of rho1^(2n+1) * slab, c > 0.

    The density's strongest pole at rho = 0 comes from the top coefficient
    p_n = 2 of P, giving 2 c^n / rho^(2n+2): the k-th term of
    ``slab_closed`` scales as rho1^-(n+1+k), so only k = n survives the
    rho1^(2n+1) scaling, and the limit is 2 c^n / (2n+1) for every
    n >= 1.  c = 0 is a different asymptotic regime (the slab then grows
    like rho1^-(n+1)) and is rejected.  c^n is not formed on its own, and
    the range rule names c and n.
    """
    n, c = params.n, params.c
    if c == 0:
        raise ValueError(
            "the near-origin coefficient applies to c > 0 only; for c = 0 "
            "the slab volume grows like rho1**-(n+1) / (n+1) instead"
        )
    return _normal("near-origin constant", c, n, _scaled(c, -n, 2 / (2 * n + 1)), "c")


def upper_bound_constant(rho_floor: float, params: ModelParams) -> float:
    """C(rho_floor) = (1 + c/rho_floor)^(n-1) * (1 + 2c/rho_floor).

    For rho >= rho_floor the density is at most C(rho_floor) * rho^-(n+2);
    this is P evaluated at c/rho_floor.
    """
    if not rho_floor > 0:
        raise ValueError(f"rho_floor must be positive, got {rho_floor}")
    value = _scaled(1.0, 0, *_product(params.n, params.c / rho_floor))
    return _normal("upper bound constant", rho_floor, params.n, value)


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
    normalized = _scaled(rho, -(params.n + 2), density(rho, params))
    ceiling = upper_bound_constant(rho_floor, params)
    lower_ok = normalized >= 1.0 - _BOUND_SLACK
    upper_ok = normalized <= ceiling * (1.0 + _BOUND_SLACK)
    return lower_ok, upper_ok


def volume_rows(rho_grid: Sequence[float], params: ModelParams) -> List[Dict[str, float]]:
    """The volume table over the rho grid, one dict per value, per unit V_D.

    Keys: rho, density, closed_tail, quadrature_tail, ratio_to_asymptote,
    where the last divides the closed tail by its leading asymptote
    1 / ((n+1) rho^(n+1)), which leaves (n+1) H(c/rho), and tends to 1 for
    large rho.  A grid value at which any entry is not a normal float
    raises ValueError naming it.
    """
    n = params.n
    rows = []
    for rho in rho_grid:
        try:
            row = {
                "rho": rho,
                "density": density(rho, params),
                "closed_tail": tail_closed(rho, params),
                "quadrature_tail": tail_quadrature(rho, params),
                "ratio_to_asymptote":
                    (n + 1) * _scaled(1.0, 0, *_tail_polynomial(n, params.c / rho)),
            }
        except FloatRangeError:
            row = None
        if row is None or not row["ratio_to_asymptote"] < math.inf:
            raise ValueError(f"rho = {rho!r} leaves the float range at n = {n}")
        rows.append(row)
    return rows


# The benchmark tracer binds this name; it is the same function.
volume_table_csv = volume_rows


# Relative agreement of volume-table's closed tail with its quadrature.
VOLUME_TOLERANCE = 1e-12


def cmd_volume_table(config) -> Tuple[Dict, List[Dict[str, float]]]:
    """The ``volume-table`` report and CSV rows of :mod:`oneloop.cli`, on its
    RunConfig; ``all_pass`` (each row's closed tail within VOLUME_TOLERANCE of
    its quadrature) decides the exit status."""
    params = ModelParams(n=config.n, c=config.c)
    computed = volume_rows(config.grid, params)
    # The verdict compares the unrounded tails: the printed ones are rounded.
    all_pass = all(abs(row["closed_tail"] - row["quadrature_tail"])
                   <= VOLUME_TOLERANCE * row["closed_tail"] for row in computed)
    # JSON carries the 12 significant digits of the CSV columns.
    rows = [{name: float(f"{value:.12g}") for name, value in row.items()}
            for row in computed]
    report = {"config": config.echo(), "tolerance": VOLUME_TOLERANCE, "rows": rows,
              "all_pass": all_pass}
    return report, rows
