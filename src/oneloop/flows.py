"""Closed-form flows of the catalogue's affine symmetry fields.

``flow`` and ``flow_jacobian`` integrate the fields of the float catalogue
of :mod:`oneloop.fields` that have coordinate degree <= 1 and no c, named
by the labels that ``verify-killing`` prints, so the module states no
coefficient or shear of its own.  No subcommand runs a flow: the acceptance
and unit tests load this module, and no command compiles it.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from .fields import _chart_catalogue

TAU = 2.0 * math.pi


def _flow_map(label: str, t: float,
              n: int) -> Tuple[List[List[float]], List[float]]:
    """The time-t flow of the catalogue field ``label`` as the real-chart
    affine map J q + t b, J as a list of rows.

    The field must have coordinate degree <= 1 and no c, so that it is A q + b
    with A and b its linear and constant terms in ``_chart_catalogue``,
    small integers.  A must split into rotations of disjoint
    coordinate planes (A_pq = a = -A_qp) and a part N off those planes that
    reads no coordinate it moves (so N^2 = 0), and b must vanish on every
    column of A (so A b = 0).  Then J = exp(tA) is the rotation through -a t
    on each plane, exact at full periods, and I + tN elsewhere.  The radial
    coordinate never moves.
    """
    F = dict(_chart_catalogue(n)).get(label)
    if F is None or any(len(mono) > 1 or 4 * n in mono for comp in F for mono in comp):
        raise ValueError(f"no closed-form flow implemented for generator {label}")
    vec = [(row, comp[()]) for row, comp in enumerate(F) if () in comp]
    A = {(row, col): coeff for row, comp in enumerate(F) for mono, coeff in comp.items()
         for col in mono}
    planes = [(p, q, a) for (p, q), a in A.items() if p < q and A.get((q, p)) == -a]
    on_planes = {i for p, q, _ in planes for i in (p, q)}
    rest = [(row, col, value) for (row, col), value in A.items()
            if row not in on_planes and col not in on_planes]
    if (len(on_planes) < 2 * len(planes) or len(rest) + 2 * len(planes) < len(A)
            or {row for row, _, _ in rest} & {col for _, col, _ in rest}
            or {i for i, _ in vec} & {col for _, col in A}):
        raise ValueError(f"no closed-form flow implemented for generator {label}")
    m = 4 * n
    J = [[1.0 if i == j else 0.0 for j in range(m)] for i in range(m)]
    for p, q, a in planes:
        angle = math.remainder(-(a * t), TAU)  # reduced, so exact at full periods
        J[p][p] = J[q][q] = math.cos(angle)
        J[p][q], J[q][p] = -math.sin(angle), math.sin(angle)
    for row, col, value in rest:
        J[row][col] = t * value
    b = [0.0] * m
    for i, value in vec:
        b[i] = t * value
    return J, b


def _dimension(q: List[float]) -> int:
    """n of a chart vector of length 4n."""
    if not q or len(q) % 4:
        raise ValueError("chart vector must have length 4n")
    return len(q) // 4


def flow(label: str, t: float, q: List[float]) -> List[float]:
    """Closed-form flow for time t of the catalogue field that
    ``verify-killing`` labels ``label`` (see _flow_map), from the chart
    point q to the chart point it reaches.

    Each coordinate sums its row's nonzero entries of J in plain float
    arithmetic, so a full-period rotation (J = identity) returns q exactly.
    """
    J, b = _flow_map(label, t, _dimension(q))
    return [sum(x * y for x, y in zip(row, q) if x) + shift for row, shift in zip(J, b)]


def flow_jacobian(label: str, t: float, q: List[float]) -> List[List[float]]:
    """Exact Jacobian of the closed-form flow in the real chart at q."""
    return _flow_map(label, t, _dimension(q))[0]

