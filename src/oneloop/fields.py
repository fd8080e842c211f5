"""Float half of the symmetry fields: the catalogue's Killing residuals.

Substitutes X = x + iy and w = u + iv once, in integer arithmetic, into the
closed forms of :mod:`oneloop.generators`, which the exact fields of
:mod:`oneloop.polyfields` read too: ``_chart_catalogue`` holds each real
catalogue field as real polynomials in the chart coordinates and c, with
integer coefficients.  It evaluates them in float arithmetic against
finite-difference metric derivatives.  The exact catalogue
(``real_killing_catalogue``) stays the reference; a process that only
verifies the Killing property never loads the exact layer.  The flows of the
catalogue's affine fields live in :mod:`oneloop.flows`, which no command
loads.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from .geometry import (
    FD_STEP, ModelParams, _max_abs, _pattern, _upper, ix_phi, ix_rho, ix_u, ix_v, ix_x, ix_y,
    metric_first_derivatives, metric_gram, seeded_points,
)
from .generators import VarTable, generator_terms

if TYPE_CHECKING:  # imported where used, so that verify-killing does not compile it
    from .polyfields import PolyVectorField

KILLING_TOLERANCE = 1e-6
CONTROL_THRESHOLD = 1e-2


def _catalogue_generators(n: int):
    """The generators of the real catalogue, as (label, kind, indices), in
    catalogue order: YC, T, C1 and C2 are real and enter as they are; Ya(a),
    V(k) and Comm(a,b) = [Ya, conj(Yb)] for a <= b enter as their real and
    imaginary parts, labelled "re ..." and "im ..."."""
    return ([(kind, kind, ()) for kind in ("YC", "T", "C1", "C2")]
            + [(f"Ya({a})", "Ya", (a,)) for a in range(1, n)]
            + [(f"V({k})", "Vk", (k,)) for k in range(n)]
            + [(f"Comm({a},{b})", "CommYaYbBar", (a, b))
               for a in range(1, n) for b in range(a, n)])


def _chart_catalogue(n: int):
    """The fields of ``real_killing_catalogue``, labelled, in the real chart.

    A field is 4n polynomials, one per chart coordinate in the order of
    the ``ix_*`` layout (the radial one is 0), each a dict mapping a
    monomial to a nonzero int.  A monomial is the tuple of its variables in
    increasing order, a variable being a chart index, or 4n for c.

    The x and y components along a complex coordinate are Re H and Im H of
    the field's holomorphic part H there: the component itself for a real
    generator, and P + conj(Q) or i(P - conj(Q)) = iP + conj(iQ) for the
    "re" or "im" row of a complex one, P and Q being its holomorphic and
    antiholomorphic components after the substitution and conj conjugating
    coefficients only.  The angle component enters as both P and Q.  H sums
    P's terms, then Q's, and drops a sum that cancels.
    """
    vt = VarTable(n)
    units = [None] * vt.nvars  # each variable as its (chart variable, unit) pairs
    units[vt.c] = ((4 * n, (1, 0)),)
    slots = []
    for h, hb, x, y in ([(vt.x(a), vt.xb(a), ix_x(a), ix_y(a)) for a in range(1, n)]
                        + [(vt.w(k), vt.wb(k), ix_u(k, n), ix_v(k, n)) for k in range(n)]):
        units[h], units[hb] = ((x, (1, 0)), (y, (0, 1))), ((x, (1, 0)), (y, (0, -1)))
        slots.append((h, hb, x, y))
    slots.append((vt.nvars - 1, vt.nvars - 1, ix_phi(n), None))

    def substituted(comp, scale, conj):
        """The (monomial, (re, im)) terms of scale * comp, each conjugated
        when ``conj``."""
        for mono, (a, b) in comp.items():
            terms = [((), (a * scale[0] - b * scale[1], a * scale[1] + b * scale[0]))]
            for v, e in enumerate(mono):
                for _ in range(e):
                    terms = [(m + (i,), (a * p - b * q, a * q + b * p))
                             for m, (a, b) in terms for i, (p, q) in units[v]]
            for m, (a, b) in terms:
                yield tuple(sorted(m)), (a, -b if conj else b)

    table = []
    for label, kind, indices in _catalogue_generators(n):
        F = generator_terms(kind, n, *indices)
        for prefix, scale in [("re ", (1, 0)), ("im ", (0, 1))] if indices else [("", (1, 0))]:
            comps = [{} for _ in range(4 * n)]
            for h, hb, x, y in slots:
                terms = [*substituted(F[h], scale, False),
                         *(substituted(F[hb], scale, True) if indices else ())]
                H = {}
                for mono, (a, b) in terms:
                    a0, b0 = H.get(mono, (0, 0))
                    if a0 + a or b0 + b:
                        H[mono] = (a0 + a, b0 + b)
                    else:
                        del H[mono]
                comps[x] = {mono: a for mono, (a, _) in H.items() if a}
                if y is not None:
                    comps[y] = {mono: b for mono, (_, b) in H.items() if b}
            table.append((prefix + label, comps))
    return table


class _ChartEvaluator:
    """Real chart vectors and Jacobians of a list of fields, all at once.

    A field is given as ``_chart_catalogue`` gives it: 4n polynomials in the
    chart coordinates and c, with numbers for coefficients, reading neither
    the radial nor the angle coordinate.  Per field the evaluator keeps its
    nonzero components, and their nonzero partials along the chart
    coordinates, as term lists of (coefficient, monomial), with the vector
    and Jacobian entries they fill.  The Jacobian entries come plane by
    plane of (x, y) rows, the angle row last, and within that plane by plane
    of columns, the x row before the y row and the x column before the y
    column.  At a point each term is its coefficient times its variables,
    taken in order, and the terms are summed in list order: the termwise
    evaluation of every component and partial, bit for bit.
    """

    def __init__(self, fields: Sequence[Sequence[dict]]):
        c = len(fields[0])  # the variable after the last chart coordinate

        def partials(comp):
            """(column, terms) of the nonzero partials of comp."""
            out = {}
            for mono, coeff in comp.items():
                for v in dict.fromkeys(mono):
                    if v != c:
                        k = mono.index(v)
                        out.setdefault(v, []).append(
                            (coeff * mono.count(v), mono[:k] + mono[k + 1:]))
            return out.items()

        def order(entry):
            """The plane of the row, the plane of the column, the row, the
            column: plane p holds the chart coordinates 2p + 1 and 2p + 2,
            and the angle row 4n - 1 comes after every plane."""
            row, col, _ = entry
            return (row - 1) // 2, (col - 1) // 2, row, col

        self.degree = max([1, *(mono.count(v) for F in fields for comp in F
                                for mono in comp for v in mono)])
        self.vectors, self.jacobians = [], []
        for F in fields:
            self.vectors.append([(i, [(coeff, mono) for mono, coeff in comp.items()])
                                 for i, comp in enumerate(F) if comp])
            self.jacobians.append(sorted([(row, col, terms) for row, comp in enumerate(F)
                                          for col, terms in partials(comp)], key=order))

    def __call__(self, q: Sequence[float], c_value):
        """Per field, the nonzero entries of its real chart vector at the
        chart point q, as (chart index, value), and of its Jacobian, as
        (row, column, value).

        Where a term reaches degree 2 in a variable, a c whose square leaves
        the float range is refused."""
        if self.degree > 1 and math.isinf(c_value * c_value):
            raise OverflowError(
                f"symmetry field terms leave the float range at c = {c_value!r}: "
                f"a power of degree <= {self.degree} overflows")
        vals = [*q, c_value]

        def value(terms):
            total = 0.0
            for term, mono in terms:
                for index in mono:
                    term *= vals[index]
                total += term
            return total

        vecs = [[(i, x) for i, terms in spec if (x := value(terms))] for spec in self.vectors]
        jacs = [[(row, col, x) for row, col, terms in spec if (x := value(terms))]
                for spec in self.jacobians]
        return vecs, jacs


def real_killing_catalogue(params: ModelParams) -> List[Tuple[str, PolyVectorField]]:
    """All catalogued real symmetry generators, labelled.

    Contains the real fields YC, T, C1, C2 plus the real/imaginary
    combinations of the base shears Ya, the fiber translations Vk, and the
    shear commutators.  Every entry satisfies the reality condition.  Only
    ``params.n`` is read: the fields are polynomial in the symbol c.  The
    exact reference of the catalogue that ``killing_residuals`` evaluates
    from ``_chart_catalogue``.
    """
    from .polyfields import generator, imag_part, real_part

    items: List[Tuple[str, PolyVectorField]] = []
    for label, kind, indices in _catalogue_generators(params.n):
        F = generator(kind, params.n, *indices)
        if indices:
            items += [(f"re {label}", real_part(F)), (f"im {label}", imag_part(F))]
        else:
            items.append((label, F))
    for label, field in items:
        if not field.is_real():
            raise AssertionError(f"catalogue field {label} is not real")
    return items


# --- Killing verification ---------------------------------------------------

def _lie_derivatives(evaluate: _ChartEvaluator, q: Sequence[float],
                     params: ModelParams, D1, g) -> List[List[float]]:
    """L_F g = F^k d_k g + J^T g + g J for every field of ``evaluate``, as its
    flat upper triangle, like each D1[k] (``metric_first_derivatives``).

    Only the nonzero entries of F and J are visited, and of each D1[k] only
    those ``_pattern(n)[0][k]`` lets be non-zero: the others are exact
    zeros, so the sum keeps its bits but for the sign of a zero.  An entry
    J_ab adds J_ab g_xa to (g J)_xb and to (J^T g)_bx for every x, which is
    the pair {x, b} of the upper triangle, twice on the diagonal.
    """
    index = _upper(len(g))[0]
    first = _pattern(params.n)[0]
    vecs, jacs = evaluate(q, params.c)
    out = []
    for vec, jac in zip(vecs, jacs):
        L = [0.0] * len(D1[0])
        for k, value in vec:
            Dk = D1[k]
            for e in first[k]:
                L[e] += value * Dk[e]
        for a, b, value in jac:
            row = g[a]
            for position, x in zip(index[b], row):
                L[position] += value * x
            L[index[b][b]] += value * row[b]
        out.append(L)
    return out


def killing_residuals(params: ModelParams, points: Sequence[Sequence[float]]):
    """Max relative Killing residual per catalogued real generator, over
    chart points.

    Returns (ordered dict label -> max over points of |L_F g|_inf / |g|_inf,
    same quantity for the radial negative control).  A NaN residual at any
    point makes its maximum NaN, so that no tolerance check passes it.
    """
    catalogue = _chart_catalogue(params.n)
    evaluate = _ChartEvaluator([F for _, F in catalogue])
    residuals = {label: 0.0 for label, _ in catalogue}
    control = 0.0
    for q in points:
        D1 = metric_first_derivatives(q, params)
        g = metric_gram(q, params)
        ginf = _max_abs([x for row in g for x in row])
        L = _lie_derivatives(evaluate, q, params, D1, g)
        for (label, _), Lf in zip(catalogue, L):
            rel = _max_abs(Lf) / ginf
            if rel > residuals[label] or math.isnan(rel):
                residuals[label] = rel
        rel_control = _max_abs(D1[ix_rho()]) / ginf
        if rel_control > control or math.isnan(rel_control):
            control = rel_control
    return residuals, control


def cmd_verify_killing(config) -> Tuple[Dict, List[Dict]]:
    """The ``verify-killing`` report and CSV rows of :mod:`oneloop.cli`, on
    its RunConfig; ``all_pass`` (every generator within tolerance and the
    radial control above its threshold) decides the exit status."""
    params = ModelParams(n=config.n, c=config.c)
    points = seeded_points(params, config.points, seed=config.seed)
    residuals, control = killing_residuals(params, points)
    rows = [
        {
            "generator": label,
            "max_residual": value,
            "tolerance": KILLING_TOLERANCE,
            "pass": value <= KILLING_TOLERANCE,
        }
        for label, value in residuals.items()
    ]
    control_row = {
        "generator": "radial control (d/d rho)",
        "max_residual": control,
        "threshold": CONTROL_THRESHOLD,
        "exceeds_threshold": control > CONTROL_THRESHOLD,
        "pass": False,
    }
    for row in rows + [control_row]:
        if not math.isfinite(row["max_residual"]):
            raise OverflowError(
                f"Killing residual of {row['generator']} leaves the float range "
                f"at c = {params.c!r}: {row['max_residual']!r}")
    all_pass = all(row["pass"] for row in rows) and control_row["exceeds_threshold"]
    report = {
        "config": dict(config.echo(), step=FD_STEP),
        "rows": rows,
        "control": control_row,
        "all_pass": all_pass,
    }
    csv_rows = rows + [dict(control_row, tolerance=CONTROL_THRESHOLD)]
    return report, csv_rows
