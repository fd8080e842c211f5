"""Float half of the symmetry fields: the catalogue's Killing residuals.

Builds the real symmetry catalogue as float term lists from the closed forms
of :mod:`oneloop.generators`, which the exact fields of
:mod:`oneloop.polyfields` read too, with their monomials, coefficients and
term order, and evaluates it in the real chart, in Python complex
arithmetic, against finite-difference metric derivatives.  The exact
catalogue (``real_killing_catalogue``) stays the reference; a process that
only verifies the Killing property never loads the exact layer.  The flows
of the catalogue's affine fields live in :mod:`oneloop.flows`, which no
command loads.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from .geometry import (
    FD_STEP, ModelParams, PointBarN, _max_abs, _upper, _weighted_sum, ix_phi, ix_rho, ix_u,
    ix_v, ix_x, ix_y, metric_first_derivatives, metric_gram, seeded_points,
)
from .generators import VarTable, generator_terms

if TYPE_CHECKING:  # imported where used, so that verify-killing does not compile it
    from .polyfields import PolyVectorField

KILLING_TOLERANCE = 1e-6
CONTROL_THRESHOLD = 1e-2


def _chart_values(p: PointBarN, c_value) -> List[complex]:
    """Values of the polynomial variables (X, Xbar, w, wbar, c) at a point."""
    X, w = list(p.X), list(p.w)
    return (X + [z.conjugate() for z in X] + w + [z.conjugate() for z in w]
            + [complex(c_value)])


def _chart_pairs(n: int):
    """(holomorphic variable, antiholomorphic variable, real chart index,
    imaginary chart index) of each complex coordinate X^a, w^k, in the
    variable order of ``_chart_values`` (``VarTable``).

    A real field's chart component along x + iy is the holomorphic
    component A, read as (Re A, Im A); the chart partials of a component B
    are d/dx B = dB/dX + dB/dXbar and d/dy B = i(dB/dX - dB/dXbar).
    """
    vt = VarTable(n)
    return tuple([(vt.x(a), vt.xb(a), ix_x(a), ix_y(a)) for a in range(1, n)]
                 + [(vt.w(k), vt.wb(k), ix_u(k, n), ix_v(k, n)) for k in range(n)])


def _accumulate(terms, items):
    """Add (monomial, (re, im)) pairs into the dict ``terms``, in order, as
    ``Poly._accumulate`` adds terms: a new monomial is appended and a sum
    that cancels removes its monomial."""
    for mono, (x, y) in items:
        if mono not in terms:
            terms[mono] = (x, y)
            continue
        u, v = terms[mono]
        if u + x or v + y:
            terms[mono] = (u + x, v + y)
        else:
            del terms[mono]
    return terms


def _re_im(F, perm):
    """F + conj(F) and i(F - conj(F)) of a field given as one dict of
    monomial -> (re, im) per direction, summed in the order of
    ``polyfields.real_part`` and ``imag_part``; conj swaps each variable
    and direction with its partner under ``perm``."""
    conj = [None] * len(F)
    for i, comp in enumerate(F):
        conj[perm[i]] = [(tuple([mono[j] for j in perm]), (x, -y))
                         for mono, (x, y) in comp.items()]
    re = [_accumulate(dict(comp), bar) for comp, bar in zip(F, conj)]
    im = [{mono: (-y, x) for mono, (x, y) in
           _accumulate(dict(comp), [(mono, (-x, -y)) for mono, (x, y) in bar]).items()}
          for comp, bar in zip(F, conj)]
    return re, im


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


def _real_catalogue_terms(n: int):
    """The fields of ``real_killing_catalogue``, labelled, each as its
    per-direction term lists of (monomial, complex coefficient): the
    monomials, coefficient bits and term order of the exact fields'
    ``Poly.terms``, from the closed forms of ``generator_terms``.

    Every coefficient is a Gaussian integer, kept as an (re, im) pair of
    ints until one ``complex(re, im)`` converts it exactly.
    """
    perm = VarTable(n).conj_perm()
    items = []
    for label, kind, indices in _catalogue_generators(n):
        F = generator_terms(kind, n, *indices)
        if indices:
            re, im = _re_im(F, perm)
            items += [(f"re {label}", re), (f"im {label}", im)]
        else:
            items.append((label, F))
    return [(label, tuple([(m, complex(re, im)) for m, (re, im) in comp.items()] for comp in F))
            for label, F in items]


class _ChartEvaluator:
    """Real chart vectors and Jacobians of a list of fields, all at once.

    A field is given as its per-direction term lists of (monomial, complex
    coefficient), directions and variables in the order of
    ``_chart_values`` (X, Xbar, w, wbar), the angle direction last, and c
    the last variable.  The fields are real, so their chart projections
    (``_chart_pairs``) read only the holomorphic and angle components.  Per
    field the evaluator keeps those components, and the (d/dz, d/dzbar)
    partial pairs of each along every complex coordinate z, as compiled
    term lists, with the vector and Jacobian entries they fill; a component
    or a pair without terms is left out, and the radial and angle columns
    of a Jacobian are zero.  A compiled term is a coefficient and the
    powers it multiplies, where power 1 + (e - 1)*nv + v is var_v**e
    (nv = 4n - 1 variables).  At a point each term is its coefficient times
    the powers of its variables, taken in variable order, and the terms are
    summed in list order, in Python complex arithmetic: the termwise
    evaluation of every component and partial, bit for bit.
    """

    def __init__(self, fields: Sequence[Sequence[list]]):
        nv = len(fields[0])
        n = (nv + 1) // 4

        def compiled(terms):
            return tuple((coeff, tuple(1 + (e - 1) * nv + v for v, e in enumerate(mono) if e))
                         for mono, coeff in terms)

        def partial(terms, v):
            return [(mono[:v] + (mono[v] - 1,) + mono[v + 1:], coeff * mono[v])
                    for mono, coeff in terms if mono[v]]

        self.emax = max([1, *(e for F in fields for comp in F
                              for mono, _ in comp for e in mono)])
        pairs = _chart_pairs(n)
        components = [(h, re, im) for h, _, re, im in pairs] + [(nv - 1, ix_phi(n), None)]
        self.vectors, self.jacobians = [], []
        for F in fields:
            self.vectors.append([(compiled(F[h]), re, im)
                                 for h, re, im in components if F[h]])
            jac = []
            for h, re, im in components:
                for hv, av, re_col, im_col in pairs:
                    d_hol, d_antihol = partial(F[h], hv), partial(F[h], av)
                    if d_hol or d_antihol:
                        jac.append((compiled(d_hol), compiled(d_antihol),
                                    re, im, re_col, im_col))
            self.jacobians.append(jac)

    def __call__(self, p: PointBarN, c_value):
        """Per field, the nonzero entries of its real chart vector, as
        (chart index, value), and of its Jacobian, as (row, column, value)."""
        vals = _chart_values(p, c_value)
        try:
            powers = [1 + 0j] + [z**e for e in range(1, self.emax + 1) for z in vals]
        except OverflowError as exc:
            raise OverflowError(
                f"symmetry field terms leave the float range at c = {c_value!r}: "
                f"a power of degree <= {self.emax} overflows") from exc

        def value(terms):
            total = 0j
            for term, factors in terms:
                for index in factors:
                    term *= powers[index]
                total += term
            return total

        vecs = []
        for spec in self.vectors:
            vec = []
            for terms, re, im in spec:
                z = value(terms)
                vec.append((re, z.real))
                if im is not None:
                    vec.append((im, z.imag))
            vecs.append([entry for entry in vec if entry[1]])
        jacs = []
        for spec in self.jacobians:
            jac = []
            for hol, antihol, re, im, re_col, im_col in spec:
                d_hol, d_antihol = value(hol), value(antihol)
                d_x, d_diff = d_hol + d_antihol, d_hol - d_antihol  # d/dy = i * d_diff
                jac += [(re, re_col, d_x.real), (re, im_col, -d_diff.imag)]
                if im is not None:
                    jac += [(im, re_col, d_x.imag), (im, im_col, d_diff.real)]
            jacs.append([entry for entry in jac if entry[2]])
        return vecs, jacs


def real_killing_catalogue(params: ModelParams) -> List[Tuple[str, PolyVectorField]]:
    """All catalogued real symmetry generators, labelled.

    Contains the real fields YC, T, C1, C2 plus the real/imaginary
    combinations of the base shears Ya, the fiber translations Vk, and the
    shear commutators.  Every entry satisfies the reality condition.  Only
    ``params.n`` is read: the fields are polynomial in the symbol c.  The
    exact reference of the catalogue that ``killing_residuals`` evaluates
    from ``_real_catalogue_terms``.
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

def _lie_derivatives(evaluate: _ChartEvaluator, p: PointBarN,
                     params: ModelParams, D1, g) -> List[List[float]]:
    """L_F g = F^k d_k g + J^T g + g J for every field of ``evaluate``, as its
    flat upper triangle, like each D1[k] (``metric_first_derivatives``).

    Only the nonzero entries of F and J are visited.  An entry J_ab adds
    J_ab g_xa to (g J)_xb and to (J^T g)_bx for every x, which is the pair
    {x, b} of the upper triangle, twice on the diagonal.
    """
    index = _upper(len(g))[0]
    vecs, jacs = evaluate(p, params.c)
    out = []
    for vec, jac in zip(vecs, jacs):
        if vec:
            ks, values = zip(*vec)
            L = _weighted_sum(len(vec))(values, [D1[k] for k in ks], 1.0)
        else:
            L = [0.0] * len(D1[0])
        for a, b, value in jac:
            row = g[a]
            for position, x in zip(index[b], row):
                L[position] += value * x
            L[index[b][b]] += value * row[b]
        out.append(L)
    return out


def killing_residuals(params: ModelParams, points: Sequence[PointBarN]):
    """Max relative Killing residual per catalogued real generator.

    Returns (ordered dict label -> max over points of |L_F g|_inf / |g|_inf,
    same quantity for the radial negative control).  A NaN residual at any
    point makes its maximum NaN, so that no tolerance check passes it.
    """
    catalogue = _real_catalogue_terms(params.n)
    evaluate = _ChartEvaluator([F for _, F in catalogue])
    residuals = {label: 0.0 for label, _ in catalogue}
    control = 0.0
    for p in points:
        q = p.to_chart()
        D1 = metric_first_derivatives(q, params)
        g = metric_gram(p, params)
        ginf = _max_abs([x for row in g for x in row])
        L = _lie_derivatives(evaluate, p, params, D1, g)
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
    params = ModelParams(n=config.n, c=config.effective_c)
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
