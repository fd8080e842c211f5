"""Float half of the symmetry fields: Killing residuals and flows.

Evaluates the exact fields of :mod:`oneloop.polyfields` (re-exported here) in
the real chart, against finite-difference metric derivatives, with numpy.
"""

from __future__ import annotations

import functools
import math
from typing import List, Sequence, Tuple

import numpy as np

from .exact import VarTable
from .geometry import (
    ModelParams,
    PointBarN,
    ix_phi,
    ix_rho,
    ix_u,
    ix_v,
    ix_x,
    ix_y,
    metric_first_derivatives,
    metric_gram,
)
from .polyfields import (  # noqa: F401 -- bracket is re-exported
    GeneratorName, PolyVectorField, _phi_dir, bracket, generator, imag_part,
    real_part,
)

TAU = 2.0 * math.pi


def _chart_values(p: PointBarN, c_value) -> List[complex]:
    """Values of the polynomial variables (X, Xbar, w, wbar, c) at a point."""
    X, w = list(p.X), list(p.w)
    return (X + [z.conjugate() for z in X] + w + [z.conjugate() for z in w]
            + [complex(c_value)])


@functools.lru_cache(maxsize=None)
def _chart_projections(n: int):
    """Constant complex maps from a field table to the real chart.

    Real chart components are Re(rows @ comps) for comps on (dX, dXbar, dw,
    dwbar, dphi); chart partials of a component are partials @ cols for its
    partials by the variables (d/dx = d/dX + d/dXbar, d/dy = i(d/dX -
    d/dXbar)).  Radial rows and columns, and the angle column, are zero.
    """
    vt = VarTable(n)
    rows = np.zeros((4 * n, vt.nvars), dtype=complex)
    cols = np.zeros((vt.nvars - 1, 4 * n), dtype=complex)
    pairs = [(vt.x(a), vt.xb(a), ix_x(a), ix_y(a)) for a in range(1, n)]
    pairs += [(vt.w(k), vt.wb(k), ix_u(k, n), ix_v(k, n)) for k in range(n)]
    for hol, antihol, re_ix, im_ix in pairs:
        rows[re_ix, hol], rows[im_ix, hol] = 1.0, -1.0j
        cols[hol, re_ix], cols[antihol, re_ix] = 1.0, 1.0
        cols[hol, im_ix], cols[antihol, im_ix] = 1.0j, -1.0j
    rows[ix_phi(n), _phi_dir(n)] = 1.0
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


class _ChartEvaluator:
    """Real chart vectors and Jacobians of a list of fields, all at once.

    The fields' compiled terms are concatenated into one table.  At a point,
    each term is its coefficient times the powers of its variables, taken in
    variable order, and the terms are summed into their slots in the order of
    ``Poly.terms``; the result equals the termwise evaluation of every
    component and partial bit for bit.
    """

    def __init__(self, fields: Sequence[PolyVectorField]):
        self.n = n = fields[0].n
        nv = 4 * n - 1
        slots, coeffs, factors = [], [], []
        for f, F in enumerate(fields):
            s, c, fa = F._terms()
            slots += [f * nv * nv + x for x in s]
            coeffs += c
            factors += fa
        width = max(map(len, factors), default=0)
        self.factors = np.zeros((width, len(factors)), dtype=np.intp)
        for t, fa in enumerate(factors):
            self.factors[:len(fa), t] = fa
        self.emax = max(((i - 1) // nv + 1 for fa in factors for i in fa), default=1)
        self.slots = np.array(slots, dtype=np.intp)
        self.coeffs = np.array(coeffs, dtype=complex)
        self.shape = (len(fields), nv, nv)

    def table(self, p: PointBarN, c_value) -> np.ndarray:
        """Complex table T[f, i, j] of every field's components and partials.

        Powers are Python complex powers and the products are spelled out in
        real arithmetic, as CPython forms them: NumPy's complex multiply may
        fuse them and round differently.
        """
        vals = _chart_values(p, c_value)
        try:
            powers = np.array([1 + 0j] + [z**e for e in range(1, self.emax + 1) for z in vals])
        except OverflowError as exc:
            raise OverflowError(
                f"symmetry field terms leave the float range at c = {c_value!r}: "
                f"a power of degree <= {self.emax} overflows") from exc
        re, im = self.coeffs.real, self.coeffs.imag
        for col in self.factors:
            a, b = powers.real[col], powers.imag[col]
            re, im = re * a - im * b, re * b + im * a
        size = self.shape[0] * self.shape[1] * self.shape[2]
        out = np.empty(size, dtype=complex)
        out.real = np.bincount(self.slots, re, size)
        out.imag = np.bincount(self.slots, im, size)
        return out.reshape(self.shape)

    def __call__(self, p: PointBarN, c_value):
        """(vectors, Jacobians) in the real chart, shapes (m, 4n), (m, 4n, 4n)."""
        rows, cols = _chart_projections(self.n)
        T = self.table(p, c_value)
        vecs = (rows @ T[:, :, -1:]).real[:, :, 0]
        jacs = (rows @ T[:, :, :-1] @ cols).real
        return vecs, jacs


def real_killing_catalogue(params: ModelParams) -> List[Tuple[str, PolyVectorField]]:
    """All catalogued real symmetry generators, labelled.

    Contains the real fields YC, T, C1, C2 plus the real/imaginary
    combinations of the base shears Ya, the fiber translations Vk, and the
    shear commutators.  Every entry satisfies the reality condition.
    """
    n = params.n
    items: List[Tuple[str, PolyVectorField]] = [
        ("YC", generator(GeneratorName("YC"), params)),
        ("T", generator(GeneratorName("T"), params)),
        ("C1", generator(GeneratorName("C1"), params)),
        ("C2", generator(GeneratorName("C2"), params)),
    ]
    for a in range(1, n):
        F = generator(GeneratorName("Ya", a), params)
        items.append((f"re Ya({a})", real_part(F)))
        items.append((f"im Ya({a})", imag_part(F)))
    for k in range(n):
        items.append((f"re V({k})", generator(GeneratorName("VkRe", k), params)))
        items.append((f"im V({k})", generator(GeneratorName("VkIm", k), params)))
    for a in range(1, n):
        for b in range(a, n):
            K = generator(GeneratorName("CommYaYbBar", a, b), params)
            items.append((f"re Comm({a},{b})", real_part(K)))
            items.append((f"im Comm({a},{b})", imag_part(K)))
    for label, field in items:
        if not field.is_real():
            raise AssertionError(f"catalogue field {label} is not real")
    return items


# --- Killing verification ---------------------------------------------------

def _lie_derivatives(evaluate: _ChartEvaluator, p: PointBarN,
                     params: ModelParams, D1: np.ndarray,
                     g: np.ndarray) -> np.ndarray:
    """L_F g = F^k d_k g + J^T g + g J for every field of ``evaluate``."""
    vecs, jacs = evaluate(p, params.c)
    L = np.einsum("fk,kij->fij", vecs, D1) + jacs.transpose(0, 2, 1) @ g + g @ jacs
    return 0.5 * (L + L.transpose(0, 2, 1))


def killing_residuals(params: ModelParams, points: Sequence[PointBarN],
                      step: float = 1e-3):
    """Max relative Killing residual per catalogued real generator.

    Returns (ordered dict label -> max over points of |L_F g|_inf / |g|_inf,
    same quantity for the radial negative control).  A NaN residual at any
    point makes its maximum NaN, so that no tolerance check passes it.
    """
    catalogue = real_killing_catalogue(params)
    evaluate = _ChartEvaluator([F for _, F in catalogue])
    residuals = {label: 0.0 for label, _ in catalogue}
    control = 0.0
    for p in points:
        q = p.to_chart()
        D1 = metric_first_derivatives(q, params, step=step)
        g = metric_gram(p, params)
        ginf = float(np.max(np.abs(g)))
        L = _lie_derivatives(evaluate, p, params, D1, g)
        for (label, _), peak in zip(catalogue, np.max(np.abs(L), axis=(1, 2)).tolist()):
            rel = peak / ginf
            if rel > residuals[label] or math.isnan(rel):
                residuals[label] = rel
        rel_control = float(np.max(np.abs(D1[ix_rho()]))) / ginf
        if rel_control > control or math.isnan(rel_control):
            control = rel_control
    return residuals, control


# --- flows -------------------------------------------------------------------

def _rotation(theta: float) -> complex:
    """Unit complex number for the reduced angle; exact at full periods."""
    ang = math.remainder(theta, TAU)
    return complex(math.cos(ang), math.sin(ang))


def _flow_map(name: GeneratorName, t: float, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The closed-form flow for time t as the real-chart affine map J q + b.

    Supported: C1 (fiber rotation), C2 (base and leading-fiber rotation),
    T (angle translation), VkRe/VkIm (fiber translation with angle shear).
    The radial coordinate never moves.
    """
    m = 4 * n
    J, b = np.eye(m), np.zeros(m)
    kind = name.kind
    if kind == "T":
        b[ix_phi(n)] = t
    elif kind in ("C1", "C2"):
        if kind == "C1":
            z = _rotation(-t)
            planes = [(ix_u(k, n), ix_v(k, n)) for k in range(n)]
        else:
            z = _rotation(-n * t)
            planes = [(ix_x(a), ix_y(a)) for a in range(1, n)]
            planes.append((ix_u(0, n), ix_v(0, n)))
        for iu, iv in planes:
            J[iu, iu] = J[iv, iv] = z.real
            J[iu, iv], J[iv, iu] = -z.imag, z.imag
    elif kind in ("VkRe", "VkIm"):
        k = name.a
        if not 0 <= k <= n - 1:
            raise ValueError(f"fiber index {k} out of range 0..{n - 1}")
        # The angle moves by shear * v^k (VkRe) or -shear * u^k (VkIm).
        shear = (2.0 if k == 0 else -2.0) * t
        if kind == "VkRe":
            b[ix_u(k, n)] = t
            J[ix_phi(n), ix_v(k, n)] = shear
        else:
            b[ix_v(k, n)] = t
            J[ix_phi(n), ix_u(k, n)] = -shear
    else:
        raise ValueError(
            f"no closed-form flow implemented for generator {name.label()}"
        )
    return J, b


def flow(name: GeneratorName, t: float, p: PointBarN) -> PointBarN:
    """Closed-form flow of a supported generator for time t (see _flow_map).

    Each coordinate sums its row's nonzero entries of J in plain float
    arithmetic, so a full-period rotation (J = identity) returns p exactly.
    """
    J, b = _flow_map(name, t, p.n)
    q = p.to_chart()
    return PointBarN.from_chart([
        sum(J[i, j] * q[j] for j in np.flatnonzero(row)) + b[i]
        for i, row in enumerate(J)
    ])


def flow_jacobian(name: GeneratorName, t: float, p: PointBarN) -> np.ndarray:
    """Exact Jacobian of the closed-form flow in the real chart at p."""
    return _flow_map(name, t, p.n)[0]
