"""Exact polynomial vector fields and their flows on the fibered chart.

The continuous symmetries of the metric assembled in :mod:`oneloop.geometry`
are vector fields whose coefficients are polynomials in the complex chart
variables (X, Xbar, w, wbar), linear in the deformation parameter c, and
independent of the radial coordinate.  This module represents those fields
exactly, computes exact Lie brackets, evaluates real chart vectors and
Jacobians, verifies the Killing property against finite-difference metric
derivatives, and integrates the closed-form flows (rotations of the fiber
coordinates, translations of the fiber with a shear of the angle
coordinate).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .exact import QI, QI_I, Poly, VarTable
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

TAU = 2.0 * math.pi

_GEN_KINDS = frozenset(
    {"YC", "Ya", "YaBar", "Vk", "VkBar", "T", "C1", "C2", "CommYaYbBar",
     "VkRe", "VkIm"}
)
_FLOW_KINDS = frozenset({"C1", "C2", "T", "VkRe", "VkIm"})


@dataclass(frozen=True)
class GeneratorName:
    """Name of a catalogued symmetry generator, with optional indices.

    kind is one of YC, Ya, YaBar, Vk, VkBar, T, C1, C2, CommYaYbBar plus the
    real/imaginary fiber-translation combinations VkRe, VkIm.  Index `a`
    doubles as the fiber index k for the Vk family.
    """

    kind: str
    a: Optional[int] = None
    b: Optional[int] = None

    def __post_init__(self):
        if self.kind not in _GEN_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        needs_a = self.kind in {"Ya", "YaBar", "Vk", "VkBar", "VkRe", "VkIm",
                                "CommYaYbBar"}
        needs_b = self.kind == "CommYaYbBar"
        if needs_a and self.a is None:
            raise ValueError(f"generator {self.kind} requires an index")
        if needs_b and self.b is None:
            raise ValueError("CommYaYbBar requires two indices")
        if not needs_a and self.a is not None:
            raise ValueError(f"generator {self.kind} takes no index")
        if not needs_b and self.b is not None:
            raise ValueError(f"generator {self.kind} takes no second index")

    # --- factories -------------------------------------------------------
    @classmethod
    def YC(cls):
        return cls("YC")

    @classmethod
    def Ya(cls, a):
        return cls("Ya", a)

    @classmethod
    def YaBar(cls, a):
        return cls("YaBar", a)

    @classmethod
    def Vk(cls, k):
        return cls("Vk", k)

    @classmethod
    def VkBar(cls, k):
        return cls("VkBar", k)

    @classmethod
    def T(cls):
        return cls("T")

    @classmethod
    def C1(cls):
        return cls("C1")

    @classmethod
    def C2(cls):
        return cls("C2")

    @classmethod
    def CommYaYbBar(cls, a, b):
        return cls("CommYaYbBar", a, b)

    @classmethod
    def VkRe(cls, k):
        return cls("VkRe", k)

    @classmethod
    def VkIm(cls, k):
        return cls("VkIm", k)

    def label(self) -> str:
        if self.kind == "CommYaYbBar":
            return f"Comm({self.a},{self.b})"
        if self.a is not None:
            return f"{self.kind}({self.a})"
        return self.kind


def _phi_dir(n: int) -> int:
    """Direction slot of the angle coordinate (last slot of comps)."""
    return 4 * n - 2


def _chart_values(p: PointBarN, c_value) -> List[complex]:
    """Values of the polynomial variables (X, Xbar, w, wbar, c) at a point."""
    X, w = list(p.X), list(p.w)
    return (X + [z.conjugate() for z in X] + w + [z.conjugate() for z in w]
            + [complex(c_value)])


class PolyVectorField:
    """Vector field with exact polynomial coefficients, no radial component.

    comps[i] is the coefficient of the i-th derivative direction.  Directions
    0..4n-3 follow the variable order of VarTable (d/dX_a, d/dXbar_a, d/dw_k,
    d/dwbar_k); the final slot is the angle direction d/dphi.  The radial
    direction is absent by construction: every catalogued symmetry preserves
    the radial coordinate.
    """

    __slots__ = ("n", "comps", "_table")

    def __init__(self, n: int, comps: Sequence[Poly]):
        comps = tuple(comps)
        if len(comps) != 4 * n - 1:
            raise ValueError(
                f"expected {4 * n - 1} direction components, got {len(comps)}"
            )
        nv = 4 * n - 1
        for comp in comps:
            if comp.nvars != nv:
                raise ValueError("component variable count mismatch")
        self.n = n
        self.comps = comps
        self._table = None

    # --- algebra ---------------------------------------------------------
    @staticmethod
    def zero(n: int) -> "PolyVectorField":
        nv = 4 * n - 1
        return PolyVectorField(n, [Poly.zero(nv)] * nv)

    def _check(self, other: "PolyVectorField"):
        if not isinstance(other, PolyVectorField) or other.n != self.n:
            raise ValueError("field dimension mismatch")

    def __add__(self, other):
        self._check(other)
        return PolyVectorField(
            self.n, [a + b for a, b in zip(self.comps, other.comps)]
        )

    def __sub__(self, other):
        self._check(other)
        return PolyVectorField(
            self.n, [a - b for a, b in zip(self.comps, other.comps)]
        )

    def __neg__(self):
        return PolyVectorField(self.n, [-a for a in self.comps])

    def scale(self, coeff) -> "PolyVectorField":
        return PolyVectorField(self.n, [a.scale(coeff) for a in self.comps])

    def __eq__(self, other):
        if not isinstance(other, PolyVectorField):
            return NotImplemented
        return self.n == other.n and self.comps == other.comps

    __hash__ = None

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    # --- conjugation and reality ------------------------------------------
    def conjugate(self) -> "PolyVectorField":
        """Swap each direction with its bar partner and conjugate coefficients."""
        vt = VarTable(self.n)
        perm = vt.conj_perm()  # fixes the last index, which is the angle slot
        new = [None] * len(self.comps)
        for i, comp in enumerate(self.comps):
            new[perm[i]] = comp.conj_swap(perm)
        return PolyVectorField(self.n, new)

    def is_real(self) -> bool:
        return self.conjugate() == self

    # --- evaluation --------------------------------------------------------
    def _terms(self):
        """Compiled polynomial terms of the components and their partials.

        Returns cached lists (slots, coeffs, factors): term t adds coeffs[t]
        times the product of the powers listed in factors[t] to slot
        i*nv + j of the field's table, which holds d(comp_i)/d(var_j) for
        j < nv - 1 and comp_i itself for j = nv - 1 (the c slot: no field is
        differentiated by c).  Power 1 + (e - 1)*nv + v is var_v**e.
        """
        if self._table is None:
            nv = 4 * self.n - 1
            slots, coeffs, factors = [], [], []
            for i, comp in enumerate(self.comps):
                polys = [comp.diff(j) for j in range(nv - 1)] + [comp]
                for j, poly in enumerate(polys):
                    for mono, coeff in poly.terms.items():
                        slots.append(i * nv + j)
                        coeffs.append(coeff.to_complex())
                        factors.append([1 + (e - 1) * nv + v
                                        for v, e in enumerate(mono) if e])
            self._table = (slots, coeffs, factors)
        return self._table

    def eval_complex(self, p: PointBarN, c_value) -> np.ndarray:
        """Complex components (on dX, dXbar, dw, dwbar, dphi) at a point."""
        return _ChartEvaluator([self]).table(p, c_value)[0, :, -1]

    def real_chart_vector(self, p: PointBarN, c_value) -> np.ndarray:
        """Real chart components; requires the reality condition to hold."""
        return _ChartEvaluator([self])(p, c_value)[0][0]

    def real_chart_jacobian(self, p: PointBarN, c_value) -> np.ndarray:
        """Exact-polynomial Jacobian d(component_i)/d(chart_j), real chart."""
        return _ChartEvaluator([self])(p, c_value)[1][0]

    def __repr__(self):
        n_nonzero = sum(1 for c in self.comps if c)
        return f"PolyVectorField(n={self.n}, nonzero_dirs={n_nonzero})"


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
    variable order as ``Poly.eval_complex`` does, and the terms are summed
    into their slots in the order of ``Poly.terms``; the result equals the
    termwise evaluation of every component and partial bit for bit.
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
        powers = np.array([1 + 0j] + [z**e for e in range(1, self.emax + 1) for z in vals])
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


def bracket(F: PolyVectorField, G: PolyVectorField) -> PolyVectorField:
    """Exact Lie bracket [F, G].

    Coefficients never depend on the angle coordinate, so only the variable
    directions contribute derivative terms.  The result of bracketing
    catalogued fields stays within the representable degree bounds, which is
    asserted.
    """
    F._check(G)
    nv = 4 * F.n - 1
    # Only the nonzero variable-direction components can contribute.
    F_nonzero = [(j, Fj) for j, Fj in enumerate(F.comps[: nv - 1]) if Fj]
    G_nonzero = [(j, Gj) for j, Gj in enumerate(G.comps[: nv - 1]) if Gj]
    comps = []
    for Fi, Gi in zip(F.comps, G.comps):
        acc = Poly.zero(nv)
        if Gi:
            for j, Fj in F_nonzero:
                d = Gi.diff(j)
                if d:
                    acc = acc + Fj * d
        if Fi:
            for j, Gj in G_nonzero:
                d = Fi.diff(j)
                if d:
                    acc = acc - Gj * d
        comps.append(acc)
    out = PolyVectorField(F.n, comps)
    vt = VarTable(F.n)
    coord_vars = tuple(range(vt.nvars - 1))
    for comp in out.comps:
        if comp.total_degree(coord_vars) > 2 or comp.degree_in(vt.c) > 1:
            raise AssertionError("bracket left the representable degree range")
    return out


def _two_c_dphi(n: int) -> PolyVectorField:
    """The field 2c * d/dphi."""
    nv = 4 * n - 1
    vt = VarTable(n)
    comps = [Poly.zero(nv)] * nv
    comps[_phi_dir(n)] = Poly.variable(nv, vt.c).scale(2)
    return PolyVectorField(n, comps)


def generator(name: GeneratorName, params: ModelParams) -> PolyVectorField:
    """Exact coefficient table of a catalogued generator (c symbolic)."""
    n = params.n
    vt = VarTable(n)
    nv = vt.nvars

    def var(j):
        return Poly.variable(nv, j)

    def one():
        return Poly.const(nv, 1)

    comps = [Poly.zero(nv)] * nv
    kind = name.kind

    if kind == "YC":
        for k in range(n):
            comps[vt.w(k)] = var(vt.w(k)).scale(QI(0, -1))
            comps[vt.wb(k)] = var(vt.wb(k)).scale(QI(0, 1))
        comps[_phi_dir(n)] = var(vt.c).scale(-2)
        return PolyVectorField(n, comps)

    if kind == "Ya":
        a = name.a
        ia = vt.x(a)  # validates the range
        comps[vt.xb(a)] = one()
        for b in range(1, n):
            comps[vt.x(b)] = comps[vt.x(b)] - var(ia) * var(vt.x(b))
        comps[vt.w(a)] = comps[vt.w(a)] - var(vt.w(0))
        comps[vt.wb(0)] = comps[vt.wb(0)] - var(vt.wb(a))
        comps[_phi_dir(n)] = (var(vt.c) * var(ia)).scale(QI(0, 1))
        return PolyVectorField(n, comps)

    if kind == "YaBar":
        return generator(GeneratorName.Ya(name.a), params).conjugate()

    if kind == "Vk":
        k = name.a
        comps[vt.w(k)] = one()
        sign = QI(0, 1) if k == 0 else QI(0, -1)
        comps[_phi_dir(n)] = var(vt.wb(k)).scale(sign)
        return PolyVectorField(n, comps)

    if kind == "VkBar":
        return generator(GeneratorName.Vk(name.a), params).conjugate()

    if kind == "T":
        comps[_phi_dir(n)] = one()
        return PolyVectorField(n, comps)

    if kind == "C1":
        return generator(GeneratorName.YC(), params) + _two_c_dphi(n)

    if kind == "C2":
        for a in range(1, n):
            comps[vt.x(a)] = var(vt.x(a)).scale(QI(0, -n))
            comps[vt.xb(a)] = var(vt.xb(a)).scale(QI(0, n))
        comps[vt.w(0)] = var(vt.w(0)).scale(QI(0, -n))
        comps[vt.wb(0)] = var(vt.wb(0)).scale(QI(0, n))
        return PolyVectorField(n, comps)

    if kind == "CommYaYbBar":
        Fa = generator(GeneratorName.Ya(name.a), params)
        Gb = generator(GeneratorName.YaBar(name.b), params)
        return bracket(Fa, Gb)

    if kind == "VkRe":
        return real_part(generator(GeneratorName.Vk(name.a), params))

    if kind == "VkIm":
        return imag_part(generator(GeneratorName.Vk(name.a), params))

    raise ValueError(f"unknown generator kind {kind!r}")


def real_part(F: PolyVectorField) -> PolyVectorField:
    """Unnormalized real combination F + conj(F) (used for flows)."""
    return F + F.conjugate()


def imag_part(F: PolyVectorField) -> PolyVectorField:
    """Unnormalized imaginary combination i(F - conj(F)) (used for flows)."""
    return (F - F.conjugate()).scale(QI_I)


def real_killing_catalogue(params: ModelParams) -> List[Tuple[str, PolyVectorField]]:
    """All catalogued real symmetry generators, labelled.

    Contains the real fields YC, T, C1, C2 plus the real/imaginary
    combinations of the base shears Ya, the fiber translations Vk, and the
    shear commutators.  Every entry satisfies the reality condition.
    """
    n = params.n
    items: List[Tuple[str, PolyVectorField]] = [
        ("YC", generator(GeneratorName.YC(), params)),
        ("T", generator(GeneratorName.T(), params)),
        ("C1", generator(GeneratorName.C1(), params)),
        ("C2", generator(GeneratorName.C2(), params)),
    ]
    for a in range(1, n):
        F = generator(GeneratorName.Ya(a), params)
        items.append((f"re Ya({a})", real_part(F)))
        items.append((f"im Ya({a})", imag_part(F)))
    for k in range(n):
        items.append((f"re V({k})", generator(GeneratorName.VkRe(k), params)))
        items.append((f"im V({k})", generator(GeneratorName.VkIm(k), params)))
    for a in range(1, n):
        for b in range(a, n):
            K = generator(GeneratorName.CommYaYbBar(a, b), params)
            items.append((f"re Comm({a},{b})", real_part(K)))
            items.append((f"im Comm({a},{b})", imag_part(K)))
    for label, field in items:
        if not field.is_real():
            raise AssertionError(f"catalogue field {label} is not real")
    return items


# --- Killing verification ---------------------------------------------------

def lie_derivative_metric(F: PolyVectorField, p: PointBarN,
                          params: ModelParams, step: float = 1e-3) -> np.ndarray:
    """(L_F g)_ij with finite-difference metric derivatives and exact field
    derivatives; F must satisfy the reality condition."""
    if not F.is_real():
        raise ValueError("Lie derivative requires a real vector field")
    q = p.to_chart()
    D1 = metric_first_derivatives(q, params, step=step)
    g = metric_gram(p, params)
    return _lie_derivatives(_ChartEvaluator([F]), p, params, D1, g)[0]


def _lie_derivatives(evaluate: _ChartEvaluator, p: PointBarN,
                     params: ModelParams, D1: np.ndarray,
                     g: np.ndarray) -> np.ndarray:
    """L_F g = F^k d_k g + J^T g + g J for every field of ``evaluate``."""
    vecs, jacs = evaluate(p, params.c)
    L = np.einsum("fk,kij->fij", vecs, D1) + jacs.transpose(0, 2, 1) @ g + g @ jacs
    return 0.5 * (L + L.transpose(0, 2, 1))


def radial_control_derivative(p: PointBarN, params: ModelParams,
                              step: float = 1e-3) -> np.ndarray:
    """Lie derivative of the metric along the radial coordinate field.

    The radial field has constant components, so its Lie derivative is the
    radial partial of the Gram matrix.  It is generically far from zero and
    serves as the negative control for the Killing checker.
    """
    q = p.to_chart()
    D1 = metric_first_derivatives(q, params, step=step)
    return D1[ix_rho()]


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


# --- frame and stabilizer ----------------------------------------------------

def frame_rank(p: PointBarN, params: ModelParams, tol: float = 1e-8) -> int:
    """Rank of the coefficient matrix of the global fiberwise frame.

    The frame consists of the base shears, fiber translations, their
    conjugates, and the angle field; on each radial level it should span the
    full (4n-1)-dimensional complexified tangent space.
    """
    n = params.n
    fields = []
    for a in range(1, n):
        fields.append(generator(GeneratorName.Ya(a), params))
    for k in range(n):
        fields.append(generator(GeneratorName.Vk(k), params))
    for a in range(1, n):
        fields.append(generator(GeneratorName.YaBar(a), params))
    for k in range(n):
        fields.append(generator(GeneratorName.VkBar(k), params))
    fields.append(generator(GeneratorName.T(), params))
    M = np.array([F.eval_complex(p, params.c) for F in fields])
    return int(np.linalg.matrix_rank(M, tol=tol))


def stabilizer_basis(params: ModelParams, rho0: float) -> List[PolyVectorField]:
    """Real generators vanishing at the base point (X=0, w=0, phi=0, rho0).

    Returns the rotation combination YC + 2c*dphi together with the
    normalized real/imaginary parts of the shear commutators (the imaginary
    parts corrected by 2c*dphi on the diagonal).  Every returned field
    vanishes exactly at the base point and is Killing.  The radial position
    rho0 does not affect the coefficients; it is accepted to emphasize that
    the base point sits on a fixed radial level.
    """
    if rho0 <= 0:
        raise ValueError("rho0 must be positive")
    n = params.n
    out = [generator(GeneratorName.YC(), params) + _two_c_dphi(n)]
    for a in range(1, n):
        for b in range(a, n):
            K = generator(GeneratorName.CommYaYbBar(a, b), params)
            if a < b:  # (K + conj K)/2 and (K - conj K)/2i
                out.append(real_part(K).scale(Fraction(1, 2)))
            im = imag_part(K).scale(Fraction(-1, 2))
            if a == b:
                im = im + _two_c_dphi(n)
            out.append(im)
    return out


# --- flows -------------------------------------------------------------------

def _rotation(theta: float) -> complex:
    """Unit complex number for the reduced angle; exact at full periods."""
    ang = math.remainder(theta, TAU)
    return complex(math.cos(ang), math.sin(ang))


def flow(name: GeneratorName, t: float, p: PointBarN) -> PointBarN:
    """Closed-form flow of a supported generator for time t.

    Supported: C1 (fiber rotation), C2 (base and leading-fiber rotation),
    T (angle translation), VkRe/VkIm (fiber translation with angle shear).
    The radial coordinate never moves.
    """
    kind = name.kind
    if kind not in _FLOW_KINDS:
        raise ValueError(
            f"no closed-form flow implemented for generator {name.label()}"
        )
    n = p.n
    if kind == "T":
        return PointBarN(p.X, p.w, p.phi_tilde + t, p.rho)
    if kind == "C1":
        z = _rotation(-t)
        w = tuple(z * wk for wk in p.w)
        return PointBarN(p.X, w, p.phi_tilde, p.rho)
    if kind == "C2":
        z = _rotation(-n * t)
        X = tuple(z * Xa for Xa in p.X)
        w = (z * p.w[0],) + tuple(p.w[1:])
        return PointBarN(X, w, p.phi_tilde, p.rho)
    k = name.a
    if not 0 <= k <= n - 1:
        raise ValueError(f"fiber index {k} out of range 0..{n - 1}")
    w = list(p.w)
    if kind == "VkRe":
        shear = (2.0 if k == 0 else -2.0) * p.w[k].imag * t
        w[k] = p.w[k] + t
    else:  # VkIm
        shear = (-2.0 if k == 0 else 2.0) * p.w[k].real * t
        w[k] = p.w[k] + 1j * t
    return PointBarN(p.X, tuple(w), p.phi_tilde + shear, p.rho)


def flow_jacobian(name: GeneratorName, t: float, p: PointBarN) -> np.ndarray:
    """Exact Jacobian of the closed-form flow in the real chart at p."""
    kind = name.kind
    if kind not in _FLOW_KINDS:
        raise ValueError(
            f"no closed-form flow implemented for generator {name.label()}"
        )
    n = p.n
    m = 4 * n
    J = np.eye(m)

    def put_rotation(iu, iv, z):
        c, s = z.real, z.imag
        J[iu, iu] = c
        J[iu, iv] = -s
        J[iv, iu] = s
        J[iv, iv] = c

    if kind == "T":
        return J
    if kind == "C1":
        z = _rotation(-t)
        for k in range(n):
            put_rotation(ix_u(k, n), ix_v(k, n), z)
        return J
    if kind == "C2":
        z = _rotation(-n * t)
        for a in range(1, n):
            put_rotation(ix_x(a), ix_y(a), z)
        put_rotation(ix_u(0, n), ix_v(0, n), z)
        return J
    k = name.a
    if kind == "VkRe":
        J[ix_phi(n), ix_v(k, n)] = (2.0 if k == 0 else -2.0) * t
    else:  # VkIm
        J[ix_phi(n), ix_u(k, n)] = (-2.0 if k == 0 else 2.0) * t
    return J
