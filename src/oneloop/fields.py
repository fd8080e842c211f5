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


def _chart_values(p: PointBarN, c_value, vt: VarTable) -> List[complex]:
    """Complex values of the polynomial variables at a chart point."""
    vals = [0j] * vt.nvars
    for a in range(1, vt.n):
        z = complex(p.X[a - 1])
        vals[vt.x(a)] = z
        vals[vt.xb(a)] = z.conjugate()
    for k in range(vt.n):
        z = complex(p.w[k])
        vals[vt.w(k)] = z
        vals[vt.wb(k)] = z.conjugate()
    vals[vt.c] = complex(c_value)
    return vals


class PolyVectorField:
    """Vector field with exact polynomial coefficients, no radial component.

    comps[i] is the coefficient of the i-th derivative direction.  Directions
    0..4n-3 follow the variable order of VarTable (d/dX_a, d/dXbar_a, d/dw_k,
    d/dwbar_k); the final slot is the angle direction d/dphi.  The radial
    direction is absent by construction: every catalogued symmetry preserves
    the radial coordinate.
    """

    __slots__ = ("n", "comps", "_jac_cache")

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
        self._jac_cache = None

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
    def eval_complex(self, p: PointBarN, c_value) -> np.ndarray:
        """Complex components (on dX, dXbar, dw, dwbar, dphi) at a point."""
        vt = VarTable(self.n)
        vals = _chart_values(p, c_value, vt)
        return np.array([c.eval_complex(vals) for c in self.comps],
                        dtype=complex)

    def real_chart_vector(self, p: PointBarN, c_value) -> np.ndarray:
        """Real chart components; requires the reality condition to hold."""
        n = self.n
        vt = VarTable(n)
        vals = self.eval_complex(p, c_value)
        out = np.zeros(4 * n)
        for a in range(1, n):
            f = vals[vt.x(a)]
            out[ix_x(a)] = f.real
            out[ix_y(a)] = f.imag
        for k in range(n):
            g = vals[vt.w(k)]
            out[ix_u(k, n)] = g.real
            out[ix_v(k, n)] = g.imag
        out[ix_phi(n)] = vals[_phi_dir(n)].real
        return out

    def _jacobian_polys(self) -> Tuple[Tuple[Poly, ...], ...]:
        """Partial derivatives of each component by each non-c variable."""
        if self._jac_cache is None:
            nv = 4 * self.n - 1
            self._jac_cache = tuple(
                tuple(comp.diff(j) for j in range(nv - 1))
                for comp in self.comps
            )
        return self._jac_cache

    def real_chart_jacobian(self, p: PointBarN, c_value) -> np.ndarray:
        """Exact-polynomial Jacobian d(component_i)/d(chart_j), real chart."""
        n = self.n
        vt = VarTable(n)
        vals = _chart_values(p, c_value, vt)
        dpolys = self._jacobian_polys()
        nv = vt.nvars
        dval = np.zeros((nv, nv - 1), dtype=complex)
        for i in range(nv):
            for j in range(nv - 1):
                poly = dpolys[i][j]
                if poly:
                    dval[i, j] = poly.eval_complex(vals)

        m = 4 * n
        J = np.zeros((m, m))

        def cols(i):
            """Complex chart-partials of component i: one per real column."""
            out = np.zeros(m, dtype=complex)
            for b in range(1, n):
                fx = dval[i, vt.x(b)]
                fxb = dval[i, vt.xb(b)]
                out[ix_x(b)] = fx + fxb
                out[ix_y(b)] = 1j * (fx - fxb)
            for k in range(n):
                fw = dval[i, vt.w(k)]
                fwb = dval[i, vt.wb(k)]
                out[ix_u(k, n)] = fw + fwb
                out[ix_v(k, n)] = 1j * (fw - fwb)
            # radial and angle columns stay zero: coefficients depend on
            # neither coordinate.
            return out

        for a in range(1, n):
            row = cols(vt.x(a))
            J[ix_x(a)] = row.real
            J[ix_y(a)] = row.imag
        for k in range(n):
            row = cols(vt.w(k))
            J[ix_u(k, n)] = row.real
            J[ix_v(k, n)] = row.imag
        J[ix_phi(n)] = cols(_phi_dir(n)).real
        return J

    def __repr__(self):
        n_nonzero = sum(1 for c in self.comps if c)
        return f"PolyVectorField(n={self.n}, nonzero_dirs={n_nonzero})"


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
        F = generator(GeneratorName.Vk(name.a), params)
        return F + F.conjugate()

    if kind == "VkIm":
        F = generator(GeneratorName.Vk(name.a), params)
        return (F - F.conjugate()).scale(QI_I)

    raise ValueError(f"unknown generator kind {kind!r}")


def real_part(F: PolyVectorField) -> PolyVectorField:
    """Unnormalized real combination F + conj(F) (used for flows)."""
    return F + F.conjugate()


def imag_part(F: PolyVectorField) -> PolyVectorField:
    """Unnormalized imaginary combination i(F - conj(F)) (used for flows)."""
    return (F - F.conjugate()).scale(QI_I)


def real_part_half(F: PolyVectorField) -> PolyVectorField:
    """Normalized real part (F + conj(F)) / 2 (used for the stabilizer)."""
    return (F + F.conjugate()).scale(Fraction(1, 2))


def imag_part_half(F: PolyVectorField) -> PolyVectorField:
    """Normalized imaginary part (F - conj(F)) / 2i (used for the stabilizer)."""
    return (F - F.conjugate()).scale(QI(0, Fraction(-1, 2)))


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
    return _lie_derivative_with(F, p, params, D1, g)


def _lie_derivative_with(F: PolyVectorField, p: PointBarN,
                         params: ModelParams, D1: np.ndarray,
                         g: np.ndarray) -> np.ndarray:
    Fvec = F.real_chart_vector(p, params.c)
    J = F.real_chart_jacobian(p, params.c)
    L = np.einsum("k,kij->ij", Fvec, D1) + J.T @ g + g @ J
    return 0.5 * (L + L.T)


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
    residuals = {label: 0.0 for label, _ in catalogue}
    control = 0.0
    for p in points:
        q = p.to_chart()
        D1 = metric_first_derivatives(q, params, step=step)
        g = metric_gram(p, params)
        ginf = float(np.max(np.abs(g)))
        for label, F in catalogue:
            L = _lie_derivative_with(F, p, params, D1, g)
            rel = float(np.max(np.abs(L))) / ginf
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
            if a < b:
                out.append(real_part_half(K))
            im = imag_part_half(K)
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
