"""Exact polynomial vector fields on the fibered chart, without numpy.

The symmetry generators, with coefficients polynomial in (X, Xbar, w, wbar, c),
and their exact Lie brackets; :mod:`oneloop.fields` evaluates them in the chart.

A field computes the nonzero partial derivatives of its components once, on
first use, and keeps them (``PolyVectorField.partials``): every bracket with
the field and its compiled chart table read them from there.  ``bracket`` and
``combination`` add their products and scaled terms into one term dict per
component through ``Poly._accumulate``, so the term order of a result is the
one that summing ``Poly`` products would give.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .exact import QI, QI_I, Poly, VarTable
from .params import ModelParams
from .record import record

# Number of indices each generator kind takes.
_INDEX_COUNT = {"YC": 0, "T": 0, "C1": 0, "C2": 0, "Ya": 1, "YaBar": 1,
                "Vk": 1, "VkBar": 1, "VkRe": 1, "VkIm": 1, "CommYaYbBar": 2}


@record(frozen=True)
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
        count = _INDEX_COUNT.get(self.kind)
        if count is None:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if count and self.a is None:
            raise ValueError(f"generator {self.kind} requires an index")
        if count == 2 and self.b is None:
            raise ValueError("CommYaYbBar requires two indices")
        if not count and self.a is not None:
            raise ValueError(f"generator {self.kind} takes no index")
        if count < 2 and self.b is not None:
            raise ValueError(f"generator {self.kind} takes no second index")

    def label(self) -> str:
        if self.kind == "CommYaYbBar":
            return f"Comm({self.a},{self.b})"
        if self.a is not None:
            return f"{self.kind}({self.a})"
        return self.kind


def _phi_dir(n: int) -> int:
    """Direction slot of the angle coordinate (last slot of comps)."""
    return 4 * n - 2


class PolyVectorField:
    """Vector field with exact polynomial coefficients, no radial component.

    comps[i] is the coefficient of the i-th derivative direction.  Directions
    0..4n-3 follow the variable order of VarTable (d/dX_a, d/dXbar_a, d/dw_k,
    d/dwbar_k); the final slot is the angle direction d/dphi.  The radial
    direction is absent by construction: every catalogued symmetry preserves
    the radial coordinate.
    """

    __slots__ = ("n", "comps", "_partials", "_table")

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
        self._partials = None
        self._table = None

    # --- algebra ---------------------------------------------------------
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

    def partials(self) -> tuple:
        """Nonzero partial derivatives of the components, computed once.

        Entry i maps each coordinate variable j (every variable but c) with
        d(comps[i])/d(var_j) != 0 to that partial, in increasing j.  The
        fields are immutable, so the cache is never stale; ``bracket`` and
        the chart evaluator both read it.
        """
        if self._partials is None:
            coord = range(4 * self.n - 2)
            self._partials = tuple(
                {j: d for j in coord if (d := comp.diff(j))} if comp else {}
                for comp in self.comps
            )
        return self._partials

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
                polys = [*self.partials()[i].items(), (nv - 1, comp)]
                for j, poly in polys:
                    for mono, coeff in poly.terms.items():
                        slots.append(i * nv + j)
                        coeffs.append(coeff.to_complex())
                        factors.append([1 + (e - 1) * nv + v
                                        for v, e in enumerate(mono) if e])
            self._table = (slots, coeffs, factors)
        return self._table

    def __repr__(self):
        n_nonzero = sum(1 for c in self.comps if c)
        return f"PolyVectorField(n={self.n}, nonzero_dirs={n_nonzero})"


def bracket(F: PolyVectorField, G: PolyVectorField) -> PolyVectorField:
    """Exact Lie bracket [F, G].

    Coefficients never depend on the angle coordinate, so only the variable
    directions contribute derivative terms: component i is the sum over j of
    F_j * d(G_i)/d(var_j) - G_j * d(F_i)/d(var_j), accumulated into one term
    dict from the cached partials.  The result of bracketing catalogued
    fields stays within the representable degree bounds, which is asserted.
    """
    F._check(G)
    nv = 4 * F.n - 1
    # Only the nonzero variable-direction components can contribute.
    F_terms = [(j, Fj.terms.items()) for j, Fj in enumerate(F.comps[: nv - 1]) if Fj]
    G_neg = [(j, [(m, -c) for m, c in Gj.terms.items()])
             for j, Gj in enumerate(G.comps[: nv - 1]) if Gj]
    accumulate, products = Poly._accumulate, Poly._products
    zero = Poly.zero(nv)
    comps = []
    for dFi, dGi in zip(F.partials(), G.partials()):
        terms = {}
        if dGi:
            for j, Fj in F_terms:
                if j in dGi:
                    accumulate(terms, products(Fj, dGi[j].terms.items()))
        if dFi:
            for j, Gj in G_neg:
                if j in dFi:
                    accumulate(terms, products(Gj, dFi[j].terms.items()))
        # Coordinate degree <= 2 and degree in c (the last variable) <= 1.
        for mono in terms:
            if mono[-1] > 1 or sum(mono) - mono[-1] > 2:
                raise AssertionError("bracket left the representable degree range")
        comps.append(Poly._wrap(nv, terms) if terms else zero)
    return PolyVectorField(F.n, comps)


def combination(n: int, pairs) -> PolyVectorField:
    """The field sum of coeff * F over (coeff, F) pairs, in one pass.

    Each component accumulates the scaled terms of every summand into one
    term dict, in the order of ``pairs``; zero coefficients are skipped.
    """
    nv = 4 * n - 1
    pairs = [(coeff, F) for coeff, F in pairs if coeff]
    for _, F in pairs:
        if F.n != n:
            raise ValueError("field dimension mismatch")
    zero = Poly.zero(nv)
    comps = []
    for i in range(nv):
        terms = {}
        for coeff, F in pairs:
            Fi = F.comps[i].terms
            if Fi:
                Poly._accumulate(terms, [(m, c * coeff) for m, c in Fi.items()])
        comps.append(Poly._wrap(nv, terms) if terms else zero)
    return PolyVectorField(n, comps)


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
        return generator(GeneratorName("Ya", name.a), params).conjugate()

    if kind == "Vk":
        k = name.a
        comps[vt.w(k)] = one()
        sign = QI(0, 1) if k == 0 else QI(0, -1)
        comps[_phi_dir(n)] = var(vt.wb(k)).scale(sign)
        return PolyVectorField(n, comps)

    if kind == "VkBar":
        return generator(GeneratorName("Vk", name.a), params).conjugate()

    if kind == "T":
        comps[_phi_dir(n)] = one()
        return PolyVectorField(n, comps)

    if kind == "C1":
        return generator(GeneratorName("YC"), params) + _two_c_dphi(n)

    if kind == "C2":
        for a in range(1, n):
            comps[vt.x(a)] = var(vt.x(a)).scale(QI(0, -n))
            comps[vt.xb(a)] = var(vt.xb(a)).scale(QI(0, n))
        comps[vt.w(0)] = var(vt.w(0)).scale(QI(0, -n))
        comps[vt.wb(0)] = var(vt.wb(0)).scale(QI(0, n))
        return PolyVectorField(n, comps)

    if kind == "CommYaYbBar":
        Fa = generator(GeneratorName("Ya", name.a), params)
        Gb = generator(GeneratorName("YaBar", name.b), params)
        return bracket(Fa, Gb)

    if kind == "VkRe":
        return real_part(generator(GeneratorName("Vk", name.a), params))

    if kind == "VkIm":
        return imag_part(generator(GeneratorName("Vk", name.a), params))

    raise ValueError(f"unknown generator kind {kind!r}")


def real_part(F: PolyVectorField) -> PolyVectorField:
    """Unnormalized real combination F + conj(F) (used for flows)."""
    return F + F.conjugate()


def imag_part(F: PolyVectorField) -> PolyVectorField:
    """Unnormalized imaginary combination i(F - conj(F)) (used for flows)."""
    return (F - F.conjugate()).scale(QI_I)

