"""Exact polynomial vector fields on the fibered chart, without floats.

The symmetry generators, with coefficients polynomial in (X, Xbar, w, wbar, c),
and their exact Lie brackets.  ``generator(kind, n, a, b)`` wraps the closed
forms of :mod:`oneloop.generators`, under that table's own key, as ``Poly``
components over ``QI``; :mod:`oneloop.fields` converts the same closed
forms to floats and keeps ``real_killing_catalogue``, built from here, as
its exact reference.

A field computes the nonzero partial derivatives of its components once, on
first use, and keeps them (``PolyVectorField.partials``): every bracket with
the field reads them there.
The term lists that ``bracket`` multiplies, negated for the right operand,
are kept the same way (``PolyVectorField.operands``).
``bracket`` and ``combination`` add their products and scaled terms into one
term dict per component through ``Poly._accumulate``, so the term order of a
result is the one that summing ``Poly`` products would give.
"""

from __future__ import annotations

from typing import Sequence

from .exact import QI, QI_I, Poly
from .generators import VarTable, generator_terms


class PolyVectorField:
    """Vector field with exact polynomial coefficients, no radial component.

    comps[i] is the coefficient of the i-th derivative direction.  Directions
    0..4n-3 follow the variable order of VarTable (d/dX_a, d/dXbar_a, d/dw_k,
    d/dwbar_k); the final slot is the angle direction d/dphi.  The radial
    direction is absent by construction: every catalogued symmetry preserves
    the radial coordinate.
    """

    __slots__ = ("n", "comps", "_partials", "_operands")

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
        self._operands = None

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
        fields are immutable, so the cache is never stale; ``bracket``
        reads it.
        """
        if self._partials is None:
            coord = range(4 * self.n - 2)
            self._partials = tuple(
                {j: d for j in coord if (d := comp.diff(j))} if comp else {}
                for comp in self.comps
            )
        return self._partials

    def operands(self) -> tuple:
        """The (direction, terms) and (direction, negated terms) lists of the
        nonzero variable-direction components, built once: ``bracket`` reads
        the first when the field is on its left, the second on its right."""
        if self._operands is None:
            comps = [(j, list(Fj.terms.items()))
                     for j, Fj in enumerate(self.comps[:-1]) if Fj]
            self._operands = comps, [(j, [(m, -c) for m, c in items]) for j, items in comps]
        return self._operands

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
    F_terms, G_neg = F.operands()[0], G.operands()[1]
    accumulate, products = Poly._accumulate, Poly._products
    zero = Poly(nv)
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
    zero = Poly(nv)
    comps = []
    for i in range(nv):
        terms = {}
        for coeff, F in pairs:
            Fi = F.comps[i].terms
            if Fi:
                Poly._accumulate(terms, [(m, c * coeff) for m, c in Fi.items()])
        comps.append(Poly._wrap(nv, terms) if terms else zero)
    return PolyVectorField(n, comps)


def real_part(F: PolyVectorField) -> PolyVectorField:
    """Unnormalized real combination F + conj(F) (the catalogue's re fields)."""
    return F + F.conjugate()


def imag_part(F: PolyVectorField) -> PolyVectorField:
    """Unnormalized imaginary combination i(F - conj(F)) (the catalogue's im
    fields)."""
    return (F - F.conjugate()).scale(QI_I)


# The conjugate kinds: the kind whose field they conjugate.
_DERIVED = {"YaBar": "Ya", "VkBar": "Vk"}


def generator(kind: str, n: int, a=None, b=None) -> PolyVectorField:
    """Exact coefficient table of a catalogued generator at dimension index n
    (c symbolic): the closed form of ``generators.generator_terms(kind, n, a,
    b)`` over ``QI``, or, for YaBar and VkBar, the conjugate of Ya or Vk."""
    if kind in _DERIVED:
        return generator(_DERIVED[kind], n, a, b).conjugate()
    nv = 4 * n - 1
    zero = Poly(nv)
    return PolyVectorField(n, [
        Poly(nv, {mono: QI(re, im) for mono, (re, im) in comp.items()}) if comp else zero
        for comp in generator_terms(kind, n, a, b)])
