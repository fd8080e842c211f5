"""Exact matrix model of the symmetry algebra.

The continuous symmetries of the deformed metric assemble into a semidirect
sum: an indefinite-unitary matrix block acting on a Heisenberg translation
part with one central direction.  This module realizes that algebra as
sparse (n+2)x(n+2) matrices with exact Gaussian-rational entries, so that its
bracket is the matrix commutator; provides the antilinear involution that
cuts out the real form, the labelled basis with its vector-field images in
:mod:`oneloop.polyfields`, the coordinates over that basis, and the linear
map ``alpha`` onto those fields, which ``liealg.structure_check`` compares
bracket by bracket.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

from .exact import QI, QI_I, QI_ONE, QI_ZERO
from .params import VK_SHEAR, signature
from .polyfields import PolyVectorField, combination, generator
from .record import record

__all__ = [
    "MatGl",
    "StructureReport",
    "sigma",
    "semidirect",
    "algebra_basis",
    "coordinates",
    "alpha",
]


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


@record(frozen=True)
class MatGl:
    """n x n matrix with exact Gaussian-rational entries, held as the
    (row, column, value) triples of its nonzero entries (at most n in each
    algebra basis matrix).  The constructor drops zero values and sorts the
    rest in row-major order, so equal matrices have equal fields."""

    n: int
    nonzero: Tuple[Tuple[int, int, QI], ...]

    def __post_init__(self):
        n = self.n
        if type(n) is not int or n < 1:
            raise ValueError("matrix size must be a positive integer")
        cells = {}
        for j, k, a in self.nonzero:
            if not isinstance(a, QI):
                raise ValueError("entries must be exact Gaussian rationals")
            if j not in range(n) or k not in range(n) or (j, k) in cells:
                raise ValueError(f"entry ({j}, {k}) lies outside the matrix or is repeated")
            cells[j, k] = a
        object.__setattr__(self, "nonzero", tuple(
            [(j, k, a) for (j, k), a in sorted(cells.items()) if a]))

    def terms(self):
        """(row, column, numerators, denominator) of each nonzero entry, in
        row-major order: equal exactly when the matrices are, and hashed
        without a ring call, so it keys a memo of matrices."""
        return tuple([(j, k) + a.numerators() for j, k, a in self.nonzero])

    def commutator(self, other: "MatGl") -> "MatGl":
        """self @ other - other @ self, over the pairs of nonzero entries that meet."""
        if not isinstance(other, MatGl) or other.n != self.n:
            raise ValueError("matrix size mismatch")
        acc = {}
        for j, l, a in self.nonzero:
            for m, k, b in other.nonzero:
                if l == m:
                    acc[j, k] = acc[j, k] + a * b if (j, k) in acc else a * b
                if k == j:
                    acc[m, l] = acc[m, l] - b * a if (m, l) in acc else -(b * a)
        return MatGl(self.n, [(j, k, value) for (j, k), value in acc.items()])


def sigma(A: MatGl) -> MatGl:
    """Antilinear involution cutting out the indefinite-unitary real form.

    sigma(A) = -I conj(A)^T I with I = diag(-1, 1, ..., 1), entrywise
    sigma(A)[j][k] = -s_j conj(A[k][j]) s_k for s = ``signature(n)`` = -I
    (the overall sign of s cancels).
    """
    s = signature(A.n)
    return MatGl(A.n, [(k, j, a.conj() if s[j] != s[k] else -a.conj())
                       for j, k, a in A.nonzero])


# ---------------------------------------------------------------------------
# The semidirect sum as (n+2)x(n+2) matrices
# ---------------------------------------------------------------------------

# X = [[0, vE^T, t / _CENTRAL_SCALE], [0, A, I vEbar], [0, 0, 0]] with
# I = -diag(eps), eps = signature(n).  The commutator's corner entry is
# vE^T I vEbar' - vE'^T I vEbar, so [E_k, Ebar_k] = -_CENTRAL_SCALE * eps_k * T
# = VK_SHEAR * i * eps_k * T, the bracket of the fiber translations V_k.
_CENTRAL_SCALE = QI(0, -VK_SHEAR)


def semidirect(A: MatGl, vE, vEbar, t) -> MatGl:
    """The element of the complexified semidirect sum with matrix block A.

    ``vE`` and ``vEbar`` are the coefficient vectors over the holomorphic
    and antiholomorphic translation generators, ``t`` the coefficient of the
    central generator.  Real-form members satisfy ``sigma(A) = A``,
    ``vEbar = conj(vE)`` and real ``t``.  The bracket of two elements is
    their commutator: A acts on vE by v -> -A^T v and on vEbar by
    v -> I A I v.
    """
    n = A.n
    if len(vE) != n or len(vEbar) != n:
        raise ValueError("translation parts must have length n")
    if type(t) is not QI or not all(type(x) is QI for part in (vE, vEbar) for x in part):
        raise ValueError("vE, vEbar and t must be exact Gaussian rationals")
    triples = [(0, k, v) for k, v in enumerate(vE, 1)] + [(0, n + 1, t / _CENTRAL_SCALE)]
    triples += [(j + 1, k + 1, a) for j, k, a in A.nonzero]
    triples += [(j, n + 1, -v if e > 0 else v)
                for j, (v, e) in enumerate(zip(vEbar, signature(n)), 1)]
    return MatGl(n + 2, triples)


# ---------------------------------------------------------------------------
# Basis and the correspondence with vector fields
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def algebra_basis(n: int) -> Tuple[Tuple[str, MatGl, PolyVectorField], ...]:
    """Labelled basis of the complexified semidirect sum, each element with
    its vector-field image (c symbolic).

    Order: scalar rotation C, upper shears U_a, lower shears U_a^s, their
    commutators B(a,b) = [U_a, U_b^s], holomorphic translations E_k,
    antiholomorphic translations Ebar_k, center T.  The images are the
    symmetry catalogue: C to the phase rotation YC, U_a and U_a^s to the
    shear pair Ya, YaBar, B(a,b) to minus the shear commutator, E_k and
    Ebar_k to the fiber translations Vk, VkBar, T to the angle translation.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    zero = (QI_ZERO,) * n

    def element(A=MatGl(n, ()), vE=zero, vEbar=zero, t=QI_ZERO):
        return semidirect(A, vE, vEbar, t)

    def image(kind, *indices):
        return generator(kind, n, *indices)

    units = [tuple(QI_ONE if j == k else QI_ZERO for j in range(n)) for k in range(n)]
    shears = [MatGl(n, [(0, a, QI_ONE)]) for a in range(1, n)]
    U = [element(A) for A in shears]
    Us = [element(sigma(A)) for A in shears]
    out = [("C", element(MatGl(n, [(j, j, QI_I) for j in range(n)])), image("YC"))]
    out += [(f"U({a})", x, image("Ya", a)) for a, x in enumerate(U, 1)]
    out += [(f"Us({a})", x, image("YaBar", a)) for a, x in enumerate(Us, 1)]
    out += [(f"B({a},{b})", x.commutator(y), -image("CommYaYbBar", a, b))
            for a, x in enumerate(U, 1) for b, y in enumerate(Us, 1)]
    out += [(f"E({k})", element(vE=v), image("Vk", k)) for k, v in enumerate(units)]
    out += [(f"Ebar({k})", element(vEbar=v), image("VkBar", k))
            for k, v in enumerate(units)]
    out.append(("T", element(t=QI_ONE), image("T")))
    return tuple(out)


def coordinates(x: MatGl) -> List[QI]:
    """Coefficients of a semidirect element over ``algebra_basis``, in its
    order, read in one pass over the nonzero entries.

    With x = semidirect(A, vE, vEbar, t) they are [lam, m, s, kappa, vE,
    vEbar, t]: the block is A = lam*C + sum_a m_a U_a + sum_a s_a U_a^s +
    sum_{a,b} kappa_ab B(a,b), where lam = tr(A) / (i n), m_a = A[0][a],
    s_a = A[a][0] and kappa_ab = -A[b][a], plus i*lam when a = b.  A matrix
    with an entry outside the semidirect pattern is refused.
    """
    n = x.n - 2
    eps = signature(n)
    first_kappa, first_vE = 2 * n - 1, n * n
    out = [QI_ZERO] * (n + 1) ** 2
    trace = QI_ZERO
    for j, k, a in x.nonzero:
        if k == 0 or j == n + 1:
            raise ValueError("not an element of the semidirect sum")
        if j == 0 and k == n + 1:
            out[-1] = _CENTRAL_SCALE * a
        elif j == 0:
            out[first_vE + k - 1] = a
        elif k == n + 1:
            out[first_vE + n + j - 1] = -a if eps[j - 1] > 0 else a
        else:  # A[j - 1][k - 1]
            if j == k:
                trace += a
            if j == 1 < k:
                out[k - 1] = a
            elif k == 1 < j:
                out[n + j - 2] = a
            elif j > 1:
                out[first_kappa + (k - 2) * (n - 1) + j - 2] = -a
    lam = out[0] = trace / QI(0, n)
    for d in range(n - 1):
        out[first_kappa + d * n] += QI_I * lam
    return out


def alpha(x: MatGl) -> PolyVectorField:
    """Linear map from the abstract algebra to polynomial vector fields.

    The basis goes to its images in ``algebra_basis``.  The bracket check is
    anti-equivariant: [alpha(x), alpha(y)] = -alpha([x, y]).  The result is
    one linear combination of the cached basis images, with the
    coefficients read by ``coordinates``.
    """
    n = x.n - 2
    return combination(n, zip(coordinates(x), (image for _, _, image in algebra_basis(n))))


@record(frozen=True)
class StructureReport:
    """Outcome of the pairwise structure-constant verification."""

    n: int
    pairs_checked: int
    mismatches: Tuple[Tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches
