"""Exact matrix model of the symmetry algebra.

The continuous symmetries of the deformed metric assemble into a semidirect
sum: an indefinite-unitary matrix block acting on a Heisenberg translation
part with one central direction.  This module realizes that algebra as
(n+2)x(n+2) matrices with exact Gaussian-rational entries, so that its
bracket is the matrix commutator; provides the antilinear involution that
cuts out the real form, the labelled basis with its vector-field images in
:mod:`oneloop.polyfields`, and the linear map ``alpha`` onto those fields,
which ``liealg.structure_check`` compares bracket by bracket.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Tuple

from .exact import QI, QI_I, QI_ONE, QI_ZERO
from .params import VK_SHEAR, signature
from .polyfields import PolyVectorField, combination, generator
from .record import record

__all__ = [
    "MatGl",
    "StructureReport",
    "sigma",
    "semidirect",
    "blocks",
    "algebra_basis",
    "gl_decompose",
    "alpha",
]


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


@record(frozen=True)
class MatGl:
    """Square matrix with exact Gaussian-rational entries."""

    entries: Tuple[Tuple[QI, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if n == 0 or any(len(row) != n for row in self.entries):
            raise ValueError("matrix must be square and non-empty")
        if any(not isinstance(e, QI) for row in self.entries for e in row):
            raise ValueError("entries must be exact Gaussian rationals")

    @property
    def n(self) -> int:
        return len(self.entries)

    @classmethod
    def _wrap(cls, entries, nonzero=None) -> "MatGl":
        """A MatGl around square rows of QI entries, taken unchecked: the
        result of an operation on checked matrices, which may pass its
        ``_nonzero`` too."""
        out = object.__new__(cls)
        object.__setattr__(out, "entries", entries)
        if nonzero is not None:
            out.__dict__["_nonzero"] = nonzero
        return out

    @cached_property
    def _nonzero(self):
        """The (column, entry) pairs of the nonzero entries of each row."""
        return [[(k, a) for k, a in enumerate(row) if a] for row in self.entries]

    def terms(self):
        """(row, column, numerators, denominator) of each nonzero entry, in
        row-major order: equal exactly when the matrices are, and hashed
        without a ring call, so it keys a memo of matrices."""
        return tuple([(i, k) + a.numerators()
                      for i, row in enumerate(self._nonzero) for k, a in row])

    def commutator(self, other: "MatGl") -> "MatGl":
        """self @ other - other @ self in one pass over the nonzero entries:
        the algebra basis matrices have at most n nonzeros each."""
        if not isinstance(other, MatGl) or other.n != self.n:
            raise ValueError("matrix size mismatch")
        left, right = self._nonzero, other._nonzero
        zero = (QI_ZERO,) * self.n
        rows, nonzero = [], []
        for row_l, row_r in zip(left, right):
            acc = {}
            for j, a in row_l:
                for k, b in right[j]:
                    acc[k] = acc[k] + a * b if k in acc else a * b
            for j, b in row_r:
                for k, a in left[j]:
                    acc[k] = acc[k] - b * a if k in acc else -(b * a)
            pairs = sorted([(k, value) for k, value in acc.items() if value]) if acc else []
            nonzero.append(pairs)
            if not pairs:
                rows.append(zero)
                continue
            row = list(zero)
            for k, value in pairs:
                row[k] = value
            rows.append(tuple(row))
        return MatGl._wrap(tuple(rows), nonzero)


def sigma(A: MatGl) -> MatGl:
    """Antilinear involution cutting out the indefinite-unitary real form.

    sigma(A) = -I conj(A)^T I with I = diag(-1, 1, ..., 1), entrywise
    sigma(A)[j][k] = -s_j conj(A[k][j]) s_k for s = ``signature(n)`` = -I
    (the overall sign of s cancels).
    """
    s = signature(A.n)
    return MatGl._wrap(tuple(
        tuple(a.conj() if sj != sk else -a.conj() for sk, a in zip(s, column))
        for sj, column in zip(s, zip(*A.entries))
    ))


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
    zero = QI_ZERO
    rows = [(zero, *vE, t / _CENTRAL_SCALE)]
    rows += [(zero, *row, -v if e > 0 else v)
             for row, v, e in zip(A.entries, vEbar, signature(n))]
    rows.append((zero,) * (n + 2))
    return MatGl._wrap(tuple(rows))


def blocks(X: MatGl) -> Tuple[MatGl, Tuple[QI, ...], Tuple[QI, ...], QI]:
    """(A, vE, vEbar, t) of a semidirect element, as ``semidirect`` takes them."""
    top, *middle, _ = X.entries
    A = MatGl._wrap(tuple(row[1:-1] for row in middle))
    vEbar = tuple(-row[-1] if e > 0 else row[-1]
                  for row, e in zip(middle, signature(len(middle))))
    return A, top[1:-1], vEbar, _CENTRAL_SCALE * top[-1]


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

    def matrix(*entries):
        """The n x n matrix with the given (row, column, value) entries."""
        rows = [list(zero) for _ in range(n)]
        for j, k, q in entries:
            rows[j][k] = q
        return MatGl._wrap(tuple(map(tuple, rows)))

    def element(A=matrix(), vE=zero, vEbar=zero, t=QI_ZERO):
        return semidirect(A, vE, vEbar, t)

    def image(kind, *indices):
        return generator(kind, n, *indices)

    units = [tuple(QI_ONE if j == k else QI_ZERO for j in range(n)) for k in range(n)]
    shears = [matrix((0, a, QI_ONE)) for a in range(1, n)]
    U = [element(A) for A in shears]
    Us = [element(sigma(A)) for A in shears]
    out = [("C", element(matrix(*((j, j, QI_I) for j in range(n)))), image("YC"))]
    out += [(f"U({a})", x, image("Ya", a)) for a, x in enumerate(U, 1)]
    out += [(f"Us({a})", x, image("YaBar", a)) for a, x in enumerate(Us, 1)]
    out += [(f"B({a},{b})", x.commutator(y), -image("CommYaYbBar", a, b))
            for a, x in enumerate(U, 1) for b, y in enumerate(Us, 1)]
    out += [(f"E({k})", element(vE=v), image("Vk", k)) for k, v in enumerate(units)]
    out += [(f"Ebar({k})", element(vEbar=v), image("VkBar", k))
            for k, v in enumerate(units)]
    out.append(("T", element(t=QI_ONE), image("T")))
    return tuple(out)


def gl_decompose(
    M: MatGl,
) -> Tuple[QI, Tuple[QI, ...], Tuple[QI, ...], Tuple[Tuple[QI, ...], ...]]:
    """Coefficients of M over the basis {C, U_a, U_a^s, B(a,b)}.

    Returns (lam, m, s, kappa) with
    M = lam*C + sum_a m_a U_a + sum_a s_a U_a^s + sum_{a,b} kappa_ab B(a,b).
    The decomposition always exists and is unique; lam = tr(M) / (i n).
    """
    n, rows = M.n, M.entries
    lam = sum((rows[j][j] for j in range(n)), QI_ZERO) / QI(0, n)
    m = rows[0][1:]
    s = tuple(row[0] for row in rows[1:])
    i_lam = QI_I * lam
    columns = tuple(zip(*rows))
    # Zero entries are kept, not negated: the matrices are sparse.
    kappa = tuple(
        tuple(i_lam - x if a == b else -x if x else x
              for b, x in enumerate(columns[a][1:], 1))
        for a in range(1, n)
    )
    return lam, m, s, kappa


def alpha(x: MatGl) -> PolyVectorField:
    """Linear map from the abstract algebra to polynomial vector fields.

    The basis goes to its images in ``algebra_basis``.  The bracket check is
    anti-equivariant: [alpha(x), alpha(y)] = -alpha([x, y]).  The result is
    one linear combination of the cached basis images, with the
    coefficients collected in ``algebra_basis`` order.
    """
    A, vE, vEbar, t = blocks(x)
    n = A.n
    lam, m, s, kappa = gl_decompose(A)
    coeffs = [lam, *m, *s, *(k for row in kappa for k in row), *vE, *vEbar, t]
    return combination(n, zip(coeffs, (image for _, _, image in algebra_basis(n))))


@record(frozen=True)
class StructureReport:
    """Outcome of the pairwise structure-constant verification."""

    n: int
    pairs_checked: int
    mismatches: Tuple[Tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches
