"""Exact matrix model of the symmetry algebra and its center lattice.

The continuous symmetries of the deformed metric assemble into a semidirect
sum: an indefinite-unitary matrix block acting on a Heisenberg translation
part with one central direction.  This module realizes that algebra as
(n+2)x(n+2) matrices with exact Gaussian-rational entries, so that its
bracket is the matrix commutator; provides the antilinear involution that
cuts out the real form, verifies the structure constants against the vector
fields of :mod:`oneloop.polyfields`, and computes the center lattices (kernel
of the group action, its intersection with the special-unitary block, and the
unitary/Heisenberg intersection subgroups) by exact integer linear algebra.

Center vectors live in coordinates (2pi * u, 2pi * m, 4pi*c * z) with u, z
rational and m integral; c is a formal positive symbol, and the degenerate
c = 0 branch is always selected explicitly, never inferred from a float.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Dict, List, Tuple

from .exact import QI, QI_I, QI_ONE, QI_ZERO
from .params import ModelParams
from .record import record

if TYPE_CHECKING:  # imported where used, so that center does not compile it
    from .polyfields import PolyVectorField

__all__ = [
    "MatGl",
    "CenterVector",
    "StructureReport",
    "sigma",
    "semidirect",
    "blocks",
    "algebra_basis",
    "gl_decompose",
    "alpha",
    "structure_check",
    "kernel_generators",
    "kernel_generators_n1",
    "ker_cap_su",
    "f_generator",
    "fprime_generator",
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
    def _wrap(cls, entries) -> "MatGl":
        """A MatGl around square rows of QI entries, taken unchecked: the
        result of an operation on checked matrices."""
        out = object.__new__(cls)
        object.__setattr__(out, "entries", entries)
        return out

    @cached_property
    def _nonzero(self):
        """The (column, entry) pairs of the nonzero entries of each row."""
        return [[(k, a) for k, a in enumerate(row) if a] for row in self.entries]

    def commutator(self, other: "MatGl") -> "MatGl":
        """self @ other - other @ self in one pass over the nonzero entries:
        the algebra basis matrices have at most n nonzeros each."""
        if not isinstance(other, MatGl) or other.n != self.n:
            raise ValueError("matrix size mismatch")
        left, right = self._nonzero, other._nonzero
        zero = (QI_ZERO,) * self.n
        rows = []
        for row_l, row_r in zip(left, right):
            acc = {}
            for j, a in row_l:
                for k, b in right[j]:
                    acc[k] = acc[k] + a * b if k in acc else a * b
            for j, b in row_r:
                for k, a in left[j]:
                    acc[k] = acc[k] - b * a if k in acc else -(b * a)
            if not acc:
                rows.append(zero)
                continue
            row = list(zero)
            for k, value in acc.items():
                row[k] = value
            rows.append(tuple(row))
        return MatGl._wrap(tuple(rows))


def _indef_signs(n: int) -> Tuple[int, ...]:
    """Diagonal of the signature matrix I: (-1, +1, ..., +1)."""
    return tuple(-1 if j == 0 else 1 for j in range(n))


def sigma(A: MatGl) -> MatGl:
    """Antilinear involution cutting out the indefinite-unitary real form.

    sigma(A) = -I conj(A)^T I with I = diag(-1, 1, ..., 1), entrywise
    sigma(A)[j][k] = -s_j conj(A[k][j]) s_k.
    """
    s = _indef_signs(A.n)
    return MatGl._wrap(tuple(
        tuple(a.conj() if sj != sk else -a.conj() for sk, a in zip(s, column))
        for sj, column in zip(s, zip(*A.entries))
    ))


# ---------------------------------------------------------------------------
# The semidirect sum as (n+2)x(n+2) matrices
# ---------------------------------------------------------------------------

# X = [[0, vE^T, t / _CENTRAL_SCALE], [0, A, I vEbar], [0, 0, 0]].  The
# commutator's corner entry is vE^T I vEbar' - vE'^T I vEbar, so
# [E_k, Ebar_k] = _CENTRAL_SCALE * s_k * T = 2i * eps_k * T with
# eps = (+1, -1, ..., -1).
_CENTRAL_SCALE = QI(0, -2)


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
    rows += [(zero, *row, v if s > 0 else -v)
             for row, v, s in zip(A.entries, vEbar, _indef_signs(n))]
    rows.append((zero,) * (n + 2))
    return MatGl._wrap(tuple(rows))


def blocks(X: MatGl) -> Tuple[MatGl, Tuple[QI, ...], Tuple[QI, ...], QI]:
    """(A, vE, vEbar, t) of a semidirect element, as ``semidirect`` takes them."""
    top, *middle, _ = X.entries
    A = MatGl._wrap(tuple(row[1:-1] for row in middle))
    vEbar = tuple(row[-1] if s > 0 else -row[-1]
                  for row, s in zip(middle, _indef_signs(len(middle))))
    return A, top[1:-1], vEbar, _CENTRAL_SCALE * top[-1]


# ---------------------------------------------------------------------------
# Basis and the correspondence with vector fields
# ---------------------------------------------------------------------------


def algebra_basis(n: int) -> List[Tuple[str, MatGl]]:
    """Labelled basis of the complexified semidirect sum.

    Order: scalar rotation C, upper shears U_a, lower shears U_a^s, their
    commutators B(a,b) = [U_a, U_b^s], holomorphic translations E_k,
    antiholomorphic translations Ebar_k, center T.
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

    units = [tuple(QI_ONE if j == k else QI_ZERO for j in range(n)) for k in range(n)]
    shears = [matrix((0, a, QI_ONE)) for a in range(1, n)]
    U = [element(A) for A in shears]
    Us = [element(sigma(A)) for A in shears]
    out = [("C", element(matrix(*((j, j, QI_I) for j in range(n)))))]
    out += [(f"U({a})", x) for a, x in enumerate(U, 1)]
    out += [(f"Us({a})", x) for a, x in enumerate(Us, 1)]
    out += [(f"B({a},{b})", x.commutator(y))
            for a, x in enumerate(U, 1) for b, y in enumerate(Us, 1)]
    out += [(f"E({k})", element(vE=v)) for k, v in enumerate(units)]
    out += [(f"Ebar({k})", element(vEbar=v)) for k, v in enumerate(units)]
    out.append(("T", element(t=QI_ONE)))
    return out


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


@lru_cache(maxsize=None)
def _alpha_images(n: int) -> Tuple[PolyVectorField, ...]:
    """Vector-field images of ``algebra_basis(n)``, in its order (c symbolic)."""
    from .polyfields import GeneratorName, generator

    params = ModelParams(n=n, c=0.0)
    images = [generator(GeneratorName("YC"), params)]
    images += [generator(GeneratorName("Ya", a), params) for a in range(1, n)]
    images += [generator(GeneratorName("YaBar", a), params) for a in range(1, n)]
    images += [-generator(GeneratorName("CommYaYbBar", a, b), params)
               for a in range(1, n) for b in range(1, n)]
    images += [generator(GeneratorName("Vk", k), params) for k in range(n)]
    images += [generator(GeneratorName("VkBar", k), params) for k in range(n)]
    images.append(generator(GeneratorName("T"), params))
    return tuple(images)


def alpha(x: MatGl, params: ModelParams) -> PolyVectorField:
    """Linear map from the abstract algebra to polynomial vector fields.

    The basis goes to the symmetry catalogue: C to the phase rotation, U_a
    and U_a^s to the shear pair, B(a,b) to minus the shear commutator, E_k
    and Ebar_k to the fiber translations, T to the angle translation.  The
    bracket check is anti-equivariant: [alpha(x), alpha(y)] = -alpha([x, y]).
    The result is one linear combination of the cached basis images, with
    the coefficients collected in ``algebra_basis`` order.
    """
    from .polyfields import combination

    A, vE, vEbar, t = blocks(x)
    n = A.n
    if n != params.n:
        raise ValueError("size mismatch with params")
    lam, m, s, kappa = gl_decompose(A)
    coeffs = [lam, *m, *s, *(k for row in kappa for k in row), *vE, *vEbar, t]
    return combination(n, zip(coeffs, _alpha_images(n)))


@record(frozen=True)
class StructureReport:
    """Outcome of the pairwise structure-constant verification."""

    n: int
    pairs_checked: int
    mismatches: Tuple[Tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def structure_check(params: ModelParams) -> StructureReport:
    """Verify [alpha(x), alpha(y)] = -alpha([x, y]) on all basis pairs.

    Exact polynomial arithmetic with the deformation parameter symbolic;
    -[x, y] is the commutator [y, x].
    """
    from .polyfields import bracket

    n = params.n
    basis = algebra_basis(n)
    field_of = {label: alpha(elem, params) for label, elem in basis}
    mismatches: List[Tuple[str, str]] = []
    pairs = 0
    for label_x, x in basis:
        for label_y, y in basis:
            pairs += 1
            lhs = bracket(field_of[label_x], field_of[label_y])
            rhs = alpha(y.commutator(x), params)
            if lhs != rhs:
                mismatches.append((label_x, label_y))
    return StructureReport(n=n, pairs_checked=pairs, mismatches=tuple(mismatches))


# ---------------------------------------------------------------------------
# Center lattice calculator
# ---------------------------------------------------------------------------


@record(frozen=True)
class CenterVector:
    """Vector in the center lattice coordinates (2pi*u, 2pi*m, 4pi*c*z)."""

    u: Fraction
    m: int
    z: Fraction

    def __post_init__(self):
        object.__setattr__(self, "u", Fraction(self.u))
        if not isinstance(self.m, int):
            raise ValueError("the discrete slot must be an exact integer")
        object.__setattr__(self, "z", Fraction(self.z))

    @classmethod
    def zero(cls) -> "CenterVector":
        return cls(Fraction(0), 0, Fraction(0))

    def __add__(self, other: "CenterVector") -> "CenterVector":
        return CenterVector(self.u + other.u, self.m + other.m, self.z + other.z)

    def __neg__(self) -> "CenterVector":
        return CenterVector(-self.u, -self.m, -self.z)

    def scale_int(self, k: int) -> "CenterVector":
        if not isinstance(k, int):
            raise ValueError("lattice vectors scale by integers only")
        return CenterVector(k * self.u, k * self.m, k * self.z)

    def serialize(self) -> Dict[str, object]:
        return {
            "two_pi_R": str(self.u),
            "two_pi_Z": self.m,
            "four_pi_c": str(self.z),
        }

    def human(self, n1: bool = False) -> str:
        """Render like "(2π,0,4πc)"; with n1=True the integer slot is omitted
        (the n = 1 center has no discrete factor)."""
        slots = [
            _pi_coeff_str(2 * self.u, "π"),
            _pi_coeff_str(2 * Fraction(self.m), "π"),
            _pi_coeff_str(4 * self.z, "πc"),
        ]
        if n1:
            slots = [slots[0], slots[2]]
        return "(" + ",".join(slots) + ")"


def _pi_coeff_str(coeff: Fraction, unit: str) -> str:
    if coeff == 0:
        return "0"
    sign = "-" if coeff < 0 else ""
    p, q = abs(coeff).numerator, abs(coeff).denominator
    head = "" if p == 1 else str(p)
    tail = "" if q == 1 else f"/{q}"
    return f"{sign}{head}{unit}{tail}"


def kernel_generators(n: int) -> Tuple[CenterVector, CenterVector]:
    """Lattice generators of the subgroup acting trivially, for n >= 2.

    In (2pi, 2pi, 4pi*c) units these are (1, 0, 1) and
    (-1/n, -1, (n-2)/n): the full period of the w-phase rotation combined
    with its angle shift, and the 2pi/n period of the weighted rotation.
    """
    if n < 2:
        raise ValueError(
            "kernel_generators requires n >= 2; use kernel_generators_n1 for n = 1"
        )
    g1 = CenterVector(Fraction(1), 0, Fraction(1))
    g2 = CenterVector(Fraction(-1, n), -1, Fraction(n - 2, n))
    return g1, g2


def kernel_generators_n1() -> CenterVector:
    """Single lattice generator for n = 1, in (2pi, -, 4pi*c) units."""
    return CenterVector(Fraction(1), 0, Fraction(1))


def _primitive_homogeneous_solution(p: int, q: int) -> Tuple[int, int]:
    """Primitive integer solution (x, y) of p*x + q*y = 0 with y <= 0.

    Exact integer solve of the 1x2 homogeneous system: the solution lattice
    is spanned by (q, -p)/gcd(p, q).
    """
    g = math.gcd(p, q)
    if g == 0:
        raise ValueError("degenerate system")
    x, y = q // g, -(p // g)
    if p * x + q * y != 0:
        raise AssertionError("primitive solution does not solve the system")
    return x, y


def ker_cap_su(n: int) -> CenterVector:
    """Intersection of the trivial-action lattice with the trace-free block.

    Solved exactly: an integer combination x*g1 + y*g2 of the kernel
    generators has vanishing central slot iff n*x + (n-2)*y = 0; the
    primitive solution of that equation gives the generator.
    """
    if n < 2:
        raise ValueError("ker_cap_su requires n >= 2")
    g1, g2 = kernel_generators(n)
    x, y = _primitive_homogeneous_solution(n, n - 2)
    vec = g1.scale_int(x) + g2.scale_int(y)
    if vec.m < 0:
        vec = -vec
    if vec.z != 0:
        raise AssertionError("ker_cap_su generator has a nonzero central slot")
    return vec


def f_generator(n: int, positive_c: bool = True) -> CenterVector:
    """Generator of the unitary/Heisenberg intersection subgroup.

    For c > 0 this is the projection of the trivial-action lattice onto its
    central slot: the set {x + (n-2)/n * y : x, y integers} equals
    gcd(n, n-2)/n times the integers, computed exactly.  For the c = 0
    branch the subgroup is trivial.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not positive_c:
        return CenterVector.zero()
    if n == 1:
        return CenterVector(Fraction(0), 0, kernel_generators_n1().z)
    g1, g2 = kernel_generators(n)
    # z-slots of the generators are z1 = p1/q and z2 = p2/q over a common
    # denominator; the projection lattice is gcd(p1, p2)/q.
    q = math.lcm(g1.z.denominator, g2.z.denominator)
    p1 = g1.z.numerator * (q // g1.z.denominator)
    p2 = g2.z.numerator * (q // g2.z.denominator)
    step = Fraction(math.gcd(p1, p2), q)
    return CenterVector(Fraction(0), 0, step)


def fprime_generator(n: int, positive_c: bool = True) -> CenterVector:
    """Generator of the special-unitary/Heisenberg intersection subgroup.

    For c > 0: the trivial-action lattice meets the plane with vanishing
    first slot in a rank-one sublattice; solving n*x - y = 0 exactly gives
    the primitive element x*g1 + y*g2 = (0, -n, n-1), whose central slot
    generates the subgroup.  Trivial on the c = 0 branch.
    """
    if n < 2:
        raise ValueError("fprime_generator requires n >= 2")
    if not positive_c:
        return CenterVector.zero()
    g1, g2 = kernel_generators(n)
    # First slot of x*g1 + y*g2 is x - y/n; vanishes iff n*x - y = 0.
    x, y = _primitive_homogeneous_solution(n, -1)
    vec = g1.scale_int(x) + g2.scale_int(y)
    if vec.z < 0:
        vec = -vec
    if vec.u != 0:
        raise AssertionError("fprime_generator vector has a nonzero first slot")
    return CenterVector(Fraction(0), 0, vec.z)
