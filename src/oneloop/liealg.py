"""Exact matrix model of the symmetry algebra and its center lattice.

The continuous symmetries of the deformed metric assemble into a semidirect
sum: an indefinite-unitary matrix block acting on a Heisenberg translation
part with one central direction.  This module realizes that algebra with
exact Gaussian-rational arithmetic, provides the antilinear involution that
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
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from .exact import QI, QI_I, QI_ZERO
from .params import ModelParams
from .record import record

if TYPE_CHECKING:  # imported where used, so that center does not compile it
    from .polyfields import PolyVectorField

__all__ = [
    "MatGl",
    "SemiDirectElement",
    "CenterVector",
    "StructureReport",
    "sigma",
    "semidirect_bracket",
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
# Matrix block
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
    def from_rows(cls, rows: Sequence[Sequence]) -> "MatGl":
        return cls(tuple(tuple(QI.coerce(e) for e in row) for row in rows))

    @classmethod
    def _wrap(cls, entries) -> "MatGl":
        """A MatGl around square rows of QI entries, taken unchecked: the
        result of an operation on checked matrices."""
        out = object.__new__(cls)
        object.__setattr__(out, "entries", entries)
        return out

    @staticmethod
    @lru_cache(maxsize=None)
    def zero(n: int) -> "MatGl":
        return MatGl.from_rows([[0] * n for _ in range(n)])

    @classmethod
    def identity(cls, n: int) -> "MatGl":
        return cls.from_rows(
            [[1 if j == k else 0 for k in range(n)] for j in range(n)]
        )

    @classmethod
    def unit(cls, n: int, j: int, k: int) -> "MatGl":
        """Matrix unit with a single 1 in row j, column k."""
        return cls.from_rows(
            [[1 if (r, s) == (j, k) else 0 for s in range(n)] for r in range(n)]
        )

    # Sums, differences, negation and products skip zero entries: the
    # algebra basis matrices have at most n nonzeros each.
    def __add__(self, other: "MatGl") -> "MatGl":
        self._check(other)
        return MatGl._wrap(
            tuple(
                tuple((a + b if b else a) if a else b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __sub__(self, other: "MatGl") -> "MatGl":
        self._check(other)
        return MatGl._wrap(
            tuple(
                tuple(
                    (a - b if b else a) if a else (-b if b else b)
                    for a, b in zip(ra, rb)
                )
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __neg__(self) -> "MatGl":
        return MatGl._wrap(
            tuple(tuple(-a if a else a for a in row) for row in self.entries)
        )

    def scale(self, coeff) -> "MatGl":
        q = QI.coerce(coeff)
        return MatGl._wrap(tuple(tuple(q * a for a in row) for row in self.entries))

    def __matmul__(self, other: "MatGl") -> "MatGl":
        self._check(other)
        n = self.n
        # Nonzero (column, entry) pairs of each row of the right factor.
        right = [[(k, b) for k, b in enumerate(row) if b] for row in other.entries]
        rows = []
        for row_a in self.entries:
            row = [QI_ZERO] * n
            for a, row_b in zip(row_a, right):
                if a:
                    for k, b in row_b:
                        row[k] = row[k] + a * b
            rows.append(tuple(row))
        return MatGl._wrap(tuple(rows))

    def transpose(self) -> "MatGl":
        n = self.n
        return MatGl._wrap(
            tuple(tuple(self.entries[k][j] for k in range(n)) for j in range(n))
        )

    def conj(self) -> "MatGl":
        return MatGl._wrap(
            tuple(tuple(a.conj() for a in row) for row in self.entries)
        )

    def trace(self) -> QI:
        acc = QI(0)
        for j in range(self.n):
            acc = acc + self.entries[j][j]
        return acc

    def is_zero(self) -> bool:
        return not any(map(any, self.entries))

    def commutator(self, other: "MatGl") -> "MatGl":
        return (self @ other) - (other @ self)

    def _check(self, other: "MatGl"):
        if not isinstance(other, MatGl) or other.n != self.n:
            raise ValueError("matrix size mismatch")


def _indef_signs(n: int) -> Tuple[int, ...]:
    """Diagonal of the signature matrix: (-1, +1, ..., +1)."""
    return tuple(-1 if j == 0 else 1 for j in range(n))


@lru_cache(maxsize=None)
def _signature_matrix(n: int) -> MatGl:
    return MatGl.from_rows(
        [[s if j == k else 0 for k, s in enumerate(_indef_signs(n))] for j in range(n)]
    )


def sigma(A: MatGl) -> MatGl:
    """Antilinear involution cutting out the indefinite-unitary real form.

    sigma(A) = -I conj(A)^T I with I = diag(-1, 1, ..., 1).
    """
    I = _signature_matrix(A.n)
    return -(I @ A.conj().transpose() @ I)


# ---------------------------------------------------------------------------
# Semidirect elements and the bracket
# ---------------------------------------------------------------------------


@record(frozen=True)
class SemiDirectElement:
    """Element of the complexified semidirect sum.

    ``A`` is the matrix block; ``vE`` and ``vEbar`` are the coefficient
    vectors over the holomorphic and antiholomorphic translation generators;
    ``t`` is the coefficient of the central generator.  Real-form members
    satisfy ``sigma(A) = A``, ``vEbar = conj(vE)``, and real ``t``.
    """

    A: MatGl
    vE: Tuple[QI, ...]
    vEbar: Tuple[QI, ...]
    t: QI

    def __post_init__(self):
        n = self.A.n
        if len(self.vE) != n or len(self.vEbar) != n:
            raise ValueError("translation parts must have length n")
        # type(...) is QI is cheap enough for the thousands of elements
        # structure_check builds.
        if type(self.t) is not QI or not all(
            type(x) is QI for part in (self.vE, self.vEbar) for x in part
        ):
            raise ValueError("vE, vEbar and t must be exact Gaussian rationals")

    @property
    def n(self) -> int:
        return self.A.n

    @classmethod
    def zero(cls, n: int) -> "SemiDirectElement":
        z = tuple(QI(0) for _ in range(n))
        return cls(MatGl.zero(n), z, z, QI(0))

    @classmethod
    def from_matrix(cls, A: MatGl) -> "SemiDirectElement":
        z = tuple(QI(0) for _ in range(A.n))
        return cls(A, z, z, QI(0))

    @classmethod
    def e_translation(cls, n: int, k: int) -> "SemiDirectElement":
        if not 0 <= k < n:
            raise ValueError(f"translation index {k} out of range 0..{n - 1}")
        v = tuple(QI(1 if j == k else 0) for j in range(n))
        z = tuple(QI(0) for _ in range(n))
        return cls(MatGl.zero(n), v, z, QI(0))

    @classmethod
    def ebar_translation(cls, n: int, k: int) -> "SemiDirectElement":
        if not 0 <= k < n:
            raise ValueError(f"translation index {k} out of range 0..{n - 1}")
        v = tuple(QI(1 if j == k else 0) for j in range(n))
        z = tuple(QI(0) for _ in range(n))
        return cls(MatGl.zero(n), z, v, QI(0))

    @classmethod
    def center(cls, n: int, t=1) -> "SemiDirectElement":
        z = tuple(QI(0) for _ in range(n))
        return cls(MatGl.zero(n), z, z, QI.coerce(t))

    def __add__(self, other: "SemiDirectElement") -> "SemiDirectElement":
        if other.n != self.n:
            raise ValueError("size mismatch")
        return SemiDirectElement(
            self.A + other.A,
            tuple(a + b for a, b in zip(self.vE, other.vE)),
            tuple(a + b for a, b in zip(self.vEbar, other.vEbar)),
            self.t + other.t,
        )

    def __neg__(self) -> "SemiDirectElement":
        return SemiDirectElement(
            -self.A,
            tuple(-a for a in self.vE),
            tuple(-a for a in self.vEbar),
            -self.t,
        )

    def scale(self, coeff) -> "SemiDirectElement":
        q = QI.coerce(coeff)
        return SemiDirectElement(
            self.A.scale(q),
            tuple(q * a for a in self.vE),
            tuple(q * a for a in self.vEbar),
            q * self.t,
        )

    def is_zero(self) -> bool:
        return (
            self.A.is_zero()
            and all(a.is_zero() for a in self.vE)
            and all(a.is_zero() for a in self.vEbar)
            and self.t.is_zero()
        )


def semidirect_bracket(
    x: SemiDirectElement, y: SemiDirectElement
) -> SemiDirectElement:
    """Lie bracket of the semidirect sum.

    The matrix block acts on the holomorphic translation part by
    v -> -A^T v and on the antiholomorphic part by v -> I A I v; a
    holomorphic/antiholomorphic pair of translations brackets into the
    center weighted by the signature (+1 for index 0, -1 otherwise).
    """
    if x.n != y.n:
        raise ValueError("size mismatch")
    n = x.n
    signs = _indef_signs(n)
    zero = QI_ZERO
    zeros = tuple(zero for _ in range(n))

    ax_zero = x.A.is_zero()
    ay_zero = y.A.is_zero()
    A = MatGl.zero(n) if (ax_zero or ay_zero) else x.A.commutator(y.A)

    def act_e(M: MatGl, v: Tuple[QI, ...], m_zero: bool) -> Tuple[QI, ...]:
        # v -> -M^T v, entrywise to avoid building the transpose.
        if m_zero or all(c.is_zero() for c in v):
            return zeros
        out = []
        for j in range(n):
            acc = zero
            for k in range(n):
                vk = v[k]
                if vk.is_zero():
                    continue
                e = M.entries[k][j]
                if not e.is_zero():
                    acc = acc + e * vk
            out.append(-acc)
        return tuple(out)

    def act_ebar(M: MatGl, v: Tuple[QI, ...], m_zero: bool) -> Tuple[QI, ...]:
        # v -> (I M I) v = (signs_j M_jk signs_k) v, without matrix products.
        if m_zero or all(c.is_zero() for c in v):
            return zeros
        out = []
        for j in range(n):
            acc = zero
            for k in range(n):
                vk = v[k]
                if vk.is_zero():
                    continue
                e = M.entries[j][k]
                if not e.is_zero():
                    term = e * vk
                    acc = acc + (term if signs[j] * signs[k] > 0 else -term)
            out.append(acc)
        return tuple(out)

    vE = tuple(
        a - b
        for a, b in zip(act_e(x.A, y.vE, ax_zero), act_e(y.A, x.vE, ay_zero))
    )
    vEbar = tuple(
        a - b
        for a, b in zip(
            act_ebar(x.A, y.vEbar, ax_zero), act_ebar(y.A, x.vEbar, ay_zero)
        )
    )

    # [E_k, Ebar_k] = 2i * eps_k * T with eps = (+1, -1, ..., -1) = -signs.
    two_i = QI(0, 2)
    t = zero
    for k in range(n):
        if not ((x.vE[k] or x.vEbar[k]) and (y.vE[k] or y.vEbar[k])):
            continue  # one side has no k-th translation: no central term
        cross = x.vE[k] * y.vEbar[k] - y.vE[k] * x.vEbar[k]
        if cross.is_zero():
            continue
        term = two_i * cross
        t = t + (-term if signs[k] > 0 else term)
    return SemiDirectElement(A, vE, vEbar, t)


# ---------------------------------------------------------------------------
# Basis and the correspondence with vector fields
# ---------------------------------------------------------------------------


def _c_matrix(n: int) -> MatGl:
    return MatGl.identity(n).scale(QI_I)


def _u_matrix(n: int, a: int) -> MatGl:
    if not 1 <= a <= n - 1:
        raise ValueError(f"index {a} out of range 1..{n - 1}")
    return MatGl.unit(n, 0, a)


def _u_sigma_matrix(n: int, a: int) -> MatGl:
    return sigma(_u_matrix(n, a))


def algebra_basis(n: int) -> List[Tuple[str, SemiDirectElement]]:
    """Labelled basis of the complexified semidirect sum.

    Order: scalar rotation C, upper shears U_a, lower shears U_a^s, their
    commutators B(a,b) = [U_a, U_b^s], holomorphic translations E_k,
    antiholomorphic translations Ebar_k, center T.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    out: List[Tuple[str, SemiDirectElement]] = []
    out.append(("C", SemiDirectElement.from_matrix(_c_matrix(n))))
    for a in range(1, n):
        out.append((f"U({a})", SemiDirectElement.from_matrix(_u_matrix(n, a))))
    for a in range(1, n):
        out.append(
            (f"Us({a})", SemiDirectElement.from_matrix(_u_sigma_matrix(n, a)))
        )
    for a in range(1, n):
        for b in range(1, n):
            B = _u_matrix(n, a).commutator(_u_sigma_matrix(n, b))
            out.append((f"B({a},{b})", SemiDirectElement.from_matrix(B)))
    for k in range(n):
        out.append((f"E({k})", SemiDirectElement.e_translation(n, k)))
    for k in range(n):
        out.append((f"Ebar({k})", SemiDirectElement.ebar_translation(n, k)))
    out.append(("T", SemiDirectElement.center(n)))
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
    lam = M.trace() / QI(0, n)
    m = rows[0][1:]
    s = tuple(row[0] for row in rows[1:])
    i_lam = QI_I * lam
    kappa = tuple(
        tuple(i_lam - rows[b][a] if a == b else -rows[b][a] for b in range(1, n))
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


def alpha(x: SemiDirectElement, params: ModelParams) -> PolyVectorField:
    """Linear map from the abstract algebra to polynomial vector fields.

    The basis goes to the symmetry catalogue: C to the phase rotation, U_a
    and U_a^s to the shear pair, B(a,b) to minus the shear commutator, E_k
    and Ebar_k to the fiber translations, T to the angle translation.  The
    bracket check is anti-equivariant: [alpha(x), alpha(y)] = -alpha([x, y]).
    The result is one linear combination of the cached basis images, with
    the coefficients collected in ``algebra_basis`` order.
    """
    from .polyfields import combination

    n = x.n
    if n != params.n:
        raise ValueError("size mismatch with params")
    lam, m, s, kappa = gl_decompose(x.A)
    coeffs = [lam, *m, *s, *(k for row in kappa for k in row), *x.vE, *x.vEbar, x.t]
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

    Exact polynomial arithmetic with the deformation parameter symbolic.
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
            rhs = alpha(-semidirect_bracket(x, y), params)
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

    def is_zero(self) -> bool:
        return self.u == 0 and self.m == 0 and self.z == 0

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
