"""Exact arithmetic in rational quaternion algebras and their unit groups.

A pair of positive integers (a, b) determines a four-dimensional algebra
over the rationals with basis 1, I, J, K and relations I^2 = a, J^2 = b,
IJ = K = -JI.  Its integer span is an order (a subring), the quadratic
form q0^2 - a*q1^2 - b*q2^2 + a*b*q3^2 is the reduced norm, and the
norm-one integral elements embed as exact special-indefinite-unitary
2 x 2 matrices over the radical ring Q + Q*sqrt(a)*i + Q*sqrt(b) +
Q*sqrt(ab)*i.  When b is prime and a is a quadratic non-residue mod b the
algebra is a division algebra and the norm-one group acts discretely; the
general arithmetic here works without that hypothesis, and
``is_nonresidue`` decides it when needed.

The embedded matrices act on C^2 preserving the signature-(1,1) Hermitian
form diag(1, -1), and they stabilize the rank-four lattice spanned by the
quaternion orbit of the first basis vector; ``gamma2_basis`` builds that
lattice as a Heisenberg lattice description (center scale sqrt(ab)) and
``preserves_gamma2`` certifies stabilization by exact integer solves.
``c_compatible`` converts a rational multiple of the lattice's symplectic
scale into the metric deformation parameter whose angular period matches
it, the compatibility needed for compact quotients.

Everything is exact: no floating point enters any decision in this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from operator import add
from typing import Dict, List, Tuple

from .exact import Rad, RadC
from .heis import HeisPoint, LatticeDescription, form_defect, lattice_coordinates
from .record import record

__all__ = [
    "QuatParams",
    "QuatInt",
    "quat_mul",
    "reduced_norm",
    "is_nonresidue",
    "enumerate_norm_one",
    "embed_matrix",
    "su11_check",
    "gamma2_basis",
    "preserves_gamma2",
    "c_compatible",
    "norm_one_rows",
]


@record(frozen=True)
class QuatParams:
    """Structure constants (a, b) of the quaternion algebra, both positive.

    The division-algebra regime (b prime, a a non-residue mod b) matters
    only for group-theoretic conclusions; the arithmetic itself is valid
    for any positive pair and is not gated on it.
    """

    a: int
    b: int

    def __post_init__(self):
        # type(...) is int also turns away bool, an int subclass.
        if not (type(self.a) is int and self.a > 0):
            raise ValueError("a must be a positive integer")
        if not (type(self.b) is int and self.b > 0):
            raise ValueError("b must be a positive integer")


# Slotted and not frozen, like QI, Rad and RadC: the norm-one scan builds
# one per candidate, so each one should be small and cheap to build.
# Nothing assigns to a QuatInt after construction, so its field hash stays
# its value hash.
@record(slots=True)
class QuatInt:
    """Integral quaternion q0 + q1*I + q2*J + q3*K over fixed (a, b)."""

    q0: int
    q1: int
    q2: int
    q3: int
    params: QuatParams

    def __post_init__(self):
        if not (type(self.q0) is int and type(self.q1) is int
                and type(self.q2) is int and type(self.q3) is int):
            raise ValueError("quaternion coordinates must be integers")

    def coords(self) -> Tuple[int, int, int, int]:
        return (self.q0, self.q1, self.q2, self.q3)


def quat_mul(x: QuatInt, y: QuatInt) -> QuatInt:
    """Exact product from I^2 = a, J^2 = b, IJ = K = -JI.

    The derived relations K^2 = -ab, IK = aJ, KI = -aJ, JK = -bI, KJ = bI
    expand the product into the component formulas below.
    """
    if x.params != y.params:
        raise ValueError("quaternions live in algebras with different (a, b)")
    a, b = x.params.a, x.params.b
    x0, x1, x2, x3 = x.coords()
    y0, y1, y2, y3 = y.coords()
    return QuatInt(
        x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
        x0 * y1 + x1 * y0 - b * (x2 * y3 - x3 * y2),
        x0 * y2 + x2 * y0 + a * (x1 * y3 - x3 * y1),
        x0 * y3 + x3 * y0 + (x1 * y2 - x2 * y1),
        x.params,
    )


def reduced_norm(q: QuatInt) -> int:
    """q0^2 - a*q1^2 - b*q2^2 + a*b*q3^2; multiplicative over products."""
    a, b = q.params.a, q.params.b
    return q.q0 ** 2 - a * q.q1 ** 2 - b * q.q2 ** 2 + a * b * q.q3 ** 2


def is_nonresidue(a: int, b: int) -> bool:
    """True iff a is not a square mod the prime b (trial-division primality).

    Exhausts the squares mod b, which is exact and fast at the scales this
    package handles.  A non-prime b is rejected rather than answered.
    """
    if not (isinstance(b, int) and b >= 2):
        raise ValueError(f"b = {b} is not a prime")
    k = 2
    while k * k <= b:
        if b % k == 0:
            raise ValueError(f"b = {b} is not a prime (divisible by {k})")
        k += 1
    squares = {(x * x) % b for x in range(b)}
    return (a % b) not in squares


def enumerate_norm_one(params: QuatParams, bound: int) -> List[QuatInt]:
    """All integral quaternions of reduced norm 1 with max |q_i| <= bound.

    Exhaustive scan in lexicographic (q0, q1, q2, q3) order, so results are
    deterministic.
    """
    if not (type(bound) is int and bound >= 1):
        raise ValueError("bound must be a positive integer")
    rng = range(-bound, bound + 1)
    found = []
    for q0, q1, q2, q3 in product(rng, rng, rng, rng):
        q = QuatInt(q0, q1, q2, q3, params)
        if reduced_norm(q) == 1:
            found.append(q)
    return found


# ---------------------------------------------------------------------------
# matrix realization
# ---------------------------------------------------------------------------


def _rad(params: QuatParams, r1=0, ra=0, rb=0, rab=0) -> Rad:
    return Rad(params.a, params.b, r1, ra, rb, rab)


def embed_matrix(q: QuatInt) -> Tuple[Tuple[RadC, RadC], Tuple[RadC, RadC]]:
    """The 2 x 2 complex-matrix realization of q, exact over radicals.

    1 maps to the identity, I to sqrt(a)*i*[[0,1],[-1,0]], J to
    sqrt(b)*[[0,1],[1,0]], and K to sqrt(ab)*i*diag(1,-1), so

        Q = [[q0 + sqrt(ab)*i*q3,  sqrt(a)*i*q1 + sqrt(b)*q2],
             [-sqrt(a)*i*q1 + sqrt(b)*q2,  q0 - sqrt(ab)*i*q3]]

    with det(Q) equal to the reduced norm.
    """
    p = q.params
    return (
        (
            RadC(_rad(p, r1=q.q0), _rad(p, rab=q.q3)),
            RadC(_rad(p, rb=q.q2), _rad(p, ra=q.q1)),
        ),
        (
            RadC(_rad(p, rb=q.q2), _rad(p, ra=-q.q1)),
            RadC(_rad(p, r1=q.q0), _rad(p, rab=-q.q3)),
        ),
    )


def su11_check(q: QuatInt, matrix=None) -> bool:
    """Does the matrix realization of q preserve the form diag(1, -1)?

    Requires reduced norm 1 (the determinant condition); then checks
    conj-transpose(Q) * diag(1,-1) * Q == diag(1,-1) exactly in the radical
    ring, with the Hermitian-form check of the Heisenberg action.  The form
    diag(1,-1) is the one consistent with the generator matrices; if this
    check ever fails for a norm-one element, the alternative form
    diag(-1,1) should be examined rather than silently substituted.
    ``matrix``, when given, is ``embed_matrix(q)`` built by the caller.
    """
    if reduced_norm(q) != 1:
        raise ValueError("the unitary check applies to norm-one elements only")
    return form_defect(embed_matrix(q) if matrix is None else matrix) is None


# ---------------------------------------------------------------------------
# the stabilized Heisenberg lattice
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def gamma2_basis(params: QuatParams) -> LatticeDescription:
    """The rank-four lattice in C^2 swept out by the order acting on e_1.

    The matrix realizations of 1, I, J, K send e_1 = (1, 0) to

        e_1,   I e_1 = (0, -sqrt(a)*i),   J e_1 = (0, sqrt(b)),
        K e_1 = (sqrt(ab)*i, 0),

    and these four vectors are the lattice basis, in this order, so that
    the lattice coordinates of (the realization of q applied to e_1) are
    exactly (q0, q1, q2, q3).  The symplectic values on the basis are
    +-sqrt(ab) on the pairs (e_1, K e_1) and (I e_1, J e_1) and zero on
    every other pair, so the generated Heisenberg subgroup meets the center
    in (sqrt(ab)/2) * Z.

    One lattice is built per (a, b) and reused, so ``preserves_gamma2``
    solves against one cached basis inverse for every element.
    """
    zero = RadC(_rad(params))
    basis = (
        (RadC(_rad(params, r1=1)), zero),
        (zero, RadC(_rad(params), _rad(params, ra=-1))),
        (zero, RadC(_rad(params, rb=1))),
        (RadC(_rad(params), _rad(params, rab=1)), zero),
    )
    return LatticeDescription(n=2, basis=basis, r=_rad(params, rab=1))


def preserves_gamma2(q: QuatInt, matrix=None) -> bool:
    """Does the matrix realization of q map the lattice onto itself?

    Requires reduced norm 1.  Each basis vector's image under the matrix is
    solved for integer lattice coordinates exactly: the image of every
    basis vector must be an integer combination of the four basis vectors.
    For integral quaternions this agrees with
    quaternion multiplication: the image of (r e_1) is ((q r) e_1), whose
    coordinates are the coefficients of q*r in the order.  ``matrix``,
    when given, is ``embed_matrix(q)`` built by the caller.
    """
    if reduced_norm(q) != 1:
        raise ValueError("lattice stabilization applies to norm-one elements only")
    Q = embed_matrix(q) if matrix is None else matrix
    lattice = gamma2_basis(q.params)
    for vec in lattice.basis:
        # Products with the zero entries of vec are skipped, as MatGl skips
        # zero entries: each basis vector has one nonzero entry, so every
        # image entry is one product.
        terms = [(k, x) for k, x in enumerate(vec) if not x.is_zero()]
        image = tuple(reduce(add, [row[k] * x for k, x in terms]) for row in Q)
        point = HeisPoint(image, Fraction(0))
        if lattice_coordinates(lattice, point) is None:
            return False
    return True


# ---------------------------------------------------------------------------
# deformation-parameter compatibility
# ---------------------------------------------------------------------------


def c_compatible(params: QuatParams, lam) -> float:
    """Deformation parameter c >= 0 with 4*pi*c = lam * sqrt(ab)/2.

    The angular period of the deformed metric's fiber circle at n = 2 is
    4*pi*c, so c makes it the given rational multiple ``lam`` of the
    lattice's half-center generator.  ``lam`` must be a nonnegative
    rational; lam = 0 returns the undeformed c = 0.  4*pi*c is formed as
    the exact radical lam/2 * sqrt(ab) and only then converted to a float.
    """
    lam = Fraction(lam)
    if lam < 0:
        raise ValueError("the scaling factor lam must be nonnegative")
    four_pi_c = _rad(params, rab=Fraction(lam, 2))
    return four_pi_c.to_float() / (4.0 * math.pi)


# ---------------------------------------------------------------------------
# the norm-one table
# ---------------------------------------------------------------------------


def norm_one_rows(params: QuatParams, bound: int) -> List[Dict[str, object]]:
    """The norm-one enumeration with its unitary/lattice flags, one dict a row.

    Keys: q0, q1, q2, q3, norm (ints), su11_ok, preserves_gamma2 (bools).
    Rows follow the deterministic enumeration order.  Each row builds its
    matrix once and hands it to both checks.
    """
    rows = []
    for q in enumerate_norm_one(params, bound):
        Q = embed_matrix(q)
        rows.append(dict(zip(("q0", "q1", "q2", "q3"), q.coords()), norm=reduced_norm(q),
                         su11_ok=su11_check(q, Q), preserves_gamma2=preserves_gamma2(q, Q)))
    return rows


# The benchmark tracer binds this name; it is the same function.
norm_one_csv = norm_one_rows
