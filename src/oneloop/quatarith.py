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
``preserves_gamma2`` certifies stabilization by exact integer quotients.
The compatibility of the lattice's center scale with the metric's angular
period, needed for compact quotients, is ``params.c_compatible``: the metric
commands read it without loading this module.

Everything is exact: no floating point enters any decision in this module.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import product
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
    "norm_one_rows",
    "cmd_lattice",
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


# Slotted and not frozen, as the exact ring values (QI, Rad, RadC, which
# share one slotted base) are, so each one is small and cheap to build.
# Nothing assigns to a QuatInt after construction, so its field hash stays
# its value hash, with one exception: the norm-one scan refills the
# coordinates of a single candidate that it never hashes, stores or returns.
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

    Euler's criterion: for an odd prime b, a is a non-residue exactly when
    a^((b-1)/2) = -1 mod b; every a is a square mod 2.  A non-prime b is
    rejected rather than answered.
    """
    if not (isinstance(b, int) and b >= 2):
        raise ValueError(f"b = {b} is not a prime")
    k = 2
    while k * k <= b:
        if b % k == 0:
            raise ValueError(f"b = {b} is not a prime (divisible by {k})")
        k += 1
    return b > 2 and pow(a, (b - 1) // 2, b) == b - 1


def enumerate_norm_one(params: QuatParams, bound: int) -> List[QuatInt]:
    """All integral quaternions of reduced norm 1 with max |q_i| <= bound.

    Exhaustive scan in lexicographic (q0, q1, q2, q3) order, so results are
    deterministic.  The scan refills one candidate in place and builds a
    new QuatInt only for each norm-one hit.
    """
    if not (type(bound) is int and bound >= 1):
        raise ValueError("bound must be a positive integer")
    rng = range(-bound, bound + 1)
    found = []
    candidate = QuatInt(0, 0, 0, 0, params)
    for candidate.q0, candidate.q1, candidate.q2, candidate.q3 in product(rng, repeat=4):
        if reduced_norm(candidate) == 1:
            found.append(QuatInt(candidate.q0, candidate.q1, candidate.q2, candidate.q3,
                                 params))
    return found


# ---------------------------------------------------------------------------
# matrix realization
# ---------------------------------------------------------------------------


def embed_matrix(q: QuatInt) -> Tuple[Tuple[RadC, RadC], Tuple[RadC, RadC]]:
    """The 2 x 2 complex-matrix realization of q, exact over radicals.

    1 maps to the identity, I to sqrt(a)*i*[[0,1],[-1,0]], J to
    sqrt(b)*[[0,1],[1,0]], and K to sqrt(ab)*i*diag(1,-1), so

        Q = [[q0 + sqrt(ab)*i*q3,  sqrt(a)*i*q1 + sqrt(b)*q2],
             [-sqrt(a)*i*q1 + sqrt(b)*q2,  q0 - sqrt(ab)*i*q3]]

    with det(Q) equal to the reduced norm.
    """
    a, b = q.params.a, q.params.b
    entry = RadC.from_ints
    return (
        (entry(a, b, (q.q0, 0, 0, 0), (0, 0, 0, q.q3)),
         entry(a, b, (0, 0, q.q2, 0), (0, q.q1, 0, 0))),
        (entry(a, b, (0, 0, q.q2, 0), (0, -q.q1, 0, 0)),
         entry(a, b, (q.q0, 0, 0, 0), (0, 0, 0, -q.q3))),
    )


def su11_check(q: QuatInt, matrix) -> bool:
    """Does ``matrix``, the realization Q = ``embed_matrix(q)`` of q,
    preserve the form diag(1, -1)?

    Requires reduced norm 1 (the determinant condition); then checks
    conj-transpose(Q) * diag(1,-1) * Q == diag(1,-1) exactly in the radical
    ring, with the Hermitian-form check of the Heisenberg action.  The form
    diag(1,-1) is the one consistent with the generator matrices; if this
    check ever fails for a norm-one element, the alternative form
    diag(-1,1) should be examined rather than silently substituted.
    """
    if reduced_norm(q) != 1:
        raise ValueError("the unitary check applies to norm-one elements only")
    return form_defect(matrix) is None


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

    Each basis vector is one radical of one entry, so a membership test
    reads one numerator per vector; one lattice is built per (a, b) and
    reused by ``preserves_gamma2`` for every element.
    """
    a, b = params.a, params.b
    entry = RadC.from_ints
    zero = entry(a, b, (0, 0, 0, 0))
    basis = (
        (entry(a, b, (1, 0, 0, 0)), zero),
        (zero, entry(a, b, (0, 0, 0, 0), (0, -1, 0, 0))),
        (zero, entry(a, b, (0, 0, 1, 0))),
        (entry(a, b, (0, 0, 0, 0), (0, 0, 0, 1)), zero),
    )
    return LatticeDescription(n=2, basis=basis, r=Rad(a, b, rab=1))


def preserves_gamma2(q: QuatInt, matrix) -> bool:
    """Does ``matrix``, the realization ``embed_matrix(q)`` of q, map the
    lattice onto itself?

    Requires reduced norm 1.  Each basis vector's image under the matrix is
    read for integer lattice coordinates exactly: the image of every
    basis vector must be an integer combination of the four basis vectors.
    For integral quaternions this agrees with
    quaternion multiplication: the image of (r e_1) is ((q r) e_1), whose
    coordinates are the coefficients of q*r in the order.
    """
    if reduced_norm(q) != 1:
        raise ValueError("lattice stabilization applies to norm-one elements only")
    lattice = gamma2_basis(q.params)
    for vec in lattice.basis:
        # Each basis vector has one nonzero entry, x = vec[k], so each image
        # entry is one product; the zero entries are skipped, as MatGl skips them.
        k, x = next((k, x) for k, x in enumerate(vec) if x)
        point = HeisPoint(tuple([row[k] * x for row in matrix]), 0)
        if lattice_coordinates(lattice, point) is None:
            return False
    return True


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


def cmd_lattice(config) -> Tuple[Dict, List[Dict[str, object]]]:
    """The ``lattice`` report and CSV rows of :mod:`oneloop.cli`, on its
    RunConfig; ``all_pass`` (every row's su11_ok and preserves_gamma2)
    decides the exit status."""
    a, b = (2, 3) if config.c_exact is None else config.c_exact[1:]
    warning = None
    try:
        if not is_nonresidue(a, b):
            warning = (
                f"warning: is_nonresidue({a}, {b}) = false "
                "(division-algebra hypothesis unmet); enumeration still runs"
            )
    except ValueError as exc:
        warning = f"warning: {exc} (division-algebra hypothesis unmet); enumeration still runs"
    if warning is not None:
        print(warning, file=sys.stderr)
    rows = norm_one_rows(QuatParams(a, b), config.bound)
    all_pass = all(row["su11_ok"] and row["preserves_gamma2"] for row in rows)
    report = {
        "a": a,
        "b": b,
        "bound": config.bound,
        "nonresidue_warning": warning,
        "rows": rows,
        "all_pass": all_pass,
    }
    return report, rows
