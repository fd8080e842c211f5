"""Heisenberg group on C^n x R, its exact lattices, and a unipotent witness.

The fiber symmetries of the deformed metric at fixed base point form a
Heisenberg group: points (v, t) in C^n x R multiply by adding the vectors
and twisting the center coordinate by half the symplectic area between
them.  The symplectic form is the imaginary part of an indefinite
Hermitian form of signature (1, n-1), so discrete subgroups are governed
by exact radical arithmetic rather than floating point.

This module provides:

* the Hermitian form and its symplectic imaginary part,
* the group law, exactly on rational/radical inputs,
* square-root-lattice constructions ``lattice_Ld`` (basis e_j, sqrt(d)*i*e_j)
  with decidable exact membership,
* the linear action of form-preserving matrices on the group, and
* an explicit unipotent form-preserving matrix g = 1 + A (A^2 = 0) that
  maps the lattice to itself exactly, witnessing that the lattice's
  stabilizer contains non-semisimple elements.

Sign convention: the Hermitian form is antilinear in its *first* slot,
h(v, w) = sum_j eps_j * conj(v_j) * w_j with eps = (+1, -1, ..., -1), and
the symplectic form omega = Im(h) is oriented so that omega(e_1, i*e_1) > 0.
All signed omega tables in this package are stated relative to this choice;
only up-to-sign statements are convention-independent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .exact import QI, Rad, RadC, pivot_inverse

__all__ = [
    "HermForm",
    "HeisPoint",
    "HeisLatticePoint",
    "LatticeDescription",
    "heis_mul",
    "heis_identity",
    "heis_inverse",
    "lattice_Ld",
    "lattice_contains",
    "lattice_coordinates",
    "su_action",
    "unipotent_witness",
]


# ---------------------------------------------------------------------------
# generic helpers over the mixed scalar kinds (complex floats, QI, RadC)
# ---------------------------------------------------------------------------

_EXACT_COMPLEX = (QI, RadC)


def _conj(z):
    if isinstance(z, _EXACT_COMPLEX):
        return z.conj()
    return complex(z).conjugate()


def _im_part(z):
    if isinstance(z, _EXACT_COMPLEX):
        return z.im
    return complex(z).imag


def _real_to_float(t):
    if isinstance(t, Rad):
        return t.to_float()
    return float(t)


def _scalar_sum(*values):
    """Add real scalars of possibly mixed kinds.

    Exact kinds (int/Fraction/Rad) combine exactly, lifting rationals into
    whichever radical ring appears; any float degrades the sum to float.
    """
    if any(isinstance(v, float) for v in values):
        return sum(_real_to_float(v) for v in values)
    template = next((v for v in values if isinstance(v, Rad)), None)
    if template is None:
        return sum(values, Fraction(0))
    total = template.coerce(0)
    for v in values:
        total = total + template.coerce(v)
    return total


def _half(value):
    if isinstance(value, float):
        return 0.5 * value
    if isinstance(value, (int, Fraction)):
        return Fraction(value, 2)
    return value * Fraction(1, 2)


class HermForm:
    """Indefinite Hermitian form of signature (1, n-1) on C^n.

    h(v, w) = conj(v_1) w_1 - sum_{j>=2} conj(v_j) w_j, antilinear in the
    first slot, and omega = Im(h).  Works uniformly on float-complex and
    exact (QI / RadC) vectors; on exact vectors both h and omega
    are exact.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("the form needs at least one complex dimension")
        self.n = n
        self.signs: Tuple[int, ...] = (1,) + (-1,) * (n - 1)

    def h(self, v: Sequence, w: Sequence):
        if len(v) != self.n or len(w) != self.n:
            raise ValueError("vector length does not match the form dimension")
        total = None
        for sign, vj, wj in zip(self.signs, v, w):
            term = _conj(vj) * wj
            if sign < 0:
                term = -term
            total = term if total is None else total + term
        return total

    def omega(self, v: Sequence, w: Sequence):
        return _im_part(self.h(v, w))


@dataclass(frozen=True)
class HeisPoint:
    """Group element (v, t) with v in C^n and t a real center coordinate.

    Entries of ``v`` may be float complex or exact (QI / RadC); ``t`` may be
    float, int, Fraction, or Rad.  Exact inputs keep the group law exact.
    """

    v: Tuple
    t: object

    def __post_init__(self):
        object.__setattr__(self, "v", tuple(self.v))

    @property
    def n(self) -> int:
        return len(self.v)


def heis_identity(n: int) -> HeisPoint:
    """The unit element (0, 0) with rational-exact zero entries."""
    return HeisPoint(tuple(QI(0) for _ in range(n)), Fraction(0))


def heis_mul(x: HeisPoint, y: HeisPoint) -> HeisPoint:
    """Group law (v, t)(v', t') = (v + v', t + t' + omega(v, v')/2)."""
    if x.n != y.n:
        raise ValueError("points live on groups of different dimension")
    form = HermForm(x.n)
    twist = _half(form.omega(x.v, y.v))
    vsum = tuple(a + b for a, b in zip(x.v, y.v))
    return HeisPoint(vsum, _scalar_sum(x.t, y.t, twist))


def heis_inverse(p: HeisPoint) -> HeisPoint:
    """Inverse (-v, -t); the symplectic twist vanishes since omega(v, v) = 0."""
    return HeisPoint(tuple(-z for z in p.v), -p.t)


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatticeDescription:
    """A Z-lattice Lambda in C^n together with the center scale it generates.

    ``basis`` is a tuple of C^n vectors with exact RadC entries over a
    common (a, b); square-root lattices use b = 1, the ring Q(sqrt(a)).
    ``r`` is the exact positive generator of the value group
    omega(Lambda x Lambda) = r * Z; the group generated by (basis, 0) inside
    the Heisenberg group meets the center in (r/2) * Z.  ``labels`` names
    the basis vectors for tables and JSON.
    """

    n: int
    basis: Tuple[Tuple, ...]
    r: object
    labels: Tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.basis):
            raise ValueError("one label per basis vector required")
        for vec in self.basis:
            if len(vec) != self.n:
                raise ValueError("basis vector length does not match n")

    @property
    def rank(self) -> int:
        return len(self.basis)

    @cached_property
    def _coordinate_system(self):
        """The basis solve of ``lattice_coordinates``, built once per lattice.

        (matrix, mu, rows, solve, delta): the basis vectors' rational
        coordinates are the columns of matrix / mu, with integer entries;
        ``rows`` are pivot rows of matrix, and the inverse of that square
        block is solve / (mu * delta), again with integer entries.
        """
        numerators, mu = _numerators(
            [part for vec in self.basis for part in _real_parts(vec)]
        )
        m = len(numerators) // self.rank
        matrix = [numerators[i::m] for i in range(m)]
        rows, inverse = pivot_inverse(matrix)
        delta = math.lcm(*(x.denominator for row in inverse for x in row))
        solve = [[int(x * delta) * mu for x in row] for row in inverse]
        return matrix, mu, rows, solve, delta

    def center_generator(self):
        """Exact generator r/2 of the center intersection (r/2) * Z."""
        return self.r * Fraction(1, 2)

    def omega_table(self) -> List[List[object]]:
        """Exact matrix omega(B_i, B_j) over the lattice basis."""
        form = HermForm(self.n)
        return [[form.omega(bi, bj) for bj in self.basis] for bi in self.basis]

    def serialize(self) -> str:
        """JSON with exact coefficient arrays per complex component.

        Each complex entry contributes ``re`` and ``im`` coefficient arrays
        over the lattice's radical basis: ``[p, q]`` meaning p + q*sqrt(d)
        when the ring is Q(sqrt(d)) (b = 1, radical kind ``sqrt_d``), and
        four coefficients over {1, sqrt(a), sqrt(b), sqrt(ab)} otherwise.
        Fractions are rendered as exact strings.
        """
        a, b = self.r.a, self.r.b
        width = 2 if b == 1 else 4

        def coeffs(real_part):
            return [str(c) for c in real_part.components()[:width]]

        def entry(z):
            return {"re": coeffs(z.re), "im": coeffs(z.im)}

        if b == 1:
            radical = {"kind": "sqrt_d", "d": a}
        else:
            radical = {"kind": "sqrt_ab", "a": a, "b": b}
        payload = {
            "n": self.n,
            "radical": radical,
            "labels": list(self.labels),
            "basis": [[entry(z) for z in vec] for vec in self.basis],
            "r": coeffs(self.r),
        }
        return json.dumps(payload, sort_keys=True)


@dataclass(frozen=True)
class HeisLatticePoint:
    """Integer coordinates over a lattice basis plus an integer center slot.

    ``coords`` are Z-coefficients over ``LatticeDescription.basis`` and
    ``center`` counts multiples of r/2.  ``embed`` reconstructs the exact
    group element.
    """

    coords: Tuple[int, ...]
    center: int

    def __post_init__(self):
        if not all(isinstance(c, int) for c in self.coords):
            raise ValueError("lattice coordinates must be integers")
        if not isinstance(self.center, int):
            raise ValueError("center coordinate must be an integer")
        object.__setattr__(self, "coords", tuple(self.coords))

    def embed(self, lattice: LatticeDescription) -> HeisPoint:
        if len(self.coords) != lattice.rank:
            raise ValueError("coordinate count does not match the basis")
        vec = [z * 0 for z in lattice.basis[0]]
        for c, bvec in zip(self.coords, lattice.basis):
            vec = [acc + z * c for acc, z in zip(vec, bvec)]
        return HeisPoint(tuple(vec), lattice.r * Fraction(self.center, 2))


def _validate_d(d: int) -> None:
    if not isinstance(d, int) or d < 1:
        raise ValueError("d must be a positive integer")
    if d % 4 == 3:
        raise ValueError(
            f"d = {d} has d % 4 == 3; the construction uses the integer "
            "ring Z[i*sqrt(d)], which requires d % 4 in (1, 2)"
        )
    p = 2
    m = d
    while p * p <= m:
        if m % (p * p) == 0:
            raise ValueError(f"d = {d} is not squarefree (divisible by {p}**2)")
        if m % p == 0:
            m //= p
        p += 1


def lattice_Ld(n: int, d: int) -> LatticeDescription:
    """Square-root lattice spanned by e_j and sqrt(d)*i*e_j in C^n.

    Requires squarefree d with d % 4 in (1, 2), so that the coefficient ring
    Z[i*sqrt(d)] is the full integer ring of its fraction field.  The lattice
    is stable under multiplication by i*sqrt(d) and under componentwise
    conjugation, its omega values lie in sqrt(d) * Z with
    omega(e_j, sqrt(d)*i*e_j) = +-sqrt(d), and it meets the center of the
    Heisenberg group in (sqrt(d)/2) * Z.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    _validate_d(d)
    zero = RadC(Rad(d, 1))
    one = RadC(Rad(d, 1, 1))
    i_root = RadC(Rad(d, 1), Rad(d, 1, 0, 1))

    def unit_vector(j, value):
        return tuple(value if k == j else zero for k in range(n))

    basis = tuple(unit_vector(j, one) for j in range(n)) + tuple(
        unit_vector(j, i_root) for j in range(n)
    )
    labels = tuple(f"e{j + 1}" for j in range(n)) + tuple(
        f"sqrt({d})*f{j + 1}" for j in range(n)
    )
    return LatticeDescription(
        n=n, basis=basis, r=Rad(d, 1, 0, 1), labels=labels
    )


def _numerators(values):
    """Component numerators of Rad values over one common denominator.

    Returns (numerators, den), four integers per value in order, such that
    the components are numerator / den.
    """
    parts = [x.numerators() for x in values]
    den = math.lcm(*(d for _, d in parts))
    return [num * (den // d) for nums, d in parts for num in nums], den


def _real_parts(vector):
    return [part for z in vector for part in (z.re, z.im)]


def _integer_multiple(x: Rad, unit: Rad) -> Optional[int]:
    """The integer k with x == k * unit, or None."""
    (xs, dx), (us, du) = x.numerators(), unit.numerators()
    p = next((i for i, u in enumerate(us) if u), None)
    if p is None:
        raise ValueError("the center scale r must be nonzero")
    k = xs[p] * du // (us[p] * dx)
    if any(xi * du != k * ui * dx for xi, ui in zip(xs, us)):
        return None
    return k


def lattice_coordinates(
    lattice: LatticeDescription, p: HeisPoint
) -> Optional[HeisLatticePoint]:
    """Exact lattice coordinates of p, or None when p is not in the lattice.

    The vector part is an integer linear system over the rational
    coordinates of the radical ring, solved with the lattice's cached basis
    inverse and then checked row by row; the center part must be an integer
    multiple of r/2.  Floating-point input is rejected.
    """
    if p.n != lattice.n:
        raise ValueError("point dimension does not match the lattice")
    template = lattice.basis[0][0]
    lifted = [template.coerce(z) for z in p.v]
    t = lattice.r.coerce(p.t)

    matrix, mu, rows, solve, delta = lattice._coordinate_system
    rhs, den = _numerators(_real_parts(lifted))
    # The basis is matrix / mu and v is rhs / den, so the solution is
    # solve . rhs[rows] / (delta * den).  It is floored here; the row check
    # then holds only if the floor is the exact, integral solution.
    coords = [sum(w * rhs[i] for w, i in zip(weights, rows)) // (delta * den)
              for weights in solve]
    if any(den * sum(m * x for m, x in zip(row, coords)) != mu * value
           for row, value in zip(matrix, rhs)):
        return None

    center = _integer_multiple(t * 2, lattice.r)
    if center is None:
        return None
    return HeisLatticePoint(tuple(coords), center)


def lattice_contains(lattice: LatticeDescription, p: HeisPoint) -> bool:
    """Exact membership: is (v, t) an integer point of the lattice group?"""
    return lattice_coordinates(lattice, p) is not None


# ---------------------------------------------------------------------------
# group action of form-preserving matrices
# ---------------------------------------------------------------------------


def _is_exact_matrix(g) -> bool:
    """Nested tuples/lists whose entries are all QI, or all RadC."""
    if not (isinstance(g, (tuple, list)) and g
            and all(isinstance(row, (tuple, list)) and row for row in g)):
        return False
    kind = type(g[0][0])
    return kind in _EXACT_COMPLEX and all(type(z) is kind for row in g for z in row)


def _check_exact_form_preserving(g, n: int) -> None:
    form = HermForm(n)
    template = g[0][0]
    zero = template.coerce(0)
    one = template.coerce(1)
    for j in range(n):
        for k in range(n):
            total = zero
            for m in range(n):
                term = g[m][j].conj() * g[m][k]
                total = total + (-term if form.signs[m] < 0 else term)
            expected = zero if j != k else (one if form.signs[j] > 0 else -one)
            if total != expected:
                raise ValueError(
                    "matrix does not preserve the Hermitian form "
                    f"(entry ({j}, {k}) of the conjugated form is off)"
                )


def su_action(g, p: HeisPoint) -> HeisPoint:
    """Linear action (g, (v, t)) -> (g v, t) of a form-preserving matrix.

    ``g`` is an exact matrix (nested tuples/lists of QI or RadC entries);
    anything else, such as a float or complex array, raises ValueError.
    Preservation of the Hermitian form is verified exactly, and a matrix
    that fails the check is rejected.  The point must be exact too: float
    or complex coordinates raise ValueError, whatever the matrix's ring.
    Because g preserves h, it preserves omega, so the action is a group
    automorphism fixing the center.
    """
    n = p.n
    if not _is_exact_matrix(g):
        raise ValueError("su_action needs an exact matrix of QI or RadC entries")
    if any(isinstance(z, (float, complex)) for z in (*p.v, p.t)):
        raise ValueError("an exact matrix acts on exact points")
    if len(g) != n or any(len(row) != n for row in g):
        raise ValueError("matrix size does not match the point dimension")
    _check_exact_form_preserving(g, n)
    template = g[0][0]
    lifted = [template.coerce(z) for z in p.v]
    gv = []
    for j in range(n):
        acc = template.coerce(0)
        for k in range(n):
            acc = acc + g[j][k] * lifted[k]
        gv.append(acc)
    return HeisPoint(tuple(gv), p.t)


# ---------------------------------------------------------------------------
# unipotent witness
# ---------------------------------------------------------------------------


def unipotent_witness(n: int, d: int):
    """A nonzero nilpotent A (A^2 = 0) with g = 1 + A preserving lattice_Ld.

    Built from the isotropic vector v = e_1 + e_2 and w = i*sqrt(d) * v as
    A(x) = h(v, x) w - h(w, x) v, which is complex-linear (h is antilinear
    in the first slot), skew-Hermitian for h, and kills both v and w; its
    image lies in the span of v, so A^2 = 0 and exp(A) = 1 + A exactly.
    g and its inverse 1 - A map every lattice basis vector to an integer
    lattice combination, so g stabilizes the lattice while being unipotent
    and different from the identity.

    Returns (A, g) as n x n nested tuples of exact RadC entries over
    Q(sqrt(d)), the ring of ``lattice_Ld``.
    """
    if n < 2:
        raise ValueError("a nontrivial isotropic vector needs n >= 2")
    _validate_d(d)
    zero = RadC(Rad(d, 1))
    one = RadC(Rad(d, 1, 1))
    i_root = RadC(Rad(d, 1), Rad(d, 1, 0, 1))
    v = tuple(one if j < 2 else zero for j in range(n))
    w = tuple(i_root * vj for vj in v)
    signs = HermForm(n).signs
    A = tuple(
        tuple(
            (w[j] * v[k].conj() - v[j] * w[k].conj()) * signs[k]
            for k in range(n)
        )
        for j in range(n)
    )
    g = tuple(
        tuple(A[j][k] + (one if j == k else zero) for k in range(n))
        for j in range(n)
    )
    return A, g
