"""Heisenberg group on C^n x R, its exact lattices, and a unipotent witness.

The fiber symmetries of the deformed metric at fixed base point form a
Heisenberg group: points (v, t) in C^n x R multiply by adding the vectors
and twisting the center coordinate by half the symplectic area between
them.  The symplectic form is the imaginary part of an indefinite
Hermitian form of signature (1, n-1), so discrete subgroups are governed
by exact radical arithmetic rather than floating point.

This module provides:

* the Hermitian form ``hermitian``, whose imaginary part is the symplectic
  form,
* the exact group law on Gaussian-rational and radical points,
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

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .exact import QI, Rad, RadC
from .params import signature
from .record import record

__all__ = [
    "hermitian",
    "HeisPoint",
    "HeisLatticePoint",
    "LatticeDescription",
    "heis_mul",
    "heis_identity",
    "heis_inverse",
    "lattice_Ld",
    "lattice_coordinates",
    "form_defect",
    "su_action",
    "unipotent_witness",
]


def hermitian(v: Sequence, w: Sequence):
    """h(v, w) = conj(v_1) w_1 - sum_{j>=2} conj(v_j) w_j on C^n.

    The indefinite form of signature (1, n-1) (signs ``params.signature``),
    antilinear in the first slot; omega = Im(h).  Vectors have exact QI or
    RadC entries, so h and omega are exact.
    """
    if not v or len(v) != len(w):
        raise ValueError("the form needs two vectors of one positive length")
    total = v[0].conj() * w[0]
    for vj, wj in zip(v[1:], w[1:]):
        total = total - vj.conj() * wj
    return total


@record(frozen=True)
class HeisPoint:
    """Group element (v, t) with v in C^n and t a real center coordinate.

    Entries of ``v`` are QI or RadC and ``t`` is an int, Fraction or Rad, so
    the group law is exact; any other coordinate, such as a float or complex
    number, raises ValueError.
    """

    v: Tuple
    t: object

    def __post_init__(self):
        object.__setattr__(self, "v", tuple(self.v))
        if not (all(isinstance(z, (QI, RadC)) for z in self.v)
                and isinstance(self.t, (int, Fraction, Rad))):
            raise ValueError(
                "a Heisenberg point needs exact coordinates: "
                "QI or RadC entries and an int, Fraction or Rad center"
            )

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
    omega = hermitian(x.v, y.v).im
    vsum = tuple(a + b for a, b in zip(x.v, y.v))
    return HeisPoint(vsum, x.t + y.t + omega * Fraction(1, 2))


def heis_inverse(p: HeisPoint) -> HeisPoint:
    """Inverse (-v, -t); the symplectic twist vanishes since omega(v, v) = 0."""
    return HeisPoint(tuple(-z for z in p.v), -p.t)


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------


@record(frozen=True)
class LatticeDescription:
    """A Z-lattice Lambda in C^n together with the center scale it generates.

    ``basis`` is a nonempty tuple of C^n vectors with exact RadC entries over
    a common (a, b); square-root lattices use b = 1, the ring Q(sqrt(a)).
    ``r`` is the exact positive generator of the value group
    omega(Lambda x Lambda) = r * Z; the group generated by (basis, 0) inside
    the Heisenberg group meets the center in (r/2) * Z.  Each basis vector,
    and r, must be a rational multiple of one numerator of one entry (its
    slot), and no two vectors may share a slot: the constructor keeps each
    vector's (entry, numerator index, numerator, denominator), and r/2's.
    """

    n: int
    basis: Tuple[Tuple, ...]
    r: object

    def __post_init__(self):
        if self.n < 1 or not self.basis:
            raise ValueError(f"a lattice needs n >= 1 and a nonempty basis, got n = "
                             f"{self.n} and {len(self.basis)} basis vectors")
        slots = {}  # (entry, numerator index) -> slot, in basis order
        for i, vec in enumerate(self.basis):
            if len(vec) != self.n:
                raise ValueError(f"basis vector {i} has {len(vec)} entries, not n = {self.n}")
            # Entries enter the ring of basis[0][0], which exists once i = 0 passed.
            if i == 0 and not isinstance(vec[0], (QI, Rad, RadC)):
                raise ValueError("basis vector 0 entry 0 must be an exact QI, Rad or RadC "
                                 f"value, got {type(vec[0]).__name__}")
            slot = _slot([_numerators(self.basis[0][0], z, "basis vector {} entry {}", i, j)
                          for j, z in enumerate(vec)], f"basis vector {i}")
            if slot[:2] in slots:
                raise ValueError(f"basis vectors {list(slots).index(slot[:2])} and {i} share "
                                 f"numerator {slot[1]} of entry {slot[0]}")
            slots[slot[:2]] = slot
        _, k, num, den = _slot([_numerators(self.basis[0][0], self.r, "r")], "r")
        object.__setattr__(self, "_slots", tuple(slots.values()))
        object.__setattr__(self, "_center", ((0, k, num, 2 * den),))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def omega_table(self) -> List[List[object]]:
        """Exact matrix omega(B_i, B_j) over the lattice basis."""
        return [[hermitian(bi, bj).im for bj in self.basis] for bi in self.basis]


@record(frozen=True)
class HeisLatticePoint:
    """Integer coordinates over a lattice basis plus an integer center slot.

    ``coords`` are Z-coefficients over ``LatticeDescription.basis`` and
    ``center`` counts multiples of r/2.  ``embed`` reconstructs the exact
    group element.
    """

    coords: Tuple[int, ...]
    center: int

    def __post_init__(self):
        if not all(type(c) is int for c in self.coords):
            raise ValueError("lattice coordinates must be integers")
        if type(self.center) is not int:
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
    if type(d) is not int or d < 1:
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


def _root_constants(d: int) -> Tuple[RadC, RadC, RadC]:
    """0, 1 and i*sqrt(d) in Q(sqrt(d)), the ring of ``lattice_Ld``."""
    _validate_d(d)
    zero = Rad(d, 1)
    return RadC(zero), RadC(Rad(d, 1, 1)), RadC(zero, Rad(d, 1, 0, 1))


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
    zero, one, i_root = _root_constants(d)

    def unit_vector(j, value):
        return tuple(value if k == j else zero for k in range(n))

    basis = tuple(unit_vector(j, one) for j in range(n)) + tuple(
        unit_vector(j, i_root) for j in range(n)
    )
    return LatticeDescription(n=n, basis=basis, r=i_root.im)


def _numerators(template, z, name: str, *args):
    """(numerators, denominator) of z in the ring of the exact value
    ``template`` (its ``numerators_of``); a refusal is a ValueError that
    names z as ``name.format(*args)``, formatted only then."""
    try:
        return template.numerators_of(z)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name.format(*args)}: {exc}") from None


def _slot(parts, name: str) -> Tuple[int, int, int, int]:
    """(value index, numerator index, numerator, denominator) of the one
    nonzero numerator among the (numerators, denominator) pairs ``parts``;
    ``name`` names the values in the ValueError raised when there is none,
    or more than one."""
    found = [(j, k, x, d) for j, (nums, d) in enumerate(parts)
             for k, x in enumerate(nums) if x]
    if len(found) != 1:
        raise ValueError(f"{name} has {len(found)} nonzero numerators; a lattice "
                         "needs a rational multiple of one numerator slot")
    return found[0]


def _multiples(parts, slots) -> Optional[List[int]]:
    """The integers c_i with the (numerators, denominator) pairs ``parts``
    equal to sum c_i * slot i, or None: each c_i is one exact quotient at
    its slot (value index, numerator index, numerator, denominator)."""
    coords = []
    for j, k, num, den in slots:
        nums, d = parts[j]
        c, rem = divmod(nums[k] * den, num * d)
        if rem:
            return None
        coords.append(c)
    # The slots are distinct, so the nonzero numerators are those of the
    # nonzero coordinates exactly when every other numerator is 0.
    if sum([bool(x) for nums, _ in parts for x in nums]) != sum(map(bool, coords)):
        return None
    return coords


def lattice_coordinates(
    lattice: LatticeDescription, p: HeisPoint
) -> Optional[HeisLatticePoint]:
    """Exact lattice coordinates of p, or None when p is not in the lattice.

    Each coordinate is one exact integer quotient at its basis vector's slot,
    every other numerator of the vector part must be 0, and the center is the
    same quotient against r/2.  Floating-point input is rejected.
    """
    if p.n != lattice.n:
        raise ValueError("point dimension does not match the lattice")
    template = lattice.basis[0][0]
    coords = _multiples([_numerators(template, z, "point entry {}", j)
                         for j, z in enumerate(p.v)], lattice._slots)
    # t is read whatever coords is, so a center from another ring is refused.
    center = _multiples([_numerators(template, p.t, "center")], lattice._center)
    if coords is None or center is None:
        return None
    return HeisLatticePoint(tuple(coords), center[0])


# ---------------------------------------------------------------------------
# group action of form-preserving matrices
# ---------------------------------------------------------------------------


def _is_exact_matrix(g) -> bool:
    """Nested tuples/lists whose entries are all QI, or all RadC."""
    if not (isinstance(g, (tuple, list)) and g
            and all(isinstance(row, (tuple, list)) and row for row in g)):
        return False
    kind = type(g[0][0])
    return kind in (QI, RadC) and all(type(z) is kind for row in g for z in row)


def form_defect(g) -> Optional[Tuple[int, int]]:
    """First entry (j, k) at which g^H eta g differs from eta, or None.

    eta = diag(1, -1, ..., -1) is the Gram matrix of the Hermitian form, so
    entry (j, k) of g^H eta g is hermitian(column j, column k).  ``g`` is a
    square exact matrix (QI or RadC entries), and None means that g
    preserves the form exactly.  g^H eta g and eta are Hermitian, so a defect at (k, j)
    is one at (j, k): only j <= k is visited, and the first defect in
    row-major order is still the one returned.
    """
    if not g:
        raise ValueError("the form needs at least one complex dimension")
    widths = sorted({len(row) for row in g})
    if widths != [len(g)]:
        raise ValueError(f"the form needs a square matrix, got {len(g)} x "
                         f"{'/'.join(map(str, widths))}")
    signs = signature(len(g))
    cols = list(zip(*g))
    for j, col_j in enumerate(cols):
        for k, col_k in enumerate(cols[j:], j):
            value = hermitian(col_j, col_k)
            if (value != signs[j] if j == k else value):
                return j, k
    return None


def su_action(g, p: HeisPoint) -> HeisPoint:
    """Linear action (g, (v, t)) -> (g v, t) of a form-preserving matrix.

    ``g`` is an exact matrix (nested tuples/lists of QI or RadC entries);
    anything else, such as a float or complex array, raises ValueError.
    Preservation of the Hermitian form is verified exactly, and a matrix
    that fails the check is rejected.  Because g preserves h, it preserves
    omega, so the action is a group automorphism fixing the center.
    """
    n = p.n
    if not _is_exact_matrix(g):
        raise ValueError("su_action needs an exact matrix of QI or RadC entries")
    if len(g) != n or any(len(row) != n for row in g):
        raise ValueError("matrix size does not match the point dimension")
    defect = form_defect(g)
    if defect is not None:
        raise ValueError(
            "matrix does not preserve the Hermitian form "
            f"(entry {defect} of the conjugated form is off)"
        )
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
    zero, one, i_root = _root_constants(d)
    v = tuple(one if j < 2 else zero for j in range(n))
    w = tuple(i_root * vj for vj in v)
    signs = signature(n)
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
