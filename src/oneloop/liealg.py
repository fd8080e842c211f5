"""The center lattice of the symmetry group and the structure-constant check.

The center lattices (kernel of the group action, its intersection with the
special-unitary block, and the unitary/Heisenberg intersection subgroups)
come from exact integer linear algebra.  ``structure_check`` verifies the
structure constants of the matrix model of :mod:`oneloop.matrices` against
the vector fields of :mod:`oneloop.polyfields`; it imports both in its body,
so that ``center`` compiles neither them nor the exact rings under them.
The ``structure`` and ``center`` commands of :mod:`oneloop.cli` live here.

Center vectors live in coordinates (2pi * u, 2pi * m, 4pi*c * z) with u, z
rational and m integral; c is a formal positive symbol, and the degenerate
c = 0 branch is always selected explicitly, never inferred from a float.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, Tuple

from .record import record

if TYPE_CHECKING:  # imported where used, so that center does not compile them
    from .matrices import StructureReport
    from .polyfields import PolyVectorField

__all__ = [
    "CenterVector",
    "structure_check",
    "kernel_generators",
    "kernel_generators_n1",
    "ker_cap_su",
    "f_generator",
    "fprime_generator",
    "cmd_structure",
    "cmd_center",
]


# ---------------------------------------------------------------------------
# Structure constants
# ---------------------------------------------------------------------------


def structure_check(n: int) -> StructureReport:
    """Verify [alpha(x), alpha(y)] = -alpha([x, y]) on all basis pairs at
    dimension index n.

    Exact polynomial arithmetic with the deformation parameter symbolic;
    -[x, y] is the commutator [y, x], and alpha of a basis element is its
    image.  Both sides are antisymmetric in (x, y), exactly, so each
    unordered pair is bracketed once and decides its mirror too:
    ``pairs_checked`` counts the ordered pairs decided, and the mismatches
    come in row-major order.  alpha runs once per distinct commutator (51
    among the 325 unordered pairs at n = 4), kept for this call only and
    keyed on the commutator's nonzero numerators (``MatGl.terms``).
    """
    from .matrices import StructureReport, algebra_basis, alpha
    from .polyfields import bracket

    basis = algebra_basis(n)
    mismatched = set()
    images: Dict[tuple, PolyVectorField] = {}
    for j, (_, x, image_x) in enumerate(basis):
        for k in range(j, len(basis)):
            _, y, image_y = basis[k]
            lhs = bracket(image_x, image_y)
            commutator = y.commutator(x)
            key = commutator.terms()
            rhs = images.get(key)
            if rhs is None:
                rhs = images[key] = alpha(commutator)
            if lhs != rhs:
                mismatched.update(((j, k), (k, j)))
    mismatches = tuple((basis[j][0], basis[k][0]) for j, k in sorted(mismatched))
    return StructureReport(n=n, pairs_checked=len(basis) ** 2, mismatches=mismatches)


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
        if type(self.m) is not int:
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
        if type(k) is not int:
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


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_structure(config) -> Tuple[Dict, None]:
    """The ``structure`` report of :mod:`oneloop.cli`, on its RunConfig;
    ``all_pass`` (no mismatched bracket) decides the exit status."""
    report = structure_check(config.n)
    payload = {
        "n": config.n,
        "pairs_checked": report.pairs_checked,
        "mismatch_count": len(report.mismatches),
        "mismatches": [list(pair) for pair in report.mismatches],
        "all_pass": report.ok,
    }
    return payload, None


def _center_entry(vector: CenterVector, n1: bool) -> Dict:
    return {"human": vector.human(n1=n1), "coordinates": vector.serialize()}


def cmd_center(config) -> Tuple[Dict, None]:
    """The ``center`` report of :mod:`oneloop.cli`, on its RunConfig; it has
    no ``all_pass``, so the command exits 0."""
    n = config.n
    positive_c = config.c > 0
    n1 = n == 1
    if n1:
        kernel = [kernel_generators_n1()]
        ker_cap = None
        fprime = None
    else:
        kernel = list(kernel_generators(n))
        ker_cap = ker_cap_su(n)
        fprime = fprime_generator(n, positive_c=positive_c)
    f_vec = f_generator(n, positive_c=positive_c)
    payload = {
        "n": n,
        "c_positive": positive_c,
        "kernel": [_center_entry(v, n1) for v in kernel],
        "ker_cap_su": None if ker_cap is None else _center_entry(ker_cap, n1),
        "F": f_vec.human(n1=n1),
        "F_coordinates": f_vec.serialize(),
        "Fprime": None if fprime is None else fprime.human(n1=n1),
        "Fprime_coordinates": None if fprime is None else fprime.serialize(),
    }
    return payload, None
