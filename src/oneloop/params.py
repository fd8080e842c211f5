"""Model parameters of the metric family, with no numeric dependencies.

``ModelParams`` lives here rather than in ``geometry`` so that the exact
subcommands (``center``, ``lattice``, ``volume-table``) can validate their
parameters without importing the float metric; ``geometry`` re-exports the
name.  The two angle shears, the signature of the fiber form and the
compatibility ``c_compatible`` of the metric's angular period with a
quaternion lattice are stated here once, for the float metric, the exact
symmetry layer and the lattices alike.
"""

from __future__ import annotations

import math
from typing import Tuple

from .record import record

# Coefficient of Im(conj(w^0)dw^0 - sum_a conj(w^a)dw^a) in the metric's
# angle form, theta = dphi + 4v du - 4u dv in the w^0 plane.  With 4 the
# metric is Einstein with lambda = -2(n+2) (n = 1, 2, relative residual
# <= 6e-8); with 2 it is not (residual 0.25-1.2).
THETA_SHEAR = 4

# Angle shear of the fiber translations V_k in the symmetry catalogue:
# Re V_0 = d/du + VK_SHEAR * v d/dphi.  Their angle coefficients
# +-(VK_SHEAR/2) i wbar_k in generators.generator_terms (and so the angle
# shear +-VK_SHEAR * t of the flows that fields integrates from them) and
# the central scale of the matrix algebra all follow from it.  Since
# L_{d/du + s v d/dphi} theta = (s - THETA_SHEAR) dv, the V_k are Killing
# only at VK_SHEAR = THETA_SHEAR; at 2 their Killing and flow rows fail
# until the catalogue is repaired by setting it to THETA_SHEAR.
VK_SHEAR = 2


def signature(n: int) -> Tuple[int, ...]:
    """Signs (+1, -1, ..., -1) of the indefinite Hermitian form on C^n."""
    return (1,) + (-1,) * (n - 1)


def c_compatible(lam, a: int, b: int) -> float:
    """Deformation parameter c >= 0 with 4*pi*c = lam * sqrt(ab)/2.

    4*pi*c is the angular period of the metric's fiber circle at n = 2, and
    sqrt(ab)/2 the half-center generator of the quaternion lattice of (a, b).
    ``lam`` is a nonnegative rational (an int, a Fraction or its string),
    halved exactly; lam = 0 returns the undeformed c = 0.
    """
    from fractions import Fraction  # here, so that a run without --c-exact skips it

    half = Fraction(lam) / 2
    if half < 0:
        raise ValueError("the scaling factor lam must be nonnegative")
    return half.numerator / half.denominator * math.sqrt(a * b) / (4.0 * math.pi)


@record(frozen=True)
class ModelParams:
    """Dimension index n (manifold dimension 4n) and deformation parameter c >= 0."""

    n: int
    c: float = 0.0

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        c = None if isinstance(self.c, bool) else float(self.c)
        if c is None or not math.isfinite(c) or c < 0:
            raise ValueError(f"c must be a finite non-negative real, got {self.c!r}")
        object.__setattr__(self, "c", c)
