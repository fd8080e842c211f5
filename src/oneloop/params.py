"""Model parameters of the metric family, with no numeric dependencies.

``ModelParams`` lives here rather than in ``geometry`` so that the exact
subcommands (``center``, ``lattice``, ``volume-table``) can validate their
parameters without importing numpy; ``geometry`` re-exports the name.
"""

from __future__ import annotations

import math

from .record import record


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
