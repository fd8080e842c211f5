"""Verification toolkit for one-loop deformed c-map quaternionic Kahler metrics.

Modules:
    exact      exact arithmetic (Gaussian rationals, polynomials, radical rings)
    record     the class decorator behind every value class
    params     the model parameters (n, c) and the c that fits a lattice
    geometry   the metric family, Gram matrices, determinants, FD curvature
    generators the generators' closed forms and chart-variable layout, once
    polyfields exact polynomial Killing fields and brackets
    fields     float Killing residuals of the symmetry catalogue
    flows      closed-form flows of the catalogue's affine fields
    matrices   exact matrix model of the isometry algebra
    liealg     center lattices and the structure-constant check
    heis       Heisenberg groups, arithmetic lattices, unipotent witness
    quatarith  quaternion algebras over Q and their norm-one lattices
    volume     fiber volume density, closed-form and quadrature volumes
    cli        batch driver with deterministic machine-readable reports; each
               command's handler lives in the module of the suite it runs

No module imports numpy: the float commands (verify-killing, curvature)
compute in plain Python floats, on matrices so small (12x12 at n = 3) that
numpy's import would cost more than the work.  The CLI imports the module of
a command's handler at dispatch, so a process compiles only what its command
runs: importing the package and running any other command loads neither
geometry nor fields, no command loads flows, and ``center`` loads neither
the exact rings nor the matrix model.  No module of the package imports
dataclasses, whose import pulls in inspect, ast and tokenize: the value
classes come from the record decorator, so no command loads these modules.
"""

__version__ = "0.1.0"
