"""Verification toolkit for one-loop deformed c-map quaternionic Kahler metrics.

Modules:
    exact      exact arithmetic (Gaussian rationals, polynomials, radical rings)
    record     the class decorator behind every value class
    params     the model parameters (n, c), without numpy
    geometry   the metric family, Gram matrices, determinants, FD curvature
    polyfields exact polynomial Killing fields and brackets, without numpy
    fields     float Killing residuals and closed-form flows
    liealg     exact matrix model of the isometry algebra and center lattices
    heis       Heisenberg groups, arithmetic lattices, unipotent witness
    quatarith  quaternion algebras over Q and their norm-one lattices
    volume     fiber volume density, closed-form and quadrature volumes
    cli        batch driver with deterministic machine-readable reports

Only geometry and fields import numpy, and the CLI imports them inside the
float commands (verify-killing, curvature), so importing the package and
running any other command never loads numpy.  No module of the package
imports dataclasses, whose import pulls in inspect, ast and tokenize: the
value classes come from the record decorator, so the commands that do not
load numpy load none of these modules.
"""

__version__ = "0.1.0"
