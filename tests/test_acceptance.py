"""Acceptance gate: the nine primary verification criteria, one test each.

Every test prints exactly one summary line

    [criterion N] PASS|FAIL — <measured values against pinned tolerances>

directly to the terminal (bypassing capture), then asserts the criterion.
Failing criteria report their measured values honestly; each known-failing
subfamily is characterized in the unit suite of the module involved rather
than patched over here.
"""

import math
import random
import time
from fractions import Fraction
from itertools import product

import numpy as np

from oneloop.exact import QI, Rad, RadC
from oneloop.fields import (
    GeneratorName,
    flow,
    flow_jacobian,
    killing_residuals,
)
from oneloop.geometry import (
    ModelParams,
    PointBarN,
    einstein_diagnostic,
    fiber_density_split,
    gram_det_p0,
    metric_gram,
    seeded_points,
)
from oneloop.heis import (
    HeisLatticePoint,
    HeisPoint,
    HermForm,
    heis_identity,
    heis_inverse,
    heis_mul,
    lattice_Ld,
    lattice_contains,
    su_action,
    unipotent_witness,
)
from oneloop.liealg import (
    CenterVector,
    f_generator,
    fprime_generator,
    ker_cap_su,
    kernel_generators,
    kernel_generators_n1,
    structure_check,
)
from oneloop.quatarith import (
    QuatInt,
    QuatParams,
    enumerate_norm_one,
    gamma2_basis,
    preserves_gamma2,
    quat_mul,
    reduced_norm,
    su11_check,
)
from oneloop.volume import (
    bounds_check,
    near_zero_constant,
    slab_closed,
    slab_quadrature,
    tail_closed,
    tail_quadrature,
)

KILLING_TOL = 1e-6
CONTROL_MIN = 1e-2
DET_TOL = 1e-10
FIBER_TOL = 1e-8
EINSTEIN_TOL = 1e-4
PULLBACK_TOL = 1e-10
QUADRATURE_TOL = 1e-8
ASYMPTOTE_TOL = 0.01


def _report(capsys, number, ok, detail):
    line = f"[criterion {number}] {'PASS' if ok else 'FAIL'} — {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_1_killing_suite(capsys):
    start = time.perf_counter()
    rows = 0
    failures = []
    controls_ok = True
    worst_fail = 0.0
    for n, c in product((1, 2, 3), (0.0, 0.5, 2.0)):
        params = ModelParams(n=n, c=c)
        points = seeded_points(params, 20, seed=42)
        residuals, control = killing_residuals(params, points)
        if control <= CONTROL_MIN:
            controls_ok = False
        for label, value in residuals.items():
            rows += 1
            if value > KILLING_TOL:
                failures.append((n, c, label, value))
                worst_fail = max(worst_fail, value)
    elapsed = time.perf_counter() - start
    ok = not failures and controls_ok and elapsed <= 60.0
    fail_note = ""
    if failures:
        families = sorted({label.split("(")[0] for _, _, label, _ in failures})
        fail_note = (
            f"; {len(failures)} failing rows, all in families {families}, "
            f"max residual {worst_fail:.3e} (known angle-normalization "
            "mismatch of the fiber-translation family, characterized in the "
            "field-catalogue unit suite)"
        )
    detail = (
        f"Killing residuals ≤ {KILLING_TOL:.0e}·‖g‖∞ over "
        f"(n,c)∈{{1,2,3}}×{{0,1/2,2}} at 20 seeded points: "
        f"{rows - len(failures)}/{rows} generator rows pass; radial control "
        f"> {CONTROL_MIN:.0e} in all 9 runs: {controls_ok}; "
        f"elapsed {elapsed:.1f}s ≤ 60s{fail_note}"
    )
    _report(capsys, 1, ok, detail)


def test_criterion_2_structure_constants(capsys):
    total_pairs = 0
    mismatches = 0
    for n in (1, 2, 3, 4, 5):
        report = structure_check(ModelParams(n=n, c=1.0))
        total_pairs += report.pairs_checked
        mismatches += len(report.mismatches)
    ok = mismatches == 0
    detail = (
        "structure constants, exact arithmetic with the deformation "
        f"symbolic: {total_pairs} ordered basis pairs over n∈{{1,2,3,4,5}}, "
        f"{mismatches} mismatches (tolerance: none, exact)"
    )
    _report(capsys, 2, ok, detail)


def test_criterion_3_determinant_and_fiber_density(capsys):
    worst_det = 0.0
    for n, rho, c in product((1, 2, 3), (0.5, 1.0, 2.0), (0.0, 1.0, 3.0)):
        params = ModelParams(n=n, c=c)
        p0 = PointBarN((0j,) * (n - 1), (0j,) * n, 0.0, rho)
        numeric = float(np.linalg.det(metric_gram(p0, params)))
        closed = gram_det_p0(rho, params)
        worst_det = max(worst_det, abs(numeric - closed) / abs(closed))
    worst_spread = 0.0
    for n, c in ((1, 1.0), (2, 1.0), (3, 3.0)):
        params = ModelParams(n=n, c=c)
        for p in seeded_points(params, 20, seed=42):
            values = [
                fiber_density_split(PointBarN(p.X, p.w, p.phi_tilde, r), params)[1]
                for r in (0.7, 1.3, 2.6)
            ]
            spread = (max(values) - min(values)) / abs(values[0])
            worst_spread = max(worst_spread, spread)
    ok = worst_det <= DET_TOL and worst_spread <= FIBER_TOL
    detail = (
        "base-point determinant closed form vs numeric: max rel err "
        f"{worst_det:.2e} ≤ {DET_TOL:.0e} over 27 (n,ρ,c) combos; fiber "
        f"density ρ-independence: max rel spread {worst_spread:.2e} ≤ "
        f"{FIBER_TOL:.0e} at 20 seeded fiber points × 3 parameter sets"
    )
    _report(capsys, 3, ok, detail)


def test_criterion_4_einstein(capsys):
    worst_residual = 0.0
    worst_spread = 0.0
    means = []
    for c in (0.0, 1.0):
        params = ModelParams(n=1, c=c)
        lambdas = []
        for p in seeded_points(params, 5, seed=42):
            lam, residual = einstein_diagnostic(p, params)
            lambdas.append(lam)
            worst_residual = max(worst_residual, residual)
        mean = sum(lambdas) / len(lambdas)
        means.append(mean)
        worst_spread = max(
            worst_spread, (max(lambdas) - min(lambdas)) / abs(mean)
        )
    negative = all(mean < 0 for mean in means)
    ok = (
        worst_residual <= EINSTEIN_TOL
        and negative
        and worst_spread <= EINSTEIN_TOL
    )
    detail = (
        "Einstein property n=1, c∈{0,1}, 5 seeded points: max rel residual "
        f"{worst_residual:.2e} ≤ {EINSTEIN_TOL:.0e}; constant negative: "
        f"{negative} (means {means[0]:.6f}, {means[1]:.6f}); cross-point "
        f"spread {worst_spread:.2e} ≤ {EINSTEIN_TOL:.0e}"
    )
    _report(capsys, 4, ok, detail)


def test_criterion_5_flow_suite(capsys):
    identity_ok = True
    for n in (1, 2, 3):
        params = ModelParams(n=n, c=1.0)
        for p in seeded_points(params, 3, seed=42):
            if flow(GeneratorName("C1"), 2 * math.pi, p) != p:
                identity_ok = False
            if flow(GeneratorName("C2"), 2 * math.pi / n, p) != p:
                identity_ok = False
    checked = 0
    failures = []
    worst_fail = 0.0
    for n, c in ((1, 0.5), (2, 1.0)):
        params = ModelParams(n=n, c=c)
        names = [GeneratorName("T"), GeneratorName("C1"), GeneratorName("C2")]
        names += [GeneratorName("VkRe", k) for k in range(n)]
        names += [GeneratorName("VkIm", k) for k in range(n)]
        for p in seeded_points(params, 10, seed=42):
            g_src = metric_gram(p, params)
            scale = float(np.max(np.abs(g_src)))
            for name in names:
                t = 0.37
                q = flow(name, t, p)
                jac = flow_jacobian(name, t, p)
                pulled = jac.T @ metric_gram(q, params) @ jac
                err = float(np.max(np.abs(pulled - g_src))) / scale
                checked += 1
                if err > PULLBACK_TOL:
                    failures.append((name.label(), err))
                    worst_fail = max(worst_fail, err)
    ok = identity_ok and not failures
    fail_note = ""
    if failures:
        families = sorted({label.split("(")[0] for label, _ in failures})
        fail_note = (
            f"; {len(failures)} failing pullback rows, all in families "
            f"{families}, max err {worst_fail:.3e} (same angle-normalization "
            "mismatch as the Killing rows of this family)"
        )
    detail = (
        "closed-form flows: full-period maps are the identity exactly "
        f"(n∈{{1,2,3}}): {identity_ok}; exact-Jacobian metric pullback ≤ "
        f"{PULLBACK_TOL:.0e} rel at 10 seeded points × 2 parameter sets: "
        f"{checked - len(failures)}/{checked} rows pass{fail_note}"
    )
    _report(capsys, 5, ok, detail)


def test_criterion_6_quaternion_suite(capsys):
    algebras = ((2, 3), (3, 7), (2, 5))
    unit_rows = 0
    unit_failures = 0
    for a, b in algebras:
        params = QuatParams(a, b)
        for q in enumerate_norm_one(params, 5):
            unit_rows += 1
            if not (su11_check(q) and preserves_gamma2(q)):
                unit_failures += 1
    rng = random.Random(42)
    mult_ok = True
    for _ in range(100):
        a, b = algebras[rng.randrange(len(algebras))]
        params = QuatParams(a, b)
        q = QuatInt(*(rng.randint(-9, 9) for _ in range(4)), params=params)
        r = QuatInt(*(rng.randint(-9, 9) for _ in range(4)), params=params)
        if reduced_norm(quat_mul(q, r)) != reduced_norm(q) * reduced_norm(r):
            mult_ok = False
    table_ok = True
    nonzero_pairs = {(0, 3), (3, 0), (1, 2), (2, 1)}
    for a, b in algebras:
        table = gamma2_basis(QuatParams(a, b)).omega_table()
        for j in range(4):
            for k in range(4):
                value = table[j][k]
                if (j, k) in nonzero_pairs:
                    if not value * value == a * b:
                        table_ok = False
                elif not value == 0:
                    table_ok = False
    ok = unit_failures == 0 and mult_ok and table_ok
    detail = (
        "quaternion suite over (a,b)∈{(2,3),(3,7),(2,5)}: "
        f"{unit_rows - unit_failures}/{unit_rows} norm-one elements at "
        "bound 5 pass the unitary and lattice-stabilization checks exactly; "
        f"reduced-norm multiplicativity exact on 100 seeded pairs: {mult_ok}; "
        "pairing table has magnitude √(ab) on the two stated index pairs and "
        f"0 elsewhere (exact): {table_ok}"
    )
    _report(capsys, 6, ok, detail)


def test_criterion_7_center_lattice(capsys):
    expected_su = {
        2: CenterVector(Fraction(1, 2), 1, Fraction(0)),
        3: CenterVector(Fraction(2), 3, Fraction(0)),
        4: CenterVector(Fraction(3, 2), 2, Fraction(0)),
        5: CenterVector(Fraction(4), 5, Fraction(0)),
        6: CenterVector(Fraction(5, 2), 3, Fraction(0)),
    }
    expected_f = {
        2: Fraction(1),
        3: Fraction(1, 3),
        4: Fraction(1, 2),
        5: Fraction(1, 5),
        6: Fraction(1, 3),
    }
    mismatches = []
    for n in range(2, 7):
        g1, g2 = kernel_generators(n)
        if g1 != CenterVector(Fraction(1), 0, Fraction(1)):
            mismatches.append(f"kernel g1 n={n}")
        if g2 != CenterVector(Fraction(-1, n), -1, Fraction(n - 2, n)):
            mismatches.append(f"kernel g2 n={n}")
        if ker_cap_su(n) != expected_su[n]:
            mismatches.append(f"ker∩su n={n}")
        if f_generator(n) != CenterVector(Fraction(0), 0, expected_f[n]):
            mismatches.append(f"F n={n}")
        if fprime_generator(n) != CenterVector(Fraction(0), 0, Fraction(n - 1)):
            mismatches.append(f"F' n={n}")
        if f_generator(n, positive_c=False) != CenterVector.zero():
            mismatches.append(f"F n={n} c=0")
        if fprime_generator(n, positive_c=False) != CenterVector.zero():
            mismatches.append(f"F' n={n} c=0")
    if kernel_generators_n1() != CenterVector(Fraction(1), 0, Fraction(1)):
        mismatches.append("kernel n=1")
    if f_generator(1) != CenterVector(Fraction(0), 0, Fraction(1)):
        mismatches.append("F n=1")
    ok = not mismatches
    detail = (
        "center-lattice generators from ℤ-linear solving equal the "
        "transcribed closed forms for n∈{2,…,6} plus the n=1 case "
        f"(exact): {len(mismatches)} mismatches"
        + (f" {mismatches}" if mismatches else "")
    )
    _report(capsys, 7, ok, detail)


def test_criterion_8_heisenberg_lattices(capsys):
    rng = random.Random(42)
    axiom_failures = 0
    for n in (1, 2, 3):
        e = heis_identity(n)
        for _ in range(5):
            x, y, z = (_random_heis_point(n, rng) for _ in range(3))
            if heis_mul(heis_mul(x, y), z) != heis_mul(x, heis_mul(y, z)):
                axiom_failures += 1
            if heis_mul(e, x) != x or heis_mul(x, e) != x:
                axiom_failures += 1
            if heis_mul(x, heis_inverse(x)) != e:
                axiom_failures += 1
            if heis_mul(heis_inverse(x), x) != e:
                axiom_failures += 1
    center_ok = True
    for d in (1, 2, 5, 6):
        lattice = lattice_Ld(2, d)
        zero_v = heis_identity(2).v
        for k in range(-3, 4):
            point = HeisPoint(zero_v, Rad(d, 1, 0, Fraction(k, 2)))
            if not lattice_contains(lattice, point):
                center_ok = False
        for bad in (Fraction(1, 4), Fraction(1, 3)):
            point = HeisPoint(zero_v, Rad(d, 1, 0, bad))
            if lattice_contains(lattice, point):
                center_ok = False
    witness_failures = []
    for n, d in product((2, 3), (1, 2, 5, 6)):
        if not _witness_postconditions(n, d):
            witness_failures.append((n, d))
    ok = axiom_failures == 0 and center_ok and not witness_failures
    detail = (
        "Heisenberg suite: group axioms exact on 15 seeded rational triples "
        f"per dimension, {axiom_failures} failures; square-root lattice "
        f"center = half-radical integers for d∈{{1,2,5,6}}: {center_ok}; "
        "unipotent witness (square-zero, skew, exact lattice preservation) "
        f"for n∈{{2,3}}×d∈{{1,2,5,6}}: {len(witness_failures)} failures"
        + (f" {witness_failures}" if witness_failures else "")
    )
    _report(capsys, 8, ok, detail)


def _random_heis_point(n, rng):
    v = tuple(
        QI(
            Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)),
            Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)),
        )
        for _ in range(n)
    )
    return HeisPoint(v, Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)))


def _witness_postconditions(n, d):
    A, g = unipotent_witness(n, d)
    zero = A[0][0] * 0
    if all(A[j][k] == zero for j in range(n) for k in range(n)):
        return False
    a_squared = tuple(
        tuple(
            _entry_sum([A[j][m] * A[m][k] for m in range(n)])
            for k in range(n)
        )
        for j in range(n)
    )
    if any(a_squared[j][k] != zero for j in range(n) for k in range(n)):
        return False
    form = HermForm(n)
    one = RadC(Rad(d, 1, 1), Rad(d, 1))
    basis = [
        tuple(one if m == j else zero for m in range(n)) for j in range(n)
    ]
    for x in basis:
        for y in basis:
            lhs = form.h(_mat_vec(A, x), y) + form.h(x, _mat_vec(A, y))
            if lhs != zero:
                return False
    lattice = lattice_Ld(n, d)
    for i in range(2 * n):
        coords = tuple(1 if m == i else 0 for m in range(2 * n))
        point = HeisLatticePoint(coords, 0).embed(lattice)
        if not lattice_contains(lattice, su_action(g, point)):
            return False
    return True


def _mat_vec(g, v):
    return tuple(
        _entry_sum([g[j][k] * v[k] for k in range(len(v))])
        for j in range(len(v))
    )


def _entry_sum(entries):
    acc = entries[0]
    for entry in entries[1:]:
        acc = acc + entry
    return acc


def test_criterion_9_volume(capsys):
    start = time.perf_counter()
    rng = random.Random(42)
    worst_quadrature = 0.0
    for _ in range(50):
        n = rng.randint(1, 4)
        c = rng.uniform(0.0, 3.0)
        vd = rng.uniform(0.5, 4.0)
        rho1 = rng.uniform(0.1, 5.0)
        rho0 = rho1 + rng.uniform(0.5, 15.0)
        params = ModelParams(n=n, c=c)
        slab_c = slab_closed(rho1, rho0, params, vd)
        slab_q = slab_quadrature(rho1, rho0, params, vd)
        tail_c = tail_closed(rho0, params, vd)
        tail_q = tail_quadrature(rho0, params, vd)
        worst_quadrature = max(
            worst_quadrature,
            abs(slab_c - slab_q) / abs(slab_c),
            abs(tail_c - tail_q) / abs(tail_c),
        )
    tail_errs = []
    near_rows = []
    for n in (1, 2):
        params = ModelParams(n=n, c=1.0)
        rho0 = 1e3
        measured_tail = rho0 ** (n + 1) * tail_closed(rho0, params, 1.0)
        tail_errs.append(abs(measured_tail - 1.0 / (n + 1)) * (n + 1))
        rho1 = 1e-3
        measured = rho1 ** (2 * n + 1) * slab_closed(rho1, 1.0, params, 1.0)
        claimed = near_zero_constant(params, 1.0)
        near_rows.append(
            (n, measured, claimed, abs(measured - claimed) / claimed)
        )
    tail_ok = all(err <= ASYMPTOTE_TOL for err in tail_errs)
    near_ok = all(err <= ASYMPTOTE_TOL for _, _, _, err in near_rows)
    bounds_ok = True
    params = ModelParams(n=2, c=1.0)
    for rho in np.geomspace(0.05, 50.0, 100):
        lower, upper = bounds_check(float(rho), 0.05, params)
        if not (lower and upper):
            bounds_ok = False
    elapsed = time.perf_counter() - start
    ok = (
        worst_quadrature <= QUADRATURE_TOL
        and tail_ok
        and near_ok
        and bounds_ok
        and elapsed <= 10.0
    )
    near_note = "; ".join(
        f"n={n}: measured {measured:.6f} vs asserted {claimed:.6f} "
        f"(rel err {err:.0%})"
        for n, measured, claimed, err in near_rows
    )
    detail = (
        f"volume: quadrature vs closed form ≤ {QUADRATURE_TOL:.0e} rel on 50 "
        f"seeded configs (worst {worst_quadrature:.2e}); tail coefficient "
        f"within 1% at ρ₀=1e3 for n∈{{1,2}}: {tail_ok} (errs "
        f"{tail_errs[0]:.2e}, {tail_errs[1]:.2e}); near-origin slab constant "
        f"within 1% at ρ₁=1e-3: {near_ok} ({near_note}); density "
        f"bounds on 100-point grid: {bounds_ok}; elapsed {elapsed:.1f}s ≤ 10s"
    )
    _report(capsys, 9, ok, detail)
