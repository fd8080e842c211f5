"""Mutation audit of the CLI's verdicts (R. A. DeMillo, R. J. Lipton and
F. G. Sayward, "Hints on test data selection", IEEE Computer 11(4), 1978).

Each row of ``MUTANTS`` is a one-string edit of the package, the CLI jobs
that audit it, the exit code that each job must give on the mutant, and what
the CLI makes of the edit:

* ``verdict``: the exit code differs from that of the unmutated package, so
  the CLI's own verdict catches the fault;
* ``unflagged``: the exit code is that of the unmutated package, though the
  output differs; only the unit and acceptance tests catch the fault;
* ``equivalent``: stdout is byte-identical, since the edit does not change
  what the jobs compute or report.

Each case copies the package to a temporary directory, applies its edit,
which must match exactly once, and runs only its own jobs there with
``python -m oneloop.cli``.  Every status is asserted, so a new verdict that
catches an ``unflagged`` mutant must update its row.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oneloop
from oneloop.cli import main

# (id, file, old, new, jobs, exit code of each job on the mutant, kind)
MUTANTS = [
    ("metric-k_w", "geometry.py", '"    k_w = 2 / rho",', '"    k_w = 2.25 / rho",',
     [["curvature", "--n", "1", "--points", "1"]], 1, "verdict"),
    # The Einstein tolerance is calibrated at the step 1e-3; at 1e-1 the
    # truncation error alone fails curvature's verdict.
    ("fd-step", "geometry.py", "FD_STEP = 1e-3", "FD_STEP = 1e-1",
     [["curvature", "--n", "1", "--points", "1"]], 1, "verdict"),
    ("central-scale-sign", "matrices.py", "_CENTRAL_SCALE = QI(0, -VK_SHEAR)",
     "_CENTRAL_SCALE = QI(0, VK_SHEAR)", [["structure", "--n", "2"]], 1, "verdict"),
    # coordinates reads kappa_ab = +A[b][a] (plus i*lam when a = b): a
    # commutator with a B(a,b) part goes to the wrong image.
    ("coordinates-kappa-sign", "matrices.py", "(k - 2) * (n - 1) + j - 2] = -a",
     "(k - 2) * (n - 1) + j - 2] = a", [["structure", "--n", "2"]], 1, "verdict"),
    # coordinates reads vEbar_0, where signature(n) is +1, with the wrong
    # sign: a commutator with an Ebar(0) part goes to the wrong image.
    ("coordinates-vEbar-sign", "matrices.py", "-a if eps[j - 1] > 0 else a",
     "a if eps[j - 1] > 0 else a", [["structure", "--n", "2"]], 1, "verdict"),
    ("embed-matrix-q2-sign", "quatarith.py", "(0, 0, q.q2, 0), (0, -q.q1, 0, 0)",
     "(0, 0, -q.q2, 0), (0, -q.q1, 0, 0)", [["lattice", "--bound", "1"]], 1, "verdict"),
    # Every norm-one element fails the unitary check: lattice's verdict.
    ("hermitian-second-slot-sign", "heis.py", "total - vj.conj() * wj",
     "total + vj.conj() * wj", [["lattice", "--bound", "1"]], 1, "verdict"),
    # K e_1 becomes 2*sqrt(ab)*i*e_1 in the lattice basis: the 8 elements
    # with odd q3 at bound 1 map e_1 out of the lattice, and their rows read
    # su11_ok = true, preserves_gamma2 = false: lattice's verdict.
    ("gamma2-K-coefficient", "quatarith.py", "(0, 0, 0, 1)), zero)", "(0, 0, 0, 2)), zero)",
     [["lattice", "--bound", "1"]], 1, "verdict"),
    # c doubles and the table moves with it; no verdict reads the lattice
    # normalization of c.
    ("c-exact-half", "params.py", "half = Fraction(lam) / 2", "half = Fraction(lam)",
     [["volume-table", "--n", "1", "--c-exact", "1:2:3"]], 0, "unflagged"),
    # The closed tail leaves its quadrature column: volume-table's verdict.
    ("tail-coefficients", "volume.py", "p / (n + 1 + k)", "p / (n + k)",
     [["volume-table", "--n", "1"]], 1, "verdict"),
    # The closed tail reads P's coefficients and the quadrature P's product
    # form, so the closed tail leaves its quadrature column.  The density
    # column reads the product too; only a check against the Gram
    # determinant reads P a third way.
    ("density-coefficients", "volume.py", "2 * (math.comb(n - 1, k - 1)",
     "3 * (math.comb(n - 1, k - 1)", [["volume-table", "--n", "1"]], 1, "verdict"),
    # Row verdicts flip, but verify-killing exits 1 for every input until the
    # catalogue's V_k shear is repaired.
    # i*i = +1 in every generated product: 8 of the 10 norm-one elements at
    # bound 1 fail the unitary check, which is lattice's verdict.
    ("ring-i-squared", "exact.py", '"-" if m & i else "+"', '"+" if m & i else "+"',
     [["lattice", "--bound", "1"]], 1, "verdict"),
    # The same edit under structure: the bracket identity it checks holds
    # with i*i = +1 as well, and both sides are computed in the edited ring.
    ("ring-i-squared-structure", "exact.py", '"-" if m & i else "+"', '"+" if m & i else "+"',
     [["structure", "--n", "2"]], 0, "equivalent"),
    ("Ya-angle-coefficient", "generators.py", "comps[phi] = {mono(c, x(a)): (0, 1)}",
     "comps[phi] = {mono(c, x(a)): (0, 2)}",
     [["verify-killing", "--n", "2", "--points", "1"]], 1, "unflagged"),
    # The same edit under the exact layer's check: the brackets [Ya, conj(Yb)]
    # of the edited shears no longer match the commutators' closed forms.
    ("Ya-angle-coefficient-exact", "generators.py", "comps[phi] = {mono(c, x(a)): (0, 1)}",
     "comps[phi] = {mono(c, x(a)): (0, 2)}", [["structure", "--n", "2"]], 1, "verdict"),
    # Every partial of the chart catalogue flips sign, so each Jacobian
    # does: 10 of the 13 CSV rows change, and the exit code stays 1.
    ("chart-partial-sign", "fields.py", "(coeff * mono.count(v), mono",
     "(-coeff * mono.count(v), mono",
     [["verify-killing", "--n", "2", "--points", "1"]], 1, "unflagged"),
    # The re and im rows take Q in place of conj(Q), so they are no longer
    # real fields: the rows of re/im Ya(1) and re/im Comm(1,1) fail, and
    # the exit code stays 1.
    ("chart-conj-sign", "fields.py", "(a, -b if conj else b)", "(a, b if conj else b)",
     [["verify-killing", "--n", "2", "--points", "1"]], 1, "unflagged"),
    # The C2 row flips, but verify-killing exits 1 for every input until the
    # catalogue's V_k shear is repaired; criterion 5's C2 flow checks fail.
    ("C2-coefficient", "generators.py", "comps[x(d)] = {mono(x(d)): (0, -n)}",
     "comps[x(d)] = {mono(x(d)): (0, -n - 1)}",
     [["verify-killing", "--n", "2", "--points", "1"]], 1, "unflagged"),
    # C2 is the image of no matrix of the algebra basis, so structure never
    # reads it.
    ("C2-coefficient-exact", "generators.py", "comps[x(d)] = {mono(x(d)): (0, -n)}",
     "comps[x(d)] = {mono(x(d)): (0, -n - 1)}", [["structure", "--n", "2"]], 0, "equivalent"),
    # Adds -c T to YC, and T is Killing.
    ("YC-angle-coefficient", "generators.py", "comps[phi] = {mono(c): (-2, 0)}",
     "comps[phi] = {mono(c): (-3, 0)}",
     [["verify-killing", "--n", "1", "--points", "1"]], 1, "equivalent"),
    # The same edit under structure: T is central and no commutator has a
    # component along YC, the image of the trace part C.
    ("YC-angle-coefficient-exact", "generators.py", "comps[phi] = {mono(c): (-2, 0)}",
     "comps[phi] = {mono(c): (-3, 0)}", [["structure", "--n", "2"]], 0, "equivalent"),
]


def mutant_package(tmp_path, file, old, new):
    """A copy of the package under tmp_path with the one edit applied; the
    directory to put on PYTHONPATH."""
    package = tmp_path / "oneloop"
    shutil.copytree(Path(oneloop.__file__).parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = package / file
    text = source.read_text(encoding="utf-8")
    assert text.count(old) == 1, (file, old, text.count(old))
    source.write_text(text.replace(old, new), encoding="utf-8")
    return tmp_path


@pytest.mark.parametrize("file, old, new, jobs, status, kind",
                         [row[1:] for row in MUTANTS], ids=[row[0] for row in MUTANTS])
def test_mutant(capsys, tmp_path, file, old, new, jobs, status, kind):
    env = dict(os.environ, PYTHONPATH=str(mutant_package(tmp_path, file, old, new)))
    for args in jobs:
        child = subprocess.run([sys.executable, "-m", "oneloop.cli", *args], env=env,
                               capture_output=True, encoding="utf-8")
        code = main(args)
        out = capsys.readouterr().out
        # A report on stdout and nothing on stderr: the mutant ran to its verdict.
        assert (child.returncode, child.stderr) == (status, ""), args
        assert child.stdout, args
        if kind == "verdict":
            assert code != status, args
        else:
            assert code == status, args
            assert (child.stdout == out) == (kind == "equivalent"), args
