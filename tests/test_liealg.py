"""Tests for the exact semidirect algebra model, the structure-constant
verification against the vector-field realization, and the center-lattice
calculator."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oneloop import liealg, matrices
from oneloop.exact import QI, QI_I
from oneloop.liealg import (
    CenterVector,
    f_generator,
    fprime_generator,
    ker_cap_su,
    kernel_generators,
    kernel_generators_n1,
    structure_check,
)
from oneloop.matrices import (
    MatGl,
    StructureReport,
    algebra_basis,
    alpha,
    coordinates,
    semidirect,
    sigma,
)
from oneloop.polyfields import bracket, generator


def random_qi(rng):
    return QI(
        Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)),
        Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)),
    )


def random_qi_matrix(n, rng):
    return MatGl(n, [(j, k, random_qi(rng)) for j in range(n) for k in range(n)])


def matrix(rows):
    """The matrix with these rows of entries, zeros included."""
    return MatGl(len(rows), [(j, k, QI.coerce(e))
                             for j, row in enumerate(rows) for k, e in enumerate(row)])


def dense(X):
    """The rows of X, zeros included: what the entrywise oracles read."""
    rows = [[QI(0)] * X.n for _ in range(X.n)]
    for j, k, a in X.nonzero:
        rows[j][k] = a
    return tuple(map(tuple, rows))


def unit(n, j, k):
    """Matrix unit with a single 1 in row j, column k."""
    return matrix([[1 if (r, s) == (j, k) else 0 for s in range(n)] for r in range(n)])


def scalar(n, q):
    return matrix([[q if j == k else 0 for k in range(n)] for j in range(n)])


def combine(*terms):
    """The matrix sum of q * X over (q, X) pairs, entrywise."""
    n = terms[0][1].n
    rows = [(QI.coerce(q), dense(X)) for q, X in terms]
    return matrix([[sum((q * X[j][k] for q, X in rows), QI(0)) for k in range(n)]
                   for j in range(n)])


def is_zero(X):
    return not X.nonzero


def zeros(n):
    return (QI(0),) * n


def basis_vector(n, k):
    return tuple(QI(1 if j == k else 0) for j in range(n))


def block(A):
    """The semidirect element with matrix block A and nothing else."""
    return semidirect(A, zeros(A.n), zeros(A.n), QI(0))


def e_translation(n, k):
    return semidirect(scalar(n, 0), basis_vector(n, k), zeros(n), QI(0))


def ebar_translation(n, k):
    return semidirect(scalar(n, 0), zeros(n), basis_vector(n, k), QI(0))


def center(n, t=1):
    return semidirect(scalar(n, 0), zeros(n), zeros(n), QI.coerce(t))


def c_element(n):
    return block(scalar(n, QI_I))


def u_element(n, a):
    return block(unit(n, 0, a))


def us_element(n, a):
    return block(sigma(unit(n, 0, a)))


def split(coords, n):
    """(lam, m, s, kappa, vE, vEbar, t) of a list of ``coordinates`` at
    dimension index n, with kappa as n-1 rows."""
    lam, *rest = coords
    m, s, rest = rest[:n - 1], rest[n - 1:2 * n - 2], rest[2 * n - 2:]
    kappa = [rest[a * (n - 1):(a + 1) * (n - 1)] for a in range(n - 1)]
    rest = rest[(n - 1) ** 2:]
    return lam, m, s, kappa, rest[:n], rest[n:2 * n], rest[2 * n]


# Entries that are often zero, integral or fractional, as in the basis.
_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)
qi_entries = st.one_of(st.just(QI(0)), st.builds(QI, st.integers(-3, 3)),
                       st.builds(QI, _fractions, _fractions))


def qi_matrices(n):
    rows = st.lists(qi_entries, min_size=n, max_size=n).map(tuple)
    return st.lists(rows, min_size=n, max_size=n).map(matrix)


matrix_pairs = st.integers(1, 4).flatmap(
    lambda n: st.tuples(qi_matrices(n), qi_matrices(n)))


def dense_commutator(A, B):
    """The rows of A @ B - B @ A, summed entry by entry over dense rows."""
    n, X, Y = A.n, dense(A), dense(B)

    def product(X, Y):
        return [[sum((X[j][l] * Y[l][k] for l in range(n)), QI(0)) for k in range(n)]
                for j in range(n)]

    return tuple(tuple(x - y for x, y in zip(row_xy, row_yx))
                 for row_xy, row_yx in zip(product(X, Y), product(Y, X)))


class TestMatGlForm:
    """One form: the nonzero entries, as (row, column, QI) triples."""

    def test_zeros_dropped_and_entries_sorted(self):
        got = MatGl(2, [(1, 0, QI(3)), (0, 1, QI(0)), (0, 0, QI(0, 1)), (1, 1, QI(2))])
        assert got.nonzero == ((0, 0, QI(0, 1)), (1, 0, QI(3)), (1, 1, QI(2)))
        assert got == MatGl(2, list(reversed(got.nonzero)))
        assert MatGl(3, [(2, 2, QI(0))]) == MatGl(3, ()) != MatGl(2, ())

    @pytest.mark.parametrize("n, nonzero, message", [
        (2, [(0, 0, 1)], "exact Gaussian rationals"),
        (2, [(0, 0, Fraction(1))], "exact Gaussian rationals"),
        (2, [(2, 0, QI(1))], "outside the matrix"),
        (2, [(0, -1, QI(1))], "outside the matrix"),
        (2, [(0, 1, QI(1)), (0, 1, QI(0))], "repeated"),
        (0, [], "positive integer"),
    ], ids=["int", "fraction", "row", "column", "twice", "empty"])
    def test_refused(self, n, nonzero, message):
        with pytest.raises(ValueError, match=message):
            MatGl(n, nonzero)


class TestMatGlArithmetic:
    """The zero-skipping commutator against a dense entrywise oracle."""

    @given(matrix_pairs)
    @settings(max_examples=80)
    def test_commutator_matches_dense_oracle(self, pair):
        A, B = pair
        got = A.commutator(B)
        assert dense(got) == dense_commutator(A, B)
        assert B.commutator(A) == combine((-1, got))

    @given(matrix_pairs)
    @settings(max_examples=80)
    def test_commutator_terms_are_those_of_its_entries(self, pair):
        # The commutator keeps only its nonzero entries, sums that cancel
        # included; structure_check keys its memo on them.
        A, B = pair
        got = A.commutator(B)
        rebuilt = matrix(dense_commutator(A, B))
        assert rebuilt == got
        assert rebuilt.terms() == got.terms()
        assert (got.terms() == A.terms()) == (got == A)
        assert A.commutator(A).terms() == ()

    def test_terms_tell_matrices_apart(self):
        # Matrices that differ in one entry's denominator, its imaginary
        # part or its position have different terms.
        half = QI(Fraction(1, 2))
        matrices = [matrix([[a, b], [0, 0]]) for a, b in (
            (QI(1), QI(0)), (half, QI(0)), (QI(0, 1), QI(0)), (QI(0), QI(1)),
            (QI(0), QI(0)), (QI(1), half))]
        keys = [m.terms() for m in matrices]
        assert len(set(keys)) == len(keys)
        assert keys[4] == ()

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="size mismatch"):
            unit(2, 0, 1).commutator(unit(3, 0, 1))


class TestSigma:
    def test_maps_upper_shear_to_lower_shear(self):
        # The involution sends the matrix unit in row 0, column a to the one
        # in row a, column 0.
        for n in (2, 3, 4):
            for a in range(1, n):
                assert sigma(unit(n, 0, a)) == unit(n, a, 0)

    def test_fixes_scalar_rotation(self):
        for n in (1, 2, 3):
            C = scalar(n, QI_I)
            assert sigma(C) == C

    def test_involution_on_random_matrices(self):
        rng = random.Random(7)
        for n in (2, 3, 4):
            for _ in range(5):
                A = random_qi_matrix(n, rng)
                assert sigma(sigma(A)) == A
                # sigma(A) = -I conj(A)^T I with I = diag(-1, 1, ..., 1).
                signs = [-1] + [1] * (n - 1)
                assert sigma(A) == matrix([
                    [-signs[j] * signs[k] * dense(A)[k][j].conj() for k in range(n)]
                    for j in range(n)])

    def test_antilinear(self):
        rng = random.Random(8)
        A = random_qi_matrix(3, rng)
        # sigma(i A) = -i sigma(A)
        assert sigma(combine((QI_I, A))) == combine((-QI_I, sigma(A)))


def re_im_sigma(A):
    """Split A = Re + i*Im with both parts fixed by the involution."""
    s = sigma(A)
    half = Fraction(1, 2)
    return combine((half, A), (half, s)), combine((QI(0, -half), A), (QI(0, half), s))


class TestReImSigma:
    def test_fixed_point_splits_trivially(self):
        C = scalar(3, QI_I)
        re, im = re_im_sigma(C)
        assert re == C
        assert is_zero(im)

    def test_shear_split_parts_are_fixed(self):
        for n in (2, 3):
            for a in range(1, n):
                U = unit(n, 0, a)
                re, im = re_im_sigma(U)
                assert sigma(re) == re
                assert sigma(im) == im
                half = Fraction(1, 2)
                assert re == combine((half, U), (half, unit(n, a, 0)))

    def test_exact_reconstruction(self):
        rng = random.Random(9)
        for n in (2, 3, 4):
            A = random_qi_matrix(n, rng)
            re, im = re_im_sigma(A)
            assert combine((1, re), (QI_I, im)) == A


class TestSemiDirectElement:
    """Elements of the semidirect sum as (n+2)x(n+2) matrices."""

    @pytest.mark.parametrize("vE, vEbar, t", [
        ((1, 0), (QI(0), QI(0)), QI(0)),
        ((QI(0), QI(0)), (QI(0), Fraction(1, 2)), QI(0)),
        ((QI(0), QI(0)), (QI(0), QI(0)), 0.5),
    ], ids=["int-vE", "fraction-vEbar", "float-t"])
    def test_inexact_parts_rejected(self, vE, vEbar, t):
        with pytest.raises(ValueError, match="exact Gaussian rationals"):
            semidirect(scalar(2, 0), vE, vEbar, t)

    def test_translation_length_checked(self):
        with pytest.raises(ValueError, match="length n"):
            semidirect(scalar(2, 0), zeros(3), zeros(2), QI(0))

    def test_layout(self):
        # X = [[0, vE^T, (i/2) t], [0, A, I vEbar], [0, 0, 0]].
        A = matrix([[1, 2], [3, 4]])
        X = semidirect(A, (QI(5), QI(6)), (QI(7), QI(8)), QI(2))
        assert X == matrix([
            [0, 5, 6, QI(0, 1)],
            [0, 1, 2, -7],
            [0, 3, 4, 8],
            [0, 0, 0, 0],
        ])

    def test_coordinates_invert_the_constructor(self):
        # The coefficients times the basis elements sum to the element.
        rng = random.Random(5)
        for n in (1, 2, 3, 4):
            A = random_qi_matrix(n, rng)
            vE = tuple(random_qi(rng) for _ in range(n))
            vEbar = tuple(random_qi(rng) for _ in range(n))
            t = random_qi(rng)
            X = semidirect(A, vE, vEbar, t)
            assert X.n == n + 2
            coords = coordinates(X)
            assert split(coords, n)[4:] == (list(vE), list(vEbar), t)
            assert combine(*((q, x) for q, (_, x, _) in zip(coords, algebra_basis(n)))) == X

    def test_coordinates_refuse_other_matrices(self):
        # The first column and the last row of a semidirect element are zero.
        for entry in ((1, 0, QI(1)), (3, 2, QI(1))):
            with pytest.raises(ValueError, match="semidirect sum"):
                coordinates(MatGl(4, [entry]))


# sha256 of the bracket of every ordered basis pair for n = 1..4, each
# written as its nonzero basis coordinates: the structure constants as the
# earlier component-wise bracket (matrix action on each translation part,
# one loop for the central part) computed them.
STRUCTURE_DIGEST = "d7795296ef715feec3722c166816c03264fed352a580acbe328eeb71ee5d9a23"


class TestSemidirectBracket:
    def test_structure_constants_are_pinned(self):
        lines = []
        for n in range(1, 5):
            basis = algebra_basis(n)
            labels = [label for label, _, _ in basis]
            for label_x, x, _ in basis:
                for label_y, y, _ in basis:
                    coords = coordinates(x.commutator(y))
                    terms = " ".join(f"{label}:{q.re},{q.im}"
                                     for label, q in zip(labels, coords) if q)
                    lines.append(f"{n} [{label_x},{label_y}] {terms}")
        assert len(lines) == 978
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == STRUCTURE_DIGEST

    def test_scalar_rotation_acts_on_translations(self):
        # [C, E_k] = -i E_k
        for n in (1, 2, 3):
            C = c_element(n)
            for k in range(n):
                E = e_translation(n, k)
                assert C.commutator(E) == combine((-QI_I, E))

    def test_shear_acts_on_translations(self):
        # [U_a, E_k] = -delta_{k0} E_a
        n = 3
        for a in range(1, n):
            U = u_element(n, a)
            for k in range(n):
                got = U.commutator(e_translation(n, k))
                if k == 0:
                    assert got == combine((-1, e_translation(n, a)))
                else:
                    assert is_zero(got)

    def test_real_translation_center_pairing(self):
        # [e_k, f_l] = (delta_{k0}delta_{l0} - sum_a delta_{ka}delta_{la}) T
        n = 3
        half = Fraction(1, 2)
        for k in range(n):
            e_k = combine((half, e_translation(n, k)), (half, ebar_translation(n, k)))
            for l in range(n):
                f_l = combine((QI(0, half), e_translation(n, l)),
                              (QI(0, -half), ebar_translation(n, l)))
                expected_t = 0
                if k == l:
                    expected_t = 1 if k == 0 else -1
                assert e_k.commutator(f_l) == center(n, expected_t)

    def test_holomorphic_translations_commute(self):
        n = 2
        for k in range(n):
            for l in range(n):
                assert is_zero(e_translation(n, k).commutator(e_translation(n, l)))

    def test_center_is_central(self):
        n = 3
        T = center(n)
        for _, x, _ in algebra_basis(n):
            assert is_zero(T.commutator(x))
            assert is_zero(x.commutator(T))

    def test_antisymmetry_on_basis(self):
        n = 3
        basis = algebra_basis(n)
        for _, x, _ in basis:
            for _, y, _ in basis:
                assert x.commutator(y) == combine((-1, y.commutator(x)))

    @pytest.mark.parametrize("n", [2, 3])
    def test_jacobi_identity_on_all_basis_triples(self, n):
        basis = [elem for _, elem, _ in algebra_basis(n)]
        size = len(basis)
        inner = [[basis[i].commutator(basis[j]) for j in range(size)]
                 for i in range(size)]
        for i in range(size):
            for j in range(size):
                for k in range(size):
                    terms = (basis[i].commutator(inner[j][k]),
                             basis[j].commutator(inner[k][i]),
                             basis[k].commutator(inner[i][j]))
                    flat = (sum(dense(X), ()) for X in terms)
                    assert not any(p + q + r for p, q, r in zip(*flat))

    def test_real_form_membership(self):
        def is_real_form(x):
            # sigma fixes C, swaps U_a and U_a^s and sends B(a,b) to -B(b,a),
            # antilinearly; the real form also has vEbar = conj(vE), real t.
            n = x.n - 2
            lam, m, s, kappa, vE, vEbar, t = split(coordinates(x), n)
            return (lam == lam.conj() and t == t.conj()
                    and all(a.conj() == b for a, b in zip(m, s))
                    and all(kappa[b][a] == -kappa[a][b].conj()
                            for a in range(n - 1) for b in range(n - 1))
                    and all(a.conj() == b for a, b in zip(vE, vEbar)))

        n = 2
        assert is_real_form(c_element(n))
        half = Fraction(1, 2)
        e_0 = combine((half, e_translation(n, 0)), (half, ebar_translation(n, 0)))
        assert is_real_form(e_0)
        assert not is_real_form(e_translation(n, 0))
        assert not is_real_form(u_element(n, 1))
        # The blocks that sigma fixes are exactly those of the real form.
        rng = random.Random(12)
        for n in (1, 2, 3, 4):
            A = random_qi_matrix(n, rng)
            re, im = re_im_sigma(A)
            assert is_real_form(block(re)) and is_real_form(block(im))
            assert not is_real_form(block(A))


class TestBlockCoordinates:
    """The coordinates of the matrix block over {C, U_a, U_a^s, B(a,b)}."""

    def test_reconstruction_random(self):
        rng = random.Random(11)
        for n in (1, 2, 3, 4):
            M = random_qi_matrix(n, rng)
            lam, m, s, kappa = split(coordinates(block(M)), n)[:4]
            terms = [(QI_I * lam, scalar(n, 1))]
            for a in range(1, n):
                terms += [(m[a - 1], unit(n, 0, a)), (s[a - 1], unit(n, a, 0))]
            for a in range(1, n):
                for b in range(1, n):
                    B = unit(n, 0, a).commutator(unit(n, b, 0))
                    terms.append((kappa[a - 1][b - 1], B))
            assert combine(*terms) == M

    def test_commutator_matrix_has_unit_coefficient(self):
        n = 3
        for a in range(1, n):
            for b in range(1, n):
                B = unit(n, 0, a).commutator(sigma(unit(n, 0, b)))
                lam, m, s, kappa = split(coordinates(block(B)), n)[:4]
                assert not lam
                assert not any(m)
                assert not any(s)
                for aa in range(1, n):
                    for bb in range(1, n):
                        want = QI(1) if (aa, bb) == (a, b) else QI(0)
                        assert kappa[aa - 1][bb - 1] == want


class TestAlpha:
    def test_basis_images(self):
        assert alpha(c_element(3)) == generator("YC", 3)
        assert alpha(u_element(3, 2)) == generator("Ya", 3, 2)
        assert alpha(us_element(3, 1)) == generator("YaBar", 3, 1)
        for k in range(3):
            assert alpha(e_translation(3, k)) == generator("Vk", 3, k)
            assert alpha(ebar_translation(3, k)) == generator("VkBar", 3, k)
        assert alpha(center(3)) == generator("T", 3)

    def test_commutator_image_is_minus_shear_commutator(self):
        for a in range(1, 3):
            for b in range(1, 3):
                B = u_element(3, a).commutator(us_element(3, b))
                assert alpha(B) == -generator("CommYaYbBar", 3, a, b)

    def test_table_images_are_the_images_of_its_elements(self):
        for n in (1, 2, 3):
            for _, x, image in algebra_basis(n):
                assert alpha(x) == image

    def test_linearity(self):
        x = combine((1, c_element(2)), (3, u_element(2, 1)))
        y = combine((1, e_translation(2, 1)), (1, center(2, Fraction(1, 2))))
        lhs = alpha(combine((1, x), (QI(0, 2), y)))
        rhs = alpha(x) + alpha(y).scale(QI(0, 2))
        assert lhs == rhs

    @given(st.integers(1, 3).flatmap(
        lambda n: st.lists(qi_entries, min_size=(n + 1) ** 2,
                           max_size=(n + 1) ** 2)))
    @settings(max_examples=40, deadline=None)
    def test_combination_is_the_sum_of_scaled_images(self, coeffs):
        # x = sum of coeff * basis element goes to the same sum of the
        # images, built here one PolyVectorField operation at a time.
        n = math.isqrt(len(coeffs)) - 1
        basis = algebra_basis(n)
        x = combine(*((q, elem) for q, (_, elem, _) in zip(coeffs, basis)))
        images = [image for _, _, image in basis]
        want = images[0].scale(coeffs[0])
        for q, image in zip(coeffs[1:], images[1:]):
            want = want + image.scale(q)
        assert alpha(x) == want
        assert alpha(combine((-1, x))) == -want


class TestStructureCheck:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_zero_mismatches(self, n):
        report = structure_check(n)
        basis_size = len(algebra_basis(n))
        assert report.pairs_checked == basis_size * basis_size
        assert report.mismatches == ()
        assert report.ok

    def test_fault_injection_detected(self, monkeypatch):
        # Twice the central scale ([E_k, Ebar_k] = 2 VK_SHEAR i eps_k T
        # instead of VK_SHEAR i eps_k T) must break exactly the four E/Ebar
        # pairs at n = 2.  The cached basis holds the elements built at the
        # shipped scale, so it is rebuilt on each side of the patch.
        monkeypatch.setattr(matrices, "_CENTRAL_SCALE", matrices._CENTRAL_SCALE * 2)
        matrices.algebra_basis.cache_clear()
        report = structure_check(2)
        assert set(report.mismatches) == {
            ("E(0)", "Ebar(0)"), ("E(1)", "Ebar(1)"),
            ("Ebar(0)", "E(0)"), ("Ebar(1)", "E(1)"),
        }
        assert len(report.mismatches) == 4
        monkeypatch.undo()
        matrices.algebra_basis.cache_clear()

        # Rescaling the image of the central generator by 2 must break
        # exactly the translation pairs that bracket into the center.
        def doubled(n, label):
            return tuple((lbl, x, image.scale(QI(2)) if lbl == label else image)
                         for lbl, x, image in algebra_basis(n))

        basis4 = doubled(4, "U(1)")
        basis2 = doubled(2, "T")
        monkeypatch.setattr(matrices, "algebra_basis", lambda n: basis2)
        report = structure_check(2)
        assert not report.ok
        assert len(report.mismatches) == 4
        for label_x, label_y in report.mismatches:
            assert {label_x[:1], label_y[:1]} == {"E"}
            assert label_x != label_y

        # Doubling the image of U(1) at n = 4 breaks exactly these ordered
        # pairs: those whose bracket or whose factors involve U(1).
        monkeypatch.setattr(matrices, "algebra_basis", lambda n: basis4)
        report = structure_check(4)
        assert report.pairs_checked == 625
        assert report.mismatches == (
            ("U(1)", "Us(1)"), ("U(1)", "Us(2)"), ("U(1)", "Us(3)"),
            ("U(1)", "B(2,1)"), ("U(1)", "B(3,1)"), ("U(1)", "E(0)"),
            ("U(1)", "Ebar(1)"), ("U(2)", "B(1,2)"), ("U(3)", "B(1,3)"),
            ("Us(1)", "U(1)"), ("Us(2)", "U(1)"), ("Us(3)", "U(1)"),
            ("B(1,2)", "U(2)"), ("B(1,3)", "U(3)"), ("B(2,1)", "U(1)"),
            ("B(3,1)", "U(1)"), ("E(0)", "U(1)"), ("Ebar(1)", "U(1)"),
        )


def per_pair_structure_check(n):
    """The structure check with alpha evaluated once per pair, no memo."""
    basis = matrices.algebra_basis(n)
    mismatches = tuple((label_x, label_y)
                       for label_x, x, image_x in basis for label_y, y, image_y in basis
                       if bracket(image_x, image_y) != alpha(y.commutator(x)))
    return StructureReport(n=n, pairs_checked=len(basis) ** 2, mismatches=mismatches)


class TestStructureMemo:
    """``structure_check`` brackets each unordered pair once and runs alpha
    once per distinct commutator; it must report what the per-pair loop over
    every ordered pair reports."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_the_per_pair_loop(self, n):
        assert structure_check(n) == per_pair_structure_check(n)

    @pytest.mark.parametrize("n, distinct", [(1, 4), (2, 16), (3, 32), (4, 51)])
    def test_alpha_runs_once_per_distinct_commutator(self, monkeypatch, n, distinct):
        calls = []

        def counting(x):
            calls.append(x)
            return alpha(x)

        monkeypatch.setattr(matrices, "alpha", counting)
        report = structure_check(n)
        basis = [x for _, x, _ in algebra_basis(n)]
        assert report.pairs_checked == len(basis) ** 2
        # First each basis element, checked against its own image.
        assert calls[:len(basis)] == basis
        commutators = calls[len(basis):]
        assert len(commutators) == len(set(commutators)) == distinct

    def test_basis_element_off_its_image_is_reported(self, monkeypatch):
        # alpha reads T's coefficient doubled: alpha(T) is 2 T, not T's
        # image, which only the check of each basis element sees.
        def doubled_t(x):
            out = coordinates(x)
            out[-1] = out[-1] + out[-1]
            return out

        monkeypatch.setattr(matrices, "coordinates", doubled_t)
        assert ("T", "T") in structure_check(2).mismatches
        assert ("T", "T") not in per_pair_structure_check(2).mismatches

    def test_wrong_image_is_reported_by_both(self, monkeypatch):
        # The memo holds right-hand sides only: with the image of one basis
        # element negated, both loops must flag the same pairs.
        basis = tuple((label, x, -image if label == "B(1,2)" else image)
                      for label, x, image in algebra_basis(3))
        monkeypatch.setattr(matrices, "algebra_basis", lambda n: basis)
        report = structure_check(3)
        assert report.mismatches
        assert report == per_pair_structure_check(3)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_both_sides_are_antisymmetric(self, n):
        # The identities that let one unordered pair decide its mirror,
        # over every ordered basis pair.
        basis = algebra_basis(n)
        for _, x, image_x in basis:
            for _, y, image_y in basis:
                assert bracket(image_x, image_y) == -bracket(image_y, image_x)
                assert alpha(y.commutator(x)) == -alpha(x.commutator(y))


class TestCenterVector:
    def test_serialization(self):
        v = CenterVector(Fraction(-1, 3), -1, Fraction(1, 3))
        assert v.serialize() == {
            "two_pi_R": "-1/3",
            "two_pi_Z": -1,
            "four_pi_c": "1/3",
        }

    def test_human_rendering(self):
        assert CenterVector(Fraction(1), 0, Fraction(1)).human() == "(2π,0,4πc)"
        assert CenterVector(Fraction(-1, 2), -1, Fraction(0)).human() == "(-π,-2π,0)"
        assert (
            CenterVector(Fraction(-1, 3), -1, Fraction(1, 3)).human()
            == "(-2π/3,-2π,4πc/3)"
        )
        assert CenterVector(Fraction(0), 0, Fraction(2)).human() == "(0,0,8πc)"
        assert CenterVector(Fraction(1, 2), 1, Fraction(0)).human() == "(π,2π,0)"
        assert CenterVector(Fraction(0), 0, Fraction(1, 2)).human() == "(0,0,2πc)"

    def test_human_n1_omits_discrete_slot(self):
        assert kernel_generators_n1().human(n1=True) == "(2π,4πc)"

    def test_integer_slot_enforced(self):
        with pytest.raises(ValueError, match="integer"):
            CenterVector(Fraction(0), Fraction(1, 2), Fraction(0))
        with pytest.raises(ValueError, match="integer"):
            CenterVector(Fraction(0), 0, Fraction(0)).scale_int(Fraction(2))

    def test_bools_are_not_integers(self):
        with pytest.raises(ValueError, match="integer"):
            CenterVector(1, True, 0)
        with pytest.raises(ValueError, match="integers only"):
            CenterVector.zero().scale_int(True)

    def test_lattice_arithmetic(self):
        g1, g2 = kernel_generators(3)
        v = g1.scale_int(2) + (-g2)
        assert v == CenterVector(Fraction(7, 3), 1, Fraction(5, 3))
        assert v + g2.scale_int(1) == g1.scale_int(2)


class TestKernelGenerators:
    def test_n2_values(self):
        g1, g2 = kernel_generators(2)
        assert g1 == CenterVector(Fraction(1), 0, Fraction(1))
        assert g2 == CenterVector(Fraction(-1, 2), -1, Fraction(0))
        assert g1.human() == "(2π,0,4πc)"
        assert g2.human() == "(-π,-2π,0)"

    def test_n3_values(self):
        g1, g2 = kernel_generators(3)
        assert g1.human() == "(2π,0,4πc)"
        assert g2 == CenterVector(Fraction(-1, 3), -1, Fraction(1, 3))
        assert g2.human() == "(-2π/3,-2π,4πc/3)"

    def test_n1_delegated(self):
        with pytest.raises(ValueError, match="n1"):
            kernel_generators(1)
        g = kernel_generators_n1()
        assert g == CenterVector(Fraction(1), 0, Fraction(1))
        assert g.human(n1=True) == "(2π,4πc)"


class TestKerCapSu:
    def test_even_case(self):
        # pi * (1, 2, 0)
        assert ker_cap_su(2) == CenterVector(Fraction(1, 2), 1, Fraction(0))
        assert ker_cap_su(2).human() == "(π,2π,0)"

    def test_odd_cases(self):
        # 2*pi * (n-1, n, 0)
        assert ker_cap_su(3) == CenterVector(Fraction(2), 3, Fraction(0))
        assert ker_cap_su(5) == CenterVector(Fraction(4), 5, Fraction(0))

    def test_matches_parity_table(self):
        for n in range(2, 7):
            got = ker_cap_su(n)
            if n % 2 == 0:
                want = CenterVector(Fraction(n - 1, 2), n // 2, Fraction(0))
            else:
                want = CenterVector(Fraction(n - 1), n, Fraction(0))
            assert got == want, n

    def test_lies_in_kernel_lattice(self):
        # The generator must be an integer combination of the kernel
        # generators with vanishing central slot.
        for n in range(2, 7):
            v = ker_cap_su(n)
            g1, g2 = kernel_generators(n)
            # Solve v = x g1 + y g2 exactly: y = -m, x from the first slot.
            y = -v.m
            x = v.u + Fraction(y, n)
            assert x.denominator == 1
            assert g1.scale_int(int(x)) + g2.scale_int(y) == v
            assert v.z == 0

    def test_inconsistent_generators_raise(self, monkeypatch):
        # A wrong kernel pair leaves a nonzero central slot; the check must
        # raise, also under python -O.
        def wrong(n):
            return (CenterVector(Fraction(1), 0, Fraction(1)),
                    CenterVector(Fraction(-1, n), -1, Fraction(1)))

        monkeypatch.setattr(liealg, "kernel_generators", wrong)
        with pytest.raises(AssertionError, match="central slot"):
            ker_cap_su(4)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            ker_cap_su(1)


class TestIntersectionGenerators:
    def test_f_examples(self):
        assert f_generator(2) == CenterVector(Fraction(0), 0, Fraction(1))
        assert f_generator(2).human() == "(0,0,4πc)"
        assert f_generator(3) == CenterVector(Fraction(0), 0, Fraction(1, 3))
        assert f_generator(3).human() == "(0,0,4πc/3)"

    def test_f_parity_table(self):
        # 8*pi*c/n for even n, 4*pi*c/n for odd n.
        for n in range(2, 9):
            want = Fraction(2, n) if n % 2 == 0 else Fraction(1, n)
            assert f_generator(n) == CenterVector(Fraction(0), 0, want), n

    def test_f_n1(self):
        assert f_generator(1) == CenterVector(Fraction(0), 0, Fraction(1))

    def test_fprime_examples(self):
        assert fprime_generator(2) == CenterVector(Fraction(0), 0, Fraction(1))
        assert fprime_generator(2).human() == "(0,0,4πc)"
        assert fprime_generator(3) == CenterVector(Fraction(0), 0, Fraction(2))
        assert fprime_generator(3).human() == "(0,0,8πc)"
        for n in range(2, 8):
            assert fprime_generator(n) == CenterVector(
                Fraction(0), 0, Fraction(n - 1)
            ), n

    def test_degenerate_branch_trivial(self):
        for n in (2, 3, 5):
            assert f_generator(n, positive_c=False) == CenterVector.zero()
            assert fprime_generator(n, positive_c=False) == CenterVector.zero()

    def test_fprime_small_n_rejected(self):
        with pytest.raises(ValueError):
            fprime_generator(1)
