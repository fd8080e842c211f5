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

from oneloop import liealg
from oneloop.exact import QI, QI_I
from oneloop.fields import GeneratorName, generator
from oneloop.geometry import ModelParams
from oneloop.liealg import (
    CenterVector,
    MatGl,
    algebra_basis,
    alpha,
    blocks,
    f_generator,
    fprime_generator,
    gl_decompose,
    ker_cap_su,
    kernel_generators,
    kernel_generators_n1,
    semidirect,
    sigma,
    structure_check,
)


def random_qi(rng):
    return QI(
        Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)),
        Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)),
    )


def random_qi_matrix(n, rng):
    return MatGl(tuple(tuple(random_qi(rng) for _ in range(n)) for _ in range(n)))


def matrix(rows):
    return MatGl(tuple(tuple(QI.coerce(e) for e in row) for row in rows))


def unit(n, j, k):
    """Matrix unit with a single 1 in row j, column k."""
    return matrix([[1 if (r, s) == (j, k) else 0 for s in range(n)] for r in range(n)])


def scalar(n, q):
    return matrix([[q if j == k else 0 for k in range(n)] for j in range(n)])


def combine(*terms):
    """The matrix sum of q * X over (q, X) pairs, entrywise."""
    n = terms[0][1].n
    return MatGl(tuple(
        tuple(sum((QI.coerce(q) * X.entries[j][k] for q, X in terms), QI(0))
              for k in range(n))
        for j in range(n)
    ))


def is_zero(X):
    return not any(map(any, X.entries))


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


def basis_coordinates(X):
    """Coefficients of a semidirect element over ``algebra_basis``, in order."""
    A, vE, vEbar, t = blocks(X)
    lam, m, s, kappa = gl_decompose(A)
    return [lam, *m, *s, *(k for row in kappa for k in row), *vE, *vEbar, t]


# Entries that are often zero, integral or fractional, as in the basis.
_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)
qi_entries = st.one_of(st.just(QI(0)), st.builds(QI, st.integers(-3, 3)),
                       st.builds(QI, _fractions, _fractions))


def qi_matrices(n):
    rows = st.lists(qi_entries, min_size=n, max_size=n).map(tuple)
    return st.lists(rows, min_size=n, max_size=n).map(lambda r: MatGl(tuple(r)))


matrix_pairs = st.integers(1, 4).flatmap(
    lambda n: st.tuples(qi_matrices(n), qi_matrices(n)))


class TestMatGlArithmetic:
    """The zero-skipping commutator against a dense entrywise oracle."""

    @given(matrix_pairs)
    @settings(max_examples=80)
    def test_commutator_matches_dense_oracle(self, pair):
        A, B = pair
        n = A.n

        def product(X, Y):
            return [[sum((X.entries[j][l] * Y.entries[l][k] for l in range(n)), QI(0))
                     for k in range(n)] for j in range(n)]

        got = A.commutator(B)
        assert got.entries == tuple(
            tuple(x - y for x, y in zip(row_ab, row_ba))
            for row_ab, row_ba in zip(product(A, B), product(B, A)))
        assert MatGl(got.entries) == got  # entries pass the check
        assert B.commutator(A) == combine((-1, got))

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
                    [-signs[j] * signs[k] * A.entries[k][j].conj() for k in range(n)]
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

    def test_blocks_invert_the_constructor(self):
        rng = random.Random(5)
        for n in (1, 2, 3, 4):
            A = random_qi_matrix(n, rng)
            vE = tuple(random_qi(rng) for _ in range(n))
            vEbar = tuple(random_qi(rng) for _ in range(n))
            t = random_qi(rng)
            X = semidirect(A, vE, vEbar, t)
            assert X.n == n + 2
            assert blocks(X) == (A, vE, vEbar, t)


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
            labels = [label for label, _ in basis]
            for label_x, x in basis:
                for label_y, y in basis:
                    coords = basis_coordinates(x.commutator(y))
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
        for _, x in algebra_basis(n):
            assert is_zero(T.commutator(x))
            assert is_zero(x.commutator(T))

    def test_antisymmetry_on_basis(self):
        n = 3
        basis = algebra_basis(n)
        for _, x in basis:
            for _, y in basis:
                assert x.commutator(y) == combine((-1, y.commutator(x)))

    @pytest.mark.parametrize("n", [2, 3])
    def test_jacobi_identity_on_all_basis_triples(self, n):
        basis = [elem for _, elem in algebra_basis(n)]
        size = len(basis)
        inner = [[basis[i].commutator(basis[j]) for j in range(size)]
                 for i in range(size)]
        for i in range(size):
            for j in range(size):
                for k in range(size):
                    terms = (basis[i].commutator(inner[j][k]),
                             basis[j].commutator(inner[k][i]),
                             basis[k].commutator(inner[i][j]))
                    flat = (sum(X.entries, ()) for X in terms)
                    assert not any(p + q + r for p, q, r in zip(*flat))

    def test_real_form_membership(self):
        def is_real_form(x):
            A, vE, vEbar, t = blocks(x)
            return (sigma(A) == A and t == t.conj()
                    and all(a.conj() == b for a, b in zip(vE, vEbar)))

        n = 2
        assert is_real_form(c_element(n))
        half = Fraction(1, 2)
        e_0 = combine((half, e_translation(n, 0)), (half, ebar_translation(n, 0)))
        assert is_real_form(e_0)
        assert not is_real_form(e_translation(n, 0))
        assert not is_real_form(u_element(n, 1))


class TestGlDecompose:
    def test_reconstruction_random(self):
        rng = random.Random(11)
        for n in (1, 2, 3, 4):
            M = random_qi_matrix(n, rng)
            lam, m, s, kappa = gl_decompose(M)
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
                lam, m, s, kappa = gl_decompose(B)
                assert not lam
                assert not any(m)
                assert not any(s)
                for aa in range(1, n):
                    for bb in range(1, n):
                        want = QI(1) if (aa, bb) == (a, b) else QI(0)
                        assert kappa[aa - 1][bb - 1] == want


class TestAlpha:
    def test_basis_images(self):
        params = ModelParams(n=3, c=0.0)
        assert alpha(c_element(3), params) == generator(GeneratorName("YC"), params)
        assert alpha(u_element(3, 2), params) == generator(
            GeneratorName("Ya", 2), params
        )
        assert alpha(us_element(3, 1), params) == generator(
            GeneratorName("YaBar", 1), params
        )
        for k in range(3):
            assert alpha(e_translation(3, k), params) == generator(
                GeneratorName("Vk", k), params
            )
        assert alpha(center(3), params) == generator(GeneratorName("T"), params)

    def test_commutator_image_is_minus_shear_commutator(self):
        params = ModelParams(n=3, c=0.0)
        for a in range(1, 3):
            for b in range(1, 3):
                B = u_element(3, a).commutator(us_element(3, b))
                want = -generator(GeneratorName("CommYaYbBar", a, b), params)
                assert alpha(B, params) == want

    def test_linearity(self):
        params = ModelParams(n=2, c=0.0)
        x = combine((1, c_element(2)), (3, u_element(2, 1)))
        y = combine((1, e_translation(2, 1)), (1, center(2, Fraction(1, 2))))
        lhs = alpha(combine((1, x), (QI(0, 2), y)), params)
        rhs = alpha(x, params) + alpha(y, params).scale(QI(0, 2))
        assert lhs == rhs

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            alpha(c_element(2), ModelParams(n=3, c=0.0))

    @given(st.integers(1, 3).flatmap(
        lambda n: st.lists(qi_entries, min_size=(n + 1) ** 2,
                           max_size=(n + 1) ** 2)))
    @settings(max_examples=40, deadline=None)
    def test_combination_is_the_sum_of_scaled_images(self, coeffs):
        # x = sum of coeff * basis element goes to the same sum of the
        # images, built here one PolyVectorField operation at a time.
        n = math.isqrt(len(coeffs)) - 1
        params = ModelParams(n=n, c=0.0)
        x = combine(*((q, elem) for q, (_, elem) in zip(coeffs, algebra_basis(n))))
        images = liealg._alpha_images(n)
        want = images[0].scale(coeffs[0])
        for q, image in zip(coeffs[1:], images[1:]):
            want = want + image.scale(q)
        assert alpha(x, params) == want
        assert alpha(combine((-1, x)), params) == -want


class TestStructureCheck:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_zero_mismatches(self, n):
        report = structure_check(ModelParams(n=n, c=0.0))
        basis_size = len(algebra_basis(n))
        assert report.pairs_checked == basis_size * basis_size
        assert report.mismatches == ()
        assert report.ok

    def test_fault_injection_detected(self, monkeypatch):
        # A wrong central scale ([E_k, Ebar_k] = 4i eps_k T instead of
        # 2i eps_k T) must break exactly the four E/Ebar pairs at n = 2.
        monkeypatch.setattr(liealg, "_CENTRAL_SCALE", QI(0, -4))
        report = structure_check(ModelParams(n=2, c=0.0))
        assert set(report.mismatches) == {
            ("E(0)", "Ebar(0)"), ("E(1)", "Ebar(1)"),
            ("Ebar(0)", "E(0)"), ("Ebar(1)", "E(1)"),
        }
        assert len(report.mismatches) == 4
        monkeypatch.undo()

        # Rescaling the image of the central generator by 2 must break
        # exactly the translation pairs that bracket into the center.
        def doubled(n, label):
            images = list(liealg._alpha_images(n))
            i = [lbl for lbl, _ in algebra_basis(n)].index(label)
            images[i] = images[i].scale(QI(2))
            return tuple(images)

        images4 = doubled(4, "U(1)")
        images = doubled(2, "T")
        monkeypatch.setattr(liealg, "_alpha_images", lambda n: images)
        report = structure_check(ModelParams(n=2, c=0.0))
        assert not report.ok
        assert len(report.mismatches) == 4
        for label_x, label_y in report.mismatches:
            assert {label_x[:1], label_y[:1]} == {"E"}
            assert label_x != label_y

        # Doubling the image of U(1) at n = 4 breaks exactly these ordered
        # pairs: those whose bracket or whose factors involve U(1).
        monkeypatch.setattr(liealg, "_alpha_images", lambda n: images4)
        report = structure_check(ModelParams(n=4, c=0.0))
        assert report.pairs_checked == 625
        assert report.mismatches == (
            ("U(1)", "Us(1)"), ("U(1)", "Us(2)"), ("U(1)", "Us(3)"),
            ("U(1)", "B(2,1)"), ("U(1)", "B(3,1)"), ("U(1)", "E(0)"),
            ("U(1)", "Ebar(1)"), ("U(2)", "B(1,2)"), ("U(3)", "B(1,3)"),
            ("Us(1)", "U(1)"), ("Us(2)", "U(1)"), ("Us(3)", "U(1)"),
            ("B(1,2)", "U(2)"), ("B(1,3)", "U(3)"), ("B(2,1)", "U(1)"),
            ("B(3,1)", "U(1)"), ("E(0)", "U(1)"), ("Ebar(1)", "U(1)"),
        )


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
