"""Tests for the exact semidirect algebra model, the structure-constant
verification against the vector-field realization, and the center-lattice
calculator."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oneloop import liealg
from oneloop.exact import QI, QI_I
from oneloop.fields import GeneratorName, PolyVectorField, bracket, generator
from oneloop.geometry import ModelParams
from oneloop.liealg import (
    CenterVector,
    MatGl,
    SemiDirectElement,
    algebra_basis,
    alpha,
    f_generator,
    fprime_generator,
    gl_decompose,
    ker_cap_su,
    kernel_generators,
    kernel_generators_n1,
    re_im_sigma,
    semidirect_bracket,
    sigma,
    structure_check,
)


def random_qi_matrix(n, rng):
    rows = [
        [
            QI(
                Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)),
                Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)),
            )
            for _ in range(n)
        ]
        for _ in range(n)
    ]
    return MatGl(tuple(tuple(row) for row in rows))


# Entries that are often zero, integral or fractional, as in the basis.
_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)
qi_entries = st.one_of(st.just(QI(0)), st.builds(QI, st.integers(-3, 3)),
                       st.builds(QI, _fractions, _fractions))


def qi_matrices(n):
    rows = st.lists(qi_entries, min_size=n, max_size=n).map(tuple)
    return st.lists(rows, min_size=n, max_size=n).map(lambda r: MatGl(tuple(r)))


matrix_pairs = st.integers(1, 4).flatmap(
    lambda n: st.tuples(qi_matrices(n), qi_matrices(n)))


def c_element(n):
    return SemiDirectElement.from_matrix(MatGl.identity(n).scale(QI_I))


def u_element(n, a):
    return SemiDirectElement.from_matrix(MatGl.unit(n, 0, a))


def us_element(n, a):
    return SemiDirectElement.from_matrix(sigma(MatGl.unit(n, 0, a)))


class TestMatGlArithmetic:
    """The zero-skipping matrix operations against dense entrywise oracles."""

    @given(matrix_pairs)
    @settings(max_examples=80)
    def test_product_matches_dense_oracle(self, pair):
        A, B = pair
        n = A.n
        dense = tuple(
            tuple(sum((A.entries[j][l] * B.entries[l][k] for l in range(n)), QI(0))
                  for k in range(n))
            for j in range(n)
        )
        product = A @ B
        assert product.entries == dense
        assert MatGl(product.entries) == product  # entries pass the check

    @given(matrix_pairs)
    @settings(max_examples=80)
    def test_sums_match_dense_oracle(self, pair):
        A, B = pair
        rows = list(zip(A.entries, B.entries))
        assert (A + B).entries == tuple(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in rows)
        assert (A - B).entries == tuple(
            tuple(a - b for a, b in zip(ra, rb)) for ra, rb in rows)
        assert (-A).entries == tuple(tuple(-a for a in row) for row in A.entries)
        assert A.commutator(B) == (A @ B) - (B @ A)
        assert A.is_zero() == all(a.is_zero() for row in A.entries for a in row)


class TestSigma:
    def test_maps_upper_shear_to_lower_shear(self):
        # The involution sends the matrix unit in row 0, column a to the one
        # in row a, column 0.
        for n in (2, 3, 4):
            for a in range(1, n):
                assert sigma(MatGl.unit(n, 0, a)) == MatGl.unit(n, a, 0)

    def test_fixes_scalar_rotation(self):
        for n in (1, 2, 3):
            C = MatGl.identity(n).scale(QI_I)
            assert sigma(C) == C

    def test_involution_on_random_matrices(self):
        rng = random.Random(7)
        for n in (2, 3, 4):
            for _ in range(5):
                A = random_qi_matrix(n, rng)
                assert sigma(sigma(A)) == A

    def test_antilinear(self):
        rng = random.Random(8)
        A = random_qi_matrix(3, rng)
        # sigma(i A) = -i sigma(A)
        assert sigma(A.scale(QI_I)) == sigma(A).scale(-QI_I)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            sigma(MatGl.identity(2), n=3)


class TestReImSigma:
    def test_fixed_point_splits_trivially(self):
        C = MatGl.identity(3).scale(QI_I)
        re, im = re_im_sigma(C)
        assert re == C
        assert im.is_zero()

    def test_shear_split_parts_are_fixed(self):
        for n in (2, 3):
            for a in range(1, n):
                U = MatGl.unit(n, 0, a)
                re, im = re_im_sigma(U)
                assert sigma(re) == re
                assert sigma(im) == im
                half = QI(Fraction(1, 2))
                assert re == (U + sigma(U)).scale(half)

    def test_exact_reconstruction(self):
        rng = random.Random(9)
        for n in (2, 3, 4):
            A = random_qi_matrix(n, rng)
            re, im = re_im_sigma(A)
            assert re + im.scale(QI_I) == A


class TestSemiDirectElement:
    @pytest.mark.parametrize("vE, vEbar, t", [
        ((1, 0), (QI(0), QI(0)), QI(0)),
        ((QI(0), QI(0)), (QI(0), Fraction(1, 2)), QI(0)),
        ((QI(0), QI(0)), (QI(0), QI(0)), 0.5),
    ], ids=["int-vE", "fraction-vEbar", "float-t"])
    def test_inexact_parts_rejected(self, vE, vEbar, t):
        with pytest.raises(ValueError, match="exact Gaussian rationals"):
            SemiDirectElement(MatGl.zero(2), vE, vEbar, t)


class TestSemidirectBracket:
    def test_scalar_rotation_acts_on_translations(self):
        # [C, E_k] = -i E_k
        for n in (1, 2, 3):
            C = c_element(n)
            for k in range(n):
                E = SemiDirectElement.e_translation(n, k)
                assert semidirect_bracket(C, E) == E.scale(-QI_I)

    def test_shear_acts_on_translations(self):
        # [U_a, E_k] = -delta_{k0} E_a
        n = 3
        for a in range(1, n):
            U = u_element(n, a)
            for k in range(n):
                got = semidirect_bracket(U, SemiDirectElement.e_translation(n, k))
                if k == 0:
                    assert got == SemiDirectElement.e_translation(n, a).scale(-1)
                else:
                    assert got.is_zero()

    def test_real_translation_center_pairing(self):
        # [e_k, f_l] = (delta_{k0}delta_{l0} - sum_a delta_{ka}delta_{la}) T
        n = 3
        half = QI(Fraction(1, 2))
        half_i = QI(0, Fraction(1, 2))
        for k in range(n):
            e_k = (
                SemiDirectElement.e_translation(n, k)
                + SemiDirectElement.ebar_translation(n, k)
            ).scale(half)
            for l in range(n):
                f_l = (
                    SemiDirectElement.e_translation(n, l)
                    + SemiDirectElement.ebar_translation(n, l).scale(-1)
                ).scale(half_i)
                got = semidirect_bracket(e_k, f_l)
                expected_t = 0
                if k == l:
                    expected_t = 1 if k == 0 else -1
                assert got == SemiDirectElement.center(n, expected_t)

    def test_holomorphic_translations_commute(self):
        n = 2
        for k in range(n):
            for l in range(n):
                Ek = SemiDirectElement.e_translation(n, k)
                El = SemiDirectElement.e_translation(n, l)
                assert semidirect_bracket(Ek, El).is_zero()

    def test_center_is_central(self):
        n = 3
        T = SemiDirectElement.center(n)
        for _, x in algebra_basis(n):
            assert semidirect_bracket(T, x).is_zero()
            assert semidirect_bracket(x, T).is_zero()

    def test_antisymmetry_on_basis(self):
        n = 3
        basis = algebra_basis(n)
        for _, x in basis:
            for _, y in basis:
                assert semidirect_bracket(x, y) == semidirect_bracket(y, x).scale(-1)

    @pytest.mark.parametrize("n", [2, 3])
    def test_jacobi_identity_on_all_basis_triples(self, n):
        basis = [elem for _, elem in algebra_basis(n)]
        size = len(basis)
        inner = [
            [semidirect_bracket(basis[i], basis[j]) for j in range(size)]
            for i in range(size)
        ]
        for i in range(size):
            for j in range(size):
                for k in range(size):
                    total = (
                        semidirect_bracket(basis[i], inner[j][k])
                        + semidirect_bracket(basis[j], inner[k][i])
                        + semidirect_bracket(basis[k], inner[i][j])
                    )
                    assert total.is_zero()

    def test_real_form_membership(self):
        def is_real_form(x):
            return (sigma(x.A) == x.A and x.t == x.t.conj()
                    and all(a.conj() == b for a, b in zip(x.vE, x.vEbar)))

        n = 2
        assert is_real_form(c_element(n))
        half = QI(Fraction(1, 2))
        e_0 = (
            SemiDirectElement.e_translation(n, 0)
            + SemiDirectElement.ebar_translation(n, 0)
        ).scale(half)
        assert is_real_form(e_0)
        assert not is_real_form(SemiDirectElement.e_translation(n, 0))
        assert not is_real_form(u_element(n, 1))


class TestGlDecompose:
    def test_reconstruction_random(self):
        rng = random.Random(11)
        for n in (1, 2, 3, 4):
            M = random_qi_matrix(n, rng)
            lam, m, s, kappa = gl_decompose(M)
            rebuilt = MatGl.identity(n).scale(QI_I).scale(lam)
            for a in range(1, n):
                rebuilt = rebuilt + MatGl.unit(n, 0, a).scale(m[a - 1])
                rebuilt = rebuilt + MatGl.unit(n, a, 0).scale(s[a - 1])
            for a in range(1, n):
                for b in range(1, n):
                    B = MatGl.unit(n, 0, a).commutator(MatGl.unit(n, b, 0))
                    rebuilt = rebuilt + B.scale(kappa[a - 1][b - 1])
            assert rebuilt == M

    def test_commutator_matrix_has_unit_coefficient(self):
        n = 3
        for a in range(1, n):
            for b in range(1, n):
                B = MatGl.unit(n, 0, a).commutator(sigma(MatGl.unit(n, 0, b)))
                lam, m, s, kappa = gl_decompose(B)
                assert lam.is_zero()
                assert all(x.is_zero() for x in m)
                assert all(x.is_zero() for x in s)
                for aa in range(1, n):
                    for bb in range(1, n):
                        want = QI(1) if (aa, bb) == (a, b) else QI(0)
                        assert kappa[aa - 1][bb - 1] == want


class TestAlpha:
    def test_basis_images(self):
        params = ModelParams(n=3, c=0.0)
        assert alpha(c_element(3), params) == generator(GeneratorName.YC(), params)
        assert alpha(u_element(3, 2), params) == generator(
            GeneratorName.Ya(2), params
        )
        assert alpha(us_element(3, 1), params) == generator(
            GeneratorName.YaBar(1), params
        )
        for k in range(3):
            assert alpha(
                SemiDirectElement.e_translation(3, k), params
            ) == generator(GeneratorName.Vk(k), params)
        assert alpha(SemiDirectElement.center(3), params) == generator(
            GeneratorName.T(), params
        )

    def test_commutator_image_is_minus_shear_commutator(self):
        params = ModelParams(n=3, c=0.0)
        for a in range(1, 3):
            for b in range(1, 3):
                B = semidirect_bracket(u_element(3, a), us_element(3, b))
                want = -generator(GeneratorName.CommYaYbBar(a, b), params)
                assert alpha(B, params) == want

    def test_linearity(self):
        params = ModelParams(n=2, c=0.0)
        x = c_element(2) + u_element(2, 1).scale(QI(3))
        y = SemiDirectElement.e_translation(2, 1) + SemiDirectElement.center(
            2, Fraction(1, 2)
        )
        lhs = alpha(x + y.scale(QI(0, 2)), params)
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
        x = SemiDirectElement.zero(n)
        want = PolyVectorField.zero(n)
        for q, (_, elem), image in zip(coeffs, algebra_basis(n),
                                       liealg._alpha_images(n)):
            x = x + elem.scale(q)
            want = want + image.scale(q)
        assert alpha(x, params) == want
        assert alpha(-x, params) == -want
        assert -x == x.scale(-1)


class TestStructureCheck:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_zero_mismatches(self, n):
        report = structure_check(ModelParams(n=n, c=0.0))
        basis_size = len(algebra_basis(n))
        assert report.pairs_checked == basis_size * basis_size
        assert report.mismatches == ()
        assert report.ok

    def test_fault_injection_detected(self, monkeypatch):
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
        assert CenterVector.zero().is_zero()


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
            assert f_generator(n, positive_c=False).is_zero()
            assert fprime_generator(n, positive_c=False).is_zero()

    def test_fprime_small_n_rejected(self):
        with pytest.raises(ValueError):
            fprime_generator(1)
