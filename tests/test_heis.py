"""Tests for the Heisenberg group law, the square-root lattices with exact
membership, the form-preserving linear action, and the unipotent lattice
stabilizer."""

import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from oneloop import exact, heis, quatarith
from oneloop.cli import main
from oneloop.exact import QI, Rad, RadC
from oneloop.heis import (
    HeisLatticePoint,
    HeisPoint,
    LatticeDescription,
    form_defect,
    heis_identity,
    heis_inverse,
    heis_mul,
    hermitian,
    lattice_Ld,
    lattice_coordinates,
    su_action,
    unipotent_witness,
)
from oneloop.params import signature
from oneloop.quatarith import QuatInt, QuatParams, embed_matrix, enumerate_norm_one, gamma2_basis
from test_exact import coefficients


def random_qi_vector(n, rng):
    return tuple(
        QI(
            Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)),
            Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)),
        )
        for _ in range(n)
    )


def random_heis_point(n, rng):
    return HeisPoint(
        random_qi_vector(n, rng),
        Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)),
    )


def quadc(d, p_re=0, q_re=0, p_im=0, q_im=0):
    return RadC(Rad(d, 1, p_re, q_re), Rad(d, 1, p_im, q_im))


def mat_vec(g, v):
    n = len(v)
    out = []
    for j in range(n):
        acc = g[j][0] * v[0]
        for k in range(1, n):
            acc = acc + g[j][k] * v[k]
        out.append(acc)
    return tuple(out)


def mat_mul(x, y):
    n = len(x)
    return tuple(
        tuple(
            sum_entries([x[j][m] * y[m][k] for m in range(n)]) for k in range(n)
        )
        for j in range(n)
    )


def sum_entries(entries):
    acc = entries[0]
    for e in entries[1:]:
        acc = acc + e
    return acc


class TestHermForm:
    """The Hermitian form: ``hermitian`` and its signs ``params.signature``."""

    def test_signature_signs(self):
        assert signature(1) == (1,)
        assert signature(3) == (1, -1, -1)

    def test_orientation_convention(self):
        # The documented convention: omega(e1, i*e1) is positive.
        e1 = (QI(1), QI(0))
        ie1 = (QI(0, 1), QI(0))
        assert hermitian(e1, ie1).im == 1

    def test_second_slot_negative(self):
        e2 = (QI(0), QI(1))
        assert hermitian(e2, e2) == QI(-1)
        assert hermitian(e2, (QI(0), QI(0, 1))).im == -1

    def test_omega_vanishes_on_diagonal(self):
        rng = random.Random(7)
        for _ in range(6):
            v = random_qi_vector(3, rng)
            assert hermitian(v, v).im == 0

    def test_hermitian_symmetry(self):
        rng = random.Random(8)
        for _ in range(6):
            v = random_qi_vector(3, rng)
            w = random_qi_vector(3, rng)
            assert hermitian(v, w) == hermitian(w, v).conj()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hermitian((QI(1),), (QI(1), QI(0)))

    def test_dimension_at_least_one(self):
        with pytest.raises(ValueError):
            hermitian((), ())
        with pytest.raises(ValueError):
            form_defect(())

    @pytest.mark.parametrize("g, shape", [
        (((QI(1), QI(0)),), "1 x 2"),
        (((QI(1),), (QI(0), QI(1))), "2 x 1/2"),
    ], ids=["1x2", "ragged"])
    def test_non_square_matrix_rejected(self, g, shape):
        with pytest.raises(ValueError, match=f"square matrix, got {shape}$"):
            form_defect(g)


class TestHeisMul:
    def test_identity_both_sides(self):
        rng = random.Random(11)
        e = heis_identity(2)
        for _ in range(4):
            p = random_heis_point(2, rng)
            for prod in (heis_mul(e, p), heis_mul(p, e)):
                assert prod.v == p.v
                assert prod.t == p.t

    def test_inverse_both_sides(self):
        rng = random.Random(12)
        for _ in range(4):
            p = random_heis_point(3, rng)
            for prod in (heis_mul(p, heis_inverse(p)), heis_mul(heis_inverse(p), p)):
                assert not any(prod.v)
                assert prod.t == 0

    def test_associativity_exact_on_seeded_rational_points(self):
        rng = random.Random(13)
        for _ in range(8):
            x = random_heis_point(2, rng)
            y = random_heis_point(2, rng)
            z = random_heis_point(2, rng)
            lhs = heis_mul(heis_mul(x, y), z)
            rhs = heis_mul(x, heis_mul(y, z))
            assert lhs.v == rhs.v
            assert lhs.t == rhs.t

    def test_commutator_word_lands_in_center(self):
        # (v,0)(v',0)(-(v+v'),0) has trivial vector part and center value
        # omega(v,v')/2.
        rng = random.Random(14)
        for _ in range(5):
            v = random_qi_vector(2, rng)
            w = random_qi_vector(2, rng)
            word = heis_mul(
                heis_mul(HeisPoint(v, Fraction(0)), HeisPoint(w, Fraction(0))),
                HeisPoint(tuple(-(a + b) for a, b in zip(v, w)), Fraction(0)),
            )
            assert not any(word.v)
            assert word.t == Fraction(hermitian(v, w).im, 2)

    def test_radical_center_values_stay_exact(self):
        d = 5
        x = HeisPoint((quadc(d, 1), quadc(d, 0, 1, 0, 1)), Fraction(1, 3))
        y = HeisPoint((quadc(d, 0, 0, 0, 1), quadc(d, 2)), Fraction(1, 6))
        prod = heis_mul(x, y)
        assert isinstance(prod.t, Rad)
        # t1 + t2 = 1/2; the twist is half of Im h(v, v'), exact in Q(sqrt 5).
        half_omega = hermitian(x.v, y.v).im * Fraction(1, 2)
        assert prod.t == Rad(d, 1, Fraction(1, 2)) + half_omega

    def test_mixed_rational_and_radical_centers_add_exactly(self):
        # An integer center plus a radical one lifts into the radical ring.
        d = 6
        x = HeisPoint((quadc(d, 1), quadc(d)), 2)
        y = HeisPoint((quadc(d, 0, 0, 0, 1), quadc(d)), Rad(d, 1, 0, 1))
        prod = heis_mul(x, y)
        # omega(e1, sqrt(6)*i*e1) = sqrt(6), so the twist is sqrt(6)/2.
        assert prod.t == Rad(d, 1, 2, Fraction(3, 2))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            heis_mul(heis_identity(2), heis_identity(3))

    def test_gaussian_and_radical_points_do_not_mix(self):
        # A QI entry enters RadC only through RadC.coerce, which
        # lattice_coordinates and su_action call; the group law lifts nothing.
        x = HeisPoint((QI(1), QI(0, 1)), Fraction(0))
        y = HeisPoint((quadc(5, 1), quadc(5, 0, 1)), Fraction(0))
        with pytest.raises(TypeError, match="exact rational required"):
            heis_mul(x, y)
        with pytest.raises(ValueError, match="exact value over Rad"):
            heis_mul(y, x)


class TestHeisPoint:
    @pytest.mark.parametrize(
        "v, t",
        [
            ((0.5 + 1.0j, 0.25j), Fraction(0)),
            ((QI(1), 0.75), Fraction(0)),
            ((QI(1), QI(0)), 0.125),
            ((QI(1), QI(0)), 1j),
            ((quadc(6, 1), quadc(6)), 0.5),
            ((1, Fraction(1, 2)), Fraction(0)),
        ],
        ids=["complex-vector", "float-entry", "float-center", "complex-center",
             "radical-vector-float-center", "real-rational-entries"],
    )
    def test_inexact_or_untyped_coordinates_rejected(self, v, t):
        with pytest.raises(ValueError, match="exact"):
            HeisPoint(v, t)


class TestLatticeLd:
    def test_basis_labels_and_center_scale(self):
        lat = lattice_Ld(2, 6)
        # The basis e1, e2, sqrt(6)*f1, sqrt(6)*f2, with f_j = i*e_j.
        zero, one = RadC(Rad(6, 1)), RadC(Rad(6, 1, 1))
        root = RadC(Rad(6, 1), Rad(6, 1, 0, 1))
        assert lat.basis == (
            (one, zero), (zero, one), (root, zero), (zero, root),
        )
        assert lat.rank == 4
        assert lat.r == Rad(6, 1, 0, 1)
        assert lat.r * Fraction(1, 2) == Rad(6, 1, 0, Fraction(1, 2))

    def test_omega_table_values(self):
        lat = lattice_Ld(2, 6)
        table = lat.omega_table()
        # omega(e_j, sqrt(d) f_j) = +sqrt(d) in the positive slot and
        # -sqrt(d) in the negative ones; every other basis pair is zero.
        assert table[0][2] == Rad(6, 1, 0, 1)
        assert table[1][3] == Rad(6, 1, 0, -1)
        nonzero = {(0, 2), (2, 0), (1, 3), (3, 1)}
        for i in range(4):
            for j in range(4):
                if (i, j) not in nonzero:
                    assert not table[i][j]

    def test_omega_values_generate_r_lattice(self):
        from oneloop.exact import integer_solution

        for n, d in ((2, 5), (3, 1), (2, 2)):
            lat = lattice_Ld(n, d)
            r_col = [[comp] for comp in coefficients(lat.r)]
            for row in lat.omega_table():
                for val in row:
                    # Every omega value is an integer multiple of r.
                    assert integer_solution(r_col, list(coefficients(val))) is not None

    def test_integer_ring_stability(self):
        # Multiplication by i*sqrt(d) maps every generator into the lattice.
        for n, d in ((2, 6), (2, 5), (3, 2)):
            lat = lattice_Ld(n, d)
            i_root = quadc(d, 0, 0, 0, 1)
            for vec in lat.basis:
                scaled = HeisPoint(tuple(i_root * z for z in vec), Fraction(0))
                assert lattice_coordinates(lat, scaled) is not None

    def test_conjugation_invariance(self):
        for n, d in ((2, 6), (3, 5)):
            lat = lattice_Ld(n, d)
            for vec in lat.basis:
                conj = HeisPoint(tuple(z.conj() for z in vec), Fraction(0))
                assert lattice_coordinates(lat, conj) is not None

    @pytest.mark.parametrize("d", [3, 7, 11, 15])
    def test_three_mod_four_rejected(self, d):
        with pytest.raises(ValueError, match="d % 4"):
            lattice_Ld(2, d)

    @pytest.mark.parametrize("d", [4, 8, 9, 12, 18])
    def test_non_squarefree_rejected(self, d):
        with pytest.raises(ValueError):
            lattice_Ld(2, d)

    @pytest.mark.parametrize("d", [1, 2, 5, 6, 10, 13])
    def test_valid_d_accepted(self, d):
        assert lattice_Ld(2, d).r == Rad(d, 1, 0, 1)

    def test_positive_dimension_required(self):
        with pytest.raises(ValueError):
            lattice_Ld(0, 5)


ONE = quadc(5, 1)
ROOT5 = Rad(5, 1, 0, 1)


class TestLatticeDescriptionForm:
    """Each basis vector, and r, is a rational multiple of one numerator of
    one entry, and no two vectors share that slot; anything else is refused
    when the lattice is built."""

    @pytest.mark.parametrize("n, basis, r, message", [
        (0, (), ROOT5, "a lattice needs n >= 1 and a nonempty basis, got n = 0 and 0 "),
        (1, (), ROOT5, "a lattice needs n >= 1 and a nonempty basis, got n = 1 and 0 "),
        (2, ((ONE, quadc(5)), (ONE,)), ROOT5, "basis vector 1 has 1 entries, not n = 2"),
        (1, ((ONE,), (quadc(5),)), ROOT5, "basis vector 1 has 0 nonzero numerators"),
        (1, ((quadc(5, 1, 1),),), ROOT5, "basis vector 0 has 2 nonzero numerators"),
        (2, ((ONE, ONE),), ROOT5, "basis vector 0 has 2 nonzero numerators"),
        (1, ((quadc(5, 0, 0, 1),), (ONE * 2,), (quadc(5, 0, 0, 3),)), ROOT5,
         "basis vectors 0 and 2 share numerator 4 of entry 0"),
        (1, ((ONE,),), Rad(5, 1, 1, 1), "r has 2 nonzero numerators"),
        (1, ((ONE,),), Rad(5, 1), "r has 0 nonzero numerators"),
    ], ids=["n0", "empty", "length", "zero-vector", "two-numerators", "two-entries",
            "shared-slot", "r-two-numerators", "r-zero"])
    def test_refused_at_construction(self, n, basis, r, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            LatticeDescription(n, basis, r)

    @pytest.mark.parametrize("basis, r, message", [
        (((0.5,),), 1, "basis vector 0 entry 0 must be an exact QI, Rad or RadC value, got float"),
        (((1,),), 1, "basis vector 0 entry 0 must be an exact QI, Rad or RadC value, got int"),
        (((QI(1), QI(0)), (QI(0), 0.25)), 1, "basis vector 1 entry 1: exact rational required, "
                                              "got float"),
        (((QI(1), QI(0)),), 0.5, "r: exact rational required, got float"),
        (((ONE, quadc(5)), (quadc(5), 0.5)), ROOT5, r"basis vector 1 entry 1: exact value over "
                                                     r"Rad\[5,1\] required; got float"),
        (((ONE, quadc(5)),), 0.5, r"r: exact value over Rad\[5,1\] required; got float"),
    ], ids=["float-first", "int-first", "float-later-QI", "float-r-QI", "float-later-RadC",
            "float-r-RadC"])
    def test_inexact_entries_are_named(self, basis, r, message):
        # The first entry fixes the ring that every other entry, and r,
        # enters; a value with no exact image there is named.
        with pytest.raises(ValueError, match=f"^{message}$"):
            LatticeDescription(len(basis[0]), basis, r)

    def test_a_point_outside_the_ring_is_named(self):
        # Membership enters the point through the same door.
        lat = LatticeDescription(1, ((QI(1),), (QI(0, 1),)), 1)
        with pytest.raises(ValueError, match="^point entry 0: exact rational required, got RadC$"):
            lattice_coordinates(lat, HeisPoint((quadc(5, 1),), Fraction(0)))
        with pytest.raises(ValueError, match="^center: exact rational required, got Rad$"):
            lattice_coordinates(lat, HeisPoint((QI(1),), Rad(5, 1, 0, 1)))

    def test_mixed_rings_refused(self):
        with pytest.raises(ValueError, match="mixed"):
            LatticeDescription(1, ((ONE,), (quadc(6, 0, 1),)), ROOT5)
        with pytest.raises(ValueError, match="mixed"):
            LatticeDescription(1, ((ONE,),), Rad(6, 1, 0, 1))

    def test_every_built_lattice_has_one_slot_per_vector(self):
        # Folded rings included: a = 1, b = 1 and d = 1.
        for a in range(1, 13):
            for b in range(1, 13):
                assert gamma2_basis(QuatParams(a, b)).rank == 4
        for n in range(1, 5):
            for d in (1, 2, 5, 6, 10, 13):
                assert lattice_Ld(n, d).rank == 2 * n

    def test_rational_multiples_of_a_slot(self):
        # Basis 2 and (3/2)*sqrt(5)*i in C^1, so omega takes the value
        # 3*sqrt(5) = r: slots whose numerator or denominator is not 1, and
        # negative coordinates.
        lat = LatticeDescription(1, ((ONE * 2,), (quadc(5, 0, 0, 0, Fraction(3, 2)),)),
                                 Rad(5, 1, 0, 3))
        assert lat.omega_table()[0][1] == lat.r

        def point(re, root_im, t):
            return HeisPoint((quadc(5, re, 0, 0, root_im),), Rad(5, 1, 0, t))

        assert lattice_coordinates(lat, point(-4, Fraction(9, 2), Fraction(-9, 2))) == \
            HeisLatticePoint((-2, 3), -3)
        assert lattice_coordinates(lat, point(3, 0, 0)) is None
        assert lattice_coordinates(lat, point(2, 1, 0)) is None
        assert lattice_coordinates(lat, point(2, 0, 1)) is None
        # A nonzero numerator outside the slots: the rational imaginary part.
        off = HeisPoint((quadc(5, 2, 0, 1),), Fraction(0))
        assert lattice_coordinates(lat, off) is None


class TestLatticeMembership:
    def test_generators_are_members(self):
        lat = lattice_Ld(2, 6)
        for i, vec in enumerate(lat.basis):
            coords = lattice_coordinates(lat, HeisPoint(vec, Fraction(0)))
            expected = tuple(1 if j == i else 0 for j in range(4))
            assert coords == HeisLatticePoint(expected, 0)

    def test_center_membership_is_half_r(self):
        lat = lattice_Ld(2, 6)
        zero_v = (quadc(6), quadc(6))
        half = HeisPoint(zero_v, Rad(6, 1, 0, Fraction(1, 2)))
        quarter = HeisPoint(zero_v, Rad(6, 1, 0, Fraction(1, 4)))
        assert lattice_coordinates(lat, half) is not None
        assert lattice_coordinates(lat, quarter) is None
        assert lattice_coordinates(lat, half) == HeisLatticePoint((0, 0, 0, 0), 1)

    def test_integer_combination_member(self):
        lat = lattice_Ld(2, 6)
        point = HeisPoint((quadc(6, 1), quadc(6, 0, 0, 0, 1)), Fraction(0))
        assert lattice_coordinates(lat, point) == HeisLatticePoint((1, 0, 0, 1), 0)

    def test_rational_non_member(self):
        lat = lattice_Ld(2, 6)
        point = HeisPoint((quadc(6, Fraction(1, 2)), quadc(6)), Fraction(0))
        assert lattice_coordinates(lat, point) is None
        # A center value off the half-integer grid also fails.
        off_center = HeisPoint((quadc(6), quadc(6)), Fraction(1))
        assert lattice_coordinates(lat, off_center) is None

    def test_lattice_command_coerces_no_entry(self, monkeypatch, capsys):
        # Point entries already in the lattice's ring, and int or Fraction
        # centers, are read without a coercion: an in-process `lattice` run
        # makes no ring coerce call under lattice_coordinates, whose every
        # call still comes from quatarith, once per Gamma_2 basis vector.
        inside = heis.lattice_coordinates.__code__
        coerced, calls = [], [0]

        def coerce(self, x, original=exact._Radical.coerce):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not inside:
                frame = frame.f_back
            if frame is not None:
                coerced.append(x)
            return original(self, x)

        def counting(lattice, point, original=quatarith.lattice_coordinates):
            calls[0] += 1
            return original(lattice, point)

        monkeypatch.setattr(exact._Radical, "coerce", coerce)
        monkeypatch.setattr(quatarith, "lattice_coordinates", counting)
        assert main(["lattice", "--c-exact", "1:2:3", "--bound", "5"]) == 0
        capsys.readouterr()
        assert calls[0] == 456
        assert coerced == []

    def test_gaussian_rational_input_is_lifted(self):
        lat = lattice_Ld(2, 5)
        point = HeisPoint((QI(1), QI(2)), Fraction(0))
        assert lattice_coordinates(lat, point) == HeisLatticePoint((1, 2, 0, 0), 0)

    def test_float_input_rejected(self):
        lat = lattice_Ld(2, 6)
        with pytest.raises(ValueError, match="exact"):
            lattice_coordinates(lat, HeisPoint((0.5 + 0j, 0j), 0.0))
        with pytest.raises(ValueError, match="exact"):
            lattice_coordinates(lat, HeisPoint((quadc(6, 1), quadc(6)), 0.5))

    def test_mixed_radical_rejected(self):
        lat = lattice_Ld(2, 6)
        with pytest.raises(ValueError, match="mixed"):
            lattice_coordinates(lat, HeisPoint((quadc(5, 1), quadc(5)), Fraction(0)))

    def test_zero_center_from_another_ring_rejected(self):
        # The center is coerced into the lattice's ring before a zero center
        # is read as center 0.
        lat = lattice_Ld(2, 6)
        with pytest.raises(ValueError, match="mixed"):
            lattice_coordinates(lat, HeisPoint((quadc(6, 1), quadc(6)), Rad(5, 1)))
        with pytest.raises(ValueError, match="mixed"):
            lattice_coordinates(lat, HeisPoint((quadc(6, 1), quadc(6)), Rad(6, 2)))

    def test_zero_center_in_the_lattice_ring(self):
        lat = lattice_Ld(2, 6)
        point = HeisPoint((quadc(6, 1), quadc(6, 0, 0, 0, 1)), Rad(6, 1))
        assert lattice_coordinates(lat, point) == HeisLatticePoint((1, 0, 0, 1), 0)

    def test_lattice_point_round_trip(self):
        rng = random.Random(21)
        lat = lattice_Ld(3, 2)
        for _ in range(6):
            original = HeisLatticePoint(
                tuple(rng.randrange(-4, 5) for _ in range(6)),
                rng.randrange(-4, 5),
            )
            recovered = lattice_coordinates(lat, original.embed(lat))
            assert recovered == original

    def test_lattice_point_validation(self):
        with pytest.raises(ValueError):
            HeisLatticePoint((1, Fraction(1, 2)), 0)
        with pytest.raises(ValueError):
            HeisLatticePoint((1, 0), Fraction(1, 2))

    def test_bools_are_not_integers(self):
        with pytest.raises(ValueError, match="lattice coordinates"):
            HeisLatticePoint((True, 0, 0, 0), 0)
        with pytest.raises(ValueError, match="center coordinate"):
            HeisLatticePoint((1, 0, 0, 0), False)
        with pytest.raises(ValueError, match="^d must be a positive integer$"):
            lattice_Ld(2, True)


class TestSuAction:
    def test_identity_matrices_fix_points(self):
        lat = lattice_Ld(2, 6)
        p = HeisPoint((quadc(6, 1), quadc(6, 0, 1)), Rad(6, 1, 0, Fraction(1, 2)))
        identity_exact = (
            (quadc(6, 1), quadc(6)),
            (quadc(6), quadc(6, 1)),
        )
        out = su_action(identity_exact, p)
        assert out.v == p.v and out.t == p.t

    def test_float_boost_preserves_omega(self):
        # The boost with cosh t = 5/4, sinh t = 3/4 is exact over QI, so
        # omega is preserved exactly (the float boost path is gone).
        g = (
            (QI(Fraction(5, 4)), QI(Fraction(3, 4))),
            (QI(Fraction(3, 4)), QI(Fraction(5, 4))),
        )
        rng = random.Random(31)
        for _ in range(5):
            v = random_qi_vector(2, rng)
            w = random_qi_vector(2, rng)
            gv = su_action(g, HeisPoint(v, Fraction(0))).v
            gw = su_action(g, HeisPoint(w, Fraction(0))).v
            assert hermitian(gv, gw).im == hermitian(v, w).im

    def test_non_preserving_float_matrix_rejected(self):
        # Any non-exact matrix, form-preserving or not, gets one error.
        p = HeisPoint((QI(1), QI(0)), Fraction(0))
        for g in (
            np.eye(2),
            2.0 * np.eye(2),
            [[1.0, 0.0], [0.0, 1.0]],
            ((QI(1), 0.0), (QI(0), QI(1))),
        ):
            with pytest.raises(ValueError, match="needs an exact matrix"):
                su_action(g, p)

    def test_non_preserving_exact_matrix_rejected(self):
        doubled = (
            (quadc(6, 2), quadc(6)),
            (quadc(6), quadc(6, 2)),
        )
        with pytest.raises(ValueError, match="preserve"):
            su_action(doubled, HeisPoint((quadc(6, 1), quadc(6)), Fraction(0)))

    def test_exact_quaternion_matrix_maps_lattice_to_lattice(self):
        # A norm-one integral quaternion embeds as an exact form-preserving
        # matrix; acting on quaternion-lattice points must land back in the
        # lattice with the center coordinate untouched.
        from oneloop.quatarith import gamma2_basis

        params = QuatParams(2, 3)
        g = embed_matrix(QuatInt(3, 2, 0, 0, params))
        lat = gamma2_basis(params)
        for coords in ((1, 0, 0, 0), (0, 1, -2, 0), (2, -1, 1, 3)):
            p = HeisLatticePoint(coords, 3).embed(lat)
            image = su_action(g, p)
            assert image.t == p.t
            assert lattice_coordinates(lat, image) is not None

    def test_exact_gaussian_matrix_acts_exactly(self):
        # diag(i, 1) preserves h with QI entries; the action must stay exact.
        g = ((QI(0, 1), QI(0)), (QI(0), QI(1)))
        p = HeisPoint((QI(1, 2), QI(0, 1)), Fraction(1, 2))
        image = su_action(g, p)
        assert image.v == (QI(-2, 1), QI(0, 1))
        assert image.t == p.t

    @pytest.mark.parametrize(
        "identity",
        [
            ((QI(1), QI(0)), (QI(0), QI(1))),
            ((quadc(2, 1), quadc(2)), (quadc(2), quadc(2, 1))),
        ],
        ids=["QI", "RadC"],
    )
    def test_exact_matrix_rejects_float_point(self, identity):
        # A float point cannot be built, so no exact ring ever sees one.
        with pytest.raises(ValueError, match="exact coordinates"):
            su_action(identity, HeisPoint((0.5 + 0j, 0j), 0.0))

    def test_size_mismatch_rejected(self):
        identity3 = tuple(
            tuple(QI(1 if j == k else 0) for k in range(3)) for j in range(3)
        )
        with pytest.raises(ValueError, match="size"):
            su_action(identity3, HeisPoint((QI(1), QI(0)), Fraction(0)))


def full_scan_defect(g):
    """First (j, k) in row-major order over all n^2 entries at which
    g^H eta g differs from eta = diag(1, -1, ..., -1), each entry summed
    term by term."""
    n = len(g)
    zero = g[0][0].coerce(0)
    for j in range(n):
        for k in range(n):
            value = sum_entries([g[m][j].conj() * g[m][k] * (1 if m == 0 else -1)
                                 for m in range(n)])
            expected = zero if j != k else zero + (1 if j == 0 else -1)
            if value != expected:
                return j, k
    return None


def embedded(n, rows, cols, block, one, zero):
    """The n x n identity with the given block written into (rows, cols)."""
    out = [[one if j == k else zero for k in range(n)] for j in range(n)]
    for j, row in zip(rows, block):
        for k, x in zip(cols, row):
            out[j][k] = one * x
    return tuple(map(tuple, out))


def qi_form_preservers(n):
    """Exact QI matrices preserving diag(1, -1, ..., -1): a boost, a rotation
    of two negative directions, unit phases and a swap."""
    one, zero = QI(1), QI(0)
    f = Fraction
    out = [embedded(n, (0, m), (0, m), ((f(5, 4), f(3, 4)), (f(3, 4), f(5, 4))), one, zero)
           for m in range(1, n)]
    out += [embedded(n, (m,), (m,), ((u,),), one, zero)
            for m in range(n) for u in (QI(-1), QI(0, 1))]
    if n > 2:
        out.append(embedded(n, (1, 2), (1, 2), ((f(3, 5), f(-4, 5)), (f(4, 5), f(3, 5))),
                            one, zero))
        out.append(embedded(n, (1, 2), (1, 2), ((0, 1), (1, 0)), one, zero))
    return out


def single_defect(n, j, k, one, zero):
    """A matrix M whose M^H eta M differs from eta at (j, k) and (k, j) only:
    column k is a unit-length vector that is not orthogonal to column j."""
    f = Fraction
    if j == 0:
        return embedded(n, (0, k), (0, k), ((1, f(3, 4)), (0, f(5, 4))), one, zero)
    return embedded(n, (j, k), (j, k), ((1, f(3, 5)), (0, f(4, 5))), one, zero)


class TestFormDefect:
    """``form_defect`` visits only j <= k; it must return the entry that a
    row-major scan over all n^2 entries returns."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", [61, 62, 63])
    def test_gaussian_rational_matrices(self, n, seed):
        rng = random.Random(seed)
        one, zero = QI(1), QI(0)
        preservers = qi_form_preservers(n)

        def preserver():
            g = rng.choice(preservers)
            for _ in range(3):
                g = mat_mul(g, rng.choice(preservers))
            return g

        cases = [(preserver(), None) for _ in range(6)]
        cases += [(mat_mul(preserver(), single_defect(n, j, k, one, zero)), (j, k))
                  for j in range(n) for k in range(j + 1, n)]
        cases += [(mat_mul(preserver(), embedded(n, (m,), (m,), ((2,),), one, zero)), (m, m))
                  for m in range(n)]
        cases += [(tuple(random_qi_vector(n, rng) for _ in range(n)), "any")
                  for _ in range(6)]
        for g, expected in cases:
            found = form_defect(g)
            assert found == full_scan_defect(g)
            if expected != "any":
                assert found == expected

    @pytest.mark.parametrize("seed", [71, 72])
    def test_radical_matrices(self, seed):
        rng = random.Random(seed)
        preservers = [embed_matrix(q)
                      for q in rng.sample(enumerate_norm_one(QuatParams(2, 3), 3), 6)]
        one, zero = preservers[0][0][0].coerce(1), preservers[0][0][0].coerce(0)
        cases = [(g, None) for g in preservers]
        cases += [(mat_mul(g, single_defect(2, 0, 1, one, zero)), (0, 1)) for g in preservers]

        def entry():
            parts = [Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(8)]
            return RadC(Rad(2, 3, *parts[:4]), Rad(2, 3, *parts[4:]))

        cases += [(((entry(), entry()), (entry(), entry())), "any") for _ in range(6)]
        for g, expected in cases:
            found = form_defect(g)
            assert found == full_scan_defect(g)
            if expected != "any":
                assert found == expected


class TestUnipotentWitness:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("d", [1, 2, 5, 6])
    def test_all_postconditions(self, n, d):
        A, g = unipotent_witness(n, d)
        zero = quadc(d)
        one = quadc(d, 1)

        # Nonzero and square-zero, so exp(A) = 1 + A is exact and unipotent.
        assert any(A[j][k] for j in range(n) for k in range(n))
        square = mat_mul(A, A)
        assert not any(square[j][k] for j in range(n) for k in range(n))
        assert g != tuple(
            tuple(one if j == k else zero for k in range(n)) for j in range(n)
        )

        # Skew-Hermitian: h(Ax, y) + h(x, Ay) = 0 exactly on basis pairs.
        basis_vectors = [
            tuple(one if k == j else zero for k in range(n)) for j in range(n)
        ]
        for x in basis_vectors:
            for y in basis_vectors:
                lhs = hermitian(mat_vec(A, x), y)
                rhs = hermitian(x, mat_vec(A, y))
                assert not (lhs + rhs)

        # A kills the isotropic pair it was built from.
        v = tuple(one if j < 2 else zero for j in range(n))
        w = tuple(quadc(d, 0, 0, 0, 1) * z for z in v)
        assert not any(mat_vec(A, v))
        assert not any(mat_vec(A, w))

        # g and its inverse 1 - A stabilize the lattice, generator by
        # generator, with exact integer coordinates.
        lat = lattice_Ld(n, d)
        g_inv = tuple(
            tuple((one if j == k else zero) - A[j][k] for k in range(n))
            for j in range(n)
        )
        for vec in lat.basis:
            for mat in (g, g_inv):
                image = HeisPoint(mat_vec(mat, vec), Fraction(0))
                assert lattice_coordinates(lat, image) is not None

        # g is accepted by the form-preservation gate of the group action.
        moved = su_action(g, HeisPoint(v, Fraction(0)))
        assert len(moved.v) == n

    def test_inverse_relation(self):
        A, g = unipotent_witness(2, 5)
        one = quadc(5, 1)
        zero = quadc(5)
        g_inv = tuple(
            tuple((one if j == k else zero) - A[j][k] for k in range(2))
            for j in range(2)
        )
        prod = mat_mul(g, g_inv)
        assert prod[0][0] == one and prod[1][1] == one
        assert not prod[0][1] and not prod[1][0]

    def test_dimension_and_d_validation(self):
        with pytest.raises(ValueError):
            unipotent_witness(1, 5)
        with pytest.raises(ValueError):
            unipotent_witness(2, 3)
