"""Tests for quaternion-algebra arithmetic: the multiplication table, the
reduced norm, the norm-one enumeration, the exact matrix realization with
its indefinite-unitary check, the stabilized Heisenberg lattice, and the
compatibility of the metric's deformation parameter with that lattice."""

import math
import random
from fractions import Fraction
from itertools import product
from operator import add

import pytest

from oneloop import quatarith
from oneloop.exact import Rad, RadC, integer_solution
from oneloop.heis import HeisLatticePoint, HeisPoint, lattice_coordinates, lattice_Ld
from oneloop.params import c_compatible
from oneloop.quatarith import (
    QuatInt,
    QuatParams,
    embed_matrix,
    enumerate_norm_one,
    gamma2_basis,
    is_nonresidue,
    norm_one_rows,
    preserves_gamma2,
    quat_mul,
    reduced_norm,
    su11_check,
)
from test_exact import coefficients

P23 = QuatParams(2, 3)
P37 = QuatParams(3, 7)
P25 = QuatParams(2, 5)


def quat(q0, q1, q2, q3, params=P23):
    return QuatInt(q0, q1, q2, q3, params)


def random_quat(rng, params):
    return QuatInt(*(rng.randrange(-5, 6) for _ in range(4)), params)


def det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def mat_mul2(x, y):
    return tuple(
        tuple(x[j][0] * y[0][k] + x[j][1] * y[1][k] for k in range(2))
        for j in range(2)
    )


def rad(params, r1=0, ra=0, rb=0, rab=0):
    return Rad(params.a, params.b, r1, ra, rb, rab)


def search_norm_one(params, bound):
    """Norm-one quaternions by solving a*b*q3^2 = 1 - q0^2 + a*q1^2 + b*q2^2.

    An independent route to the (2B+1)^4 scan: one integer square root per
    (q0, q1, q2), emitting -q3 before +q3, so lexicographic order holds.
    """
    a, b = params.a, params.b
    rng = range(-bound, bound + 1)
    found = []
    for q0, q1, q2 in product(rng, rng, rng):
        rest = 1 - q0 * q0 + a * q1 * q1 + b * q2 * q2
        if rest < 0 or rest % (a * b):
            continue
        r = math.isqrt(rest // (a * b))
        if r * r == rest // (a * b) and r <= bound:
            found += [QuatInt(q0, q1, q2, q3, params) for q3 in sorted({-r, r})]
    return found


def solve_uncached(lattice, p):
    """Lattice coordinates from a fresh Fraction solve of the full system."""
    template = lattice.basis[0][0]
    lifted = [template.coerce(z) for z in p.v]
    ncomp = len(coefficients(template))
    matrix, rhs = [], []
    for j in range(lattice.n):
        for comp in range(ncomp):
            matrix.append([coefficients(vec[j])[comp] for vec in lattice.basis])
            rhs.append(coefficients(lifted[j])[comp])
    coords = integer_solution(matrix, rhs)
    double_t = lattice.r.coerce(p.t) * 2
    center = integer_solution([[rc] for rc in coefficients(lattice.r)],
                              list(coefficients(double_t)))
    if coords is None or center is None:
        return None
    return HeisLatticePoint(tuple(coords), center[0])


class TestParams:
    def test_positive_integers_required(self):
        with pytest.raises(ValueError):
            QuatParams(0, 3)
        with pytest.raises(ValueError):
            QuatParams(2, -1)

    def test_bool_parameters_rejected(self):
        with pytest.raises(ValueError, match="a must be a positive integer"):
            QuatParams(True, 3)
        with pytest.raises(ValueError, match="b must be a positive integer"):
            QuatParams(2, True)

    def test_integer_coordinates_required(self):
        with pytest.raises(ValueError):
            QuatInt(1, Fraction(1, 2), 0, 0, P23)

    def test_bool_coordinates_rejected(self):
        with pytest.raises(ValueError, match="coordinates must be integers"):
            QuatInt(True, False, 0, 0, P23)
        with pytest.raises(ValueError, match="coordinates must be integers"):
            QuatInt(1, 0, 0, False, P23)


class TestQuatIntValue:
    def test_equality_and_hash_follow_coordinates_and_params(self):
        x, y = quat(1, -2, 3, 0), quat(1, -2, 3, 0)
        assert x == y and hash(x) == hash(y)
        assert x != quat(1, -2, 3, 1)
        assert x != quat(1, -2, 3, 0, P25)

    def test_set_member(self):
        values = {quat(1, 0, 0, 0), quat(1, 0, 0, 0), quat(0, 1, 0, 0),
                  quat(1, 0, 0, 0, P37)}
        assert len(values) == 3
        assert quat(0, 1, 0, 0) in values

    def test_repr(self):
        assert repr(quat(1, 0, 0, 0)) == (
            "QuatInt(q0=1, q1=0, q2=0, q3=0, params=QuatParams(a=2, b=3))")

    @pytest.mark.parametrize("bad", [1.0, True])
    def test_float_or_bool_coordinate_rejected(self, bad):
        with pytest.raises(ValueError, match="coordinates must be integers"):
            QuatInt(0, 0, bad, 0, P23)

    def test_no_instance_dict(self):
        assert not hasattr(quat(1, 0, 0, 0), "__dict__")


class TestMultiplicationTable:
    def test_defining_relations(self):
        one = quat(1, 0, 0, 0)
        i = quat(0, 1, 0, 0)
        j = quat(0, 0, 1, 0)
        k = quat(0, 0, 0, 1)
        assert quat_mul(i, i).coords() == (2, 0, 0, 0)  # I^2 = a
        assert quat_mul(j, j).coords() == (3, 0, 0, 0)  # J^2 = b
        assert quat_mul(i, j).coords() == (0, 0, 0, 1)  # IJ = K
        assert quat_mul(j, i).coords() == (0, 0, 0, -1)  # JI = -K
        assert quat_mul(one, k).coords() == (0, 0, 0, 1)

    def test_derived_relations(self):
        i = quat(0, 1, 0, 0)
        j = quat(0, 0, 1, 0)
        k = quat(0, 0, 0, 1)
        a, b = P23.a, P23.b
        assert quat_mul(k, k).coords() == (-a * b, 0, 0, 0)
        assert quat_mul(i, k).coords() == (0, 0, a, 0)
        assert quat_mul(k, i).coords() == (0, 0, -a, 0)
        assert quat_mul(j, k).coords() == (0, -b, 0, 0)
        assert quat_mul(k, j).coords() == (0, b, 0, 0)

    @pytest.mark.parametrize("params", [P23, P37])
    def test_associativity_on_seeded_triples(self, params):
        rng = random.Random(41)
        for _ in range(12):
            x, y, z = (random_quat(rng, params) for _ in range(3))
            assert quat_mul(quat_mul(x, y), z) == quat_mul(x, quat_mul(y, z))

    def test_conjugation_recovers_the_norm(self):
        rng = random.Random(42)
        for _ in range(8):
            q = random_quat(rng, P23)
            conj = QuatInt(q.q0, -q.q1, -q.q2, -q.q3, q.params)
            assert quat_mul(q, conj).coords() == (reduced_norm(q), 0, 0, 0)

    def test_params_mismatch_rejected(self):
        with pytest.raises(ValueError, match="different"):
            quat_mul(quat(1, 0, 0, 0, P23), quat(1, 0, 0, 0, P37))


class TestReducedNorm:
    def test_basis_values(self):
        assert reduced_norm(quat(1, 0, 0, 0)) == 1
        assert reduced_norm(quat(0, 1, 0, 0)) == -2
        assert reduced_norm(quat(0, 0, 1, 0)) == -3
        assert reduced_norm(quat(0, 0, 0, 1)) == 6

    def test_norm_one_example(self):
        assert reduced_norm(quat(3, 2, 0, 0)) == 1

    @pytest.mark.parametrize("params", [P23, P37])
    def test_multiplicative_on_seeded_pairs(self, params):
        rng = random.Random(43)
        for _ in range(12):
            x = random_quat(rng, params)
            y = random_quat(rng, params)
            assert reduced_norm(quat_mul(x, y)) == reduced_norm(x) * reduced_norm(y)

    def test_no_zero_divisors_spot_check(self):
        # In the non-residue regime the algebra is a division algebra; we
        # spot-check that seeded nonzero pairs never multiply to zero.
        rng = random.Random(44)
        zero = (0, 0, 0, 0)
        for params in (P23, P37):
            assert is_nonresidue(params.a, params.b)
            for _ in range(20):
                x = random_quat(rng, params)
                y = random_quat(rng, params)
                if x.coords() == zero or y.coords() == zero:
                    continue
                assert quat_mul(x, y).coords() != zero


class TestIsNonresidue:
    def test_pinned_examples(self):
        assert is_nonresidue(2, 3) is True
        assert is_nonresidue(4, 7) is False
        assert is_nonresidue(3, 7) is True

    def test_full_residue_classes_mod_seven(self):
        # Squares mod 7 are {0, 1, 2, 4}.
        for a in (1, 2, 4, 7, 8):
            assert not is_nonresidue(a, 7)
        for a in (3, 5, 6, 10):
            assert is_nonresidue(a, 7)

    def test_matches_the_squares_mod_b(self):
        # The definition, every square mod b, as the oracle: each prime b
        # below 200 (b = 2 included) and -5 <= a < 3b.
        for b in range(2, 200):
            if any(b % k == 0 for k in range(2, b)):
                continue
            squares = {(x * x) % b for x in range(b)}
            for a in range(-5, 3 * b):
                assert is_nonresidue(a, b) is ((a % b) not in squares), (a, b)

    def test_large_prime(self):
        # b = 100000007 is 7 mod 8: 2 is a square mod b and -1 is not.
        assert is_nonresidue(2, 100000007) is False
        assert is_nonresidue(-1, 100000007) is True

    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError, match="not a prime"):
            is_nonresidue(2, 6)
        with pytest.raises(ValueError, match="not a prime"):
            is_nonresidue(2, 1)


class TestEnumerateNormOne:
    def test_contains_units(self):
        found = {q.coords() for q in enumerate_norm_one(P23, 1)}
        assert (1, 0, 0, 0) in found
        assert (-1, 0, 0, 0) in found

    def test_contains_search_hits(self):
        found = {q.coords() for q in enumerate_norm_one(P23, 3)}
        for coords in ((3, 2, 0, 0), (3, -2, 0, 0), (-3, 2, 0, 0), (-3, -2, 0, 0)):
            assert coords in found

    def test_every_result_has_norm_one(self):
        for q in enumerate_norm_one(P37, 2):
            assert reduced_norm(q) == 1

    def test_deterministic_lexicographic_order(self):
        results = [q.coords() for q in enumerate_norm_one(P23, 2)]
        assert results == sorted(results)
        assert results == [q.coords() for q in enumerate_norm_one(P23, 2)]

    def test_products_stay_norm_one(self):
        elements = enumerate_norm_one(P23, 2)
        rng = random.Random(45)
        for _ in range(15):
            x = rng.choice(elements)
            y = rng.choice(elements)
            assert reduced_norm(quat_mul(x, y)) == 1

    def test_reduced_norm_runs_once_per_candidate(self, monkeypatch):
        counted = []

        def counting(q):
            counted.append(q.coords())
            return reduced_norm(q)

        monkeypatch.setattr(quatarith, "reduced_norm", counting)
        enumerate_norm_one(P37, 3)
        assert len(counted) == len(set(counted)) == 7 ** 4

    @pytest.mark.parametrize("params, bound", [(P23, 3), (P37, 3), (P25, 4)])
    def test_every_result_is_its_own_object(self, params, bound):
        # The scan refills one candidate in place; what it returns must be
        # fresh values that no later step of the scan changes.
        found = enumerate_norm_one(params, bound)
        assert len(found) > 4
        assert len({id(q) for q in found}) == len(found)
        assert all(type(value) is int for q in found for value in q.coords())
        assert all(q.params is params for q in found)

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            enumerate_norm_one(P23, 0)
        with pytest.raises(ValueError, match="bound must be a positive integer"):
            enumerate_norm_one(P23, True)

    @pytest.mark.parametrize("a, b", [(2, 3), (2, 5), (3, 7), (4, 7), (1, 3), (2, 1),
                                      (1, 1)])
    @pytest.mark.parametrize("bound", [1, 2, 3, 4])
    def test_matches_isqrt_search(self, a, b, bound):
        params = QuatParams(a, b)
        assert enumerate_norm_one(params, bound) == search_norm_one(params, bound)


class TestEmbedMatrix:
    def test_one_maps_to_identity(self):
        m = embed_matrix(quat(1, 0, 0, 0))
        assert m[0][0] == RadC(rad(P23, r1=1))
        assert m[1][1] == RadC(rad(P23, r1=1))
        assert not m[0][1] and not m[1][0]

    def test_generator_images(self):
        i_img = embed_matrix(quat(0, 1, 0, 0))
        assert i_img[0][1] == RadC(rad(P23), rad(P23, ra=1))
        assert i_img[1][0] == RadC(rad(P23), rad(P23, ra=-1))
        assert not i_img[0][0] and not i_img[1][1]

        j_img = embed_matrix(quat(0, 0, 1, 0))
        assert j_img[0][1] == RadC(rad(P23, rb=1))
        assert j_img[1][0] == RadC(rad(P23, rb=1))
        assert not j_img[0][0] and not j_img[1][1]

        k_img = embed_matrix(quat(0, 0, 0, 1))
        assert k_img[0][0] == RadC(rad(P23), rad(P23, rab=1))
        assert k_img[1][1] == RadC(rad(P23), rad(P23, rab=-1))
        assert not k_img[0][1] and not k_img[1][0]

    def test_determinant_equals_reduced_norm(self):
        rng = random.Random(46)
        for params in (P23, P37):
            for _ in range(10):
                q = random_quat(rng, params)
                det = det2(embed_matrix(q))
                assert det == RadC(rad(params, r1=reduced_norm(q)))

    def test_ring_homomorphism_on_seeded_pairs(self):
        rng = random.Random(47)
        for params in (P23, P25):
            for _ in range(10):
                x = random_quat(rng, params)
                y = random_quat(rng, params)
                lhs = embed_matrix(quat_mul(x, y))
                rhs = mat_mul2(embed_matrix(x), embed_matrix(y))
                for j in range(2):
                    for k in range(2):
                        assert lhs[j][k] == rhs[j][k]

    def test_additive_on_seeded_pairs(self):
        rng = random.Random(48)
        for _ in range(6):
            x = random_quat(rng, P23)
            y = random_quat(rng, P23)
            lhs = embed_matrix(QuatInt(*map(add, x.coords(), y.coords()), P23))
            rhs_x = embed_matrix(x)
            rhs_y = embed_matrix(y)
            for j in range(2):
                for k in range(2):
                    assert lhs[j][k] == rhs_x[j][k] + rhs_y[j][k]


class TestSu11Check:
    def test_unit_passes(self):
        q = quat(1, 0, 0, 0)
        assert su11_check(q, embed_matrix(q)) is True

    def test_search_hit_passes(self):
        q = quat(3, 2, 0, 0)
        assert su11_check(q, embed_matrix(q)) is True

    def test_norm_precondition(self):
        q = quat(0, 1, 0, 0)
        with pytest.raises(ValueError, match="norm-one"):
            su11_check(q, embed_matrix(q))

    @pytest.mark.parametrize("params", [P23, P37, P25])
    def test_exhaustive_over_enumeration(self, params):
        elements = enumerate_norm_one(params, 5)
        assert elements, "enumeration should not be empty"
        assert all(su11_check(q, embed_matrix(q)) for q in elements)

    def test_det_one_non_unitary_matrix_fails(self):
        # [[1, 1], [0, 1]] has determinant 1 but does not preserve
        # diag(1, -1); the check must say so rather than trust the norm.
        one, zero = RadC(Rad(2, 3, 1)), RadC(Rad(2, 3))
        shear = ((one, one), (zero, one))
        assert det2(shear) == one
        assert su11_check(quat(1, 0, 0, 0), shear) is False

    def test_matches_explicit_product_oracle(self):
        # The hand-built product conj-transpose(Q) * diag(1, -1) * Q.
        one, zero = RadC(Rad(2, 3, 1)), RadC(Rad(2, 3))
        eta = ((one, zero), (zero, -one))
        for q in enumerate_norm_one(P23, 5):
            Q = embed_matrix(q)
            product = tuple(
                tuple(
                    Q[0][j].conj() * Q[0][k] - Q[1][j].conj() * Q[1][k]
                    for k in range(2)
                )
                for j in range(2)
            )
            assert su11_check(q, Q) is (product == eta)


class TestGamma2Lattice:
    def test_basis_and_center_scale(self):
        lat = gamma2_basis(P23)
        assert lat.n == 2
        assert lat.r == rad(P23, rab=1)
        assert lat.r * Fraction(1, 2) == rad(P23, rab=Fraction(1, 2))

    def test_basis_vectors_are_the_generator_orbit(self):
        # Applying the matrix realization of each basis quaternion to
        # e_1 = (1, 0) must reproduce the corresponding lattice basis vector.
        lat = gamma2_basis(P23)
        e1 = (RadC(rad(P23, r1=1)), RadC(rad(P23)))
        units = (
            quat(1, 0, 0, 0),
            quat(0, 1, 0, 0),
            quat(0, 0, 1, 0),
            quat(0, 0, 0, 1),
        )
        for unit, expected in zip(units, lat.basis):
            m = embed_matrix(unit)
            image = tuple(m[j][0] * e1[0] + m[j][1] * e1[1] for j in range(2))
            assert image[0] == expected[0]
            assert image[1] == expected[1]

    def test_omega_table(self):
        lat = gamma2_basis(P23)
        table = lat.omega_table()
        root_ab = rad(P23, rab=1)
        # Signed values under the documented orientation (omega(e1, i e1) > 0):
        # the two nonzero pairs carry opposite signs, and their magnitudes
        # agree with the center scale sqrt(ab).
        assert table[0][3] == root_ab
        assert table[1][2] == -root_ab
        nonzero = {(0, 3), (3, 0), (1, 2), (2, 1)}
        for i in range(4):
            for j in range(4):
                if (i, j) not in nonzero:
                    assert not table[i][j]

    def test_omega_magnitudes_up_to_sign(self):
        # Convention-independent content: both nonzero omega values square
        # to a*b.
        lat = gamma2_basis(P23)
        table = lat.omega_table()
        for val in (table[0][3], table[1][2]):
            assert val * val == rad(P23, r1=P23.a * P23.b)


class TestPreservesGamma2:
    def test_identity_preserves(self):
        q = quat(1, 0, 0, 0)
        assert preserves_gamma2(q, embed_matrix(q)) is True

    def test_image_coordinates_match_quaternion_multiplication(self):
        params = P23
        q = quat(3, 2, 0, 0)
        matrix = embed_matrix(q)
        lat = gamma2_basis(params)
        units = (
            quat(1, 0, 0, 0),
            quat(0, 1, 0, 0),
            quat(0, 0, 1, 0),
            quat(0, 0, 0, 1),
        )
        expected_coords = [quat_mul(q, u).coords() for u in units]
        # Pinned examples: the images of e1 and I*e1.
        assert expected_coords[0] == (3, 2, 0, 0)
        assert expected_coords[1] == (4, 3, 0, 0)
        for vec, expected in zip(lat.basis, expected_coords):
            image = tuple(
                matrix[j][0] * vec[0] + matrix[j][1] * vec[1] for j in range(2)
            )
            found = lattice_coordinates(lat, HeisPoint(image, Fraction(0)))
            assert found is not None
            assert found.coords == expected
            assert found.center == 0

    def test_matrix_route_agrees_with_quaternion_route(self):
        # Dual route: exact lattice solve vs. direct order multiplication.
        rng = random.Random(49)
        units = [
            (1, 0, 0, 0),
            (0, 1, 0, 0),
            (0, 0, 1, 0),
            (0, 0, 0, 1),
        ]
        for params in (P23, P25):
            lat = gamma2_basis(params)
            elements = enumerate_norm_one(params, 3)
            for q in rng.sample(elements, min(6, len(elements))):
                matrix = embed_matrix(q)
                for coords, vec in zip(units, lat.basis):
                    u = QuatInt(*coords, params)
                    image = tuple(
                        matrix[j][0] * vec[0] + matrix[j][1] * vec[1]
                        for j in range(2)
                    )
                    found = lattice_coordinates(lat, HeisPoint(image, Fraction(0)))
                    assert found is not None
                    assert found.coords == quat_mul(q, u).coords()

    @pytest.mark.parametrize("ab", [(2, 3), (2, 5), (3, 7), (1, 3), (2, 1)])
    def test_images_are_left_products(self, ab, monkeypatch):
        # The docstring's identity, read off the images the function solves:
        # Q (r e_1) has the lattice coordinates of q*r, r in 1, I, J, K.
        params = QuatParams(*ab)
        solved = []

        def recording(lattice, point):
            found = lattice_coordinates(lattice, point)
            solved.append(found)
            return found

        monkeypatch.setattr(quatarith, "lattice_coordinates", recording)
        units = [QuatInt(*coords, params)
                 for coords in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))]
        elements = enumerate_norm_one(params, 4)
        assert len(elements) > 2
        for q in elements:
            solved.clear()
            assert preserves_gamma2(q, embed_matrix(q)) is True
            assert [found.coords for found in solved] == [
                quat_mul(q, r).coords() for r in units]
            assert all(found.center == 0 for found in solved)

    def test_one_product_per_image_entry(self, monkeypatch):
        # Four basis vectors with one nonzero entry each: 4 x 2 products,
        # none for the zero entries.
        counted = [0]
        original = RadC.__mul__

        def counting(self, other):
            counted[0] += 1
            return original(self, other)

        monkeypatch.setattr(RadC, "__mul__", counting)
        q = QuatInt(2, 1, 0, 0, P37)
        assert preserves_gamma2(q, embed_matrix(q)) is True
        assert counted[0] == 8

    def test_norm_precondition(self):
        q = quat(0, 0, 1, 0)
        with pytest.raises(ValueError, match="norm-one"):
            preserves_gamma2(q, embed_matrix(q))

    @pytest.mark.parametrize("name", ["gamma2-2-3", "gamma2-4-7", "gamma2-1-3", "gamma2-1-1",
                                      "Ld-2-5", "Ld-3-2", "Ld-2-1", "Ld-1-1"])
    def test_cached_solve_agrees_with_uncached(self, name):
        # lattice_coordinates reads one numerator per basis vector; a fresh
        # dense Fraction solve of the whole system is the reference, on
        # folded rings (a = 1, b = 1, d = 1) too.
        kind, x, y = name.split("-")
        if kind == "gamma2":
            lattice = gamma2_basis(QuatParams(int(x), int(y)))
        else:
            lattice = lattice_Ld(int(x), int(y))
        rng = random.Random(53)
        tweaks = [Fraction(0), Fraction(1, 2), Fraction(-1, 3), Fraction(2)]
        members = 0
        for _ in range(40):
            coords = [rng.randrange(-4, 5) for _ in range(lattice.rank)]
            vec = [z * 0 for z in lattice.basis[0]]
            for c, bvec in zip(coords, lattice.basis):
                vec = [acc + z * c for acc, z in zip(vec, bvec)]
            # shift one basis coefficient and one rational entry part by
            # rationals that may be zero or integral, so some points stay in
            k, j = rng.randrange(lattice.rank), rng.randrange(lattice.n)
            shift = rng.choice(tweaks)
            vec = [acc + z * shift for acc, z in zip(vec, lattice.basis[k])]
            vec[j] = vec[j] + vec[j].coerce(rng.choice(tweaks))
            t = lattice.r * Fraction(rng.randrange(-6, 7), rng.choice([1, 2, 4]))
            point = HeisPoint(tuple(vec), t)
            expected = solve_uncached(lattice, point)
            assert lattice_coordinates(lattice, point) == expected
            members += expected is not None
        assert 0 < members < 40

    @pytest.mark.parametrize("ab", [(2, 3), (2, 5), (3, 7), (2, 1), (1, 1), (1, 3)])
    def test_every_row_is_checked(self, ab):
        # Twelve of the sixteen rows of the Gamma_2 coordinate matrix are
        # zero and membership reads one numerator per basis vector, so a
        # half added to any one rational coordinate of a member, at a basis
        # vector's numerator or not, must be caught.  Each basis image at
        # bound 3 must get the coordinates of the dense solve.
        params = QuatParams(*ab)
        lattice = gamma2_basis(params)
        rows = [[part for z in vec for part in coefficients(z)] for vec in lattice.basis]
        assert sum(not any(row) for row in zip(*rows)) == 12

        def shifted(point, i):
            j, comp = divmod(i, 8)
            parts = list(coefficients(point.v[j]))
            parts[comp] += Fraction(1, 2)
            entry = RadC(rad(params, *parts[:4]), rad(params, *parts[4:]))
            return HeisPoint(point.v[:j] + (entry,) + point.v[j + 1:], point.t)

        for q in enumerate_norm_one(params, 3):
            matrix = embed_matrix(q)
            for vec in lattice.basis:
                image = tuple(matrix[j][0] * vec[0] + matrix[j][1] * vec[1]
                              for j in range(2))
                point = HeisPoint(image, Fraction(0))
                expected = solve_uncached(lattice, point)
                assert expected is not None
                assert lattice_coordinates(lattice, point) == expected
                for i in range(16):
                    assert lattice_coordinates(lattice, shifted(point, i)) is None

    @pytest.mark.parametrize("params", [P23, P37, P25])
    def test_exhaustive_over_enumeration(self, params):
        elements = enumerate_norm_one(params, 5)
        assert all(preserves_gamma2(q, embed_matrix(q)) for q in elements)


class TestCCompatible:
    """params.c_compatible, the c whose period fits the lattice of (a, b)."""

    def test_zero_is_undeformed(self):
        assert c_compatible(0, 2, 3) == 0.0

    def test_pinned_example(self):
        assert c_compatible(1, 2, 3) == pytest.approx(math.sqrt(6) / (8 * math.pi), rel=1e-14)

    def test_period_is_four_pi_c_at_n_two(self):
        # 4*pi*c, the fiber period at n = 2, is lam * sqrt(ab)/2.
        period = 4 * math.pi * c_compatible(Fraction(2, 3), 2, 3)
        assert period == pytest.approx(math.sqrt(6) / 3, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            c_compatible(-1, 2, 3)

    def test_rational_input_accepted_as_string(self):
        assert c_compatible("3/2", 2, 5) == c_compatible(Fraction(3, 2), 2, 5)
        assert c_compatible("3/2", 2, 5) == pytest.approx(
            0.75 * math.sqrt(10) / (4 * math.pi), rel=1e-14)


class TestCsvExport:
    def test_header_and_shape(self):
        rows = norm_one_rows(P23, 2)
        keys = ["q0", "q1", "q2", "q3", "norm", "su11_ok", "preserves_gamma2"]
        assert all(list(row) == keys for row in rows)
        assert len(rows) == len(enumerate_norm_one(P23, 2))

    def test_rows_report_verified_flags(self):
        rows = norm_one_rows(P23, 2)
        for row in rows:
            assert row["norm"] == 1
            assert row["su11_ok"] is True
            assert row["preserves_gamma2"] is True
        # Rows carry the enumeration entries, in order.
        coords = [tuple(row[k] for k in ("q0", "q1", "q2", "q3")) for row in rows]
        assert coords == [q.coords() for q in enumerate_norm_one(P23, 2)]

    def test_one_matrix_per_row(self, monkeypatch):
        # Both checks of a row share the row's matrix, and each runs once.
        calls = {"embed_matrix": 0, "su11_check": 0, "preserves_gamma2": 0}
        for name in calls:
            original = getattr(quatarith, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(quatarith, name, counting)
        rows = norm_one_rows(P37, 8)
        assert len(rows) == 78
        assert calls == {"embed_matrix": 78, "su11_check": 78, "preserves_gamma2": 78}
        assert all(row["su11_ok"] and row["preserves_gamma2"] for row in rows)
