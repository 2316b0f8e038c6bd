import random
from fractions import Fraction

import numpy as np
import pytest

from exatlas.algebras import (
    _BATCH_ROWS,
    DEFAULT_SEED,
    AlgebraMismatchError,
    FiniteAlgebra,
    _scaled_int_array,
    associator,
    batch_multiply,
    batch_norms,
    cayley_dickson_algebra,
    cayley_dickson_double,
    commutator,
    complex_algebra,
    find_composition_law_violation,
    octonions,
    quaternions,
    random_element,
    real_algebra,
    sedenion_composition_witness,
    sedenions,
)
from exatlas.jordan import jordan_algebra
from exatlas.lie import is_algebra_automorphism
from exatlas.linalg import RationalMatrix

# classical names for the quaternion units
H = quaternions()
I, J, K = H.basis_element(1), H.basis_element(2), H.basis_element(3)


class TestTowerConstruction:
    def test_dimensions_and_names(self):
        dims = {a.name: a.dim for a in
                (real_algebra(), complex_algebra(), quaternions(), octonions(), sedenions())}
        assert dims == {"R": 1, "C": 2, "H": 4, "O": 8, "S": 16}

    def test_double_of_reals_has_imaginary_unit(self):
        c = cayley_dickson_double(real_algebra())
        i = c.basis_element(1)
        assert i * i == -c.unit()

    def test_double_of_complex_gives_ij_equals_k(self):
        assert I * J == K

    def test_octonions_have_seven_imaginary_units(self):
        o = octonions()
        assert o.conjugation_signs == (1,) + (-1,) * 7
        minus_unit = -o.unit()
        for k in range(1, 8):
            ek = o.basis_element(k)
            assert ek * ek == minus_unit

    def test_doubling_capped_at_sedenions(self):
        with pytest.raises(ValueError):
            cayley_dickson_double(sedenions())

    def test_unknown_dimension(self):
        with pytest.raises(ValueError):
            cayley_dickson_algebra(3)

    def test_builders_are_cached(self):
        assert octonions() is octonions()


class TestMultiplication:
    def test_unit_is_identity(self):
        rng = random.Random(DEFAULT_SEED)
        for dim in (1, 2, 4, 8, 16):
            a = cayley_dickson_algebra(dim)
            x = random_element(a, rng)
            assert a.unit() * x == x
            assert x * a.unit() == x

    def test_mixed_algebra_operands_rejected(self):
        with pytest.raises(AlgebraMismatchError):
            I * octonions().basis_element(1)

    def test_forced_triple_changes_sign(self):
        o = octonions()
        e = o.basis()
        left = (e[1] * e[2]) * e[4]
        right = e[1] * (e[2] * e[4])
        assert left == e[7]
        assert right == -e[7]

    def test_scalar_multiplication(self):
        assert 2 * I == I + I
        assert I * Fraction(1, 2) + I * Fraction(1, 2) == I


class TestConjugationNormInverse:
    def test_norm_of_3_plus_4i(self):
        c = complex_algebra()
        z = c.element((3, 4))
        assert z.norm() == 25

    def test_conjugate_of_unit(self):
        o = octonions()
        assert o.unit().conjugate() == o.unit()

    def test_conjugate_flips_imaginary(self):
        q = H.element((1, 2, 3, 4))
        assert q.conjugate() == H.element((1, -2, -3, -4))

    def test_norm_multiplicative_octonions(self):
        rng = random.Random(DEFAULT_SEED)
        o = octonions()
        for _ in range(300):
            x, y = random_element(o, rng), random_element(o, rng)
            assert (x * y).norm() == x.norm() * y.norm()

    def test_inverse_law(self):
        rng = random.Random(DEFAULT_SEED)
        for dim in (1, 2, 4, 8):
            a = cayley_dickson_algebra(dim)
            for _ in range(100):
                x = random_element(a, rng)
                if x.is_zero():
                    continue
                assert x * x.inverse() == a.unit()
                assert x.inverse() * x == a.unit()

    def test_inverse_of_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            H.zero().inverse()

    def test_conjugate_product_is_scalar(self):
        rng = random.Random(DEFAULT_SEED)
        for dim in (1, 2, 4, 8, 16):
            a = cayley_dickson_algebra(dim)
            for _ in range(50):
                x = random_element(a, rng)
                prod = (x.conjugate() * x).coeffs
                assert not any(prod[1:])
                assert prod[0] == sum(c * c for c in x.coeffs)


class TestCommutator:
    def test_complex_is_commutative(self):
        rng = random.Random(DEFAULT_SEED)
        c = complex_algebra()
        for _ in range(50):
            x, y = random_element(c, rng), random_element(c, rng)
            assert commutator(x, y).is_zero()

    def test_commutator_i_j(self):
        assert commutator(I, J) == 2 * K

    def test_self_commutator_vanishes(self):
        rng = random.Random(DEFAULT_SEED)
        x = random_element(octonions(), rng)
        assert commutator(x, x).is_zero()


class TestAssociator:
    def test_quaternions_associative(self):
        rng = random.Random(DEFAULT_SEED)
        for _ in range(100):
            t = [random_element(H, rng) for _ in range(3)]
            assert associator(*t).is_zero()

    def test_low_dims_associative(self):
        rng = random.Random(DEFAULT_SEED)
        for dim in (1, 2):
            a = cayley_dickson_algebra(dim)
            for _ in range(50):
                t = [random_element(a, rng) for _ in range(3)]
                assert associator(*t).is_zero()

    def test_independent_octonion_units_do_not_associate(self):
        o = octonions()
        e = o.basis()
        # e1, e2, e4 generate the whole algebra, not a quaternion subalgebra
        assert not associator(e[1], e[2], e[4]).is_zero()

    def test_antisymmetry_in_first_two_arguments(self):
        rng = random.Random(DEFAULT_SEED)
        o = octonions()
        for _ in range(100):
            x, y, z = (random_element(o, rng) for _ in range(3))
            assert associator(x, y, z) == -associator(y, x, z)

    def test_full_antisymmetry(self):
        import itertools

        rng = random.Random(DEFAULT_SEED)
        o = octonions()
        for _ in range(30):
            t = [random_element(o, rng) for _ in range(3)]
            base = associator(*t)
            for perm in itertools.permutations(range(3)):
                inversions = sum(
                    1 for a in range(3) for b in range(a + 1, 3) if perm[a] > perm[b]
                )
                expected = base if inversions % 2 == 0 else -base
                assert associator(t[perm[0]], t[perm[1]], t[perm[2]]) == expected

    def test_alternativity(self):
        rng = random.Random(DEFAULT_SEED)
        o = octonions()
        for _ in range(200):
            x, y = random_element(o, rng), random_element(o, rng)
            assert associator(x, x, y).is_zero()
            assert associator(x, y, y).is_zero()


class TestSedenions:
    def test_composition_law_fails(self):
        x, y = sedenion_composition_witness()
        assert (x * y).norm() != x.norm() * y.norm()

    def test_frozen_witness_values(self):
        x, y = sedenion_composition_witness()
        assert x.norm() == 2 and y.norm() == 2
        assert (x * y).norm() == 8

    def test_search_rediscovers_a_witness(self):
        found = find_composition_law_violation(sedenions())
        assert found is not None
        x, y = found
        assert (x * y).norm() != x.norm() * y.norm()

    def test_no_witness_in_octonions(self):
        assert find_composition_law_violation(octonions()) is None

    def test_composition_law_holds_through_octonions(self):
        rng = random.Random(DEFAULT_SEED)
        for dim in (1, 2, 4):
            a = cayley_dickson_algebra(dim)
            for _ in range(100):
                x, y = random_element(a, rng), random_element(a, rng)
                assert (x * y).norm() == x.norm() * y.norm()


def coord_rows(elements):
    return np.array([x.coeffs for x in elements], dtype=np.int64)


class TestBatchedProducts:
    def test_matches_per_element_products(self):
        o = octonions()
        c, scale = o.tensor, o.scale
        rng = random.Random(DEFAULT_SEED)
        xs = [random_element(o, rng) for _ in range(600)]  # more than one block
        ys = [random_element(o, rng) for _ in range(600)]
        got = batch_multiply(c, coord_rows(xs), coord_rows(ys))
        assert scale == 1 and got.dtype == np.int64
        assert [tuple(r) for r in got.tolist()] == [(x * y).coeffs for x, y in zip(xs, ys)]

    def test_norms_match_per_element_norms(self):
        o = octonions()
        rng = random.Random(DEFAULT_SEED)
        xs = [random_element(o, rng) for _ in range(50)]
        assert list(batch_norms(o, coord_rows(xs))) == [x.norm() for x in xs]

    def test_large_coordinates_take_python_int_path(self):
        # N(xy) multiplies two products of 10^6-sized coordinates, which
        # trips the int64 guard; the answer must still be exact
        o = octonions()
        c = o.tensor
        rng = random.Random(DEFAULT_SEED)
        xs = [random_element(o, rng, span=10**6) for _ in range(20)]
        ys = [random_element(o, rng, span=10**6) for _ in range(20)]
        xy = batch_multiply(c, coord_rows(xs), coord_rows(ys))
        signs = np.array(o.conjugation_signs)
        assert batch_multiply(c, xy * signs, xy).dtype == object
        n_xy = batch_norms(o, xy)
        assert list(n_xy) == [(x * y).norm() for x, y in zip(xs, ys)]
        n_x_n_y = batch_norms(o, coord_rows(xs)) * batch_norms(o, coord_rows(ys))
        assert list(n_xy) == list(n_x_n_y)

    def test_mixed_blocks_concatenate_exactly(self):
        o = octonions()
        c = o.tensor
        rng = random.Random(DEFAULT_SEED)
        spans = [9] * 300 + [10**12] * 10  # second block falls back to Python ints
        xs = [random_element(o, rng, span=s) for s in spans]
        ys = [random_element(o, rng, span=s) for s in spans]
        got = batch_multiply(c, coord_rows(xs), coord_rows(ys))
        assert [tuple(r) for r in got.tolist()] == [(x * y).coeffs for x, y in zip(xs, ys)]

    def test_empty_batch(self):
        o = octonions()
        c = o.tensor
        empty = np.zeros((0, 8), dtype=np.int64)
        assert batch_multiply(c, empty, empty).shape == (0, 8)

    def test_non_scalar_conjugate_product_rejected(self):
        # complex numbers with a broken conjugation: conj(x) x = x^2
        broken = FiniteAlgebra("C?", complex_algebra().tensor, conjugation_signs=(1, 1))
        x = broken.element((1, 1))
        with pytest.raises(ArithmeticError):
            x.norm()
        with pytest.raises(ArithmeticError):
            batch_norms(broken, coord_rows([x]))


def dense_batch_multiply(tensor, x, y):
    """Reference: the dense three-operand einsum on Python ints."""
    return np.einsum("bi,bj,ijk->bk", x.astype(object), y.astype(object), tensor.astype(object),
                     optimize=True)


def random_rows(a, rng, count, span=9):
    return coord_rows([random_element(a, rng, span) for _ in range(count)])


def assert_matches_dense(tensor, x, y):
    got = batch_multiply(tensor, x, y)
    assert got.shape == (x.shape[0], tensor.shape[0])
    assert got.tolist() == dense_batch_multiply(tensor, x, y).tolist()
    return got


class TestSparseProducts:
    """``batch_multiply`` sums over the tensor's nonzeros; the dense
    einsum is the reference."""

    @pytest.mark.parametrize("dim", [1, 2, 4, 8, 16])
    def test_cayley_dickson_tensors(self, dim):
        a = cayley_dickson_algebra(dim)
        rng = random.Random(DEFAULT_SEED + dim)
        assert_matches_dense(a.tensor, random_rows(a, rng, 40), random_rows(a, rng, 40))

    @pytest.mark.parametrize("dim", [1, 2, 4, 8, 16])
    def test_jordan_tensors(self, dim):
        j = jordan_algebra(cayley_dickson_algebra(dim))
        rng = random.Random(DEFAULT_SEED + dim)
        assert_matches_dense(j.tensor, random_rows(j, rng, 12), random_rows(j, rng, 12))

    def test_batches_of_several_blocks(self):
        count = 2 * _BATCH_ROWS + 7
        for a in (octonions(), jordan_algebra(quaternions())):
            rng = random.Random(DEFAULT_SEED)
            x, y = random_rows(a, rng, count), random_rows(a, rng, count)
            assert assert_matches_dense(a.tensor, x, y).dtype == np.int64

    def test_inputs_of_size_1e12_take_the_python_int_path(self):
        for a in (sedenions(), jordan_algebra(octonions())):
            rng = random.Random(DEFAULT_SEED)
            x, y = random_rows(a, rng, 20, 10**12), random_rows(a, rng, 20, 10**12)
            assert assert_matches_dense(a.tensor, x, y).dtype == object

    def test_all_zero_output_coordinate(self):
        # the octonion table with e3 dropped from every product
        o = octonions()
        t = o.tensor.copy()
        t[:, :, 3] = 0
        rng = random.Random(DEFAULT_SEED)
        got = assert_matches_dense(t, random_rows(o, rng, 30), random_rows(o, rng, 30))
        assert not got[:, 3].any() and got.any()

    def test_zero_tensor(self):
        x = np.ones((3, 2), dtype=np.int64)
        assert batch_multiply(np.zeros((2, 2, 2), dtype=np.int64), x, x).tolist() == [[0, 0]] * 3


class TestDoubledTensor:
    @pytest.mark.parametrize("dim", [1, 2, 4, 8])
    def test_doubling_formula_on_random_pairs(self, dim):
        # (p,q)(r,s) = (pr - s~q, sp + qr~) with (p, q) the coordinates of
        # the double split in halves
        half, full = cayley_dickson_algebra(dim), cayley_dickson_algebra(2 * dim)
        rng = random.Random(DEFAULT_SEED + dim)
        for _ in range(20):
            p, q, r, s = (random_element(half, rng) for _ in range(4))
            x = full.element(p.coeffs + q.coeffs)
            y = full.element(r.coeffs + s.coeffs)
            want = (p * r - s.conjugate() * q).coeffs + (s * p + q * r.conjugate()).coeffs
            assert (x * y).coeffs == want


def rescaled(a, factors, perm=None):
    """Copy of a in the basis f_k = factors[k] e_perm[k].

    perm defaults to the identity; factors of +1 and -1 with a
    permutation give a signed permutation.
    """
    n = a.dim
    perm = range(n) if perm is None else perm
    c = a.structure_constant
    consts = [
        Fraction(factors[i] * factors[j], factors[k]) * c(perm[i], perm[j], perm[k])
        for i in range(n)
        for j in range(n)
        for k in range(n)
    ]
    tensor, scale = _scaled_int_array(consts, (n, n, n))
    signs = a.conjugation_signs and [a.conjugation_signs[p] for p in perm]
    # the unit sum_m u_m e_m reads u_perm[k] / factors[k] at f_k
    unit = [Fraction(a.unit_coords[p], f) for p, f in zip(perm, factors)]
    return FiniteAlgebra(a.name + "'", tensor, scale, conjugation_signs=signs, unit_coords=unit)


class TestLargeStructureConstants:
    """Rescaled copies: results must not depend on the size of the constants."""

    @pytest.mark.parametrize(
        "algebra,factors",
        [(octonions, [k + 1 for k in range(8)]), (quaternions, [1, 1, 2**40, 2**80])],
        ids=["O-k+1", "H-2^40-2^80"],
    )
    def test_products_and_norms_match_the_original(self, algebra, factors):
        a = algebra()
        copy = rescaled(a, factors)
        rng = random.Random(DEFAULT_SEED)

        def to_original(v):
            return [f * c for f, c in zip(factors, v)]

        for _ in range(20):
            x = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(a.dim)]
            y = [rng.randint(-9, 9) for _ in range(a.dim)]
            got = copy.multiply_coords(x, y)
            assert to_original(got) == a.multiply_coords(to_original(x), to_original(y))
            assert copy.element(x).norm() == a.element(to_original(x)).norm()

    def test_float_coordinates_are_read_exactly(self):
        o = octonions()
        assert o.multiply_coords([0.5] + [0] * 7, [0, 0.25] + [0] * 6) == [0, Fraction(1, 8)] + [0] * 6

    def test_scales_and_storage(self):
        o = rescaled(octonions(), [k + 1 for k in range(8)])
        assert o.scale == 420 and o.tensor.dtype == np.int64
        h = rescaled(quaternions(), [1, 1, 2**40, 2**80])
        # e3^2 = -e0 reads f3 f3 = -2^160 f0, and the scale is 2^40
        assert h.scale == 2**40 and h.tensor.dtype == object
        assert h.structure_constant(3, 3, 0) == -(2**160)

    def test_cyclic_automorphism_in_rescaled_basis(self):
        # i -> j -> k -> i; with f = (1, 1, 2^40, 2^80) its matrix has
        # entries 1, 2^-40 and 2^80, against constants up to 2^160
        h = rescaled(quaternions(), [1, 1, 2**40, 2**80])
        rows = [
            [1, 0, 0, 0],
            [0, 0, 0, 2**80],
            [0, Fraction(1, 2**40), 0, 0],
            [0, 0, Fraction(1, 2**40), 0],
        ]
        assert is_algebra_automorphism(h, RationalMatrix.from_rows(rows))
        rows[1][3] += 1
        assert not is_algebra_automorphism(h, RationalMatrix.from_rows(rows))

    def test_automorphism_with_a_denominator_past_int64(self):
        # with f = (1, 1, 2^70, 2^140) the cyclic map's common denominator
        # is 2^70, so the scale enters the contraction as a 0-d object array
        h = rescaled(quaternions(), [1, 1, 2**70, 2**140])
        rows = [
            [1, 0, 0, 0],
            [0, 0, 0, 2**140],
            [0, Fraction(1, 2**70), 0, 0],
            [0, 0, Fraction(1, 2**70), 0],
        ]
        assert is_algebra_automorphism(h, RationalMatrix.from_rows(rows))
        rows[2][1] += 1
        assert not is_algebra_automorphism(h, RationalMatrix.from_rows(rows))
