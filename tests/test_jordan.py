import random
from fractions import Fraction

import numpy as np
import pytest

from exatlas.algebras import (
    DEFAULT_SEED,
    AlgebraMismatchError,
    FiniteAlgebra,
    complex_algebra,
    octonions,
    quaternions,
    real_algebra,
    sedenions,
)
from exatlas.jordan import (
    OFF_POSITIONS,
    build_jordan_algebra,
    jordan_algebra,
    jordan_dim,
    jordan_identity_defect,
    jordan_identity_failures,
    sedenion_jordan_witness,
    trace_form_gram,
    trace_form_is_positive_definite,
)

COEFFICIENT_ALGEBRAS = [real_algebra, complex_algebra, quaternions, octonions]


def random_hermitian(j, rng, span=9):
    return j.element(tuple(rng.randint(-span, span) for _ in range(j.dim)))


class TestDimensions:
    @pytest.mark.parametrize(
        "builder,expected",
        [(real_algebra, 6), (complex_algebra, 9), (quaternions, 15), (octonions, 27)],
    )
    def test_jordan_dim(self, builder, expected):
        assert jordan_dim(builder()) == expected
        assert jordan_algebra(builder()).dim == expected

    def test_jordan_dim_rejects_sedenions(self):
        with pytest.raises(ValueError):
            jordan_dim(sedenions())


class TestProduct:
    def test_identity_is_unit(self, j3o):
        rng = random.Random(DEFAULT_SEED)
        x = random_hermitian(j3o, rng)
        assert j3o.unit() * x == x

    def test_commutative(self, j3o):
        rng = random.Random(DEFAULT_SEED)
        for _ in range(20):
            x, y = random_hermitian(j3o, rng), random_hermitian(j3o, rng)
            assert x * y == y * x

    def test_table_symmetric(self, j3o):
        assert np.array_equal(j3o.tensor, j3o.tensor.transpose(1, 0, 2))

    def test_orthogonal_idempotents(self, j3o):
        e1, e2 = j3o.basis_element(0), j3o.basis_element(1)
        assert (e1 * e2).is_zero()
        assert e1 * e1 == e1

    def test_mismatched_algebras_rejected(self, j3o):
        other = jordan_algebra(quaternions())
        with pytest.raises(AlgebraMismatchError):
            j3o.unit() * other.unit()


class TestTrace:
    def test_trace_form_symmetric(self):
        j = jordan_algebra(complex_algebra())
        assert trace_form_gram(j).is_symmetric()

    @pytest.mark.parametrize("builder", COEFFICIENT_ALGEBRAS)
    def test_trace_form_positive_definite(self, builder):
        assert trace_form_is_positive_definite(jordan_algebra(builder()))


class TestJordanIdentity:
    @pytest.mark.parametrize("builder", COEFFICIENT_ALGEBRAS)
    def test_holds_over_division_coefficients(self, builder):
        j = jordan_algebra(builder())
        rng = random.Random(DEFAULT_SEED)
        for _ in range(60):
            x, y = random_hermitian(j, rng), random_hermitian(j, rng)
            assert jordan_identity_defect(x, y).is_zero()

    def test_fails_over_sedenions_frozen_witness(self):
        # both elements live in the one cached J3(S)
        x, y = sedenion_jordan_witness()
        assert x.algebra is jordan_algebra(sedenions()) and y.algebra is x.algebra
        assert not jordan_identity_defect(x, y).is_zero()

    def test_defect_rejects_mixed_algebras(self, j3o):
        other = jordan_algebra(quaternions())
        with pytest.raises(AlgebraMismatchError):
            jordan_identity_defect(j3o.unit(), other.unit())

    def test_fails_over_sedenions_random_search(self):
        j = jordan_algebra(sedenions())
        rng = random.Random(DEFAULT_SEED)
        found = False
        for _ in range(50):
            x, y = random_hermitian(j, rng, span=3), random_hermitian(j, rng, span=3)
            if not jordan_identity_defect(x, y).is_zero():
                found = True
                break
        assert found

    def test_sedenion_product_still_commutative(self):
        j = jordan_algebra(sedenions())
        rng = random.Random(DEFAULT_SEED)
        x, y = random_hermitian(j, rng), random_hermitian(j, rng)
        assert x * y == y * x


def reference_failures(pairs):
    return sum(not jordan_identity_defect(x, y).is_zero() for x, y in pairs)


def batched_failures(j, pairs):
    xs = np.array([x.coeffs for x, _ in pairs], dtype=np.int64)
    ys = np.array([y.coeffs for _, y in pairs], dtype=np.int64)
    return jordan_identity_failures(j, xs, ys)


class TestBatchedJordanIdentity:
    def test_matches_reference_on_j3o(self, j3o):
        rng = random.Random(DEFAULT_SEED)
        pairs = [(random_hermitian(j3o, rng), random_hermitian(j3o, rng)) for _ in range(40)]
        assert batched_failures(j3o, pairs) == reference_failures(pairs) == 0

    def test_matches_reference_over_sedenions(self):
        j = jordan_algebra(sedenions())
        rng = random.Random(DEFAULT_SEED)
        pairs = [(random_hermitian(j, rng, span=3), random_hermitian(j, rng, span=3))
                 for _ in range(6)]
        pairs.append(sedenion_jordan_witness())
        zero = j.zero()
        pairs += [(x, zero) for x, _ in pairs[:3]]  # the identity holds trivially
        expected = reference_failures(pairs)
        assert 0 < expected < len(pairs)
        assert batched_failures(j, pairs) == expected

    def test_large_coordinates_match_reference(self, j3o):
        # second-level products of 10^6-sized coordinates exceed the int64
        # guard, so the sweep must finish on Python ints
        rng = random.Random(DEFAULT_SEED)
        pairs = [(random_hermitian(j3o, rng, span=10**6), random_hermitian(j3o, rng, span=10**6))
                 for _ in range(4)]
        assert batched_failures(j3o, pairs) == reference_failures(pairs) == 0
        x, y = sedenion_jordan_witness()
        big = [(10**6 * x, 10**6 * y)]
        assert batched_failures(x.algebra, big) == reference_failures(big) == 1

    def test_empty_batch(self, j3o):
        empty = np.zeros((0, j3o.dim), dtype=np.int64)
        assert jordan_identity_failures(j3o, empty, empty) == 0


def full_matrix(x):
    """The explicit hermitian 3x3 matrix over K with the coordinates of x."""
    j = x.algebra
    k = j.coefficient_algebra
    m = [[k.zero()] * 3 for _ in range(3)]
    for i in range(3):
        m[i][i] = x.coeffs[i] * k.unit()
    for pos, (r, c) in enumerate(OFF_POSITIONS):
        m[r][c] = k.element(x.coeffs[j.coord_index(pos, 0) : j.coord_index(pos, k.dim)])
        m[c][r] = m[r][c].conjugate()
    return m


class TestExplicitMatrixReference:
    """The tensor product against (XY + YX)/2 of the explicit 3x3 matrices."""

    @pytest.mark.parametrize(
        "builder", COEFFICIENT_ALGEBRAS + [sedenions], ids=["R", "C", "H", "O", "S"]
    )
    def test_jordan_product_matches_matrix_product(self, builder):
        k = builder()
        j = jordan_algebra(k)
        rng = random.Random(DEFAULT_SEED + k.dim)

        def entry(a, b, r, c):
            return sum((a[r][t] * b[t][c] for t in range(3)), k.zero())

        for _ in range(4):
            x, y = random_hermitian(j, rng), random_hermitian(j, rng)
            mx, my = full_matrix(x), full_matrix(y)
            want = [
                [Fraction(1, 2) * (entry(mx, my, r, c) + entry(my, mx, r, c)) for c in range(3)]
                for r in range(3)
            ]
            assert full_matrix(x * y) == want


def dense_jordan_tensor(k):
    """The J3(K) tensor and scale by one dense einsum over the hermitian
    basis matrices and K's tensor: the reference for the sparse build."""
    n = k.dim
    dim = 3 + 3 * n
    conj = np.array(k.conjugation_signs, dtype=np.int64)
    units = np.arange(n)
    basis = np.zeros((dim, 3, 3, n), dtype=np.int64)
    for i in range(3):
        basis[i, i, i, 0] = 1
    for pos, (r, c) in enumerate(OFF_POSITIONS):
        basis[3 + pos * n + units, r, c, units] = 1
        basis[3 + pos * n + units, c, r, units] = conj
    prod = np.einsum("artu,btcv,uvw->abrcw", basis, basis, k.tensor, optimize=True)
    sym = prod + prod.transpose(1, 0, 2, 3, 4)
    rows, cols = (list(t) for t in zip(*OFF_POSITIONS))
    diag = sym[:, :, [0, 1, 2], [0, 1, 2], 0]
    off = sym[:, :, rows, cols].reshape(dim, dim, 3 * n)
    return FiniteAlgebra("ref", np.concatenate([diag, off], axis=2), 2 * k.scale)


class TestConstruction:
    @pytest.mark.parametrize(
        "builder", COEFFICIENT_ALGEBRAS + [sedenions], ids=["R", "C", "H", "O", "S"]
    )
    def test_tensor_matches_dense_einsum(self, builder):
        k = builder()
        j, ref = build_jordan_algebra(k), dense_jordan_tensor(k)
        assert j.tensor.dtype == ref.tensor.dtype
        assert j.tensor.tobytes() == ref.tensor.tobytes()
        assert j.scale == ref.scale

    def test_requires_conjugation(self, j3o):
        with pytest.raises(TypeError):
            build_jordan_algebra(j3o)  # a Jordan algebra has no conjugation

    def test_unit_coords(self, j3o):
        assert j3o.unit_coords == (1, 1, 1) + (0,) * 24

    def test_half_integer_structure_constants(self, j3o):
        # off-diagonal blocks multiply through (xy + yx)/2
        k = j3o.coefficient_algebra
        f1 = j3o.coord_index(0, 0)
        f2 = j3o.coord_index(1, 0)
        cell = [j3o.structure_constant(f1, f2, t) for t in range(j3o.dim)]
        assert Fraction(1, 2) in cell

    def test_caching(self):
        assert jordan_algebra(octonions()) is jordan_algebra(octonions())
