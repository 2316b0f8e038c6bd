import random
from fractions import Fraction

import numpy as np
import pytest

from exatlas.algebras import (
    DEFAULT_SEED,
    AlgebraMismatchError,
    complex_algebra,
    octonions,
    quaternions,
    real_algebra,
    sedenions,
)
from exatlas.jordan import (
    build_jordan_algebra,
    jordan_algebra,
    jordan_algebra_over_sedenions,
    jordan_dim,
    jordan_identity_defect,
    jordan_identity_failures,
    jordan_product,
    sedenion_jordan_witness,
    trace,
    trace_form_gram,
    trace_form_is_positive_definite,
    traceless_projection,
)
from exatlas.linalg import RationalMatrix, rank

COEFFICIENT_ALGEBRAS = [real_algebra, complex_algebra, quaternions, octonions]


def random_hermitian(j, rng, span=9):
    return j.from_coords(tuple(rng.randint(-span, span) for _ in range(j.dim)))


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

    def test_traceless_subspace_dimension(self, j3o):
        # matrix of the traceless projection on coordinates has rank dim - 1
        n = j3o.dim
        cols = []
        for i in range(n):
            basis_vec = j3o.basis_hermitian(i)
            cols.append(basis_vec.traceless_projection().to_coords())
        proj = RationalMatrix.from_rows(list(map(list, zip(*cols))))
        assert rank(proj) == 26


class TestProduct:
    def test_identity_is_unit(self, j3o):
        rng = random.Random(DEFAULT_SEED)
        x = random_hermitian(j3o, rng)
        assert jordan_product(j3o.identity_element(), x).to_coords() == x.to_coords()

    def test_commutative(self, j3o):
        rng = random.Random(DEFAULT_SEED)
        for _ in range(20):
            x, y = random_hermitian(j3o, rng), random_hermitian(j3o, rng)
            assert jordan_product(x, y).to_coords() == jordan_product(y, x).to_coords()

    def test_table_symmetric(self, j3o):
        assert np.array_equal(j3o.tensor, j3o.tensor.transpose(1, 0, 2))

    def test_orthogonal_idempotents(self, j3o):
        e1, e2 = j3o.basis_hermitian(0), j3o.basis_hermitian(1)
        assert jordan_product(e1, e2).is_zero()
        assert jordan_product(e1, e1).to_coords() == e1.to_coords()

    def test_mismatched_algebras_rejected(self, j3o):
        other = jordan_algebra(quaternions())
        with pytest.raises(AlgebraMismatchError):
            jordan_product(j3o.identity_element(), other.identity_element())

    def test_hermiticity_of_expansion(self, j3o):
        rng = random.Random(DEFAULT_SEED)
        x = random_hermitian(j3o, rng)
        m = x.full_matrix()
        for r in range(3):
            assert not any(m[r][r].coeffs[1:])
            for c in range(r + 1, 3):
                assert m[c][r] == m[r][c].conjugate()


class TestTrace:
    def test_trace_of_identity(self, j3o):
        assert trace(j3o.identity_element()) == 3

    def test_traceless_projection_of_identity(self, j3o):
        assert traceless_projection(j3o.identity_element()).is_zero()

    def test_projection_idempotent(self, j3o):
        rng = random.Random(DEFAULT_SEED)
        x = random_hermitian(j3o, rng)
        once = traceless_projection(x)
        assert traceless_projection(once).to_coords() == once.to_coords()
        assert trace(once) == 0

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
        x, y = sedenion_jordan_witness()
        assert not jordan_identity_defect(x, y).is_zero()

    def test_fails_over_sedenions_random_search(self):
        j = jordan_algebra_over_sedenions()
        rng = random.Random(DEFAULT_SEED)
        found = False
        for _ in range(50):
            x, y = random_hermitian(j, rng, span=3), random_hermitian(j, rng, span=3)
            if not jordan_identity_defect(x, y).is_zero():
                found = True
                break
        assert found

    def test_sedenion_product_still_commutative(self):
        j = jordan_algebra_over_sedenions()
        rng = random.Random(DEFAULT_SEED)
        x, y = random_hermitian(j, rng), random_hermitian(j, rng)
        assert jordan_product(x, y).to_coords() == jordan_product(y, x).to_coords()


def reference_failures(pairs):
    return sum(not jordan_identity_defect(x, y).is_zero() for x, y in pairs)


def batched_failures(j, pairs):
    xs = np.array([x.to_coords() for x, _ in pairs], dtype=np.int64)
    ys = np.array([y.to_coords() for _, y in pairs], dtype=np.int64)
    return jordan_identity_failures(j, xs, ys)


class TestBatchedJordanIdentity:
    def test_matches_reference_on_j3o(self, j3o):
        rng = random.Random(DEFAULT_SEED)
        pairs = [(random_hermitian(j3o, rng), random_hermitian(j3o, rng)) for _ in range(40)]
        assert batched_failures(j3o, pairs) == reference_failures(pairs) == 0

    def test_matches_reference_over_sedenions(self):
        j = jordan_algebra_over_sedenions()
        rng = random.Random(DEFAULT_SEED)
        pairs = [(random_hermitian(j, rng, span=3), random_hermitian(j, rng, span=3))
                 for _ in range(6)]
        pairs.append(sedenion_jordan_witness())
        zero = j.from_coords((0,) * j.dim)
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
        assert batched_failures(x.jordan, big) == reference_failures(big) == 1

    def test_empty_batch(self, j3o):
        empty = np.zeros((0, j3o.dim), dtype=np.int64)
        assert jordan_identity_failures(j3o, empty, empty) == 0


class TestExplicitMatrixReference:
    """The tensor product against (XY + YX)/2 of the explicit 3x3 matrices."""

    @pytest.mark.parametrize(
        "builder", COEFFICIENT_ALGEBRAS + [sedenions], ids=["R", "C", "H", "O", "S"]
    )
    def test_jordan_product_matches_matrix_product(self, builder):
        k = builder()
        j = jordan_algebra_over_sedenions() if k is sedenions() else jordan_algebra(k)
        rng = random.Random(DEFAULT_SEED + k.dim)

        def entry(a, b, r, c):
            return sum((a[r][t] * b[t][c] for t in range(3)), k.zero())

        for _ in range(4):
            x, y = random_hermitian(j, rng), random_hermitian(j, rng)
            mx, my = x.full_matrix(), y.full_matrix()
            want = [
                [Fraction(1, 2) * (entry(mx, my, r, c) + entry(my, mx, r, c)) for c in range(3)]
                for r in range(3)
            ]
            assert jordan_product(x, y).full_matrix() == want


class TestConstruction:
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
