import math
import os
import pathlib
import random
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exatlas import lie, linalg
from exatlas.algebras import (
    DEFAULT_SEED,
    RANDOM_COEFF_SPAN,
    FiniteAlgebra,
    complex_algebra,
    octonions,
    quaternions,
    real_algebra,
)
from exatlas.jordan import jordan_algebra
from exatlas.lie import (
    Brackets,
    InvalidInvolutionError,
    LieAlgebraBasis,
    _bracket_tensor,
    _probe_rows,
    bracket,
    cartan_split,
    derivation_algebra,
    diagonal_sign_involution,
    doubled_half_reflection,
    flat_rank,
    generic_rank,
    induced_involution,
    killing_form,
    _span_coords,
    leibniz_constraint_rows,
    named_derivation_algebra,
)
from exatlas.linalg import (
    ComputationCancelled,
    DimensionError,
    RationalMatrix,
    _contract,
    _int_array,
    _join,
    _modp_rref,
    _scaled_int_array,
    _sparse_sum,
    integer_rows,
    is_negative_definite,
    nullspace_basis,
    nullspace_with_info,
    rank,
)
from conftest import deadline, mat
from test_algebras import rescaled


def apply(m, coords):
    """The matrix m times the column of the given exact coordinates."""
    return (m @ RationalMatrix(len(coords), 1, coords)).column(0)


def leibniz_defect_oracle(algebra, d_matrix, x_coords, y_coords):
    """Independent check of D(xy) = D(x)y + xD(y) via element arithmetic."""
    x = algebra.element(x_coords)
    y = algebra.element(y_coords)
    dx = algebra.element(apply(d_matrix, x_coords))
    dy = algebra.element(apply(d_matrix, y_coords))
    lhs = algebra.element(apply(d_matrix, (x * y).coeffs))
    rhs = dx * y + x * dy
    return lhs - rhs


class TestDerivationDimensions:
    def test_complex_has_no_derivations(self):
        assert derivation_algebra(complex_algebra()).dim == 0

    def test_reals_have_no_derivations(self):
        assert derivation_algebra(real_algebra()).dim == 0

    def test_quaternions(self, der_h):
        assert der_h.dim == 3

    def test_algebras_compare_by_identity(self, der_h):
        # the named algebra is cached, so it is one object; a fresh
        # derivation of the same algebra is another
        assert der_h == named_derivation_algebra("quaternions")
        assert hash(der_h) == hash(named_derivation_algebra("quaternions"))
        assert der_h != derivation_algebra(der_h.algebra)

    def test_octonions(self, der_o):
        assert der_o.dim == 14

    def test_j3r(self):
        assert named_derivation_algebra("j3r").dim == 3

    def test_j3c(self):
        assert named_derivation_algebra("j3c").dim == 8

    def test_j3h(self):
        assert named_derivation_algebra("j3h").dim == 21

    def test_j3o(self, der_j3o):
        assert der_j3o.dim == 52


class TestDerivationCertificates:
    def test_leibniz_oracle_on_octonion_derivations(self, der_o):
        rng = random.Random(DEFAULT_SEED)
        o = octonions()
        for d_matrix in der_o.basis[:4]:
            for _ in range(10):
                x = tuple(rng.randint(-5, 5) for _ in range(8))
                y = tuple(rng.randint(-5, 5) for _ in range(8))
                assert leibniz_defect_oracle(o, d_matrix, x, y).is_zero()

    def test_leibniz_oracle_on_j3o_derivations(self, der_j3o, j3o):
        rng = random.Random(DEFAULT_SEED)
        for d_matrix in der_j3o.basis[:3]:
            for _ in range(5):
                x = tuple(rng.randint(-3, 3) for _ in range(27))
                y = tuple(rng.randint(-3, 3) for _ in range(27))
                assert leibniz_defect_oracle(j3o, d_matrix, x, y).is_zero()

    def test_derivations_kill_the_unit(self, der_o, der_j3o, j3o):
        for d_matrix in der_o.basis:
            assert not any(apply(d_matrix, octonions().unit_coords))
        for d_matrix in der_j3o.basis:
            assert not any(apply(d_matrix, j3o.unit_coords))

    def test_basis_is_canonical_echelon(self, der_o):
        flat = [
            [m.entry(i, j) for i in range(8) for j in range(8)] for m in der_o.basis
        ]
        for t, fc in enumerate(der_o.free_coords):
            for s in range(len(flat)):
                assert flat[s][fc] == (1 if s == t else 0)

    def test_constraint_matrix_shape_and_rank(self, der_h):
        # H is not commutative: one equation per ordered pair and output
        # coordinate, n^3 in all, none of them zero, in n^2 unknowns
        rows, ncols = leibniz_constraint_rows(quaternions())
        assert len(rows) == 64
        assert ncols == 16
        assert nullspace_with_info(rows, ncols)[2] == 16 - 3

    def test_j3o_constraint_matrix_rank(self, j3o):
        # J3(O) is commutative: pairs i <= j only, 10206 equations of
        # which 9063 are not zero
        rows, ncols = leibniz_constraint_rows(j3o)
        assert len(rows) == 9063
        assert ncols == 729
        basis, _, rank_ = nullspace_with_info(rows, ncols)
        assert rank_ == 729 - 52
        pivot_cols, _, _ = _modp_rref(rows, ncols, 2**31 - 1)
        assert len(pivot_cols) == 677
        assert basis.rows == 52

    def test_j3o_derive_peak_memory(self, j3o):
        # the closure certificate once held four 52*52*27*27 int64 arrays
        # (67 MB at peak); over the nonzeros the derive peaks near 23 MB
        tracemalloc.start()
        try:
            derivation_algebra(j3o)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    @pytest.mark.parametrize("name", lie.DERIVATION_TARGETS)
    def test_unordered_closure_matches_the_ordered_pairs(self, name):
        l = named_derivation_algebra(name)
        f = l.f
        keys, vals, scale = ordered_pair_constants(l)
        assert f.keys.dtype == keys.dtype and np.array_equal(f.keys, keys)
        assert f.vals.dtype == vals.dtype and np.array_equal(f.vals, vals)
        assert (f.scale, f.shape) == (scale, (l.dim,) * 3)
        # f(b, a, c) = -f(a, b, c), and f(a, a, c) = 0
        d = l.dim
        a, b, c = np.unravel_index(f.keys, (d,) * 3)
        assert not np.any(a == b)
        mirrored = (b * d + a) * d + c
        order = np.argsort(mirrored)
        assert np.array_equal(mirrored[order], f.keys)
        assert np.array_equal(-f.vals[order], f.vals)

    def test_j3o_derive_imports_no_module(self):
        # a numpy call that imports on first use (np.unique pulls in
        # numpy.ma) costs every cold derive about 10 ms
        script = textwrap.dedent(
            """
            import sys
            from exatlas.algebras import octonions
            from exatlas.jordan import jordan_algebra
            from exatlas.lie import derivation_algebra, is_negative_definite, killing_form
            j3o = jordan_algebra(octonions())
            before = set(sys.modules)
            assert is_negative_definite(killing_form(derivation_algebra(j3o)))
            print(sorted(set(sys.modules) ^ before))
            """
        )
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(lie.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_j3o_rows_whose_lift_needs_several_primes(self, j3o):
        # e_k -> 1000^(k mod 3) e_k: one prime cannot lift these entries;
        # the deadline turns a solve that never ends into a failure
        copy = rescaled(j3o, [1000 ** (k % 3) for k in range(j3o.dim)])
        rows, ncols = leibniz_constraint_rows(copy)
        with deadline(60):
            basis, _, rank_ = nullspace_with_info(rows, ncols)
        assert (basis.rows, rank_) == (52, 677)


def ordered_pair_constants(l):
    """Reference f: the bracket of every ordered pair (a, b), a = b
    included, D_a D_b joined on the shared index and the same terms
    negated at (b, a), placed by the span certificate and reduced over
    d_scale^2."""
    d, n = l.dim, l.ambient_dim
    d_int = l._vectors._ints.reshape(d, n, n)
    t, i, j = np.nonzero(d_int)
    v = d_int[t, i, j]
    x, y = _join(j, i)
    ik = i[x] * n + j[y]
    keys, comm = _sparse_sum(
        np.concatenate([(t[x] * d + t[y]) * n * n + ik, (t[y] * d + t[x]) * n * n + ik]),
        np.concatenate([v[x], -v[x]]),
        np.concatenate([v[y], v[y]]),
    )
    f_keys, f_int = _span_coords(keys, comm, d_int, l._vectors._den, l.free_coords)
    scale = l._vectors._den**2
    g = math.gcd(int(np.gcd.reduce(np.abs(f_int))), scale)
    return f_keys, _int_array([q // g for q in f_int.tolist()], (-1,)), scale // g


def reference_leibniz_rows(a):
    """Nonzero constraint rows by direct loops over the rational constants:
    every ordered pair, or pairs i <= j when the algebra is commutative."""
    n = a.dim
    c = [[[a.structure_constant(i, j, k) for k in range(n)] for j in range(n)] for i in range(n)]
    commutative = all(c[i][j] == c[j][i] for i in range(n) for j in range(n))
    rows = []
    for i in range(n):
        for j in range(i if commutative else 0, n):
            for k in range(n):
                acc = {}
                for m in range(n):
                    acc[k * n + m] = acc.get(k * n + m, 0) + c[i][j][m]
                    acc[m * n + i] = acc.get(m * n + i, 0) - c[m][j][k]
                    acc[m * n + j] = acc.get(m * n + j, 0) - c[i][m][k]
                nz = sorted((pos, Fraction(v)) for pos, v in acc.items() if v)
                if nz:
                    den = math.lcm(*(v.denominator for _, v in nz))
                    g = math.gcd(*(int(v * den) for _, v in nz))
                    rows.append([(pos, int(v * den) // g) for pos, v in nz])
    return rows


class TestLeibnizRows:
    @pytest.mark.parametrize(
        "build",
        [
            quaternions,
            octonions,
            lambda: jordan_algebra(complex_algebra()),
            lambda: rescaled(octonions(), [k + 1 for k in range(8)]),
            lambda: rescaled(quaternions(), [1, 1, 2**40, 2**80]),
        ],
        ids=["H", "O", "J3(C)", "O-k+1", "H-2^40-2^80"],
    )
    def test_rows_match_loop_reference(self, build):
        a = build()
        rows, ncols = leibniz_constraint_rows(a)
        assert ncols == a.dim**2
        as_lists = [
            list(zip(rows.cols[lo:hi].tolist(), rows.vals[lo:hi].tolist()))
            for lo, hi in zip(rows.starts[:-1], rows.starts[1:])
        ]
        assert as_lists == reference_leibniz_rows(a)


def unital_algebra(n, products):
    """Unit e0; products maps (i, j, k) to the coefficient of e_k in e_i e_j."""
    t = np.zeros((n, n, n), dtype=np.int64)
    for j in range(n):
        t[0, j, j] = t[j, 0, j] = 1
    for (i, j, k), v in products.items():
        t[i, j, k] = v
    return FiniteAlgebra("A", t)


def satisfies_ordered_leibniz(a, d_matrix):
    """D(e_i e_j) = D(e_i) e_j + e_i D(e_j) for every ordered pair, in Fractions."""
    n = a.dim
    c = a.structure_constant
    d = d_matrix.to_rows()
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = sum(Fraction(c(i, j, m)) * d[k][m] for m in range(n))
                rhs = sum(
                    Fraction(c(m, j, k)) * d[m][i] + Fraction(c(i, m, k)) * d[m][j]
                    for m in range(n)
                )
                if lhs != rhs:
                    return False
    return True


class TestNoncommutativeDerivations:
    def test_product_in_one_order_only(self):
        # e2 e1 = e0 and e1 e2 = 0: pairs i <= j alone also admit D(e1) = e1,
        # D(e2) = 0, which fails Leibniz on the pair (e2, e1)
        a = unital_algebra(3, {(2, 1, 0): 1})
        l = derivation_algebra(a)
        assert l.dim == 1
        assert l.basis[0] == mat([[0, 0, 0], [0, -1, 0], [0, 0, 1]])

    def test_random_unital_algebras(self):
        # for 6 of these 20, the rows of pairs i <= j alone admit non-derivations
        rng = random.Random(DEFAULT_SEED)
        for _ in range(20):
            n = rng.randint(2, 4)
            products = {
                (i, j, k): rng.randint(-2, 2)
                for i in range(1, n)
                for j in range(1, n)
                for k in range(n)
                if rng.random() < 0.2
            }
            a = unital_algebra(n, products)
            for d_matrix in derivation_algebra(a).basis:
                assert satisfies_ordered_leibniz(a, d_matrix)


class TestBracket:
    def test_self_bracket_vanishes(self, der_o):
        d = der_o.basis[0]
        assert bracket(d, d).is_zero()

    def test_shape_mismatch(self, der_o, der_h):
        with pytest.raises(DimensionError):
            bracket(der_o.basis[0], der_h.basis[0])

    def test_structure_constants_antisymmetric(self, der_o):
        f = sparse_f(der_o)
        assert np.array_equal(f, -f.transpose(1, 0, 2))

    def test_jacobi_identity(self, der_o):
        rng = random.Random(DEFAULT_SEED)
        picks = [tuple(rng.randrange(der_o.dim) for _ in range(3)) for _ in range(10)]
        for a, b, c in picks:
            x, y, z = (der_o.basis[t] for t in (a, b, c))
            total = (
                bracket(x, bracket(y, z))
                + bracket(y, bracket(z, x))
                + bracket(z, bracket(x, y))
            )
            assert total.is_zero()

    def test_ad_matrix_columns_are_brackets(self, der_o):
        # column b of ad_x for x = D_a holds the coordinates of the matrix
        # commutator [D_a, D_b], its entries at the free coordinates
        n = der_o.ambient_dim
        for a in (0, 5):
            ad = ad_matrix(der_o, [1 if t == a else 0 for t in range(der_o.dim)])
            for b in range(der_o.dim):
                comm = bracket(der_o.basis[a], der_o.basis[b])
                coords = tuple(comm.entry(*divmod(fc, n)) for fc in der_o.free_coords)
                assert ad.column(b) == coords


class TestKillingForm:
    def test_symmetric(self, der_o):
        assert killing_form(der_o).is_symmetric()

    def test_so3_negative_definite(self, der_h):
        assert is_negative_definite(killing_form(der_h))

    def test_g2_negative_definite_full_rank(self, der_o):
        kf = killing_form(der_o)
        assert is_negative_definite(kf)
        assert rank(kf) == 14

    def test_trivial_algebra_vacuous(self):
        kf = killing_form(derivation_algebra(complex_algebra()))
        assert kf.shape == (0, 0)
        assert is_negative_definite(kf)

    def test_j3_cases_negative_definite(self, der_j3o):
        for name in ("j3r", "j3c", "j3h"):
            assert is_negative_definite(killing_form(named_derivation_algebra(name)))
        assert is_negative_definite(killing_form(der_j3o))

    def test_python_int_form_negative_definite(self):
        # so3 in the basis (1, 1, 2^40, 2^80) of H: entries past 2^62
        kf = killing_form(READER_CASES["H-2^40-2^80"]())
        assert kf._ints.dtype == object
        assert is_negative_definite(kf)


def dense_automorphism_oracle(algebra, sigma):
    """sigma(e_i e_j) = sigma(e_i) sigma(e_j) by the dense einsums over
    the tensor: t sum_m C'[i,j,m] S'[k,m] against
    sum_ab S'[a,i] S'[b,j] C'[a,b,k], with sigma = S'/t."""
    n, s_int, c = algebra.dim, sigma._ints, algebra.tensor
    lhs = _contract(",ijm,km->ijk", n, np.array(sigma._den, dtype=object), c, s_int)
    rhs = _contract("ai,bj,abk->ijk", n * n, s_int, s_int, c, optimize=True)
    return np.array_equal(lhs, rhs)


def _cyclic_quaternion_map(shift):
    """i -> j -> k -> i in the basis f = (1, 1, 2^70, 2^140) of H, with
    one more added to entry (2, 1) when ``shift``."""
    h = rescaled(quaternions(), [1, 1, 2**70, 2**140])
    rows = [
        [1, 0, 0, 0],
        [0, 0, 0, 2**140],
        [0, Fraction(1, 2**70), 0, 0],
        [0, 0, Fraction(1, 2**70), 0],
    ]
    rows[2][1] += shift
    return h, mat(rows)


AUTOMORPHISM_CASES = {
    "O-half-reflection": (True, lambda _: (octonions(), doubled_half_reflection(octonions()))),
    "O-one-sign": (
        False,
        lambda _: (octonions(), RationalMatrix.from_ints(np.diag([1, -1] + [1] * 6), 1)),
    ),
    "O-dense": (False, lambda _: (octonions(), dense_reflection(8, 1))),
    "H-swap": (
        True,
        lambda _: (quaternions(), mat([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]])),
    ),
    "H-cyclic-2^70": (True, lambda _: _cyclic_quaternion_map(0)),
    "H-cyclic-2^70-moved": (False, lambda _: _cyclic_quaternion_map(1)),
    "J3O-signs": (True, lambda j3o: (j3o, diagonal_sign_involution(j3o))),
    "J3O-dense": (False, lambda j3o: (j3o, dense_reflection(27, 2))),
}


class TestAlgebraAutomorphism:
    @pytest.mark.parametrize(
        "expected, build", AUTOMORPHISM_CASES.values(), ids=AUTOMORPHISM_CASES.keys()
    )
    def test_sparse_check_matches_the_dense_einsums(self, j3o, expected, build):
        algebra, sigma = build(j3o)
        assert lie.is_algebra_automorphism(algebra, sigma) is expected
        assert dense_automorphism_oracle(algebra, sigma) is expected


class TestInducedInvolution:
    def test_identity_automorphism(self, der_o):
        theta = induced_involution(octonions(), RationalMatrix.identity(8), der_o)
        assert theta == RationalMatrix.identity(14)

    def test_quaternion_fixing_reflection(self, der_o):
        sigma = doubled_half_reflection(octonions())
        theta = induced_involution(octonions(), sigma, der_o)
        assert theta @ theta == RationalMatrix.identity(14)
        fixed = nullspace_basis(theta - RationalMatrix.identity(14))
        assert len(fixed) == 6

    def test_non_automorphism_rejected(self, der_o):
        bad = RationalMatrix(
            8, 8,
            ((1 if i == j else 0) if i < 7 else (-1 if i == j else 0)
             for i in range(8) for j in range(8)),
        )
        # negating only e7 breaks e.g. e1 * e6 = e7
        with pytest.raises(InvalidInvolutionError):
            induced_involution(octonions(), bad, der_o)

    def test_non_involution_rejected(self, der_o):
        scale = RationalMatrix(8, 8, (2 if i == j else 0 for i in range(8) for j in range(8)))
        with pytest.raises(InvalidInvolutionError):
            induced_involution(octonions(), scale, der_o)

    def test_certified_involution_accepted(self, der_o):
        # an involutive automorphism passes the inline certification, and
        # the theta it induces is an involutive automorphism of Der(O)
        sigma = doubled_half_reflection(octonions())
        theta = induced_involution(octonions(), sigma, der_o)
        assert theta @ theta == RationalMatrix.identity(14)
        assert is_automorphism_oracle(der_o, theta)

    def test_certify_rejects_bad_maps(self, der_o):
        shear = mat(
            [[1, 1] + [0] * 6] + [[1 if i == j else 0 for j in range(8)] for i in range(1, 8)]
        )
        with pytest.raises(InvalidInvolutionError, match="square to the identity"):
            induced_involution(octonions(), shear, der_o)

    def test_certified_for_wrong_algebra_rejected(self, der_o):
        # an involution of H is a 4x4 map, rejected by its size for O
        sigma = doubled_half_reflection(quaternions())
        with pytest.raises(InvalidInvolutionError, match="expected a 8x8 map"):
            induced_involution(octonions(), sigma, der_o)

    def test_non_symmetric_sigma(self):
        # swap i and j, negate k, in the basis (1, i, 2j, k): sigma' = R^-1 sigma R
        # has sigma'[1, 2] = 2 and sigma'[2, 1] = 1/2, so the transport must
        # map axis 2 by sigma' transposed
        h = rescaled(quaternions(), [1, 1, 2, 1])
        sigma = mat([[1, 0, 0, 0], [0, 0, 2, 0], [0, Fraction(1, 2), 0, 0], [0, 0, 0, -1]])
        l = derivation_algebra(h)
        theta = induced_involution(h, sigma, l)
        assert is_automorphism_oracle(l, theta)
        assert cartan_split(l, theta).dims == (1, 2)

    def test_transport_leaving_the_span_rejected(self, der_h):
        # one derivation of H alone; swapping e1, e2 and negating e3 is an
        # automorphism of H that moves it out of its own span
        m = der_h.basis[1]
        line = LieAlgebraBasis(
            core(1, {}).f,
            der_h.algebra,
            (der_h.free_coords[1],),
            RationalMatrix.from_ints(m._ints.reshape(1, -1), m._den),
        )
        sigma = mat([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]])
        with pytest.raises(InvalidInvolutionError, match="leaves the span"):
            induced_involution(der_h.algebra, sigma, line)

    @pytest.mark.parametrize("signs", [(-1, 1), (-1, 1, 1, 1), (-1, 2, 1), (0, 1, 1)])
    def test_diagonal_signs_validated(self, signs):
        # two signs used to raise IndexError, and a fourth was ignored
        with pytest.raises(ValueError, match="three signs"):
            diagonal_sign_involution(jordan_algebra(real_algebra()), signs)

    def test_j3o_diagonal_conjugation(self, der_j3o, j3o):
        sigma = diagonal_sign_involution(j3o, (-1, 1, 1))
        theta = induced_involution(j3o, sigma, der_j3o)
        fixed = nullspace_basis(theta - RationalMatrix.identity(52))
        assert len(fixed) == 36


def assert_eigenbases(pair, theta):
    """k and p are rows of eigenvectors of theta, for +1 and -1."""
    assert pair.k_basis @ theta.transpose() == pair.k_basis
    assert pair.p_basis @ theta.transpose() == pair.p_basis.scale(-1)


class TestCartanSplit:
    def test_identity_gives_trivial_split(self, der_o):
        pair = cartan_split(der_o, RationalMatrix.identity(14))
        assert pair.dims == (14, 0)

    def test_g2_split(self, der_o):
        sigma = doubled_half_reflection(octonions())
        theta = induced_involution(octonions(), sigma, der_o)
        pair = cartan_split(der_o, theta)
        assert pair.dims == (6, 8)
        assert pair.pp_spans_k
        assert pair.kp_spans_p
        assert_eigenbases(pair, theta)

    def test_f4_split(self, der_j3o, j3o):
        sigma = diagonal_sign_involution(j3o, (-1, 1, 1))
        theta = induced_involution(j3o, sigma, der_j3o)
        pair = cartan_split(der_j3o, theta)
        assert pair.dims == (36, 16)
        assert pair.pp_spans_k
        assert pair.kp_spans_p
        assert_eigenbases(pair, theta)

    def test_zero_algebra_splits_trivially(self):
        # Der C = 0: the induced map is 0x0, and the split used to raise
        c = complex_algebra()
        l = derivation_algebra(c)
        pair = cartan_split(l, induced_involution(c, doubled_half_reflection(c), l))
        assert (pair.dims, pair.pp_spans_k, pair.kp_spans_p) == ((0, 0), True, True)
        assert flat_rank(pair) == 0

    def test_swap_map_rejected(self, der_h):
        # exchanging two so(3) basis vectors is involutive but not an automorphism
        swap = mat([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        with pytest.raises(InvalidInvolutionError):
            cartan_split(der_h, swap)

    def test_non_involutive_rejected(self, der_h):
        shear = mat([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(InvalidInvolutionError):
            cartan_split(der_h, shear)

    def test_minus_one_fails_only_pp(self, der_h):
        # k = 0, so [k, k] and [k, p] hold vacuously; [p, p] = so(3) is not 0
        with pytest.raises(InvalidInvolutionError, match=r"\[p, p\] escapes k"):
            cartan_split(der_h, RationalMatrix.identity(3).scale(-1))

    def test_center_mixed_into_p_fails_only_kp(self):
        # theta fixes x1 and z and negates x2 and x3 + z: [x2, x3 + z] = -x1
        # lies in k and [x1, x3 + z] = x2 in p, but [x1, x2] = -x3 is not in p
        theta = mat([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, -2, 1]])
        with pytest.raises(InvalidInvolutionError, match=r"\[k, p\] escapes p"):
            cartan_split(so3_plus_center(), theta)

    def test_identity_flags_come_from_the_exact_rank(self, der_o, solves, modular_ranks):
        # [p, p] = 0 has mod-p rank 0 < dim k = 14, so the exact rank
        # decides pp_spans_k; p = 0 is spanned by [k, p] = 0 at rank 0
        pair = cartan_split(der_o, RationalMatrix.identity(14))
        assert (pair.dims, pair.pp_spans_k, pair.kp_spans_p) == ((14, 0), False, True)
        assert (len(solves), len(modular_ranks)) == (3, 2)

    @pytest.mark.parametrize("name", ["G", "FII"])
    def test_flags_take_one_elimination_each(self, der_o, der_j3o, j3o, name, solves, modular_ranks):
        # the exact solves are k and p; each flag is proved by a full rank mod p
        pair = compact_split(name, der_o, der_j3o, j3o)
        assert (pair.pp_spans_k, pair.kp_spans_p) == (True, True)
        assert (len(solves), len(modular_ranks)) == (2, 2)

    @pytest.mark.parametrize("name", ["G", "FII"])
    def test_a_mod_p_rank_one_short_falls_back_to_the_exact_rank(
        self, der_o, der_j3o, j3o, name, monkeypatch
    ):
        rref = lie._modp_rref

        def one_short(*args):
            pivcols, rows, pivrows = rref(*args)
            return pivcols[:-1], rows[:-1], pivrows[:-1]

        monkeypatch.setattr(lie, "_modp_rref", one_short)
        solves = _calls_from_lie(monkeypatch, "nullspace_with_info")
        pair = compact_split(name, der_o, der_j3o, j3o)
        assert (pair.pp_spans_k, pair.kp_spans_p) == (True, True)
        # the exact ranks of [p, p] at k's free columns and [k, p] at p's
        assert [ncols for _, ncols in solves[2:]] == [pair.k_dim, pair.p_dim]

    def test_splits_by_the_same_map_compare_equal(self, der_o, der_j3o, j3o):
        # the kept brackets are read from lie and p_basis, and take no part
        pair = compact_split("G", der_o, der_j3o, j3o)
        again = compact_split("G", der_o, der_j3o, j3o)
        assert pair == again and hash(pair) == hash(again)

    def test_brackets_alone_split_and_probe(self, der_o):
        # g2's f with no algebra and no matrices: the Killing form, the
        # split and the ranks read f only; the transport needs matrices
        bare = LieAlgebraBasis(der_o.f)
        o = der_o.algebra
        theta = induced_involution(o, doubled_half_reflection(o), der_o)
        assert (killing_form(bare), bare.is_compact) == (killing_form(der_o), True)
        pair = cartan_split(bare, theta)
        assert (pair.dims, pair.pp_spans_k, pair.kp_spans_p) == ((6, 8), True, True)
        assert (generic_rank(bare), flat_rank(pair)) == (2, 2)
        with pytest.raises(ValueError, match="not realized"):
            induced_involution(o, doubled_half_reflection(o), bare)
        with pytest.raises(ValueError, match="no matrix realization"):
            bare.basis

    def test_plane_of_so3_fails_kk_first(self, der_h):
        # so(3) has no 2-dimensional subalgebra, so [k, k] escapes k (and
        # [k, p] escapes p too); the inclusions are checked in order
        theta = RationalMatrix.from_ints(np.diag([1, 1, -1]), 1)
        with pytest.raises(InvalidInvolutionError, match=r"\[k, k\] escapes k"):
            cartan_split(der_h, theta)


def core(dim, upper) -> LieAlgebraBasis:
    """A Lie algebra from its brackets alone, with no realization:
    f(a, b, c) = upper[a, b, c] for a < b, and f(b, a, c) = -f(a, b, c)."""
    f = np.zeros((dim,) * 3, dtype=np.int64)
    for (a, b, c), v in upper.items():
        f[a, b, c], f[b, a, c] = v, -v
    keys = np.flatnonzero(f)
    return LieAlgebraBasis(Brackets(keys, f.ravel()[keys], f.shape))


def so3_plus_center() -> LieAlgebraBasis:
    """so(3) + R: x1, x2, x3 are the rotations E_01 - E_10, E_02 - E_20
    and E_12 - E_21 of the first three coordinates, with [x1, x2] = -x3,
    [x1, x3] = x2 and [x2, x3] = -x1, and z is central."""
    return core(4, {(0, 1, 2): -1, (0, 2, 1): 1, (1, 2, 0): -1})


def _diagonal_in_copy(sigma: RationalMatrix, perm) -> RationalMatrix:
    """A diagonal map of the e-basis, written in the basis f_k = c_k e_perm[k]."""
    n = sigma.rows
    perm = range(n) if perm is None else perm
    return RationalMatrix(
        n, n, (sigma.entry(perm[i], perm[i]) if i == j else 0 for i in range(n) for j in range(n))
    )


def assert_ranks_meet_their_floors(pair, rank, flat):
    """The generic and flat ranks, each certified by its two bounds with
    no exact solve."""
    with mock.patch.object(lie, "nullspace_with_info", wraps=nullspace_with_info) as solve:
        assert (generic_rank(pair.lie), flat_rank(pair)) == (rank, flat)
    assert solve.call_count == 0


def assert_f4_in_rescaled_j3o(j3o, factors):
    copy = rescaled(j3o, factors)
    l = derivation_algebra(copy)
    assert l.dim == 52
    assert is_negative_definite(killing_form(l))
    # a diagonal map keeps its matrix under a diagonal rescaling
    pair = cartan_split(l, induced_involution(copy, diagonal_sign_involution(j3o), l))
    assert (pair.dims, pair.pp_spans_k, pair.kp_spans_p) == ((36, 16), True, True)
    assert_ranks_meet_their_floors(pair, 4, 1)


class TestBasisIndependence:
    """Copies in other bases: Der, the Killing form and the splits must agree."""

    OCTONION_COPIES = {
        "O-k+1": ([k + 1 for k in range(8)], None),
        "O-2^40(k mod 3)": ([2 ** (40 * (k % 3)) for k in range(8)], None),
        "O-signed-perm": ([1, -1, 1, 1, -1, -1, 1, -1], [0, 3, 6, 2, 7, 1, 5, 4]),
    }

    @pytest.mark.parametrize(
        "factors,perm", OCTONION_COPIES.values(), ids=OCTONION_COPIES.keys()
    )
    def test_g2_in_another_octonion_basis(self, factors, perm):
        o = rescaled(octonions(), factors, perm)
        l = derivation_algebra(o)
        assert l.dim == 14
        assert is_negative_definite(killing_form(l))
        sigma = _diagonal_in_copy(doubled_half_reflection(octonions()), perm)
        pair = cartan_split(l, induced_involution(o, sigma, l))
        assert (pair.dims, pair.pp_spans_k, pair.kp_spans_p) == ((6, 8), True, True)
        assert_ranks_meet_their_floors(pair, 2, 2)

    @settings(max_examples=10, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=9), min_size=8, max_size=8),
        st.lists(st.sampled_from([1, -1]), min_size=7, max_size=7),
        st.permutations(range(1, 8)),
    )
    def test_g2_in_random_octonion_bases(self, scales, signs, perm):
        # f_k = scales[k] * signs[k] * e_perm[k]; the unit e0 is only rescaled
        factors = [scales[0]] + [f * s for f, s in zip(scales[1:], signs)]
        l = derivation_algebra(rescaled(octonions(), factors, [0, *perm]))
        assert l.dim == 14
        assert is_negative_definite(killing_form(l))
        assert generic_rank(l) == 2

    @pytest.mark.parametrize(
        "factors", [[1, 1, 2**40, 2**80], [1, 101, 103, 107]], ids=["2^40-2^80", "primes"]
    )
    def test_so3_in_a_rescaled_quaternion_basis(self, factors):
        # with the primes the brackets fit int64 but their product with the
        # basis scale (2^27 or so) does not
        assert derivation_algebra(rescaled(quaternions(), factors)).dim == 3

    def test_span_check_scales_past_int64(self):
        # brackets near 2^61 times the basis scale 4 leave int64
        basis = np.array([[4, 0], [0, 4]], dtype=np.int64)
        keys, vals = np.array([0, 1]), np.array([2**61, 1], dtype=np.int64)
        assert _span_coords(keys, vals, basis, 4, (0, 1)) is not None
        assert _span_coords(keys, vals, basis[:1], 4, (0,)) is None

    def test_j3h_in_a_rescaled_basis(self):
        j3h = jordan_algebra(quaternions())
        copy = rescaled(j3h, [k + 1 for k in range(j3h.dim)])
        l = derivation_algebra(copy)
        assert l.dim == 21
        # a diagonal map keeps its matrix under a diagonal rescaling
        pair = cartan_split(l, induced_involution(copy, diagonal_sign_involution(j3h), l))
        assert (pair.dims, pair.pp_spans_k, pair.kp_spans_p) == ((13, 8), True, True)
        assert flat_rank(pair) == 1

    def test_f4_in_a_rescaled_j3o_basis(self, j3o):
        # d_scale is about 2^68 here, so the constants run on Python ints
        assert_f4_in_rescaled_j3o(j3o, [k + 1 for k in range(j3o.dim)])

    @settings(max_examples=3, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=9), min_size=27, max_size=27))
    def test_f4_in_random_rescaled_j3o_bases(self, j3o, factors):
        assert_f4_in_rescaled_j3o(j3o, factors)


class TestGenericRank:
    def test_abelian_everything_central(self):
        assert generic_rank(core(2, {})) == 2

    def test_so3_rank_one(self, der_h):
        assert generic_rank(der_h) == 1

    def test_so3_rank_via_explicit_kernel(self, der_h):
        # oracle: kernel of the ad matrix of a fixed generic element
        coords = (1, 2, 3)
        ad = ad_matrix(der_h, coords)
        assert len(nullspace_basis(ad)) == 1

    def test_g2_rank_two(self, der_o):
        assert generic_rank(der_o) == 2

    def test_f4_rank_four(self, der_j3o):
        assert generic_rank(der_j3o) == 4

    def test_f4_probes_eliminate_once_per_trial(self, der_j3o, monkeypatch):
        # the 4 kernel vectors need 8-9 primes' worth of digits; those come
        # from p-adic steps, not from one elimination per extra prime
        calls = []
        modp_rref = linalg._modp_rref

        def counted(*args):
            calls.append(args)
            return modp_rref(*args)

        monkeypatch.setattr(linalg, "_modp_rref", counted)
        for c in lie._probe_coefficients(None, 5, der_j3o.dim):
            assert nullspace_with_info(integer_rows(ad_ints(der_j3o, c)), der_j3o.dim)[2] == 48
        assert len(calls) <= 2 * 5

    def test_more_trials_never_increase(self, der_o):
        few = generic_rank(der_o, trials=1, rng=random.Random(3))
        many = generic_rank(der_o, trials=5, rng=random.Random(3))
        assert many <= few

    def test_trials_validated(self, der_o):
        with pytest.raises(ValueError):
            generic_rank(der_o, trials=0)


class TestFlatRank:
    def test_g2_space_rank_two(self, der_o):
        sigma = doubled_half_reflection(octonions())
        pair = cartan_split(der_o, induced_involution(octonions(), sigma, der_o))
        assert flat_rank(pair) == 2

    def test_f4_space_rank_one(self, der_j3o, j3o):
        sigma = diagonal_sign_involution(j3o, (-1, 1, 1))
        pair = cartan_split(der_j3o, induced_involution(j3o, sigma, der_j3o))
        assert flat_rank(pair) == 1

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_validated(self, der_o, trials):
        # no trial used to return p_dim (8 here) for a rank-2 space
        sigma = doubled_half_reflection(octonions())
        pair = cartan_split(der_o, induced_involution(octonions(), sigma, der_o))
        with pytest.raises(ValueError):
            flat_rank(pair, trials=trials)


def exhaustive_generic_rank(l, trials, rng):
    """The minimum of dim ker(ad_x) over every trial, with no early stop:
    the reference for the certified probes."""
    best = l.dim
    for _ in range(trials):
        x = [rng.randint(-RANDOM_COEFF_SPAN, RANDOM_COEFF_SPAN) for _ in range(l.dim)]
        best = min(best, l.dim - rank(ad_matrix(l, x)))
    return best


def exhaustive_flat_rank(pair, trials, rng):
    """The minimum over every trial of dim {y in p : [x, y] = 0}."""
    p_t = pair.p_basis.transpose()
    best = pair.p_dim
    for _ in range(trials):
        c = [rng.randint(-RANDOM_COEFF_SPAN, RANDOM_COEFF_SPAN) for _ in range(pair.p_dim)]
        constraint = ad_matrix(pair.lie, apply(p_t, c)) @ p_t
        best = min(best, pair.p_dim - rank(constraint))
    return best


def rng_after_draws(seed, draws):
    rng = random.Random(seed)
    for _ in range(draws):
        rng.randint(-RANDOM_COEFF_SPAN, RANDOM_COEFF_SPAN)
    return rng.getstate()


def test_probe_coefficients_are_the_randint_draws():
    rng, ref = random.Random(5), random.Random(5)
    got = lie._probe_coefficients(rng, 3, 52)
    assert got.shape == (3, 52)
    assert got.ravel().tolist() == [
        ref.randint(-RANDOM_COEFF_SPAN, RANDOM_COEFF_SPAN) for _ in range(3 * 52)
    ]
    assert rng.getstate() == ref.getstate()


class StubRng:
    """The given values first, then seeded draws, as the probes read them
    through ``getrandbits``: value v is the 32-bit word whose top bits
    are v + span, which ``randint(-span, span)`` never rejects."""

    SHIFT = 32 - (2 * RANDOM_COEFF_SPAN + 1).bit_length()

    def __init__(self, first, seed):
        self.first = list(first)
        self.rng = random.Random(seed)

    def getrandbits(self, k):
        given, self.first = self.first[: k // 32], self.first[k // 32 :]
        words = sum((v + RANDOM_COEFF_SPAN) << (self.SHIFT + 32 * i) for i, v in enumerate(given))
        return words | self.rng.getrandbits(k - 32 * len(given)) << (32 * len(given))


def _calls_from_lie(monkeypatch, name):
    """Every call of the function bound to ``name`` in ``lie``, in order."""
    calls = []
    fn = getattr(lie, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(lie, name, counted)
    return calls


@pytest.fixture
def solves(monkeypatch):
    """Every ``nullspace_with_info`` call made from ``lie``, in order."""
    return _calls_from_lie(monkeypatch, "nullspace_with_info")


@pytest.fixture
def modular_ranks(monkeypatch):
    """Every ``_modp_rref`` call made from ``lie``: the probes' ceilings."""
    return _calls_from_lie(monkeypatch, "_modp_rref")


def compact_split(name, der_o, der_j3o, j3o):
    """The split G of g2 or FII of f4, as the benchmark's probe round splits them."""
    if name == "G":
        o = der_o.algebra
        return cartan_split(der_o, induced_involution(o, doubled_half_reflection(o), der_o))
    sigma = diagonal_sign_involution(j3o, (-1, 1, 1))
    return cartan_split(der_j3o, induced_involution(j3o, sigma, der_j3o))


@pytest.fixture(scope="module")
def compact_splits(der_o, der_j3o, j3o):
    return {name: compact_split(name, der_o, der_j3o, j3o) for name in ("G", "FII")}


def seeded_rank(name, der_j3o, compact_splits):
    """The rank of f4, or the flat rank of the named split, over five
    seeded trials."""
    if name == "f4":
        return generic_rank(der_j3o, trials=5)
    return flat_rank(compact_splits[name], trials=5)


def probe_space(name, der_j3o, compact_splits):
    """The brackets ``seeded_rank`` probes: f of f4, or the named pair's [p, p]."""
    return der_j3o.f if name == "f4" else compact_splits[name]._pp


def shift_floor(monkeypatch, space, shift):
    """The floor kept on the brackets space, moved by shift for this
    test, so the probes find the moved one; the undo puts the true floor
    back."""
    monkeypatch.setitem(vars(space), "floor", space.floor + shift)


@pytest.fixture
def floors_found(monkeypatch):
    """Every space whose floor is found, not read from where it was kept."""
    found = []
    floor = lie.Brackets.floor.func
    monkeypatch.setattr(lie.Brackets.floor, "func", lambda space: found.append(space) or floor(space))
    return found


class TestCertifiedRankProbes:
    """The probes stop at the first trial certified regular, and return the
    minimum over every trial."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("name", ["quaternions", "octonions", "j3o"])
    def test_generic_rank_is_the_minimum_over_every_trial(self, name, seed):
        l = named_derivation_algebra(name)
        rng = random.Random(seed)
        assert generic_rank(l, trials=5, rng=rng) == exhaustive_generic_rank(
            l, 5, random.Random(seed)
        )
        assert rng.getstate() == rng_after_draws(seed, 5 * l.dim)

    def test_generic_rank_takes_no_product_with_an_identity_basis(self, der_j3o, monkeypatch):
        # over all of l the probe is its own coefficients, ad_x its own
        # constraint and the kernel already in coordinates of l
        subscripts = []
        contract = lie._contract

        def counted(spec, *args, **kwargs):
            subscripts.append(spec)
            return contract(spec, *args, **kwargs)

        monkeypatch.setattr(lie, "_contract", counted)
        assert generic_rank(der_j3o, trials=2) == 4
        assert subscripts == []

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("name", ["G", "FII"])
    def test_flat_rank_is_the_minimum_over_every_trial(self, compact_splits, name, seed):
        pair = compact_splits[name]
        rng = random.Random(seed)
        assert flat_rank(pair, trials=5, rng=rng) == exhaustive_flat_rank(
            pair, 5, random.Random(seed)
        )
        assert rng.getstate() == rng_after_draws(seed, 5 * pair.p_dim)

    @pytest.mark.parametrize(
        "build, expected",
        [(lambda: derivation_algebra(matrix_algebra_2x2()), 1), (lambda: core(2, {}), 2)],
        ids=["sl2", "abelian"],
    )
    @pytest.mark.parametrize("trials", [1, 3])
    def test_noncompact_algebras_solve_every_trial(self, build, expected, trials, solves):
        # sl2 = Der M2(Q) has an indefinite Killing form, the abelian one a zero form
        l = build()
        solves.clear()  # the sl2 derive solves a system too
        assert not l.is_compact
        assert generic_rank(l, trials=trials, rng=random.Random(5)) == expected
        assert len(solves) == trials

    @pytest.mark.parametrize("first", ["zero", "unit"])
    def test_f4_moves_past_a_zero_or_singular_first_draw(
        self, der_j3o, first, solves, modular_ranks
    ):
        # e_0 is singular: its centralizer in f4 has dimension 22; the
        # ceiling of either draw is above the floor, so it is solved exactly
        draw = [0] * der_j3o.dim
        if first == "unit":
            draw[0] = 1
        rng = StubRng(draw, 3)
        assert generic_rank(der_j3o, trials=5, rng=rng) == 4
        assert (len(modular_ranks), len(solves)) == (2, 1)
        assert rng.rng.getstate() == rng_after_draws(3, 4 * der_j3o.dim)

    def test_g2_split_moves_past_a_singular_first_draw(self, compact_splits, solves, modular_ranks):
        # the first p basis vector has a 3-dimensional centralizer in p
        pair = compact_splits["G"]
        rng = StubRng([1] + [0] * (pair.p_dim - 1), 3)
        assert flat_rank(pair, trials=5, rng=rng) == 2
        assert (len(modular_ranks), len(solves)) == (2, 1)
        assert rng.rng.getstate() == rng_after_draws(3, 4 * pair.p_dim)

    def test_seeded_f4_probe_meets_the_floor_unsolved(self, der_j3o, solves, modular_ranks):
        assert generic_rank(der_j3o, trials=5) == 4
        assert (len(modular_ranks), len(solves)) == (1, 0)

    @pytest.mark.parametrize("name", ["f4", "G", "FII"])
    def test_a_floor_one_short_falls_back_to_the_exact_solve(
        self, der_j3o, compact_splits, name, solves, modular_ranks, monkeypatch
    ):
        shift_floor(monkeypatch, probe_space(name, der_j3o, compact_splits), -1)
        assert seeded_rank(name, der_j3o, compact_splits) == {"f4": 4, "G": 2, "FII": 1}[name]
        # the first probe's kernel is certified maximal abelian
        assert (len(modular_ranks), len(solves)) == (1, 1)

    @pytest.mark.parametrize("name", ["f4", "G"])
    def test_a_floor_above_a_ceiling_raises(self, der_j3o, compact_splits, name, monkeypatch):
        shift_floor(monkeypatch, probe_space(name, der_j3o, compact_splits), 1)
        with pytest.raises(RuntimeError, match="outnumber"):
            seeded_rank(name, der_j3o, compact_splits)

    def test_floors_meet_the_ranks(self, der_o, der_j3o, compact_splits):
        assert (der_o.f.floor, der_j3o.f.floor) == (2, 4)
        assert [p._pp.floor for p in compact_splits.values()] == [2, 1]

    def test_floors_are_kept(self, der_j3o, compact_splits, floors_found, monkeypatch):
        # found on first use, once per algebra or pair, and read after
        spaces = [der_j3o.f, *(p._pp for p in compact_splits.values())]
        for space in spaces:
            monkeypatch.delitem(vars(space), "floor", raising=False)
        for _ in range(2):
            assert generic_rank(der_j3o) == 4
            assert [flat_rank(p) for p in compact_splits.values()] == [2, 1]
        assert floors_found == spaces

    @pytest.mark.parametrize("name", ["f4", "G", "FII"])
    def test_abelian_test_matches_the_dense_brackets(self, der_j3o, compact_splits, name):
        # the kernels of a seeded probe and of e_0, also as Python ints,
        # against every bracket of the kernel by the dense einsum over V's
        # tensor; e_0's centralizer is not abelian in f4 (of dimension 22)
        # nor in G's p (of dimension 3)
        brackets = probe_space(name, der_j3o, compact_splits)
        m = brackets.shape[0]
        dense = lie._dense(brackets.shape, brackets.keys, brackets.vals)
        e_0 = np.eye(m, dtype=np.int64)[0]
        found = []
        for x in (lie._probe_coefficients(None, 1, m)[0], e_0):
            kernel, free, _ = nullspace_with_info(_probe_rows(brackets, x), m)
            b = kernel._ints
            want = not _contract("ia,jb,abc->ijc", m * m, b, b, dense, optimize=True).any()
            for ints in (b, b.astype(object) * 2**70):
                assert lie._is_maximal_abelian(brackets, x[free], ints) == want
            found.append(want)
        assert found == [True, name == "FII"]

    @pytest.mark.parametrize("name", ["G", "FII"])
    def test_probe_constraint_on_p(self, compact_splits, name):
        # the constraint read from [p, p] is ad_x times p's basis
        pair = compact_splits[name]
        rng = random.Random(DEFAULT_SEED)
        for span in (9, 2**70):
            x = np.array([rng.randint(-span, span) for _ in range(pair.p_dim)], dtype=object)
            dense = dense_probe_constraint(pair.lie, x, pair.p_basis._ints)
            assert_rows_equal(_probe_rows(pair._pp, x), integer_rows(dense))


@pytest.mark.parametrize("seed", [2000, 2001, 7000])
def test_a_probe_round_solves_four_systems(der_o, der_j3o, j3o, seed, solves, modular_ranks):
    # one round of the benchmark's probe-warm workload: the two splits
    # solve k and p each, and each flag and each rank takes one
    # elimination mod p
    rng = random.Random(seed)
    g, fii = (compact_split(name, der_o, der_j3o, j3o) for name in ("G", "FII"))
    ranks = [generic_rank(der_o, rng=rng), generic_rank(der_j3o, rng=rng)]
    ranks += [flat_rank(g, rng=rng), flat_rank(fii, rng=rng)]
    assert ranks == [2, 4, 2, 1]
    assert (len(solves), len(modular_ranks)) == (4, 8)


class TestCancellation:
    def test_cancel_token_interrupts(self, monkeypatch):
        # checked before a derivation that is not cached yet starts
        monkeypatch.setattr(lie, "_NAMED_CACHE", {})
        with pytest.raises(ComputationCancelled):
            named_derivation_algebra("j3h", cancel=lambda: True)
        assert lie._NAMED_CACHE == {}


# ---------------------------------------------------------------------------
# dense references for the sparse readers of the bracket constants
# ---------------------------------------------------------------------------

def matrix_algebra_2x2():
    """M2(Q) on I, E11 - E22, 2 E12, E21: noncommutative, unital, Der = sl2."""
    return unital_algebra(4, {
        (1, 1, 0): 1,
        (1, 2, 2): 1, (2, 1, 2): -1,
        (1, 3, 3): -1, (3, 1, 3): 1,
        (2, 3, 0): 1, (2, 3, 1): 1,
        (3, 2, 0): 1, (3, 2, 1): -1,
    })


READER_CASES = {
    "g2": lambda: named_derivation_algebra("octonions"),
    "f4": lambda: named_derivation_algebra("j3o"),
    "O-k+1": lambda: derivation_algebra(rescaled(octonions(), [k + 1 for k in range(8)])),
    "H-2^40-2^80": lambda: derivation_algebra(rescaled(quaternions(), [1, 1, 2**40, 2**80])),
    "M2": lambda: derivation_algebra(matrix_algebra_2x2()),
}


@pytest.fixture(scope="module", params=READER_CASES.values(), ids=READER_CASES.keys())
def lie_case(request):
    return request.param()


def sparse_f(l):
    """f from its sparse form, as a dense array over l.f.scale."""
    return lie._dense(l.f.shape, l.f.keys, l.f.vals)


def ad_ints(l, x_int):
    """ad_x for integer coordinates x, over l.f.scale, by the dense
    einsum over f: entry (c, b) is sum_a x[a] f(a, b, c)."""
    return _contract("a,abc->cb", l.dim, x_int, sparse_f(l))


def ad_matrix(l, coords):
    """The matrix of ad_x on l, for x with the given exact coordinates."""
    x_int, x_scale = _scaled_int_array(list(coords), (l.dim,))
    return RationalMatrix.from_ints(ad_ints(l, x_int), x_scale * l.f.scale)


def dense_probe_constraint(l, x, basis):
    """The constraint of the probe sum_u x[u] basis[u] on the span of
    the integer rows of basis, by the dense einsums over f: ad_x times
    the basis, row c and column v."""
    return _contract(
        "u,ua,vb,abc->cv", l.dim**2 * len(x), x, basis, basis, sparse_f(l), optimize=True
    )


def assert_rows_equal(got, expected):
    assert got.starts.tolist() == expected.starts.tolist()
    assert got.cols.tolist() == expected.cols.tolist()
    assert got.vals.tolist() == expected.vals.tolist()


def dense_f_oracle(l):
    """f by the dense einsums over the basis matrices, over d_scale^2:
    all brackets, their entries at the free coordinates, and the
    closure check that rebuilds every bracket from them."""
    d, n = l.dim, l.ambient_dim
    d_int = l._vectors._ints.reshape(d, n, n)
    prod = _contract("aij,bjk->abik", 2 * n, d_int, d_int, optimize=True)
    comm = (prod - prod.transpose(1, 0, 2, 3)).reshape(d, d, n * n)
    f = comm[:, :, list(l.free_coords)]
    recon = _contract("abt,ti->abi", d, f, l._vectors._ints)
    assert np.array_equal(recon, comm * l._vectors._den)
    return f


def is_automorphism_oracle(l, theta):
    """theta [x, y] = [theta x, theta y] by the dense einsums over f."""
    f, t = sparse_f(l), theta._ints
    lhs = _contract("ca,db,cde->abe", l.dim**2, t, t, f, optimize=True)
    rhs = _contract(",ec,abc->abe", l.dim, np.array(theta._den, dtype=object), t, f)
    return np.array_equal(lhs, rhs)


def dense_reflection(d, seed):
    """theta = 1 - 2 u v^T / (v . u) for random integer u, v without
    zeros: an involution with every off-diagonal entry nonzero."""
    rng = random.Random(seed)
    while True:
        u, v = ([rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(d)] for _ in range(2))
        uv = sum(a * b for a, b in zip(u, v))
        if uv:
            break
    ints = np.eye(d, dtype=np.int64) * uv - 2 * np.outer(u, v)
    return RationalMatrix.from_ints(ints, uv)


def conjugated_split(d, k, seed):
    """theta = W diag(1^k, -1^(d - k)) W^-1, the split along the columns
    of W = [[1, B], [A, AB + 1]] for random sign matrices A and B.  W is
    a product of two unit block-triangular factors, so its inverse
    [[1 + BA, -B], [-A, 1]] is an integer matrix too; the eigenspaces,
    spanned by dense columns, have dense echelon bases."""
    rng = np.random.default_rng(seed)
    a = rng.choice([-1, 1], (d - k, k))
    b = rng.choice([-1, 1], (k, d - k))
    one_k, one_p = np.eye(k, dtype=np.int64), np.eye(d - k, dtype=np.int64)
    w = np.block([[one_k, b], [a, a @ b + one_p]])
    w_inv = np.block([[one_k + b @ a, -b], [-a, one_p]])
    assert np.array_equal(w @ w_inv, np.eye(d, dtype=np.int64))
    signs = np.array([1] * k + [-1] * (d - k))
    return RationalMatrix.from_ints(w * signs @ w_inv, 1)


class TestSparseReadersMatchDenseEinsums:
    def test_structure_constants(self, lie_case):
        l = lie_case
        d_sq = l._vectors._den**2
        assert np.array_equal(dense_f_oracle(l) * l.f.scale, sparse_f(l) * d_sq)
        assert list(l.f.keys) == sorted(l.f.keys)
        assert all(l.f.vals)

    def test_killing_form(self, lie_case):
        l = lie_case
        f = sparse_f(l)
        k_int = _contract("axy,byx->ab", l.dim**2, f, f)
        assert killing_form(l) == RationalMatrix.from_ints(k_int, l.f.scale**2)

    def test_probe_constraint(self, lie_case):
        # the constraint read from f as the V bracket tensor is ad_x
        l = lie_case
        rng = random.Random(DEFAULT_SEED)
        for span in (9, 2**70):
            x = np.array([rng.randint(-span, span) for _ in range(l.dim)], dtype=object)
            assert_rows_equal(_probe_rows(l.f, x), integer_rows(ad_ints(l, x)))

    def test_bracket_tensor(self, lie_case):
        # the dense brackets' nonzero entries, at the keys of the pairs
        l = lie_case
        rng = random.Random(DEFAULT_SEED)
        d = l.dim
        for rows, density in ((d, 1.0), (3, 0.3), (0, 1.0)):
            left, right = (
                np.array(
                    [[rng.randint(-5, 5) if rng.random() < density else 0 for _ in range(d)]
                     for _ in range(rows)],
                    dtype=np.int64,
                ).reshape(rows, d)
                for _ in range(2)
            )
            dense = _contract("ia,jb,abc->ijc", d * d, left, right, sparse_f(l), optimize=True)
            got = _bracket_tensor(l.f, left, right)
            assert (got.shape, got.scale) == (dense.shape, l.f.scale)
            assert got.keys.tolist() == np.flatnonzero(dense).tolist()
            assert got.vals.tolist() == dense.ravel()[got.keys].tolist()

    def test_split_accepts_what_the_dense_check_accepts(self, lie_case):
        l = lie_case
        for theta in (RationalMatrix.identity(l.dim), dense_reflection(l.dim, DEFAULT_SEED)):
            try:
                cartan_split(l, theta)
                accepted = True
            except InvalidInvolutionError:
                accepted = False
            assert accepted == is_automorphism_oracle(l, theta)


class TestDenseInvolutions:
    def test_f4_split_certified_against_the_dense_check(self, der_j3o, j3o):
        theta = induced_involution(j3o, diagonal_sign_involution(j3o, (-1, 1, 1)), der_j3o)
        assert is_automorphism_oracle(der_j3o, theta)
        assert cartan_split(der_j3o, theta).dims == (36, 16)

    def test_dense_non_automorphism_rejected_in_slices(self, der_j3o):
        # every row of theta's +1 eigenbasis is dense (nonzero at most of
        # the d - dim k pivot columns of the echelon form), so its brackets
        # run in slices, and so do the inclusion products; the peak stays
        # far below the dense check's d^4 int64.  With the product taken
        # whole, the 36-dimensional k peaked at 20 MB
        for k_dim in (16, 36):
            theta = conjugated_split(52, k_dim, 3)
            k, _, _ = nullspace_with_info(integer_rows(theta - RationalMatrix.identity(52)), 52)
            assert k.rows == k_dim
            assert np.count_nonzero(k._ints, axis=1).min() > (52 - k_dim) // 2
            assert not is_automorphism_oracle(der_j3o, theta)
            tracemalloc.start()
            try:
                with pytest.raises(InvalidInvolutionError, match="preserve the bracket"):
                    cartan_split(der_j3o, theta)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 52**4 * 8 / 4

    def test_check_slices_hold_about_d_squared_terms(self, der_j3o, monkeypatch):
        # an entry of a bracket at column c joins the nonzeros of column c
        # of theta -/+ 1, so the checks are cut by those join terms: with
        # a dense theta -/+ 1, slices of d^2 entries held about d^3 terms
        d, ident = 52, RationalMatrix.identity(52)
        join, terms = lie._join, []
        for k_dim in (16, 36):
            theta = conjugated_split(d, k_dim, 3)
            eigen_cols = [np.nonzero((theta - ident.scale(s))._ints)[1] for s in (1, -1)]

            def counted(left, right):
                x, y = join(left, right)
                if any(np.array_equal(right, c) for c in eigen_cols):
                    terms.append(x.size)
                return x, y

            monkeypatch.setattr(lie, "_join", counted)
            with pytest.raises(InvalidInvolutionError, match="preserve the bracket"):
                cartan_split(der_j3o, theta)
        assert terms and max(terms) <= 2 * d * d + d

    def test_non_diagonal_automorphism_accepted(self, der_h):
        # swapping i and j and negating k is an automorphism of H; on so(3)
        # it exchanges basis directions, so theta is not diagonal
        sigma = mat([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]])
        theta = induced_involution(der_h.algebra, sigma, der_h)
        assert np.count_nonzero(theta._ints - np.diag(np.diag(theta._ints)))
        assert is_automorphism_oracle(der_h, theta)
        assert cartan_split(der_h, theta).dims == (1, 2)
