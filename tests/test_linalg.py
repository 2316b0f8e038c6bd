import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exatlas import lie, linalg
from exatlas.algebras import complex_algebra, octonions, quaternions
from exatlas.jordan import jordan_algebra
from exatlas.lie import leibniz_constraint_rows
from exatlas.linalg import (
    _PROBE_SEED,
    DimensionError,
    _join,
    _lift,
    _modp_rref,
    _padic_residues,
    _random_prime31,
    _scaled_int_array,
    _seeded_prime,
    _sparse_sum,
    RationalMatrix,
    SparseRows,
    integer_rows,
    is_negative_definite,
    is_positive_definite,
    is_probable_prime,
    nullspace_basis,
    nullspace_with_info,
    principal_minor_signs,
    rank,
    rational_reconstruct,
)
from conftest import deadline, mat
from test_algebras import rescaled

PRIME31 = 2**31 - 1  # Mersenne prime, comfortably above 2**30


class TestRationalMatrix:
    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            RationalMatrix(2, 2, (1, 2, 3))

    def test_entry_and_row(self):
        m = mat([[1, Fraction(1, 2)], [3, 4]])
        assert m.entry(0, 1) == Fraction(1, 2)
        assert m.row(1) == (3, 4)
        assert m.column(0) == (1, 3)

    def test_matmul_and_transpose(self):
        a = mat([[1, 2], [3, 4]])
        b = mat([[0, 1], [1, 0]])
        assert (a @ b) == mat([[2, 1], [4, 3]])
        assert a.transpose() == mat([[1, 3], [2, 4]])

    def test_add_sub_scale(self):
        a = mat([[1, 2], [3, 4]])
        assert (a + a) == a.scale(2)
        assert (a - a).is_zero()
        with pytest.raises(DimensionError):
            a + mat([[1, 2, 3]])

    def test_identity_times_a_column(self):
        col = mat([[5], [Fraction(1, 3)], [-2]])
        assert RationalMatrix.identity(3) @ col == col

    def test_hash_eq(self):
        assert mat([[1]]) == mat([[Fraction(1)]])
        assert hash(mat([[1]])) == hash(mat([[Fraction(1)]]))

    def test_equal_values_give_equal_matrices(self):
        # 2/4 and 1/2, int and Fraction(int): one canonical pair each
        half = mat([[Fraction(1, 2), 1]])
        for same in (
            RationalMatrix.from_ints(np.array([[2, 4]]), 4),
            mat([[2, 4]]).scale(Fraction(1, 4)),
            mat([[Fraction(2, 4), Fraction(4, 4)]]),
        ):
            assert same == half and hash(same) == hash(half)
        big = mat([[3, 2**70]])
        same = mat([[Fraction(3), Fraction(2**70)]])
        assert same == big and hash(same) == hash(big)
        assert mat([[Fraction(1, 2)]]) != mat([[1]])


# textbook reference: rational matrices as lists of Fraction rows
def ref_dot(u, v):
    return sum((x * y for x, y in zip(u, v)), Fraction(0))


def ref_matmul(a, b):
    return [[ref_dot(row, col) for col in zip(*b)] for row in a]


def ref_entrywise(a, b, op):
    return [[op(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


# numerators up to 2^70 and mixed denominators: int64 and Python-int arrays
rationals = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.builds(
        Fraction,
        st.integers(min_value=-(2**70), max_value=2**70),
        st.one_of(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=2**40)),
    ),
)


def rational_rows(nrows, ncols):
    return st.lists(st.lists(rationals, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows)


@st.composite
def matrix_operands(draw):
    r, k, c = (draw(st.integers(min_value=1, max_value=4)) for _ in range(3))
    return (
        draw(rational_rows(r, k)),
        draw(rational_rows(r, k)),
        draw(rational_rows(k, c)),
        draw(st.lists(rationals, min_size=k, max_size=k)),
        draw(rationals),
    )


@settings(max_examples=150, deadline=None)
@given(matrix_operands())
def test_rational_matrix_matches_fraction_reference(operands):
    a, b, c, v, s = operands
    r, k = len(a), len(a[0])
    ma, mb, mc = mat(a), mat(b), mat(c)
    assert ma.shape == (r, k)
    for i in range(r):
        assert ma.row(i) == tuple(a[i])
        for j in range(k):
            e = ma.entry(i, j)
            assert e == a[i][j]
            # an int where the division is exact, a Fraction otherwise
            assert type(e) is (int if Fraction(a[i][j]).denominator == 1 else Fraction)
    for j in range(k):
        assert ma.column(j) == tuple(row[j] for row in a)
    assert ma.to_rows() == a
    assert (ma + mb).to_rows() == ref_entrywise(a, b, lambda x, y: x + y)
    assert (ma - mb).to_rows() == ref_entrywise(a, b, lambda x, y: x - y)
    assert ma.scale(s).to_rows() == [[s * x for x in row] for row in a]
    assert ma.transpose().to_rows() == [list(col) for col in zip(*a)]
    assert (ma @ mc).to_rows() == ref_matmul(a, c)
    assert (ma @ mat([[x] for x in v])).column(0) == tuple(ref_dot(row, v) for row in a)
    assert (ma - mb).is_zero() == (a == b)
    assert (ma == mb) == (a == b)
    same = mat([[Fraction(x) for x in row] for row in a])
    assert same == ma and hash(same) == hash(ma)


class TestRank:
    def test_identity(self):
        assert rank(RationalMatrix.identity(3)) == 3

    def test_all_ones(self):
        assert rank(mat([[1, 1], [1, 1]])) == 1

    def test_rational_entries(self):
        assert rank(mat([[Fraction(1, 2), Fraction(1, 3)], [3, 2]])) == 1

    def test_empty_matrix_rejected(self):
        with pytest.raises(DimensionError):
            rank(RationalMatrix(0, 0, ()))


class TestNullspace:
    def test_identity_empty(self):
        assert nullspace_basis(RationalMatrix.identity(3)) == []

    def test_sign_difference(self):
        basis = nullspace_basis(mat([[1, -1]]))
        assert basis == [(Fraction(1), Fraction(1))]

    def test_vectors_satisfy_system(self):
        rng = random.Random(5)
        rows = [[rng.randint(-4, 4) for _ in range(6)] for _ in range(3)]
        m = mat(rows)
        for v in nullspace_basis(m):
            assert (m @ mat([[x] for x in v])).is_zero()

    def test_entries_are_ints_where_whole(self):
        basis = nullspace_basis(mat([[2, 1, 0]]))
        assert basis == [(Fraction(-1, 2), 1, 0), (0, 0, 1)]
        assert [[type(v) for v in vec] for vec in basis] == [[Fraction, int, int], [int, int, int]]

    def test_free_column_pattern(self):
        m = mat([[1, 2, 3], [0, 0, 1]])
        (v,) = nullspace_basis(m)
        assert v == (Fraction(-2), Fraction(1), Fraction(0))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=4),
        min_size=1,
        max_size=5,
    )
)
def test_rank_plus_nullity(rows):
    m = mat(rows)
    assert rank(m) + len(nullspace_basis(m)) == m.cols


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3),
        min_size=2,
        max_size=5,
    ),
    st.randoms(use_true_random=False),
)
def test_rank_invariant_under_row_ops(rows, rnd):
    m = mat(rows)
    r = rank(m)
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    scaled = []
    for row in shuffled:
        s = Fraction(rnd.choice([1, 2, 3, -1, -5]), rnd.choice([1, 2, 7]))
        scaled.append([s * v for v in row])
    assert rank(mat(scaled)) == r


def gauss_jordan_nullspace(rows, ncols):
    """Reference solver: textbook Gauss-Jordan over Fraction.

    Returns (basis, free columns, rank); the vector for free column f is
    1 at f, 0 at the other free columns and minus column f of the RREF at
    the pivots.
    """
    a = [[Fraction(v) for v in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [v / a[r][c] for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for t, c in enumerate(pivots):
            v[c] = -a[t][f]
        basis.append(tuple(v))
    return basis, free, len(pivots)


class TestModularNullspacePath:
    def test_tall_system_matches_exact(self):
        # repeated rows: the tall system has the small one's nullspace
        rng = random.Random(11)
        base = [[rng.randint(-3, 3) for _ in range(9)] for _ in range(12)]
        tall = [list(r) for r in base * 120]  # 1440 rows
        sparse = integer_rows(mat(tall))
        assert len(sparse) > 1000
        got, _, rank_got = nullspace_with_info(sparse, 9)
        want, _, rank_want = gauss_jordan_nullspace(base, 9)
        assert rank_got == rank_want
        assert [tuple(r) for r in got.to_rows()] == want

    def test_half_integer_entries(self):
        rng = random.Random(13)
        base = [
            [Fraction(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(7)]
            for _ in range(6)
        ]
        tall = base * 200
        got, _, r1 = nullspace_with_info(integer_rows(mat(tall)), 7)
        want, _, r2 = gauss_jordan_nullspace(base, 7)
        assert ([tuple(r) for r in got.to_rows()], r1) == (want, r2)

    def test_entry_that_vanishes_mod_a_31_bit_prime(self):
        # the elimination primes are 31-bit; the rank must not follow a
        # residue, neither substituted (a single entry) nor solved mod p
        assert rank(mat([[PRIME31]])) == 1
        assert linalg._modular_solve(integer_rows(mat([[PRIME31]])), 1)[2] == 1

    @pytest.mark.parametrize("p_at", [[1, 1, 0], [2, 3, 0]], ids=["substituted", "solved"])
    def test_free_columns_do_not_follow_a_residue(self, p_at):
        # the first seeded prime p divides the entry that makes column 1
        # a pivot: mod p column 2 is the pivot instead, at the same rank,
        # and the basis it certifies, free at column 1, is not the
        # echelon one
        rows = [p_at, [v + _seeded_prime(0) * (c == 1) for c, v in enumerate(p_at[:2] + [1])]]
        got, free, r = nullspace_with_info(integer_rows(mat(rows)), 3)
        assert ([tuple(v) for v in got.to_rows()], free, r) == gauss_jordan_nullspace(rows, 3)
        assert free == [2]

    @pytest.mark.parametrize("a, b", [(1, 1), (2**40 + 17, 3**25)], ids=["unit", "needs-steps"])
    def test_bad_first_prime(self, a, b):
        # mod the first prime the rank is 1, over Q it is 2: the p-adic lift
        # of -b/a is exact and fails certification, so the solve must stop
        # lifting at the Hadamard bound and move to the next prime; the
        # modular solve is called directly, since the unit rows would be
        # substituted out before it
        p = _random_prime31(random.Random(_PROBE_SEED))
        rows = integer_rows(mat([[a, b, 0], [a, b + p, 0]]))
        with deadline(30):
            basis, free, r = linalg._modular_solve(rows, 3)
        assert (r, free) == (2, [2])
        assert [tuple(v) for v in basis.to_rows()] == [(0, 0, 1)]

    def test_entry_past_int64_whose_lift_takes_a_few_digits(self):
        # 2^70 does not reconstruct mod p; once the p-adic digits of the
        # pivot entry run out, B times an all-zero digit must stay exact
        basis, free, r = nullspace_with_info(integer_rows(mat([[1, -2**70]])), 2)
        assert (r, free) == (1, [1])
        assert [tuple(v) for v in basis.to_rows()] == [(2**70, 1)]

    def test_no_rows_give_rank_zero(self):
        basis, free, r = nullspace_with_info(integer_rows(RationalMatrix.zeros(3, 4)), 4)
        assert (r, free) == (0, [0, 1, 2, 3])
        assert basis == RationalMatrix.identity(4)

    def test_full_rank_gives_an_empty_basis(self):
        basis, free, r = nullspace_with_info(integer_rows(mat([[1, 2], [3, 4]])), 2)
        assert isinstance(basis, RationalMatrix)
        assert (basis.shape, free, r) == ((0, 2), [], 2)

    def test_basis_rows_are_echelon_at_the_free_columns(self):
        rows = [[2, -1, 0, 3, 1], [0, 4, 1, -2, 5]]
        basis, free, r = nullspace_with_info(integer_rows(mat(rows)), 5)
        assert isinstance(basis, RationalMatrix)
        assert (basis.shape, r) == ((3, 5), 2)
        for t in range(basis.rows):
            assert [basis.entry(t, f) for f in free] == [int(s == t) for s in range(len(free))]
        assert (mat(rows) @ basis.transpose()).is_zero()


@st.composite
def integer_systems(draw):
    """Rows of up to 8 columns with entries up to 10^12, plus rows that
    are integer combinations of them, so the rank falls short of the rows."""
    ncols = draw(st.integers(min_value=1, max_value=8))
    entry = st.one_of(st.just(0), st.integers(min_value=-10**12, max_value=10**12))
    base = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=1, max_size=8))
    coeff = st.integers(min_value=-3, max_value=3)
    combos = draw(st.lists(st.lists(coeff, min_size=len(base), max_size=len(base)), max_size=4))
    extra = [[sum(k * r[j] for k, r in zip(ks, base)) for j in range(ncols)] for ks in combos]
    return base + extra, ncols


@pytest.mark.parametrize("elim_rows", [1, 2, 3, linalg._ELIM_ROWS])
@settings(max_examples=200, deadline=None)
@given(integer_systems())
def test_nullspace_matches_gauss_jordan(elim_rows, system):
    # entries this large need several p-adic digits before they lift;
    # small blocks find pivots out of column order
    rows, ncols = system
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_ELIM_ROWS", elim_rows)
        got, free, r = nullspace_with_info(integer_rows(mat(rows)), ncols)
    assert ([tuple(v) for v in got.to_rows()], free, r) == gauss_jordan_nullspace(rows, ncols)


def wang_lift(rows, ncols, pivcols, free_cols, residues, modulus):
    """Reference lift: every entry by its own Wang reconstruction, each
    vector over its own denominator, then the exact substitution."""
    vectors = []
    for j, f in enumerate(free_cols):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for t, c in enumerate(pivcols):
            v[c] = rational_reconstruct(int(residues[t, j]), modulus)
            if v[c] is None:
                return None
        vectors.append(v)
    if not all(certified(rows, v) for v in vectors):
        return None
    return RationalMatrix(len(vectors), ncols, [x for v in vectors for x in v])


def assert_lift_matches_wang(rows, ncols):
    """At each modulus the p-adic lift yields, up to the first that
    certifies (as the solver runs it), the one-denominator lift and the
    per-entry reference agree where both certify; past the Hadamard
    bound (the last modulus) both certify or both fail."""
    rows = integer_rows(mat(rows))
    p = _seeded_prime(0)
    pivcols, rref, pivrows = _modp_rref(rows, ncols, p)
    free = [c for c in range(ncols) if c not in set(pivcols)]
    for res, m in _padic_residues(rows, pivcols, free, pivrows, rref, p):
        ours = _lift(rows, ncols, pivcols, free, res, m)
        ref = wang_lift(rows, ncols, pivcols, free, res, m)
        if ours is not None and ref is not None:
            assert ours == ref
        if ours is not None:
            return
    assert ref is None


class TestOneDenominatorLift:
    @settings(max_examples=100, deadline=None)
    @given(integer_systems())
    def test_matches_per_entry_reconstruction(self, system):
        assert_lift_matches_wang(*system)

    def test_entry_past_int64(self):
        assert_lift_matches_wang([[1, -2**70]], 2)

    def test_mixed_denominators_share_one(self):
        # x0 = -x2 / 2 and x1 = -x3 / 3: the basis is one matrix over 6
        basis, _, _ = nullspace_with_info(integer_rows(mat([[2, 0, 1, 0], [0, 3, 0, 1]])), 4)
        assert basis._den == 6
        assert basis.to_rows() == [[Fraction(-1, 2), 0, 1, 0], [0, Fraction(-1, 3), 0, 1]]


def test_padic_residues_at_full_column_rank_stop_after_the_first_yield():
    # with no free columns there is no sentinel entry to watch
    rows = integer_rows(np.array(
        [[0, 0, 0, 0, 1], [0, 0, 0, 1, 0], [0, 0, 1, 0, 0], [0, 875780421, 0, 0, 1], [1, 0, 0, 0, 0]]
    ))
    p = _seeded_prime(0)
    pivcols, rref, pivrows = _modp_rref(rows, 5, p)
    yields = list(_padic_residues(rows, pivcols, [], pivrows, rref, p))
    assert [(res.shape, m) for res, m in yields] == [((5, 0), p)]


@pytest.mark.parametrize(
    "row",
    [[2**20 + 7, 3**13, 5], [2**40, 3], [1, -2**70]],
    ids=["int64", "squares-past-int64", "entries-past-int64"],
)
def test_lifting_ends_at_the_first_power_past_twice_the_hadamard_square(row):
    # one row of gcd 1: H^2 is its squared norm, summed on Python ints here
    rows = integer_rows(mat([row]))
    p = _seeded_prime(0)
    pivcols, rref, pivrows = _modp_rref(rows, len(row), p)
    free = [c for c in range(len(row)) if c not in pivcols]
    last = p
    while last <= 2 * sum(v * v for v in row):
        last *= p
    assert list(_padic_residues(rows, pivcols, free, pivrows, rref, p))[-1][1] == last


def gauss_jordan_inverse(b, p):
    """Reference inverse mod p: Gauss-Jordan on [B | I] over Python ints,
    each pivot the first nonzero entry at or below the diagonal."""
    r = len(b)
    a = [[int(v) for v in row] + [int(i == j) for j in range(r)] for i, row in enumerate(b)]
    for k in range(r):
        t = next(i for i in range(k, r) if a[i][k] % p)
        a[k], a[t] = a[t], a[k]
        inv = pow(a[k][k], -1, p)
        a[k] = [v * inv % p for v in a[k]]
        for i in range(r):
            if i != k:
                f = a[i][k]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[k])]
    return np.array([row[r:] for row in a], dtype=np.int64)


def times_mod_p(a, b, p):
    """A B mod p for int64 residues, by 16-bit limbs of B: no sum of
    products reaches 2^62 for fewer than 2^15 terms."""
    return (a @ (b & 0xFFFF) + (a @ (b >> 16) % p << 16)) % p


def unit_lu(r, p, rng, zero_at=None):
    """L U mod p for a random unit lower triangular L and upper
    triangular U: its leading minor of order k + 1 is the product of U's
    first k + 1 diagonal entries, 0 from ``zero_at`` on."""
    lower = np.tril(rng.integers(0, p, (r, r)), -1) + np.eye(r, dtype=np.int64)
    upper = np.triu(rng.integers(0, p, (r, r)), 1)
    upper[range(r), range(r)] = rng.integers(1, p, r)
    if zero_at is not None:
        upper[zero_at, zero_at] = 0
    return times_mod_p(lower, upper, p)


def rows_zero_at_column_0_first(b):
    return b[np.argsort(b[:, 0] != 0, kind="stable")]


class TestInverseModP:
    @pytest.mark.parametrize("p", [7, _seeded_prime(0)])
    @pytest.mark.parametrize("r", [1, 2, 7, 48])
    def test_inverts_b_with_nonzero_leading_minors(self, r, p):
        b = unit_lu(r, p, np.random.default_rng(r))
        inv = linalg._inverse_mod_p(b, p)
        assert inv.dtype == np.int64
        assert np.array_equal(times_mod_p(b, inv, p), np.eye(r))
        assert np.array_equal(inv, gauss_jordan_inverse(b, p))

    @pytest.mark.parametrize("zero_at", [0, 3, 6])
    def test_vanishing_leading_minor_raises(self, zero_at):
        # U has a zero on its diagonal, so B = L U is singular mod p
        b = unit_lu(7, 7, np.random.default_rng(zero_at), zero_at)
        with pytest.raises(ZeroDivisionError):
            linalg._inverse_mod_p(b, 7)

    @pytest.mark.parametrize(
        "b, p",
        [
            (np.array([[0, 1], [1, 0]]), _seeded_prime(0)),
            (rows_zero_at_column_0_first(unit_lu(8, 7, np.random.default_rng(8))), 7),
            (rows_zero_at_column_0_first(unit_lu(48, 7, np.random.default_rng(48))), 7),
        ],
        ids=["swap", "lu-8", "lu-48"],
    )
    def test_invertible_b_whose_first_minor_vanishes_is_inverted(self, b, p):
        assert b[0, 0] == 0  # the first leading minor vanishes: a pivot needs a row search
        assert np.array_equal(linalg._inverse_mod_p(b, p), gauss_jordan_inverse(b, p))

    @pytest.mark.parametrize("p", [7, _seeded_prime(0)])
    def test_b_past_one_elimination_block(self, p):
        r = linalg._ELIM_ROWS + 44  # [B | I] is eliminated in two blocks
        b = unit_lu(r, p, np.random.default_rng(r))
        assert np.array_equal(times_mod_p(b, linalg._inverse_mod_p(b, p), p), np.eye(r))


def per_pivot_rref(rows, ncols, p):
    """Reference elimination, one pivot at a time: each block scattered
    whole, every known pivot cleared from it one column at a time, then
    in ascending column order the first nonzero block row not yet a
    pivot becomes the column's pivot and is cleared from every other
    row, block and pivots.  Pivots come out in the order found."""
    dense = np.zeros((len(rows), ncols), dtype=np.int64)
    dense[np.repeat(np.arange(len(rows)), np.diff(rows.starts)), rows.cols] = rows.vals % p
    pivots = np.zeros((0, ncols), dtype=np.int64)
    pivcols, pivrows = [], []
    for lo in range(0, len(rows), linalg._ELIM_ROWS):
        if len(pivcols) == ncols:
            break
        block = dense[lo : lo + linalg._ELIM_ROWS]
        for t, c in enumerate(pivcols):
            block = (block - block[:, c, None] * pivots[t]) % p
        live = list(range(len(block)))
        for c in range(ncols):
            k = None if c in pivcols else next((i for i in live if block[i, c]), None)
            if k is None:
                continue
            row = block[k] * pow(int(block[k, c]), -1, p) % p
            block = (block - block[:, c, None] * row) % p
            pivots = np.vstack([(pivots - pivots[:, c, None] * row) % p, row])
            live.remove(k)
            pivcols.append(c)
            pivrows.append(lo + k)
    return pivcols, pivots, pivrows


def assert_same_rref(rows, ncols, p):
    pivcols, rref, pivrows = _modp_rref(rows, ncols, p)
    ref_cols, ref_rref, ref_rows = per_pivot_rref(rows, ncols, p)
    assert (pivcols, pivrows) == (ref_cols, ref_rows)
    assert np.array_equal(rref, ref_rref)


class TestBlockedElimination:
    """Later blocks have the known pivots cleared by one sparse product."""

    @settings(max_examples=100, deadline=None)
    @given(integer_systems())
    def test_matches_the_per_pivot_pass(self, system):
        rows, ncols = integer_rows(mat(system[0])), system[1]
        for block_rows in (1, 2, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(linalg, "_ELIM_ROWS", block_rows)
                for p in (7, _seeded_prime(0)):
                    assert_same_rref(rows, ncols, p)

    def test_j3h_matches_the_per_pivot_pass(self, monkeypatch):
        rows, ncols = leibniz_constraint_rows(jordan_algebra(quaternions()))
        assert len(rows) == 1611
        monkeypatch.setattr(linalg, "_ELIM_ROWS", 64)
        assert_same_rref(rows, ncols, _seeded_prime(0))

    def test_rescaled_j3o_matches_the_standard_basis(self, j3o):
        # e_k -> 1000^(k mod 3) e_k: entries up to 2*10^12 pass the int64
        # bound of the product with N, so known pivots are cleared on
        # Python ints
        factors = [1000 ** (k % 3) for k in range(j3o.dim)]
        p = _seeded_prime(0)
        rows, ncols = leibniz_constraint_rows(j3o)
        big, _ = leibniz_constraint_rows(rescaled(j3o, factors))
        assert linalg._exact_dtype(p, big.vals) is object
        pivcols, rref, pivrows = _modp_rref(rows, ncols, p)
        big_cols, big_rref, big_pivrows = _modp_rref(big, ncols, p)
        assert (big_cols, big_pivrows) == (pivcols, pivrows)
        # unknown a * n + b, the entry D[a, b], is scaled by factors[a] / factors[b]
        n = j3o.dim
        nu = np.array([factors[c // n] * pow(factors[c % n], -1, p) % p for c in range(ncols)])
        inv = np.array([pow(int(v), -1, p) for v in nu[pivcols]])
        assert np.array_equal(big_rref, rref * nu % p * inv[:, None] % p)

    def test_j3o_solve_frees_the_elimination_buffer(self, j3o):
        # one solve of all 9,063 rows, nothing substituted: the
        # rows come back as a copy (3.9 MB), so the 5.7 MB buffer of pivots
        # and block goes with the engine.  With numpy 2.4 the solve peaks
        # at 17.5 MB in the certificate's product, where rows that were a
        # view of the buffer kept it alive through the lift and peaked at
        # 19.3 MB; the bound lies between
        rows, ncols = leibniz_constraint_rows(j3o)
        _, rref, _ = _modp_rref(rows, ncols, _seeded_prime(0))
        assert rref.base is None
        tracemalloc.start()
        try:
            linalg._modular_solve(rows, ncols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 18.5e6

    @pytest.fixture
    def handed(self, monkeypatch):
        """Input rows handed to ``absorb``."""
        rows = []
        absorb = linalg._ModPEchelon.absorb

        def counted(eng, row_ids):
            rows.extend(row_ids)
            return absorb(eng, row_ids)

        monkeypatch.setattr(linalg._ModPEchelon, "absorb", counted)
        return rows

    @pytest.fixture
    def absorbed(self, monkeypatch, handed):
        """Input rows handed to ``absorb``, in blocks of 2."""
        monkeypatch.setattr(linalg, "_ELIM_ROWS", 2)
        return handed

    # the identity, then rows it already spans
    ROWS = integer_rows(np.vstack([np.eye(6, dtype=np.int64), np.arange(1, 25).reshape(4, 6)]))

    def test_reading_stops_at_full_column_rank(self, absorbed):
        pivcols, _, pivrows = _modp_rref(self.ROWS, 6, _seeded_prime(0))
        assert pivcols == pivrows == list(range(6))
        assert absorbed == list(range(6))

    def test_j3o_rows_in_the_span_skip_the_elimination(self, j3o, handed):
        # without the substitution, the 9,063 rows have rank 677: once
        # the first blocks of _ELIM_ROWS rows have found most pivots, the
        # clearing product drops almost all of the rest, and 1,005 rows
        # are eliminated
        rows, ncols = leibniz_constraint_rows(j3o)
        linalg._modular_solve(rows, ncols)
        assert len(handed) < len(rows) // 3

    def test_a_block_left_empty_is_not_absorbed(self, monkeypatch):
        # blocks of 2: the first has rank 2, the next two lie in its span
        calls = []
        absorb = linalg._ModPEchelon.absorb
        monkeypatch.setattr(
            linalg._ModPEchelon, "absorb", lambda eng, ids: calls.append(list(ids)) or absorb(eng, ids)
        )
        monkeypatch.setattr(linalg, "_ELIM_ROWS", 2)
        rows = integer_rows(np.array([[1, 2, 3], [0, 1, 4], [1, 3, 7], [2, 5, 10], [1, 1, -1], [0, 2, 8]]))
        pivcols, _, pivrows = _modp_rref(rows, 3, _seeded_prime(0))
        assert (pivcols, pivrows, calls) == ([0, 1], [0, 1], [[0, 1]])

    def test_a_block_is_the_rows_take_returns(self):
        part, taken = self.ROWS.block(5, 8), self.ROWS.take([5, 6, 7])
        for name in ("starts", "cols", "vals"):
            assert np.array_equal(getattr(part, name), getattr(taken, name))


@st.composite
def block_systems(draw):
    """Small integer blocks along the diagonal, up to three columns that
    no row touches, and the rows and columns permuted at random."""
    entry = st.one_of(st.integers(min_value=-3, max_value=3), st.integers(-10**12, 10**12))
    blocks = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        h, w = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        blocks.append(draw(st.lists(st.lists(entry, min_size=w, max_size=w), min_size=h, max_size=h)))
    nrows = sum(len(b) for b in blocks)
    ncols = sum(len(b[0]) for b in blocks) + draw(st.integers(0, 3))
    dense = np.zeros((nrows, ncols), dtype=np.int64)
    r = c = 0
    for b in blocks:
        dense[r : r + len(b), c : c + len(b[0])] = b
        r, c = r + len(b), c + len(b[0])
    row_perm = draw(st.permutations(range(nrows)))
    col_perm = draw(st.permutations(range(ncols)))
    return integer_rows(dense[row_perm][:, col_perm]), ncols


def assert_matches_whole_solve(rows, ncols):
    substituted = nullspace_with_info(rows, ncols)
    whole = linalg._modular_solve(rows, ncols)
    assert substituted == whole


class TestSubstitutedSolve:
    """The one solve of a system, after its substitution, against the
    whole solve (``_modular_solve``): on permuted block systems and on
    the Leibniz rows of J3(K)."""

    @pytest.mark.parametrize("elim_rows", [1, 2, 3])
    @settings(max_examples=100, deadline=None)
    @given(block_systems())
    def test_substitution_matches_the_whole_solve(self, elim_rows, system):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_ELIM_ROWS", elim_rows)
            assert_matches_whole_solve(*system)

    @pytest.mark.parametrize("k", [quaternions, octonions], ids=["J3(H)", "J3(O)"])
    def test_j3_leibniz_rows(self, k):
        rows, ncols = leibniz_constraint_rows(jordan_algebra(k()))
        assert_matches_whole_solve(rows, ncols)

    def test_rescaled_j3o_rows(self, j3o):
        # the rows of test_j3o_rows_whose_lift_needs_several_primes: a
        # basis over Python ints, lifted through several powers of p
        copy = rescaled(j3o, [1000 ** (k % 3) for k in range(j3o.dim)])
        rows, ncols = leibniz_constraint_rows(copy)
        with deadline(60):
            assert_matches_whole_solve(rows, ncols)
        assert nullspace_with_info(rows, ncols)[0]._ints.dtype == object

    def test_j3o_solve_peak_memory(self, j3o):
        # the unsubstituted solve peaks at 17.5 MB with numpy 2.4; the
        # substitution's rewrite of the rows peaks at 1.6 MB, and the
        # 136 rows it leaves are solved in less
        rows, ncols = leibniz_constraint_rows(j3o)
        tracemalloc.start()
        try:
            nullspace_with_info(rows, ncols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


#: The least share of ``substitution_systems`` left with rows to solve.
SOLVED_SHARE = 0.5


@st.composite
def substitution_systems(draw):
    """Systems rich in rows x_c = 0 and x_i = ±x_j, as dense rows over
    up to 10 columns: single entries, ±1 pairs, chains of pairs along a
    random path, cycles of pairs whose signs conflict (forcing every
    column on them to 0), and general rows of up to four entries, some
    past 2^62, which the substitution turns into new singletons and
    pairs as it kills or merges their columns.  Those rows leave almost
    nothing for the modular solve, so up to two more rows each hold three
    nonzero entries at three columns of their own past the others, and up
    to two more entries anywhere: no row there ever has fewer than three
    entries, so those columns are never substituted and the rows reach
    the solve (``SOLVED_SHARE``).  The system is scaled by one random
    factor, past 2^62 too, which the gcd takes off again."""
    ncols = draw(st.integers(min_value=2, max_value=10))
    col = st.integers(min_value=0, max_value=ncols - 1)
    held = draw(st.integers(min_value=0, max_value=2))
    if held:
        ncols += 3
    unit = st.sampled_from([1, -1])
    big = st.integers(min_value=2**62, max_value=2**70)
    entry = st.one_of(st.integers(min_value=-3, max_value=3), big, big.map(lambda v: -v))
    rows = []

    def put(cols, vals):
        row = [0] * ncols
        for c, v in zip(cols, vals):
            row[c] += v
        rows.append(row)

    kinds = ["single", "pair", "chain", "cycle", "general"]
    first = draw(st.sampled_from(kinds[:4]))
    for kind in [first] + draw(st.lists(st.sampled_from(kinds), max_size=6)):
        if kind == "single":
            put([draw(col)], [draw(st.one_of(st.integers(1, 5), big))])
        elif kind == "pair":
            put(draw(st.lists(col, min_size=2, max_size=2, unique=True)), [draw(unit), draw(unit)])
        elif kind in ("chain", "cycle"):
            path = draw(st.lists(col, min_size=2, max_size=ncols, unique=True))
            signs = [draw(unit) for _ in path]
            for a, b, s in zip(path, path[1:], signs):
                put([a, b], [1, s])
            if kind == "cycle":  # x_first = t x_last, and back x_last = -t x_first
                t = math.prod(-s for s in signs[: len(path) - 1])
                put([path[-1], path[0]], [1, t])
        else:
            cols = draw(st.lists(col, min_size=1, max_size=4, unique=True))
            put(cols, [draw(entry) for _ in cols])
    for _ in range(held):
        cols = [ncols - 3, ncols - 2, ncols - 1] + draw(st.lists(col, max_size=2, unique=True))
        put(cols, [draw(entry.filter(bool)) for _ in cols])
    scale = draw(st.one_of(st.just(1), st.integers(1, 6), big))
    return [[v * scale for v in row] for row in rows], ncols


@st.composite
def twin_systems(draw):
    """Rows the substitution leaves, each with a twin: a copy of it, as
    it is or negated, and with one entry past the first moved by a
    multiple of a seeded prime, of two of them or of 2^64 (which a hash
    of the entries mod p or in int64 would take for the same row), or
    negated.  Entries are nonzero, some past 2^62, and a row x_c = 0 at
    one more column starts the substitution."""
    ncols = draw(st.integers(min_value=6, max_value=10))
    col = st.integers(min_value=0, max_value=ncols - 1)
    big = st.integers(min_value=2**62, max_value=2**70)
    entry = st.one_of(st.sampled_from([-3, -2, -1, 1, 2, 3]), big, big.map(lambda v: -v))
    moves = [_seeded_prime(0), _seeded_prime(0) * _seeded_prime(1), 2**64, None, 0]
    rows = [[0] * ncols + [1]]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        row = [0] * (ncols + 1)
        for c in draw(st.lists(col, min_size=2, max_size=4, unique=True)):
            row[c] = draw(entry)
        twin = [draw(st.sampled_from([1, -1])) * v for v in row]
        c = draw(st.sampled_from([c for c, v in enumerate(row) if v][1:]))
        move = draw(st.sampled_from(moves))
        if move is None:
            twin[c] = -twin[c]
        else:
            twin[c] += draw(st.sampled_from([-2, -1, 1])) * move
        rows += [row, twin]
    return draw(st.permutations(rows)), ncols + 1


@pytest.fixture
def eliminations(monkeypatch):
    """The row count of every system the solver eliminates mod p."""
    calls = []
    rref = linalg._modp_rref

    def counted(rows, ncols, p):
        calls.append(len(rows))
        return rref(rows, ncols, p)

    monkeypatch.setattr(linalg, "_modp_rref", counted)
    return calls


class TestSubstitution:
    """Rows x_c = 0 and x_i = ±x_j are substituted out before the solve."""

    @pytest.mark.parametrize("elim_rows", [1, linalg._ELIM_ROWS])
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(substitution_systems(), twin_systems()))
    def test_matches_gauss_jordan(self, elim_rows, system):
        rows, ncols = system
        sparse = integer_rows(mat(rows))
        assert linalg._substitute(sparse, ncols) is not None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_ELIM_ROWS", elim_rows)
            got, free, r = nullspace_with_info(sparse, ncols)
        assert ([tuple(v) for v in got.to_rows()], free, r) == gauss_jordan_nullspace(rows, ncols)

    def test_a_share_of_the_systems_reaches_the_modular_solve(self):
        reached = []

        @settings(max_examples=200, deadline=None, database=None, derandomize=True)
        @given(substitution_systems())
        def draw(system):
            rows, ncols = system
            reduced = linalg._substitute(integer_rows(mat(rows)), ncols)
            reached.append(len(reduced[0]) > 0)

        draw()
        assert sum(reached) >= SOLVED_SHARE * len(reached)

    def test_sign_conflict_forces_the_cycle_to_zero(self, eliminations):
        # x0 = x1, x1 = x2, x2 = -x0: only x3 is free, and nothing is left
        # for the modular solve, which eliminates nothing
        rows = integer_rows(mat([[1, -1, 0, 0], [0, 1, -1, 0], [1, 0, 1, 0]]))
        reduced, link, live = linalg._substitute(rows, 4)
        assert (len(reduced), link.tolist(), live.tolist()) == (0, [-1, -1, -1, 6], [3])
        basis, free, r = nullspace_with_info(rows, 4)
        assert (basis.to_rows(), free, r) == ([[0, 0, 0, 1]], [3], 3)
        assert eliminations == []

    def test_singletons_cascade(self, eliminations):
        # x0 = 0 turns 3 x0 + x1 into x1 = 0, which turns 5 x1 + 2^63 x2
        # into x2 = 0, and so on: every column ends at 0
        rows = integer_rows(mat([[1, 0, 0, 0], [3, 1, 0, 0], [0, 5, 2**63, 0], [0, 0, 7, 1]]))
        reduced, link, live = linalg._substitute(rows, 4)
        assert (len(reduced), link.tolist(), live.size) == (0, [-1] * 4, 0)
        basis, free, r = nullspace_with_info(rows, 4)
        assert (basis.shape, free, r) == ((0, 4), [], 4)
        assert eliminations == []

    @pytest.mark.parametrize("sign", [1, -1], ids=["theta-1", "theta+1"])
    def test_eigenspaces_of_the_fii_split_need_no_elimination(self, der_j3o, j3o, sign, eliminations):
        # theta is diagonal, so theta -/+ 1 is singletons x_c = 0 only:
        # the substitution leaves no row, and the basis is the reference's
        sigma = lie.diagonal_sign_involution(j3o, (-1, 1, 1))
        theta = lie.induced_involution(j3o, sigma, der_j3o)
        shifted = theta - RationalMatrix.identity(52).scale(sign)
        rows = integer_rows(shifted)
        assert len(linalg._substitute(rows, 52)[0]) == 0
        basis, free, r = nullspace_with_info(rows, 52)
        assert eliminations == []
        want = gauss_jordan_nullspace(shifted.to_rows(), 52)
        assert ([tuple(v) for v in basis.to_rows()], free, r) == want
        assert r == (16 if sign == 1 else 36)

    def test_chain_links_to_its_largest_column(self):
        # x1 = -x3, x0 = -x2 and x0 = x1: column 0 has two rows, one is
        # used and the other, rewritten, joins x2 and x3 in a second round
        rows = integer_rows(mat([[0, 1, 0, 1], [1, 0, 1, 0], [1, -1, 0, 0]]))
        reduced, link, live = linalg._substitute(rows, 4)
        assert (len(reduced), live.tolist()) == (0, [3])
        assert link.tolist() == [2 * 3 + 1, 2 * 3 + 1, 2 * 3, 2 * 3]  # -x3, -x3, x3, x3
        assert nullspace_with_info(rows, 4)[0].to_rows() == [[-1, -1, 1, 1]]

    def test_a_system_with_no_such_row_is_solved_as_it_is(self, monkeypatch):
        rows = integer_rows(mat([[1, 2, 3], [2, 3, 5]]))
        assert linalg._substitute(rows, 3) is None
        solved = []
        solve = linalg._modular_solve

        def counted(part, ncols):
            solved.append(part)
            return solve(part, ncols)

        monkeypatch.setattr(linalg, "_modular_solve", counted)
        nullspace_with_info(rows, 3)
        assert solved == [rows]

    def test_rows_equal_up_to_sign_are_kept_once(self):
        # rows 1 and 3 repeat row 0 up to sign; rows 4 to 6 differ from
        # row 0 by 2^64, by p and by 2^64 p at one entry, and stay
        p, big = _seeded_prime(0), 2**64 + 3
        rows = integer_rows(mat([
            [2, -big, 0], [-2, big, 0], [0, 1, 1], [2, -big, 0],
            [2, -big + 2**64, 0], [2 + p, -big, 0], [2, -big - 2**64 * p, 0],
        ]))
        kept, want = linalg._distinct_up_to_sign(rows), rows.take([0, 2, 4, 5, 6])
        assert kept.vals.dtype == object
        for name in ("starts", "cols", "vals"):
            assert np.array_equal(getattr(kept, name), getattr(want, name))

    @pytest.mark.parametrize(
        "k, dim, live", [(complex_algebra, 0, 0), (quaternions, 3, 3)], ids=["C", "H"]
    )
    def test_leibniz_rows_substituted_away(self, k, dim, live):
        # nothing is left for the modular solve: over C every unknown is
        # forced to 0, over H three roots stay free
        rows, ncols = leibniz_constraint_rows(k())
        reduced, _, roots = linalg._substitute(rows, ncols)
        assert (len(reduced), roots.size) == (0, live)
        basis, free, r = nullspace_with_info(rows, ncols)
        assert (basis.rows, r) == (dim, ncols - dim)
        assert not rows.dot(basis._ints.T).any()

    @pytest.fixture
    def absorbed(self, monkeypatch):
        """Rows handed to ``absorb`` and pivots it finds, one pair per call."""
        calls = []
        absorb = linalg._ModPEchelon.absorb

        def counted(eng, row_ids):
            r0 = eng.rank
            absorb(eng, row_ids)
            calls.append((len(row_ids), eng.rank - r0))

        monkeypatch.setattr(linalg._ModPEchelon, "absorb", counted)
        return calls

    def test_j3o_pivots_reaching_the_elimination(self, j3o, absorbed):
        # 591 rows x_c = 0 and 5,424 rows x_i = ±x_j leave 2,208 rows over
        # 132 unknowns, 136 of them distinct up to sign: 80 pivots are
        # eliminated mod p, against 677 without the substitution, and
        # no more than those 136 rows reach the elimination
        rows, ncols = leibniz_constraint_rows(j3o)
        reduced, _, live = linalg._substitute(rows, ncols)
        assert (len(reduced), live.size) == (136, 132)
        nullspace_with_info(rows, ncols)
        handed, pivots = (sum(c) for c in zip(*absorbed))
        assert pivots == 80 and handed <= 136

    def test_j3o_basis_satisfies_every_input_row(self, j3o):
        # the solve certifies the reduced rows only; the expanded basis
        # must still satisfy all 9,063 rows, checked here by one product
        rows, ncols = leibniz_constraint_rows(j3o)
        basis, free, r = nullspace_with_info(rows, ncols)
        assert (basis.rows, r) == (52, 677)
        assert not rows.dot(basis._ints.T).any()
        assert basis == linalg._modular_solve(rows, ncols)[0]


class TestSparseSum:
    def test_sums_past_int64_are_exact(self):
        keys, sums = _sparse_sum(
            np.array([3, 0, 3, 1, 1]),
            np.array([2**61, 5, 2**61, 7, -7], dtype=np.int64),
        )
        assert keys.tolist() == [0, 3]
        assert sums.tolist() == [5, 2**62]
        assert sums.dtype == object

    def test_products_past_int64_are_exact(self):
        big = np.array([2**40, 2**40], dtype=np.int64)
        keys, sums = _sparse_sum(np.array([2, 2]), big, big)
        assert (keys.tolist(), sums.tolist()) == ([2], [2**81])

    def test_int64_where_the_bound_allows(self):
        keys, sums = _sparse_sum(np.array([1, 0, 1]), np.array([2, 3, 4], dtype=np.int64))
        assert (keys.tolist(), sums.tolist(), sums.dtype) == ([0, 1], [3, 6], np.int64)

    def test_no_terms(self):
        keys, sums = _sparse_sum(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.int64))
        assert keys.size == sums.size == 0

    def test_key_runs_bound_the_longest_run(self):
        # runs of 1, 3 and 2 terms: 3 products of entries up to 2^30 fit
        # in int64, a fourth would not
        keys, vals = np.array([0, 4, 4, 4, 7, 7]), np.full(6, 2**30, dtype=np.int64)
        starts, dtype = linalg._key_runs(keys, vals, vals)
        assert (starts.tolist(), dtype) == ([0, 1, 4], np.int64)
        starts, dtype = linalg._key_runs(np.insert(keys, 1, 4), vals, vals)
        assert (starts.tolist(), dtype) == ([0, 1, 5], object)

    def test_join_pairs_every_match(self):
        left, right = np.array([2, 0, 2, 5]), np.array([2, 2, 0, 1])
        i, j = _join(left, right)
        expected = sorted((a, b) for a in range(4) for b in range(4) if left[a] == right[b])
        assert sorted(zip(i.tolist(), j.tolist())) == expected


def certified(rows, vector):
    """The solver's certificate: denominators cleared, then exact substitution."""
    ints, _ = _scaled_int_array(vector, (len(vector),))
    return not rows.dot(ints).any()


def rows_as_lists(rows):
    return [
        list(zip(rows.cols[lo:hi].tolist(), rows.vals[lo:hi].tolist()))
        for lo, hi in zip(rows.starts[:-1], rows.starts[1:])
    ]


class TestKernelEdges:
    def test_max_abs_of_the_least_int64(self):
        # -(-2^63) is no int64: the bound must still come out as 2^63
        a = np.array([5, -(2**63)], dtype=np.int64)
        assert linalg._max_abs(a) == 2**63
        assert linalg._exact_dtype(1, a) is object

    def test_max_abs_of_empty_arrays(self):
        for a in (np.zeros(0, np.int64), np.zeros((3, 0), np.int64), np.zeros(0, object)):
            assert linalg._max_abs(a) == 0

    def test_max_abs_of_0d_arrays(self):
        assert linalg._max_abs(np.array(-(2**70), dtype=object)) == 2**70
        assert linalg._max_abs(np.array(0, dtype=object)) == 0
        assert linalg._max_abs(np.array(-7, dtype=np.int64)) == 7

    def test_key_runs_of_no_key_and_one_key(self):
        vals = np.zeros(0, dtype=np.int64)
        starts, dtype = linalg._key_runs(np.zeros(0, dtype=np.intp), vals)
        assert (starts.tolist(), dtype) == ([], np.int64)
        starts, dtype = linalg._key_runs(np.array([9]), np.array([2**62], dtype=np.int64))
        assert (starts.tolist(), dtype) == ([0], object)

    @pytest.mark.parametrize(
        "keys, bounds", [([], [0]), ([9], [0, 1]), ([4, 4, 4], [0, 3])], ids=["none", "one", "equal"]
    )
    def test_run_bounds(self, keys, bounds):
        assert linalg._run_bounds(np.array(keys, dtype=np.intp)).tolist() == bounds

    def test_key_runs_of_all_equal_keys(self):
        # one run of every key: 3 products of entries 2^30 fit in int64,
        # 4 do not
        vals = np.full(4, 2**30, dtype=np.int64)
        starts, dtype = linalg._key_runs(np.full(3, 7), vals[:3], vals[:3])
        assert (starts.tolist(), dtype) == ([0], np.int64)
        starts, dtype = linalg._key_runs(np.full(4, 7), vals, vals)
        assert (starts.tolist(), dtype) == ([0], object)

    @pytest.mark.parametrize(
        "entries, expected",
        [
            ([], []),
            ([(3, 2, 6)], [[(2, 1)]]),
            ([(0, 0, 6), (0, 1, -6), (0, 3, 12)], [[(0, 1), (1, -1), (3, 2)]]),
            ([(0, 0, 0), (1, 1, 0), (1, 2, 0)], []),
        ],
        ids=["none", "one", "one-row", "all-zero"],
    )
    def test_row_lengths(self, entries, expected):
        # the rows' bounds come from the runs of their row indices; every
        # row is divided by its gcd, and an all-zero system has no row
        rows, cols, vals = np.array(entries, dtype=np.int64).reshape(-1, 3).T
        sparse = SparseRows(rows, cols, vals)
        lengths = [len(row) for row in expected]
        assert rows_as_lists(sparse) == expected
        assert sparse.lengths().tolist() == lengths
        assert sparse.starts.tolist() == [0, *np.cumsum(lengths, dtype=int).tolist()]

    def test_a_system_with_no_rows_reaches_no_elimination(self, eliminations):
        # a system with no rows is its own certificate: every column is
        # free, and the basis is the identity
        rows = integer_rows(np.zeros((2, 3), dtype=np.int64))
        assert len(rows) == 0
        basis, free, r = nullspace_with_info(rows, 3)
        assert (basis, free, r) == (RationalMatrix.identity(3), [0, 1, 2], 0)
        basis, free, r = linalg._modular_solve(rows, 0)
        assert (basis.shape, free, r) == ((0, 0), [], 0)
        assert eliminations == []

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_rows_whose_gcds_are_all_one(self, dtype):
        rows = SparseRows(np.array([0, 0, 1, 1]), np.array([0, 2, 1, 2]), np.array([1, 2, 3, -1], dtype))
        assert rows_as_lists(rows) == [[(0, 1), (2, 2)], [(1, 3), (2, -1)]]

    def test_rows_with_mixed_gcds(self):
        big = 3 * 2**70
        rows = SparseRows(
            np.array([0, 0, 1, 1, 2, 2, 3]),
            np.array([0, 1, 0, 1, 0, 1, 4]),
            np.array([2, 4, 3, 5, -6, 9, big], dtype=object),
        )
        assert rows_as_lists(rows) == [[(0, 1), (1, 2)], [(0, 3), (1, 5)], [(0, -2), (1, 3)], [(4, 1)]]
        assert rows.vals.dtype == np.int64

    def test_rows_with_zeros_at_their_ends(self):
        # zero entries are dropped, and with them a row left empty
        rows = SparseRows(
            np.array([0, 0, 0, 0, 1, 1, 2, 2]),
            np.array([0, 1, 2, 3, 0, 3, 1, 2]),
            np.array([0, 2, 4, 0, 0, 0, 0, -3], dtype=np.int64),
        )
        assert rows_as_lists(rows) == [[(1, 1), (2, 2)], [(2, -1)]]
        assert rows.starts.tolist() == [0, 2, 3]


class TestCertification:
    ROWS = integer_rows(mat([[2, -3, 0], [0, 1, 1]]))

    def test_mixed_denominators_accepted(self):
        v = (Fraction(1, 2), Fraction(1, 3), Fraction(-1, 3))
        assert certified(self.ROWS, v)

    def test_entry_off_by_a_sixth_rejected(self):
        v = (Fraction(1, 2), Fraction(1, 3), Fraction(-1, 3) + Fraction(1, 6))
        assert not certified(self.ROWS, v)

    def test_integer_entries(self):
        assert certified(self.ROWS, (3, 2, -2))
        assert not certified(self.ROWS, (3, 2, -1))

    def test_product_past_int64_rejected(self):
        # 2^40 * 2^24 = 2^64 wraps to 0 in int64
        assert not certified(integer_rows(mat([[2**40, 3]])), (2**24, 0))

    def test_zero_candidate_against_entries_past_int64(self):
        # an all-zero operand must not cast 2^70 to int64
        assert certified(integer_rows(mat([[2**70, 3]])), (0, 0))


class TestRationalReconstruction:
    @pytest.mark.parametrize(
        "value",
        [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 7),
         Fraction(355, 113), Fraction(-1000, 3)],
    )
    def test_round_trip(self, value):
        p = PRIME31
        residue = value.numerator * pow(value.denominator, p - 2, p) % p
        assert rational_reconstruct(residue, p) == value

    def test_product_of_primes(self):
        # too large a fraction for one 31-bit prime, not for two combined
        p, q = PRIME31, 2**31 - 19
        value = Fraction(-98765, 43211)
        m = p * q
        residue = value.numerator * pow(value.denominator, -1, m) % m
        assert rational_reconstruct(residue % p, p) != value
        assert rational_reconstruct(residue, m) == value

    def test_unreconstructible(self):
        # a residue corresponding to a huge numerator/denominator pair
        p = PRIME31
        assert rational_reconstruct(123456789, p) != Fraction(123456789)


class TestSeededPrimes:
    def test_sequence_matches_the_seeded_draws(self):
        rng = random.Random(_PROBE_SEED)
        assert [linalg._seeded_prime(i) for i in range(6)] == [
            _random_prime31(rng) for _ in range(6)
        ]

    def test_second_solve_searches_no_primes(self, monkeypatch):
        rows = integer_rows(mat([[1, 2, 3], [4, 5, 6]]))
        first = nullspace_with_info(rows, 3)
        calls = []

        def counted(n):
            calls.append(n)
            return is_probable_prime(n)

        monkeypatch.setattr(linalg, "is_probable_prime", counted)
        second = nullspace_with_info(rows, 3)
        assert calls == []
        assert (second[0].to_rows(), second[1:]) == (first[0].to_rows(), first[1:])


class TestPrimality:
    def test_known_primes(self):
        assert is_probable_prime(2)
        assert is_probable_prime(PRIME31)
        assert not is_probable_prime(2**31 - 3)
        assert not is_probable_prime(1)
        # strong pseudoprime to several bases
        assert not is_probable_prime(3215031751)


def leading_minor_reference(rows, k):
    """Determinant of the leading k x k block, by Fraction elimination with row swaps."""
    a = [[Fraction(v) for v in r[:k]] for r in rows[:k]]
    det = Fraction(1)
    for c in range(k):
        p = next((i for i in range(c, k) if a[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, k):
            f = a[i][c] / a[c][c]
            for j in range(c, k):
                a[i][j] -= f * a[c][j]
    return det


def reference_minor_signs(rows):
    """Signs of the leading principal minors by ``leading_minor_reference``,
    0 from the first zero minor on, whatever the later minors are."""
    signs = []
    for k in range(1, len(rows) + 1):
        det = 0 if 0 in signs else leading_minor_reference(rows, k)
        signs.append((det > 0) - (det < 0))
    return signs


@st.composite
def block_forms(draw):
    """Symmetric matrices: a direct sum of blocks of order 1 to 3, each
    s(B'B + 1) (definite), sB'B (semidefinite, definite when B is
    invertible) or B + B' (often indefinite, its diagonal possibly 0)
    for a random integer B and one sign s, maybe a zero row and column,
    rows and columns permuted together, over a random denominator."""
    sign = draw(st.sampled_from([1, -1]))
    blocks = []
    for _ in range(draw(st.integers(1, 5))):
        k = draw(st.integers(1, 3))
        row = st.lists(st.integers(-3, 3), min_size=k, max_size=k)
        b = np.array(draw(st.lists(row, min_size=k, max_size=k)), dtype=np.int64)
        kind = draw(st.sampled_from(["definite", "definite", "semidefinite", "indefinite"]))
        if kind == "definite":
            blocks.append(sign * (b.T @ b + np.eye(k, dtype=np.int64)))
        elif kind == "semidefinite":
            blocks.append(sign * b.T @ b)
        else:
            blocks.append(b + b.T)
    if draw(st.booleans()):
        blocks.append(np.zeros((1, 1), dtype=np.int64))
    n = sum(len(b) for b in blocks)
    ints = np.zeros((n, n), dtype=np.int64)
    at = 0
    for b in blocks:
        ints[at : at + len(b), at : at + len(b)] = b
        at += len(b)
    perm = draw(st.permutations(range(n)))
    return RationalMatrix.from_ints(ints[np.ix_(perm, perm)], draw(st.integers(1, 6)))


class TestDefiniteness:
    def test_minor_signs_match_determinants(self):
        # 0 from the first zero minor on, whatever the later minors are
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 6)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    v = rng.choice([0, rng.randint(-4, 4), Fraction(rng.randint(-5, 5), rng.randint(1, 4))])
                    rows[i][j] = rows[j][i] = v
            assert principal_minor_signs(mat(rows)) == reference_minor_signs(rows)

    def test_negative_definite(self):
        m = mat([[-2, 1], [1, -2]])
        assert is_negative_definite(m)
        assert principal_minor_signs(m) == [-1, 1]

    def test_positive_definite(self):
        assert is_positive_definite(RationalMatrix.identity(4))

    def test_indefinite(self):
        m = mat([[1, 0], [0, -1]])
        assert not is_negative_definite(m)
        assert not is_positive_definite(m)

    def test_singular_not_definite(self):
        m = mat([[0, 0], [0, -1]])
        assert not is_negative_definite(m)

    def test_empty_form_vacuously_definite(self):
        empty = RationalMatrix(0, 0, ())
        assert is_negative_definite(empty)
        assert is_positive_definite(empty)

    def test_requires_symmetry(self):
        with pytest.raises(DimensionError):
            principal_minor_signs(mat([[1, 2], [3, 4]]))
        with pytest.raises(DimensionError):
            is_negative_definite(mat([[-1, 2], [3, -4]]))

    def test_blocks_of_a_permuted_direct_sum(self):
        # [[-2, 1], [1, -2]] on (0, 2) and [-3] on 1: negative definite;
        # a zero row and column, or a block of zero diagonal, is not
        m = mat([[-2, 0, 1], [0, -3, 0], [1, 0, -2]])
        assert is_negative_definite(m)
        assert not is_negative_definite(mat([[-2, 0, 1], [0, 0, 0], [1, 0, -2]]))
        assert not is_positive_definite(mat([[0, 0, 1], [0, 1, 0], [1, 0, 0]]))

    @settings(max_examples=300, deadline=None)
    @given(block_forms())
    def test_permuted_direct_sums_match_the_reference_minors(self, form):
        signs = reference_minor_signs(form.to_rows())
        assert principal_minor_signs(form) == signs
        assert is_positive_definite(form) == all(s == 1 for s in signs)
        assert is_negative_definite(form) == all(
            s == (-1) ** (k + 1) for k, s in enumerate(signs)
        )

    @pytest.mark.parametrize(
        "name, n, edges, det",
        [
            ("A8", 8, [(i, i + 1) for i in range(7)], 9),
            ("D8", 8, [(i, i + 1) for i in range(6)] + [(5, 7)], 4),
            ("E8", 8, [(i, i + 1) for i in range(6)] + [(2, 7)], 1),
            ("affine E8", 9, [(i, i + 1) for i in range(7)] + [(2, 8)], 0),
        ],
    )
    def test_cartan_matrices(self, name, n, edges, det):
        # 2 on the diagonal and -1 on each edge of the Dynkin diagram:
        # positive definite for a finite type, semidefinite for affine E8
        ints = 2 * np.eye(n, dtype=np.int64)
        for i, j in edges:
            ints[i, j] = ints[j, i] = -1
        cartan = RationalMatrix.from_ints(ints, 1)
        assert leading_minor_reference(cartan.to_rows(), n) == det
        assert is_positive_definite(cartan) == (det > 0)
        assert not is_negative_definite(cartan)

    def test_a_long_tridiagonal_form_stays_sparse(self):
        # the Cartan matrix of A800, one connected component: a dense
        # elimination of it takes n^3 / 6 steps, the sparse one 3n
        n = 800
        ints = 2 * np.eye(n, dtype=np.int64) - np.eye(n, k=1, dtype=np.int64)
        cartan = RationalMatrix.from_ints(ints - np.eye(n, k=-1, dtype=np.int64), 1)
        start = time.perf_counter()
        assert is_positive_definite(cartan)
        assert time.perf_counter() - start < 1

    def test_a_dense_form_stays_on_integers(self):
        # B'B + 1 of order 100, 99 % of its entries nonzero: kept as integer
        # minors, as in Bareiss elimination, it takes about 0.3 s, and an
        # elimination over Fractions, with gcds at every step, over 5 s
        b = np.random.default_rng(0).integers(-3, 4, (100, 100))
        form = RationalMatrix.from_ints(b.T @ b + np.eye(100, dtype=np.int64), 1)
        start = time.perf_counter()
        assert is_positive_definite(form)
        assert time.perf_counter() - start < 2
