"""Exact linear algebra over the rationals.

A rational matrix is one integer array over one positive denominator,
and every dense product of integer arrays is one ``_contract``.  A
linear system is one ``SparseRows``, integer rows in compressed sparse
form, and ``SparseRows.dot`` is its one product.  Sparse operands, as
(key, value) entries, are paired by ``_join`` and summed per key by
``_sparse_sum``.  All run in the dtype ``_exact_dtype`` proves: int64
when the bound allows, Python ints otherwise.

A system first has its rows x_c = 0 and x_i = ±x_j substituted out,
round by round, and one row is kept of each set of rows left equal up
to sign (``_substitute``), so that only the rest is solved; the basis is
expanded back by the same map.  Every system is then solved one way:
the reduced echelon form is computed modulo a seeded 31-bit prime p, in
blocks of ``_ELIM_ROWS`` rows, each block first reduced by the nullspace
basis mod p found so far (one ``SparseRows.dot``) so that only rows
adding rank are eliminated.  The pivot rows and the block share one
buffer, and each new pivot is one rank-1 update of it.  The residues
are lifted p-adically to higher powers of p (Dixon) as far as needed,
with one inverse mod p of the pivot rows at the pivot columns, by the
same elimination run on them beside the identity.  The nullspace
candidates are recovered by rational reconstruction, and all are
certified by one exact substitution on integers; the certified count
together with the modular rank pins the exact rank.  A prime whose
candidates still fail past the Hadamard bound is dropped for the next.
The certified basis comes back as one echelon ``RationalMatrix``.  A
solve runs to its end: a caller that caps its time checks before it
starts one.
Definiteness of a symmetric matrix is read from the pivots of one
symmetric elimination kept sparse, which never joins indices that no
chain of nonzero entries joins.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

Rational = Fraction

_ELIM_ROWS = 256  # rows per elimination block
_PROBE_SEED = 0x51BB1E
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_INT64_SAFE = 1 << 62  # bound under which an int64 entry or sum is exact


class DimensionError(ValueError):
    """Matrix shape makes the requested operation meaningless."""


class ComputationCancelled(RuntimeError):
    """A cooperative cancellation token fired before a long computation."""


# ---------------------------------------------------------------------------
# exact integer arrays and contractions
# ---------------------------------------------------------------------------

def _int_array(ints: list, shape) -> np.ndarray:
    """Python ints as an array: int64 when all are below 2^62, dtype=object otherwise."""
    big = max(map(abs, ints), default=0) >= _INT64_SAFE
    return np.array(ints, dtype=object if big else np.int64).reshape(shape)


def _scaled_int_array(values, shape) -> tuple[np.ndarray, int]:
    """Common-denominator integer form of a flat sequence of rationals.

    Any other number (a float, say) is read as the exact rational it is.
    """
    flat = [v if isinstance(v, int) else Fraction(v) for v in values]
    scale = math.lcm(*(v.denominator for v in flat))
    return _int_array([int(v * scale) for v in flat], shape), scale


def _exact_quotient(v: int, den: int) -> Rational:
    """v / den as an int when it divides, a Fraction otherwise."""
    q, r = divmod(v, den)
    return Fraction(v, den) if r else q


def _max_abs(arr: np.ndarray) -> int:
    # from the max and the min as Python ints, with no abs: -(-2^63) is no int64
    return max(int(arr.max(initial=0)), -int(arr.min(initial=0)))


def _exact_dtype(sum_terms: int, *arrays: np.ndarray):
    """int64 when a sum of ``sum_terms`` products of the arrays' largest
    entries stays below 2^62, where wraparound would be silent; object
    (Python ints) otherwise.  An all-zero array counts as 1, so an
    operand too large for int64 is never cast to it."""
    bound = sum_terms
    for a in arrays:
        bound *= max(_max_abs(a), 1)
    return np.int64 if bound < _INT64_SAFE else object


def _contract(
    subscripts: str, sum_terms: int, *arrays: np.ndarray, optimize: bool = False
) -> np.ndarray:
    """Exact ``einsum`` of integer arrays with at most ``sum_terms`` terms
    per output entry.

    It runs in the dtype ``_exact_dtype`` proves for ``sum_terms``.
    Every dense product of integer arrays that can grow is formed here,
    a scale times an array too (as a 0-d operand).
    ``optimize`` picks a pairwise contraction order; it pays off on
    large contractions, while on a single product its path search costs
    more than the contraction.
    """
    dtype = _exact_dtype(sum_terms, *arrays)
    arrays = tuple(a.astype(dtype, copy=False) for a in arrays)
    return np.einsum(subscripts, *arrays, optimize=optimize)


class RationalMatrix:
    """Immutable dense matrix with exact rational entries, row-major.

    Stored as one integer array over one positive denominator: entry
    (i, j) is ``_ints[i, j] / _den``.  The pair is kept canonical (no
    integer > 1 divides ``_den`` and every entry; int64 while every entry
    is below 2^62, Python ints in a dtype=object array otherwise), so
    equal matrices have equal pairs.  Every product and sum is one
    ``_contract``; entries are read as ints where the division is exact
    and as Fractions otherwise.  Instances are hashable and safe to share.
    """

    __slots__ = ("rows", "cols", "_ints", "_den")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        if rows < 0 or cols < 0:
            raise DimensionError(f"negative dimensions: {rows}x{cols}")
        data = tuple(entries)
        if len(data) != rows * cols:
            raise DimensionError(
                f"expected {rows * cols} entries for {rows}x{cols}, got {len(data)}"
            )
        self._set(*_scaled_int_array(data, (rows, cols)))

    def _set(self, ints: np.ndarray, den: int) -> None:
        g = math.gcd(int(np.gcd.reduce(ints, axis=None)), den)
        if g > 1:
            ints, den = ints // g, den // g
        ints = ints.astype(object if _max_abs(ints) >= _INT64_SAFE else np.int64)
        ints.setflags(write=False)
        object.__setattr__(self, "rows", ints.shape[0])
        object.__setattr__(self, "cols", ints.shape[1])
        object.__setattr__(self, "_ints", ints)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def from_ints(cls, ints: np.ndarray, den: int) -> "RationalMatrix":
        """The matrix ints / den, for a 2-D integer array and a positive den."""
        m = cls.__new__(cls)
        m._set(ints, int(den))
        return m

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls.from_ints(np.eye(n, dtype=np.int64), 1)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls.from_ints(np.zeros((rows, cols), dtype=np.int64), 1)

    def _quotients(self, ints: np.ndarray) -> tuple:
        return tuple(_exact_quotient(v, self._den) for v in ints.tolist())

    def entry(self, i: int, j: int):
        return _exact_quotient(int(self._ints[i, j]), self._den)

    def row(self, i: int) -> tuple:
        return self._quotients(self._ints[i])

    def column(self, j: int) -> tuple:
        return self._quotients(self._ints[:, j])

    def to_rows(self) -> list[list]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix.from_ints(self._ints.T, self._den)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.shape} by {other.shape}")
        prod = _contract("ij,jk->ik", self.cols, self._ints, other._ints)
        return RationalMatrix.from_ints(prod, self._den * other._den)

    def _combine(self, other: "RationalMatrix", sign: int) -> "RationalMatrix":
        # self + sign * other over the lcm of the two denominators
        if self.shape != other.shape:
            raise DimensionError(f"shape mismatch: {self.shape} vs {other.shape}")
        den = math.lcm(self._den, other._den)
        coeffs = _int_array([den // self._den, sign * (den // other._den)], (2,))
        pair = np.stack([self._ints, other._ints])
        return RationalMatrix.from_ints(_contract("s,sij->ij", 2, coeffs, pair), den)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._combine(other, -1)

    def scale(self, s) -> "RationalMatrix":
        s = Fraction(s)
        num = _int_array([s.numerator], ())
        return RationalMatrix.from_ints(
            _contract(",ij->ij", 1, num, self._ints), self._den * s.denominator
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return not self._ints.any()

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and np.array_equal(self._ints, self._ints.T)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and self._den == other._den
            and np.array_equal(self._ints, other._ints)
        )

    def __hash__(self) -> int:
        return hash((self.shape, self._den, tuple(self._ints.ravel().tolist())))

    def __repr__(self) -> str:
        if self.rows * self.cols <= 36:
            return f"RationalMatrix({self.to_rows()!r})"
        return f"RationalMatrix(<{self.rows}x{self.cols}>)"


# ---------------------------------------------------------------------------
# sparse integer form
# ---------------------------------------------------------------------------

class SparseRows:
    """An integer linear system in compressed sparse row (CSR) form.

    Row r holds the entries ``vals[starts[r]:starts[r + 1]]`` at the
    ascending columns ``cols[...]``.  Every row is nonzero and divided
    by the gcd of its entries: scaling a row by a positive integer
    changes neither rank nor nullspace.  ``vals`` is int64 while every
    entry is below 2^62 and Python ints (dtype=object) otherwise.
    """

    __slots__ = ("starts", "cols", "vals")

    def __init__(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray):
        """From entries sorted by (row, column), one per position at most.

        Zero entries are dropped, and with them any row left empty.
        """
        keep = vals != 0
        rows, vals = rows[keep], vals[keep]
        self.starts = _run_bounds(rows)
        gcds = np.gcd.reduceat(np.abs(vals), self.starts[:-1])
        if (gcds != 1).any():
            vals = vals // np.repeat(gcds, self.lengths())
        self.cols = cols[keep].astype(np.intp)
        self.vals = vals.astype(object if _max_abs(vals) >= _INT64_SAFE else np.int64)

    def __len__(self) -> int:
        return len(self.starts) - 1

    def lengths(self) -> np.ndarray:
        """The number of entries of each row."""
        return self.starts[1:] - self.starts[:-1]

    def take(self, idx: Sequence[int]) -> "SparseRows":
        """The rows at the given indices, in that order."""
        lens = self.lengths()[idx]
        ent = np.arange(lens.sum()) + np.repeat(self.starts[idx] - np.cumsum(lens) + lens, lens)
        return SparseRows(np.repeat(np.arange(len(lens)), lens), self.cols[ent], self.vals[ent])

    def block(self, lo: int, hi: int) -> "SparseRows":
        """Rows lo to hi - 1, a view of this system's arrays."""
        part = SparseRows.__new__(SparseRows)
        part.starts = self.starts[lo : hi + 1] - self.starts[lo]
        part.cols = self.cols[self.starts[lo] : self.starts[hi]]
        part.vals = self.vals[self.starts[lo] : self.starts[hi]]
        return part

    def dot(self, dense: np.ndarray) -> np.ndarray:
        """Exact product with an integer array whose rows match the columns.

        The entries are gathered, multiplied and summed per row, in the
        dtype ``_exact_dtype`` proves for the longest row.
        """
        dtype = _exact_dtype(int(self.lengths().max(initial=0)), self.vals, dense)
        terms = dense.astype(dtype, copy=False)[self.cols]  # a copy: scaled in place
        terms *= self.vals.astype(dtype, copy=False).reshape((-1,) + (1,) * (dense.ndim - 1))
        return np.add.reduceat(terms, self.starts[:-1], axis=0)


def _join(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair (i, j) with ``left[i] == right[j]``, grouped by i."""
    order = np.argsort(right, kind="stable")
    ranked = right[order]
    lo = np.searchsorted(ranked, left, "left")
    counts = np.searchsorted(ranked, left, "right") - lo
    first = np.cumsum(counts) - counts  # where the pairs of each i begin
    i = np.repeat(np.arange(left.size), counts)
    return i, order[np.arange(i.size) - first[i] + lo[i]]


def _run_bounds(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal entries begins in a sorted array, then the
    array's size: run i is ``keys[bounds[i]:bounds[i + 1]]``."""
    new = np.ones(keys.size + 1, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:-1])
    return np.flatnonzero(new)


def _key_runs(keys: np.ndarray, *factors: np.ndarray) -> tuple[np.ndarray, object]:
    """Where each run of equal keys begins in an ascending key array, and
    the dtype ``_exact_dtype`` proves for a sum, over the longest run, of
    products of the factors' entries."""
    bounds = _run_bounds(keys)
    starts = bounds[:-1]
    return starts, _exact_dtype(int((bounds[1:] - starts).max(initial=0)), *factors)


def _sparse_sum(keys: np.ndarray, *factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exact sum per key of a sparse set of terms.

    Term t is the product of the factors' entries t, at the nonnegative
    key ``keys[t]``.  Returns the ascending keys whose sum is not zero
    and those sums, in the dtype ``_exact_dtype`` proves for the largest
    number of terms at one key.
    """
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts, dtype = _key_runs(keys, *factors)
    terms = factors[0].astype(dtype, copy=False)[order]  # a copy: scaled in place
    for f in factors[1:]:
        terms *= f.astype(dtype, copy=False)[order]
    if not keys.size:
        return keys, terms
    sums = np.add.reduceat(terms, starts)
    keep = sums != 0
    return keys[starts][keep], sums[keep]


def integer_rows(m: RationalMatrix | np.ndarray) -> SparseRows:
    """The nonzero rows of an integer array, or of a matrix times its
    denominator, as a ``SparseRows``."""
    ints = m._ints if isinstance(m, RationalMatrix) else m
    i, j = np.nonzero(ints)
    return SparseRows(i, j, ints[i, j])


# ---------------------------------------------------------------------------
# modular arithmetic kernel
# ---------------------------------------------------------------------------

def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime31(rng: random.Random) -> int:
    while True:
        c = rng.randrange(2**30 + 1, 2**31) | 1
        if is_probable_prime(c):
            return c


_SEEDED_DRAWS = random.Random(_PROBE_SEED)
_SEEDED_PRIMES: list[int] = []


def _seeded_prime(i: int) -> int:
    """The i-th prime drawn from ``_PROBE_SEED``; the sequence is searched once."""
    while len(_SEEDED_PRIMES) <= i:
        _SEEDED_PRIMES.append(_random_prime31(_SEEDED_DRAWS))
    return _SEEDED_PRIMES[i]


class _ModPEchelon:
    """Streaming reduced echelon form over GF(p), vectorized with int64.

    One buffer holds the pivot rows, in the order they were found, and
    below them the block being absorbed, which ``clear_pivots`` writes
    there.  Invariant: pivot rows are mutually reduced (each is zero at
    every other pivot column), and each was reduced by every earlier
    pivot before it was chosen.  Products stay below 2^62 because
    p < 2^31.
    """

    def __init__(self, ncols: int, p: int, height: int):
        """``height`` bounds the rank before a block plus the block's rows."""
        self.ncols = ncols
        self.p = p
        self._buf = np.empty((height, ncols), dtype=np.int64)
        self._pivcols: list[int] = []
        self._pivrows: list[int] = []  # input row that became each pivot
        self._is_piv = np.zeros(ncols, dtype=bool)

    @property
    def rank(self) -> int:
        return len(self._pivcols)

    def clear_pivots(self, rows: SparseRows) -> np.ndarray:
        """Write the rows mod p below the pivots, every known pivot
        cleared, and return the indices of the rows written: with pivots
        known, those left zero are dropped.

        The nullspace basis mod p, N, is the identity at the free columns
        and -R at the pivot columns (R the reduced pivot rows), so a row
        times N is the row with every pivot cleared, read at the free
        columns: one ``rows.dot`` for all rows.
        """
        p, below = self.p, self._buf[self.rank :]
        if not self.rank:
            _rows_mod_p(rows, p, below)
            return np.arange(len(rows))
        free = np.flatnonzero(~self._is_piv)
        basis = np.zeros((self.ncols, free.size), dtype=np.int64)
        basis[free, range(free.size)] = 1
        basis[self._pivcols] = -self._buf[: self.rank, free] % p
        at_free = np.remainder(rows.dot(basis), p)
        kept = np.flatnonzero(at_free.any(axis=1))
        block = below[: kept.size]
        block.fill(0)
        block[:, free] = at_free[kept]
        return kept

    def absorb(self, row_ids: Sequence[int]) -> None:
        """Eliminate the block below the pivots, input rows ``row_ids``,
        which must be zero at every pivot column.

        In ascending free column order, a column's first nonzero block
        row not yet a pivot becomes its pivot, and one rank-1 update
        clears the column from every other row of the buffer that is
        nonzero there, old pivots included.  Each new pivot row is zero
        left of its column and at every pivot, so updates start at the
        column.  They run on a view of the buffer when most rows take
        part and on a gather of those rows otherwise.  The new pivots
        move up behind the old ones once the block is done.
        """
        p, r0 = self.p, self.rank
        buf = self._buf[: r0 + len(row_ids)]
        live = np.arange(len(buf)) >= r0  # block rows not yet pivots
        found = []
        for c in np.flatnonzero(~self._is_piv).tolist():
            if len(found) == len(row_ids):
                break
            nz = buf[:, c].nonzero()[0]
            cand = nz[live[nz]]
            if not cand.size:
                continue
            k = int(cand[0])
            row = buf[k, c:] * pow(int(buf[k, c]), -1, p) % p
            whole = 2 * nz.size > len(buf)
            part = buf[:, c:] if whole else buf[nz, c:]
            part -= part[:, :1] * row
            part %= p
            if not whole:
                buf[nz, c:] = part
            buf[k, c:] = row
            live[k] = False
            found.append(k)
            self._pivcols.append(c)
            self._pivrows.append(int(row_ids[k - r0]))
        self._is_piv[self._pivcols[r0:]] = True
        buf[r0 : self.rank] = buf[found]

    def reduced_rows(self) -> tuple[list[int], np.ndarray, list[int]]:
        """Pivot columns, the matching reduced pivot rows (a copy, so the
        buffer goes with the engine) and the input row that became each
        pivot, all in the order the pivots were found."""
        return list(self._pivcols), self._buf[: self.rank].copy(), list(self._pivrows)


def _rows_mod_p(rows: SparseRows, p: int, out: np.ndarray) -> np.ndarray:
    """The rows reduced mod p in one scatter, written to the front of ``out``."""
    block = out[: len(rows)]
    at = np.repeat(np.arange(len(rows)), rows.lengths())
    block.fill(0)
    block[at, rows.cols] = rows.vals % p
    return block


def _modp_rref(rows: SparseRows, ncols: int, p: int) -> tuple[list[int], np.ndarray, list[int]]:
    """The reduced echelon form mod p, read in blocks of ``_ELIM_ROWS``
    rows: pivot columns, pivot rows and the input row of each pivot, in
    the order the pivots were found.

    The first block is scattered whole; every later one has the known
    pivots cleared first, so only rows outside the span mod p are
    eliminated.  Blocks are small because a rank is often small next to
    the rows (594 of the 5,079 rows that J3(O)'s Leibniz rows leave
    after the substitution when its basis is rescaled by
    e_k -> (k + 1) e_k): once the early blocks have found most pivots,
    the rest of the rows drop out in the clearing product.  Reading
    stops at full column rank.
    """
    # one buffer for the pivots and every block: a fresh 2,048-row block
    # per step (12 MB on J3(O)) left about 10 MB of freed heap resident
    eng = _ModPEchelon(ncols, p, min(len(rows), ncols + _ELIM_ROWS))
    for lo in range(0, len(rows), _ELIM_ROWS):
        if eng.rank == ncols:
            break
        kept = eng.clear_pivots(rows.block(lo, min(lo + _ELIM_ROWS, len(rows))))
        if kept.size:
            eng.absorb(kept + lo)
    return eng.reduced_rows()


def rational_reconstruct(residue: int, p: int) -> Fraction | None:
    """Balanced lift or Wang reconstruction of a residue mod p.

    p may be any modulus: a prime, a power of one, or a product of
    primes.  Returns None when no fraction with numerator and
    denominator below sqrt(p/2) matches; the caller must treat that as
    a failed lift.
    """
    r = residue % p
    if r == 0:
        return Fraction(0)
    bound = math.isqrt((p - 1) // 2)
    balanced = r if r <= p // 2 else r - p
    if abs(balanced) <= bound:
        return Fraction(balanced)
    r0, t0, r1, t1 = p, 0, r, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if r1 == 0 or abs(t1) > bound or t1 == 0:
        return None
    if t1 < 0:
        r1, t1 = -r1, -t1
    if math.gcd(abs(r1), t1) != 1 or math.gcd(t1, p) != 1:
        return None
    return Fraction(r1, t1)


def _lift(
    rows: SparseRows,
    ncols: int,
    pivcols: list[int],
    free_cols: list[int],
    residues: np.ndarray,
    modulus: int,
) -> RationalMatrix | None:
    """The nullspace basis the residues of its pivot entries stand for, or None.

    One denominator ``den`` serves the whole basis: residue x gives the
    numerator den * x mod the modulus, balanced.  Where that exceeds the
    bound sqrt(modulus / 2) of ``rational_reconstruct``, Wang's method
    gives the entry instead, and den grows to the lcm with its
    denominator.  All candidates are certified by exact substitution,
    one ``rows.dot``.  None when an entry does not reconstruct or the
    substitution fails: the modulus is still too small, or the prime bad.

    Past modulus > 2 H^2 (H as in ``_padic_residues``) the acceptance is
    exact.  By Cramer's rule every entry is a minor over det(B), so every
    denominator, and with them den, divides det(B) <= H, and den * entry
    is an integer of size at most H, below the bound.  An entry m / q
    with q not dividing den balances to no y below the bound: q y and
    den m would agree modulo the modulus, both below half of it, so
    exactly.
    """
    bound = math.isqrt((modulus - 1) // 2)
    den, wang = 1, {}
    while True:
        nums = den * residues % modulus
        nums = np.where(nums > modulus // 2, nums - modulus, nums)
        for k in np.flatnonzero(np.abs(nums) > bound).tolist():
            if k not in wang:
                wang[k] = rational_reconstruct(residues.flat[k], modulus)
            q = wang[k]
            if q is None:
                return None
            if den % q.denominator:
                den = math.lcm(den, q.denominator)
                break
            nums.flat[k] = q.numerator * (den // q.denominator)
        else:
            break
    vectors = np.zeros((len(free_cols), ncols), dtype=object)
    vectors[:, pivcols] = nums.T
    vectors[range(len(free_cols)), free_cols] = den
    ints = _int_array(vectors.ravel().tolist(), vectors.shape)
    if rows.dot(ints.T).any():
        return None
    return RationalMatrix.from_ints(ints, den)


def _inverse_mod_p(b: np.ndarray, p: int) -> np.ndarray:
    """B^-1 mod p, for a square int64 array B: the right half of the
    reduced echelon form of [B | I] (``_modp_rref``), rows sorted by
    pivot column.  A B singular mod p leaves a pivot in the right half,
    and raises ZeroDivisionError."""
    r = len(b)
    augmented = integer_rows(np.hstack([b, np.eye(r, dtype=np.int64)]))
    pivcols, rref, _ = _modp_rref(augmented, 2 * r, p)
    if sorted(pivcols) != list(range(r)):
        raise ZeroDivisionError(f"B is singular mod {p}")
    return rref[np.argsort(pivcols), r:]


def _padic_residues(
    rows: SparseRows,
    pivcols: list[int],
    free_cols: list[int],
    pivrows: list[int],
    rref: np.ndarray,
    p: int,
) -> Iterable[tuple[np.ndarray, int]]:
    """Residues of the nullspace's pivot entries modulo p^k (an object
    array, one row per pivot), yielded at each k worth a lift (Dixon's
    p-adic lifting).

    P, the input rows that became pivots, is B at the pivot columns
    and -R_0 at the free columns, so the pivot entries X of the vectors
    with unit free parts solve B X = R_0.  Rows and columns of B are
    taken in the order the pivots were found.  B is invertible mod p:
    the elimination took P to the pivot rows, which are the identity at
    the pivot columns.

    Digit 0 comes from the RREF; then, with B inverted once mod p, each
    step takes X_k = B^-1 R_k mod p and R_(k+1) = (R_k - B X_k) / p,
    where R_1 = -P V_0 / p for the vectors V_0 of digit 0 and each B X_k
    is P times X_k placed at the pivot columns.  By Cramer's rule every
    entry of X is a fraction with numerator and denominator at most H,
    the Hadamard bound of P, so reconstruction is exact once
    p^k > 2 H^2: the last residues are yielded there.  Between, they
    are yielded whenever a sentinel entry reconstructs to the same
    value on two consecutive steps.
    """
    acc = (-rref[:, free_cols] % p).astype(object)  # X mod p^k
    pk = p
    yield acc, pk
    if not free_cols:  # full column rank: the empty basis is exact
        return
    piv = rows.take(pivrows)
    longest = int(piv.lengths().max(initial=0))
    sq = piv.vals.astype(_exact_dtype(longest, piv.vals, piv.vals)) ** 2
    h_sq = math.prod(np.add.reduceat(sq, piv.starts[:-1]).tolist())
    if pk > 2 * h_sq:
        return
    r, ncols = rref.shape
    b = _rows_mod_p(piv, p, np.empty((r, ncols), dtype=np.int64))[:, pivcols]
    b_inv = _inverse_mod_p(b, p)
    # 16-bit limbs keep each product with a residue below 2^47
    limbs = (b_inv & 0xFFFF, b_inv >> 16)
    placed = np.zeros((ncols, len(free_cols)), dtype=np.int64)  # V_0, then each X_k
    placed[free_cols, range(len(free_cols))] = 1
    placed[pivcols] = acc
    resid = -piv.dot(placed) // p
    placed[free_cols] = 0
    nonzero = np.flatnonzero(acc)  # entries nonzero mod p are nonzero over Q
    sentinel = int(nonzero[-1]) if nonzero.size else 0
    last = None
    while True:
        rm = (resid % p).astype(np.int64)
        lo, hi = (_contract("ij,jk->ik", r, limb, rm) % p for limb in limbs)
        digit = ((lo + (hi << 16)) % p).astype(np.int64)
        acc = acc + digit.astype(object) * pk
        pk *= p
        if pk > 2 * h_sq:
            yield acc, pk
            return
        q = rational_reconstruct(acc.flat[sentinel], pk)
        if q is not None and q == last:
            yield acc, pk
        last = q
        placed[pivcols] = digit
        resid = (resid - piv.dot(placed)) // p


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _substitute(rows: SparseRows, ncols: int) -> tuple[SparseRows, np.ndarray, np.ndarray] | None:
    """The rows with their singletons and ±1 doubletons substituted out,
    or None when they have none.

    Round by round, a row with one entry forces its column to 0, and a
    row a x_i + b x_j with |a| = |b| (so a, b = ±1, as rows are divided
    by their gcd) and i < j maps x_i to -ab x_j, by one such row per i.
    ``link`` holds 2 r + n for a column equal to (-1)^n x_r; the maps
    compose by pointer jumping, so every column links to the largest
    column of its chain, its root, and a singleton forces its column's
    root to 0.  Every row is then rewritten under the map, one
    ``_sparse_sum`` per round: each row used vanishes, a sign conflict
    leaves a new singleton and a new coincidence a new doubleton, for
    the next round.  Of the rows left, one of each set equal up to sign
    is kept (``_distinct_up_to_sign``).

    Returns the rewritten rows over the live roots (renumbered in
    order), each column's link (-1 for a column forced to 0) and the
    live roots.  Each input row, rewritten under the final map, is a
    nonzero multiple of one returned row or vanishes.
    """
    link = 2 * np.arange(ncols)
    zero = np.zeros(ncols, dtype=bool)  # at roots
    for rounds in itertools.count():
        lens = rows.lengths()
        first = rows.starts[:-1]
        single = rows.cols[first[lens == 1]]
        pair = first[lens == 2]
        pair = pair[(np.abs(rows.vals[pair]) == 1) & (np.abs(rows.vals[pair + 1]) == 1)]
        if not single.size and not pair.size:
            break
        step = 2 * np.arange(ncols)
        step[rows.cols[pair]] = 2 * rows.cols[pair + 1] + (rows.vals[pair] == rows.vals[pair + 1])
        while True:
            jumped = step[step >> 1] ^ (step & 1)
            if np.array_equal(jumped, step):
                break
            step = jumped
        zero[step[single] >> 1] = True
        link = step[link >> 1] ^ (link & 1)
        at = step[rows.cols]
        kept = ~zero[at >> 1]
        at = at[kept]
        row = np.repeat(np.arange(len(rows)), lens)[kept]
        keys, sums = _sparse_sum(row * ncols + (at >> 1), rows.vals[kept], 1 - 2 * (at & 1))
        rows = SparseRows(keys // ncols, keys % ncols, sums)
    if not rounds:
        return None
    rows = _distinct_up_to_sign(rows)
    live = np.flatnonzero((link == 2 * np.arange(ncols)) & ~zero)
    link[zero[link >> 1]] = -1
    rows.cols = np.searchsorted(live, rows.cols)
    return rows, link, live


def _distinct_up_to_sign(rows: SparseRows) -> SparseRows:
    """The first row of each set of rows equal up to sign, in order.

    Rows are divided by their gcd, so two are equal up to a nonzero
    scalar exactly when they are equal once each is made positive at its
    first entry.  The rows of each length are sorted by all their
    columns and values (one stable ``np.lexsort``; Python ints compare
    exactly), and a row is dropped when it equals the row before it,
    which is kept or itself equal to an earlier row.
    """
    lens = rows.lengths()
    first = rows.starts[:-1]
    signed = rows.vals * np.repeat(np.where(rows.vals[first] < 0, -1, 1), lens)
    kept = np.ones(len(rows), dtype=bool)
    for n in np.flatnonzero(np.bincount(lens)).tolist():
        same = np.flatnonzero(lens == n)
        at = first[same, None] + np.arange(n)
        keys = np.vstack([rows.cols[at].T, signed[at].T])
        order = np.lexsort(keys)
        dup = (keys[:, order[1:]] == keys[:, order[:-1]]).all(axis=0)
        kept[same[order[1:][dup]]] = False
    return rows if kept.all() else rows.take(np.flatnonzero(kept))


def nullspace_with_info(
    sparse_rows: SparseRows, ncols: int
) -> tuple[RationalMatrix, list[int], int]:
    """Nullspace basis, free columns, and rank of a ``SparseRows`` system
    in ``ncols`` unknowns; a system with no rows is its own certificate,
    of rank 0 with every column free.

    The workhorse behind ``nullspace_basis``/``rank``, also called
    directly by the derivation engine to avoid building dense matrices.
    The basis is one nullity x ncols ``RationalMatrix`` in reduced
    echelon form (shape (0, ncols) when the rows have full column rank):
    row t has a 1 at the t-th free column and 0 at the other free
    columns, so span coordinates can be read off at the free columns.

    Rows x_c = 0 and x_i = ±x_j are first substituted out, and of the
    rows left one of each set equal up to sign is kept (``_substitute``);
    the reduced system is solved on the live columns by
    ``_modular_solve``, and the basis is expanded back by x_c = ±x_r at
    the column's root r and x_c = 0 at a column forced to 0.  This is
    exact: every input row, rewritten under the map, is up to sign a
    multiple of one of the rows the solve certifies, or vanishes.  The
    basis is the one a solve of the whole system would give: a column
    that maps to a root on its right is never free, nor is one forced
    to 0, so the free columns are the live ones free in the reduced
    system, and the echelon basis with unit free parts is unique.  A
    system with no such row is solved as it is; one the substitution
    leaves with no rows (theta -/+ 1 of a diagonal involution) takes no
    elimination.
    """
    if ncols < 1:
        raise DimensionError("matrix must have at least one column")
    reduced = _substitute(sparse_rows, ncols)
    if reduced is None:
        return _modular_solve(sparse_rows, ncols)
    rows, link, live = reduced
    basis, free, _ = _modular_solve(rows, live.size)
    kept = np.flatnonzero(link >= 0)
    ints = np.zeros((basis.rows, ncols), dtype=basis._ints.dtype)
    ints[:, kept] = basis._ints[:, np.searchsorted(live, link[kept] >> 1)]
    neg = kept[link[kept] & 1 == 1]
    ints[:, neg] = -ints[:, neg]
    return RationalMatrix.from_ints(ints, basis._den), live[free].tolist(), ncols - basis.rows


def _modular_solve(sparse_rows: SparseRows, ncols: int) -> tuple[RationalMatrix, list[int], int]:
    """``nullspace_with_info`` of a system as it is, with nothing
    substituted.

    A system with no rows is its own certificate: its basis is the
    identity, every column free and the rank 0, with no prime drawn and
    nothing lifted or substituted.  Any other is solved one seeded
    31-bit prime p at a time: the RREF mod p, whose residues are lifted
    p-adically (``_padic_residues``) and then by rational
    reconstruction, the candidates certified together by exact
    substitution (one ``SparseRows.dot``); the first lift is tried at
    modulus p.  The certified vectors, one per free column, bound the
    nullity below and the rank mod p bounds the rank below, so both
    outputs are exact.  A certified vector zero right of its free
    column puts that column in the span of the columns before it, so
    when every vector is, the free columns and the basis are those of
    the reduced echelon form over Q.  When one is not, the prime divides
    a minor that decides a pivot, and the next prime is tried.  It ends:
    past the Hadamard bound of the pivot rows the lift is exact, so a
    prime whose lift still fails there has a rank mod p below the rank,
    and only the finitely many primes dividing a nonzero maximal minor,
    or a minor that decides a pivot, fail (at any other prime the pivot
    rows span the rows over Q, at the same pivot columns).
    """
    if not len(sparse_rows):
        return RationalMatrix.identity(ncols), list(range(ncols)), 0
    for i in itertools.count():
        p = _seeded_prime(i)
        pivcols, rref, pivrows = _modp_rref(sparse_rows, ncols, p)
        pivot_set = set(pivcols)
        free_cols = [c for c in range(ncols) if c not in pivot_set]
        lifts = _padic_residues(sparse_rows, pivcols, free_cols, pivrows, rref, p)
        for residues, modulus in lifts:
            basis = _lift(sparse_rows, ncols, pivcols, free_cols, residues, modulus)
            if basis is None:
                continue
            if np.count_nonzero(basis._ints[np.less.outer(free_cols, range(ncols))]):
                break
            return basis, free_cols, len(pivcols)


def _require_nonempty(m: RationalMatrix) -> None:
    if m.rows < 1 or m.cols < 1:
        raise DimensionError(f"operation needs a nonempty matrix, got {m.shape}")


def rank(m: RationalMatrix) -> int:
    """Exact rank over the rationals."""
    _require_nonempty(m)
    _, _, r = nullspace_with_info(integer_rows(m), m.cols)
    return r


def nullspace_basis(m: RationalMatrix) -> list[tuple]:
    """Canonical basis of the right nullspace, verified by substitution.

    Returns exactly cols - rank vectors; each vector has a 1 at its free
    column and 0 at every other free column.  Entries are ints where
    they are whole and Fractions otherwise.
    """
    _require_nonempty(m)
    basis, _, _ = nullspace_with_info(integer_rows(m), m.cols)
    return [tuple(v) for v in basis.to_rows()]


# ---------------------------------------------------------------------------
# symmetric definiteness certificates
# ---------------------------------------------------------------------------

def _pivot_signs(m: RationalMatrix) -> list[int]:
    """Signs of the pivots of symmetric elimination without pivoting, 0
    from the first zero pivot on.

    Pivot k is minor(k + 1) / minor(k), a ratio of leading principal
    minors (Sylvester).  The matrix times its positive denominator keeps
    every sign; the part still to be eliminated stays symmetric, so only
    its upper triangle is kept, one dict of nonzeros per row.  Pivot k
    changes only the entries (i, j) where (k, i) and (k, j) are both
    nonzero, so indices that no chain of nonzeros joins never meet, and a
    direct sum costs what its blocks do.  Entries stay integers, as in
    fraction-free (Bareiss) elimination: after k pivots each entry is
    minor(k) times its Schur complement entry, itself a minor of the
    matrix.  So each is kept as (v, d), v = d s for the minor d of its
    last change, and rescaled to the current minor, exactly, when read.
    """
    if not m.is_symmetric():
        raise DimensionError("principal minor signs need a symmetric matrix")

    def scaled(entry: tuple[int, int], minor: int) -> int:
        v, d = entry
        return v if d == minor else v * minor // d

    i, j = np.nonzero(np.triu(m._ints))
    rows: list[dict] = [{} for _ in range(m.rows)]
    for a, b, v in zip(i.tolist(), j.tolist(), m._ints[i, j].tolist()):
        rows[a][b] = (v, 1)
    signs = [0] * m.rows
    minor = 1
    for k, row in enumerate(rows):
        piv = scaled(row.pop(k, (0, 1)), minor)  # minor(k + 1)
        if not piv:
            break
        signs[k] = 1 if (piv > 0) == (minor > 0) else -1
        below = sorted((b, scaled(e, minor)) for b, e in row.items())
        for at, (a, x) in enumerate(below):
            for b, y in below[at:]:
                v = (piv * scaled(rows[a].get(b, (0, 1)), minor) - x * y) // minor
                if v:
                    rows[a][b] = (v, piv)
                else:
                    del rows[a][b]
        minor = piv
    return signs


def principal_minor_signs(m: RationalMatrix) -> list[int]:
    """Signs of the leading principal minors, computed exactly: the
    running products of the pivot signs (``_pivot_signs``), 0 from the
    first zero minor on, which already rules out definiteness."""
    return list(itertools.accumulate(_pivot_signs(m), operator.mul))


def is_negative_definite(m: RationalMatrix) -> bool:
    """True iff the symmetric matrix is negative definite: every pivot
    is negative.  An empty (0-dimensional) form is vacuously negative
    definite, which is the right convention for Killing forms of trivial
    Lie algebras.
    """
    return all(s < 0 for s in _pivot_signs(m))


def is_positive_definite(m: RationalMatrix) -> bool:
    return all(s > 0 for s in _pivot_signs(m))
