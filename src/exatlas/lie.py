"""Derivation Lie algebras, Killing forms, and symmetric-pair splits.

A derivation of an algebra is a matrix D with D(xy) = D(x)y + xD(y);
the full space of derivations is the nullspace of a linear constraint
system assembled from the structure constants, one equation per
ordered basis pair and output coordinate (unordered pairs for a
commutative algebra), handed to ``linalg`` as ``SparseRows``.
Everything returned here is certified exactly: Leibniz on every
ordered basis pair by the solver's own substitution, bracket closure,
and the eigenspace bracket relations of an involution.  One span
certificate (``_span_coords``) places sparse vectors in the echelon
basis, both the brackets of the basis and the transports sigma D sigma
of an involution sigma, which is given as a ``RationalMatrix`` and
checked on entry.  f and the [p, p] a split keeps are one sparse type,
``Brackets``, the only input of the Killing form, the split and the rank
probes; the matrices of a ``LieAlgebraBasis`` are an optional
realization that only the transport reads.  A split checks its
inclusions over the nonzeros of theta -/+ 1, in slices of about d^2
join terms, and its span flags mod p first.  ``generic_rank`` and
``flat_rank`` share one probe loop, over f or over a split's [p, p].

Hot paths run on scaled integer numpy arrays, starting from the
algebra's own structure tensor C' = s*c.  Scales are tracked so the
integer identities are equivalent to the rational ones; a
``RationalMatrix`` is read as its own (integer array, denominator)
pair.  Every dense product of those arrays is one ``linalg._contract``;
the bracket constants and the derivation matrices are mostly zero, so
bracket closure and every reader of the constants join and sum over
their nonzeros (``linalg._join``, ``linalg._sparse_sum``).  Both run in
int64 only when the bound is proven and on Python ints otherwise, so the
results do not depend on the size of the constants, that is, on the
basis.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import algebras as _alg
from . import jordan as _jordan
from .linalg import (
    ComputationCancelled,
    DimensionError,
    RationalMatrix,
    SparseRows,
    _contract,
    _int_array,
    _join,
    _modp_rref,
    _scaled_int_array,
    _seeded_prime,
    _sparse_sum,
    integer_rows,
    is_negative_definite,
    nullspace_with_info,
)


class InvalidInvolutionError(ValueError):
    """The supplied map is not an involutive automorphism."""


# ---------------------------------------------------------------------------
# Leibniz constraint system
# ---------------------------------------------------------------------------

def leibniz_constraint_rows(algebra: _alg.FiniteAlgebra) -> tuple[SparseRows, int]:
    """Sparse integer rows of the derivation constraint system, and n^2.

    Unknowns are the n^2 entries of D (row-major; D acts on coordinate
    columns).  Equation (i, j, k) is sum_m C'[i,j,m] D[k,m] -
    sum_a C'[a,j,k] D[a,i] - sum_b C'[i,b,k] D[b,j] = 0 over the tensor
    C' = s*c, so the system is the Leibniz identity on every ordered
    pair (i, j).  When the tensor is commutative, equation (j, i, k) is
    equation (i, j, k), so only i <= j is kept there.
    """
    n = algebra.dim
    c = algebra.tensor
    pairs = np.ones((n, n), dtype=bool)  # pairs[i, j]: equations (i, j, *) kept
    if np.array_equal(c, c.transpose(1, 0, 2)):
        pairs = np.triu(pairs)
    nz = np.nonzero(c)
    a, b, m = (v[:, None] for v in nz)  # C'[a, b, m] != 0
    t = np.arange(n)[None, :]  # the free index of each term
    v = c[nz][:, None]
    terms = (  # (equation * n^2 + unknown, coefficient, where the term occurs)
        (((a * n + b) * n + t) * n * n + t * n + m, v, pairs[a, b]),  # (i,j,k) = (a,b,t)
        (((t * n + b) * n + m) * n * n + a * n + t, -v, pairs[t, b]),  # (i,j,k) = (t,b,m)
        (((a * n + t) * n + m) * n * n + b * n + t, -v, pairs[a, t]),  # (i,j,k) = (a,t,m)
    )
    keys, vals = [], []
    for key, coeff, where in terms:
        where = np.broadcast_to(where, key.shape)
        keys.append(key[where])
        vals.append(np.broadcast_to(coeff, key.shape)[where])
    key, val = _sparse_sum(np.concatenate(keys), np.concatenate(vals))
    eq, pos = np.divmod(key, n * n)
    return SparseRows(eq, pos, val), n * n


# ---------------------------------------------------------------------------
# Lie algebra container
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Brackets:
    """Sparse brackets of a left and a right basis, over one scale.

    The bracket of left vector u and right vector v has coordinate c
    equal to ``vals[t] / scale`` at the key ``keys[t] = (u * shape[1] +
    v) * shape[2] + c``, keys ascending, zeros left out.  f of a Lie
    algebra is its basis with itself, of shape (d, d, d); the [p, p] a
    Cartan split keeps are p's basis with itself, in coordinates of the
    algebra.  Every reader of brackets runs over these nonzeros.
    """

    keys: np.ndarray
    vals: np.ndarray
    shape: tuple[int, int, int]
    scale: int = 1

    @cached_property
    def floor(self) -> int:
        """The size of a greedy set of pairwise commuting vectors of a
        space V, read from the keys of its brackets, of shape (m, m, d):
        in order, each vector that commutes with every one kept before,
        where u and v commute when there is no key (u, v, c).  On a
        compact l their abelian span lies in a maximal one, so the size
        is at most the rank.  Kept, so found once per algebra or split."""
        m, _, d = self.shape
        clash = np.zeros((m, m), dtype=bool)
        clash.flat[self.keys // d] = True
        kept: list[int] = []
        for a in range(m):
            if not clash[a, kept].any():
                kept.append(a)
        return len(kept)


@dataclass(frozen=True, eq=False)
class LieAlgebraBasis:
    """A Lie algebra by its structure constants f, [D_a, D_b] = sum_c
    f(a, b, c) D_c, with an optional matrix realization.

    ``dim``, ``killing_form``, ``is_compact``, ``cartan_split``,
    ``generic_rank`` and ``flat_rank`` read f only.  A derivation algebra
    is realized: ``_vectors`` is the solver's reduced echelon basis of
    the derivations of ``algebra``, flattened, and vector t is 1 at
    ``free_coords[t]`` and 0 at the other free coordinates, so span
    coordinates are read off directly.  ``basis``, ``ambient_dim`` and
    ``induced_involution`` read the realization.  As with
    ``FiniteAlgebra``, ``==`` and ``hash`` go by identity: named algebras
    are cached, so each is one object.
    """

    f: Brackets = field(repr=False)
    algebra: _alg.FiniteAlgebra | None = None
    free_coords: tuple[int, ...] = ()
    _vectors: RationalMatrix | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.f.shape[0]

    @property
    def ambient_dim(self) -> int:
        if self.algebra is None:
            raise ValueError("this Lie algebra has no matrix realization")
        return self.algebra.dim

    @property
    def basis(self) -> tuple[RationalMatrix, ...]:
        """The basis derivations, as ambient_dim x ambient_dim matrices."""
        n, v = self.ambient_dim, self._vectors
        return tuple(RationalMatrix.from_ints(m.reshape(n, n), v._den) for m in v._ints)

    @cached_property
    def is_compact(self) -> bool:
        """Whether the Killing form is negative definite.

        Computed on first use and kept, so each algebra's minor signs are
        found once; ``derivation_algebra`` never asks for it.
        """
        return is_negative_definite(killing_form(self))


def _dense(shape: tuple[int, ...], keys: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The array of the given shape holding vals at the flat keys, 0 elsewhere."""
    out = np.zeros(math.prod(shape), dtype=vals.dtype)
    out[keys] = vals
    return out.reshape(shape)


def _map_axis(
    keys: np.ndarray, vals: np.ndarray, shape: tuple[int, ...], axis: int, m: np.ndarray
) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """A sparse tensor with one axis mapped by the integer matrix m.

    The tensor holds ``vals`` at the flat ``keys`` of ``shape``; entry
    [..., s, ...] of the result is sum_r m[s, r] [..., r, ...], summed
    over the nonzeros of both, joined on r.
    """
    s, r = np.nonzero(m)
    idx = list(np.unravel_index(keys, shape))
    x, y = _join(idx[axis], r)
    idx = [v[x] for v in idx]
    idx[axis] = s[y]
    shape = shape[:axis] + (m.shape[0],) + shape[axis + 1 :]
    keys, vals = _sparse_sum(np.ravel_multi_index(idx, shape), vals[x], m[s, r][y])
    return keys, vals, shape


def bracket(x: RationalMatrix, y: RationalMatrix) -> RationalMatrix:
    """Matrix commutator xy - yx."""
    if x.shape != y.shape or x.rows != x.cols:
        raise DimensionError(f"bracket needs equal square shapes, got {x.shape}, {y.shape}")
    return x @ y - y @ x


def _span_coords(
    keys: np.ndarray,
    vals: np.ndarray,
    basis_int: np.ndarray,
    basis_scale: int,
    free: Sequence[int],
) -> tuple[np.ndarray, np.ndarray] | None:
    """Coordinates of sparse vectors in the span of an echelon basis, or None.

    The basis is ``basis_int / basis_scale``, one vector per index of
    its leading axis, flattened to m entries; vector t is 1 at the flat
    coordinate ``free[t]`` (ascending) and 0 at the other free
    coordinates.  Vector r to place holds, times any common scale s, the
    nonzero ``vals`` at the ascending keys r * m + coordinate (as
    ``linalg._sparse_sum`` returns them).  An element of the span has its
    coordinates (times s) at the free coordinates; they are returned as
    the ascending keys r * dim + t and their values.  The certificate
    rebuilds each vector from them over the nonzeros of the basis and
    compares with ``basis_scale`` times the input.
    """
    d, m = basis_int.shape[0], math.prod(basis_int.shape[1:])
    free_pos = np.full(m, -1)
    free_pos[list(free)] = np.arange(d)
    row, coord = np.divmod(keys, m)
    at_free = free_pos[coord] >= 0
    c_keys, c_vals = row[at_free] * d + free_pos[coord[at_free]], vals[at_free]
    nz = np.flatnonzero(basis_int)
    t, pos = np.divmod(nz, m)
    x, y = _join(c_keys % d, t)
    recon_keys, recon = _sparse_sum(
        c_keys[x] // d * m + pos[y], c_vals[x], basis_int.reshape(-1)[nz][y]
    )
    scaled = _contract(",k->k", 1, _int_array([basis_scale], ()), vals)
    if np.array_equal(recon_keys, keys) and np.array_equal(recon, scaled):
        return c_keys, c_vals
    return None


def derivation_algebra(algebra: _alg.FiniteAlgebra) -> LieAlgebraBasis:
    """All derivations of the algebra, as a certified Lie algebra basis.

    Solves the Leibniz constraint system exactly (modular elimination,
    p-adic lifting and rational reconstruction, then exact substitution;
    see ``linalg.nullspace_with_info``).  The system holds the Leibniz
    identity on every ordered basis pair, so the solver's substitution
    certifies each basis vector as a derivation.  It then checks that
    every derivation kills ``unit_coords`` (Leibniz forces D(1) = 0),
    which guards against coordinates that are not the unit's, and
    certifies bracket closure while computing the structure constants:
    on the pairs a < b only, as [D_b, D_a] = -[D_a, D_b] and
    [D_a, D_a] = 0.
    """
    n = algebra.dim
    rows, ncols = leibniz_constraint_rows(algebra)
    vectors, free_cols, _ = nullspace_with_info(rows, ncols)
    d = vectors.rows
    d_int, d_scale = vectors._ints.reshape(d, n, n), vectors._den

    # D(1) = 0 follows from Leibniz, so this validates unit_coords
    unit, _ = _scaled_int_array(list(algebra.unit_coords), (n,))
    if np.any(_contract("tij,j->ti", n, d_int, unit)):
        raise RuntimeError("internal error: derivation does not kill the unit")

    # the brackets [D_a, D_b] of the pairs a < b, scaled by d_scale^2,
    # over the nonzeros: D_a D_b at (i, k) joins D_a[i, j] with D_b[j, k]
    # on j; it adds to [D_a, D_b] when a < b, subtracts from [D_b, D_a]
    # when a > b, and cancels when a = b
    t, i, j = np.nonzero(d_int)
    v = d_int[t, i, j]
    x, y = _join(j, i)
    apart = t[x] != t[y]
    x, y = x[apart], y[apart]
    a, b = t[x], t[y]
    comm_keys, comm = _sparse_sum(
        (np.minimum(a, b) * d + np.maximum(a, b)) * n * n + i[x] * n + j[y],
        np.where(a < b, v[x], -v[x]),
        v[y],
    )
    # closure certificate: the coordinates f(a, b, c) (times d_scale^2)
    # rebuild each bracket; f(b, a, c) = -f(a, b, c) fills in the rest
    closure = _span_coords(comm_keys, comm, d_int, d_scale, free_cols)
    if closure is None:
        raise RuntimeError("internal error: bracket closure certification failed")
    upper_keys, upper = closure
    a, b, c = np.unravel_index(upper_keys, (d,) * 3)
    f_keys = np.concatenate([upper_keys, (b * d + a) * d + c])
    order = np.argsort(f_keys)
    f_keys, f_int = f_keys[order], np.concatenate([upper, -upper])[order]
    f_scale = d_scale * d_scale
    g = math.gcd(int(np.gcd.reduce(np.abs(f_int))), f_scale)
    f_scale //= g

    f_vals = _int_array([q // g for q in f_int.tolist()], (-1,))
    return LieAlgebraBasis(
        Brackets(f_keys, f_vals, (d,) * 3, f_scale), algebra, tuple(free_cols), vectors
    )


# ---------------------------------------------------------------------------
# Killing form
# ---------------------------------------------------------------------------

def killing_form(l: LieAlgebraBasis) -> RationalMatrix:
    """B(a, b) = trace(ad_a ad_b) on the basis; symmetric by construction.

    B(a, b) = sum_xy f(a, x, y) f(b, y, x): the nonzeros of f joined
    with themselves on (x, y) = (y', x').
    """
    f, d = l.f, l.dim
    a, x, y = np.unravel_index(f.keys, f.shape)
    i, j = _join(x * d + y, y * d + x)
    k_int = _dense((d, d), *_sparse_sum(a[i] * d + a[j], f.vals[i], f.vals[j]))
    return RationalMatrix.from_ints(k_int, f.scale * f.scale)


# ---------------------------------------------------------------------------
# involutions
# ---------------------------------------------------------------------------

def is_algebra_automorphism(algebra: _alg.FiniteAlgebra, sigma: RationalMatrix) -> bool:
    """Checks sigma(e_i e_j) = sigma(e_i) sigma(e_j) on all basis pairs.

    With sigma = S'/t and the tensor C' = s*c, both sides times s t^2
    are integer sums over the nonzeros of C': t sum_m C'[i,j,m] S'[k,m]
    (axis 2 mapped by S') against sum_ab S'[a,i] S'[b,j] C'[a,b,k]
    (axes 0 and 1 mapped by S' transposed).
    """
    n = algebra.dim
    if sigma.shape != (n, n):
        return False
    s_int = sigma._ints
    c = algebra.tensor
    keys = np.flatnonzero(c)
    tensor = (keys, c.reshape(-1)[keys], c.shape)
    lhs_keys, lhs, _ = _map_axis(*tensor, 2, s_int)
    rhs_keys, rhs, _ = _map_axis(*_map_axis(*tensor, 0, s_int.T), 1, s_int.T)
    lhs = _contract(",k->k", 1, _int_array([sigma._den], ()), lhs)
    return np.array_equal(lhs_keys, rhs_keys) and np.array_equal(lhs, rhs)


def doubled_half_reflection(algebra: _alg.FiniteAlgebra) -> RationalMatrix:
    """The automorphism (p, q) -> (p, -q) of a doubled algebra.

    Fixes the subalgebra the algebra was doubled from; on the octonions
    this fixes the quaternion span e0..e3 and negates e4..e7.
    """
    n = algebra.dim
    if n < 2 or n % 2:
        raise ValueError("need an algebra of even dimension >= 2")
    h = n // 2
    return RationalMatrix.from_ints(np.diag([1] * h + [-1] * h), 1)


def diagonal_sign_involution(
    j: _jordan.JordanAlgebra, signs: tuple[int, int, int] = (-1, 1, 1)
) -> RationalMatrix:
    """Conjugation of hermitian matrices by diag(signs) as a coordinate map.

    Diagonal coordinates are fixed; the off-diagonal block at (r, c)
    picks up the sign signs[r] * signs[c].  signs must be three values,
    each +1 or -1.
    """
    if len(signs) != 3 or any(s not in (1, -1) for s in signs):
        raise ValueError(f"need three signs, each +1 or -1, got {tuple(signs)}")
    k = j.coefficient_algebra
    diag = [1, 1, 1]
    for r, c in _jordan.OFF_POSITIONS:
        diag.extend([signs[r] * signs[c]] * k.dim)
    return RationalMatrix.from_ints(np.diag(diag), 1)


def induced_involution(
    algebra: _alg.FiniteAlgebra, sigma: RationalMatrix, l: LieAlgebraBasis
) -> RationalMatrix:
    """The order-2 map D -> sigma D sigma^(-1) in the basis of l.

    sigma must square to the identity and preserve the structure
    constants; both properties are verified, as is the fact that each
    transported basis derivation lies back in the span.  With sigma =
    S'/s, S' D'_t S' = s^2 d_scale sigma D_t sigma is formed over the
    nonzeros of the basis: its axis 1 mapped by S' and its axis 2 by
    S' transposed.
    """
    n = algebra.dim
    if l.algebra is not algebra:
        raise ValueError("Lie algebra basis is not realized in this algebra")
    if sigma.shape != (n, n):
        raise InvalidInvolutionError(f"expected a {n}x{n} map, got {sigma.shape}")
    if sigma @ sigma != RationalMatrix.identity(n):
        raise InvalidInvolutionError("map does not square to the identity")
    if not is_algebra_automorphism(algebra, sigma):
        raise InvalidInvolutionError("map does not preserve the structure constants")

    s_int, d_int, d_scale = sigma._ints, l._vectors._ints, l._vectors._den
    shape = (l.dim, n, n)
    nz = np.flatnonzero(d_int)
    keys, vals, _ = _map_axis(nz, d_int.reshape(-1)[nz], shape, 1, s_int)
    keys, vals, _ = _map_axis(keys, vals, shape, 2, s_int.T)
    coords = _span_coords(keys, vals, d_int, d_scale, l.free_coords)
    if coords is None:
        raise InvalidInvolutionError(
            "transported derivation leaves the span; sigma is not compatible"
        )
    # coordinate u of transported D_t is theta[u, t], scaled
    theta_t = _dense((l.dim, l.dim), *coords)
    theta = RationalMatrix.from_ints(theta_t.T, sigma._den**2 * d_scale)
    if theta @ theta != RationalMatrix.identity(l.dim):
        raise InvalidInvolutionError("induced map is not an involution")
    return theta


# ---------------------------------------------------------------------------
# Cartan symmetric-pair split
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CartanPair:
    """Eigenspace split g = k + p under an involutive automorphism.

    k is the (+1)-eigenspace, p the (-1)-eigenspace, each as the
    reduced echelon ``RationalMatrix`` the solver certified (one row per
    basis vector, in coordinates of the Lie algebra).  The three bracket
    inclusions [k,k] in k, [k,p] in p, [p,p] in k are certified exactly
    on construction, each by an eigen-equation of the involution; the
    span flags record whether [p,p] spans k and [k,p] spans p.  The
    brackets [p_u, p_v] of p's basis are kept, for ``flat_rank``'s
    probes.
    """

    lie: LieAlgebraBasis
    k_basis: RationalMatrix
    p_basis: RationalMatrix
    pp_spans_k: bool
    kp_spans_p: bool
    _pp: Brackets = field(repr=False, compare=False)  # read from lie and p_basis

    @property
    def k_dim(self) -> int:
        return self.k_basis.rows

    @property
    def p_dim(self) -> int:
        return self.p_basis.rows

    @property
    def dims(self) -> tuple[int, int]:
        return (self.k_dim, self.p_dim)


def _bracket_tensor(brackets: Brackets, left: np.ndarray, right: np.ndarray) -> Brackets:
    """The brackets of all pairs from two integer bases.

    ``brackets`` are those of a space V (f, or a pair's [p, p]), and the
    bases are in coefficients of V.  The bracket of left[i] and right[j]
    has coordinate c equal to sum_ab left[i, a] right[j, b] V(a, b, c):
    the first axis mapped by left and the second by right, over the
    nonzeros, over V's scale.  It runs in slices of left's rows, each
    holding the rows whose join terms, bounded from the nonzero counts,
    add up to about the size of V's dense brackets (d^3 over all of l):
    so dense bases need at most a d-th of the d^4 intermediate of a
    dense contraction, and sparse ones take one slice.
    """
    keys, vals, (m, _, d) = brackets.keys, brackets.vals, brackets.shape
    n = right.shape[0]
    per_a = np.bincount(keys // (m * d), minlength=m)
    per_b = int((right != 0).sum(axis=0).max(initial=0))
    cost = (left != 0).astype(np.int64) @ per_a * (1 + per_b)
    cuts = (np.flatnonzero(np.diff(np.cumsum(cost) // max(m * m * d, 1))) + 1).tolist()
    out_keys, out_vals = [], []
    for lo, hi in zip([0, *cuts], [*cuts, left.shape[0]]):
        f = _map_axis(keys, vals, (m, m, d), 0, left[lo:hi])
        k, v, _ = _map_axis(*f, 1, right)
        out_keys.append(k + lo * n * d)
        out_vals.append(v)
    shape = (left.shape[0], n, d)
    return Brackets(np.concatenate(out_keys), np.concatenate(out_vals), shape, brackets.scale)


def _spans(brackets: Brackets, basis: RationalMatrix, free: list[int]) -> bool:
    """Whether brackets in the span of an echelon basis span it: whether,
    read at its free columns, they have rank ``basis.rows``.  Rank mod
    p <= rank over Q <= that, so a full rank mod ``_seeded_prime(0)``
    proves it; only a short one is solved exactly."""
    d, n = brackets.shape[2], basis.rows
    pair, col = np.divmod(brackets.keys, d)
    at = np.full(d, -1)
    at[free] = np.arange(n)
    kept = at[col] >= 0
    rows = SparseRows(pair[kept], at[col[kept]], brackets.vals[kept])
    full = len(_modp_rref(rows, n, _seeded_prime(0))[0]) == n
    return full or nullspace_with_info(rows, n)[2] == n


def cartan_split(l: LieAlgebraBasis, theta: RationalMatrix) -> CartanPair:
    """Split l into the +/-1 eigenspaces of theta and certify the relations.

    theta must be an involutive Lie-algebra automorphism (both verified).
    Raises InvalidInvolutionError otherwise.  The zero algebra splits
    into two zero spaces, each spanned by the brackets vacuously.

    k and p are the nullspaces of theta - 1 and theta + 1, so membership
    is an eigen-equation: x lies in k exactly when (theta - 1)x = 0, and
    in p exactly when (theta + 1)x = 0.  Each inclusion is checked before
    the next inclusion's brackets are built, the product with theta -/+ 1
    taken over its nonzeros, in slices cut between brackets of about d^2
    join terms each (one ``_join`` and one ``_sparse_sum`` per slice): an
    entry at column c joins the nonzeros of column c of theta -/+ 1, so
    a dense one is sliced finer.  Once theta squares to the identity,
    g = k + p, so theta preserves the bracket exactly when the three
    inclusions hold: their certificate is the automorphism check.  Given
    the inclusions, [p, p] spans k exactly when it has rank dim k, and
    [k, p] spans p exactly when it has rank dim p (``_spans``, mostly by
    one elimination mod p).  The pair keeps [p, p] for ``flat_rank``.
    """
    d = l.dim
    if theta.shape != (d, d):
        raise InvalidInvolutionError(f"expected a {d}x{d} map on the Lie algebra")
    ident = RationalMatrix.identity(d)
    if theta @ theta != ident:
        raise InvalidInvolutionError("map does not square to the identity")
    if d == 0:
        empty = RationalMatrix.zeros(0, 0)
        return CartanPair(l, empty, empty, True, True, l.f)

    minus, plus = theta - ident, theta + ident
    k, k_free, _ = nullspace_with_info(integer_rows(minus), d)
    p, p_free, _ = nullspace_with_info(integer_rows(plus), d)
    brackets = []
    for left, right, eigen, what in (
        (k, k, minus, "[k, k] escapes k"),
        (k, p, plus, "[k, p] escapes p"),
        (p, p, minus, "[p, p] escapes k"),
    ):
        brackets.append(_bracket_tensor(l.f, left._ints, right._ints))
        keys, vals = brackets[-1].keys, brackets[-1].vals
        pair, col = np.divmod(keys, d)
        # (eigen z)[i] = sum_c eigen[i, c] z[c], over the nonzeros eigen[i, c]
        e_row, e_col = np.nonzero(eigen._ints)
        e_val = eigen._ints[e_row, e_col]
        # the join terms of the entries, and those before each one
        terms = np.bincount(e_col, minlength=d)[col]
        before = np.cumsum(terms) - terms
        at = np.flatnonzero(np.diff(before // (d * d))) + 1
        cuts = np.searchsorted(pair, pair[at]).tolist()
        for lo, hi in zip([0, *cuts], [*cuts, keys.size]):
            x, y = _join(col[lo:hi], e_col)
            if _sparse_sum(pair[lo:hi][x] * d + e_row[y], vals[lo:hi][x], e_val[y])[0].size:
                raise InvalidInvolutionError(f"map does not preserve the bracket: {what}")
    _, kp, pp = brackets

    return CartanPair(
        lie=l,
        k_basis=k,
        p_basis=p,
        pp_spans_k=_spans(pp, k, k_free),
        kp_spans_p=_spans(kp, p, p_free),
        _pp=pp,
    )


# ---------------------------------------------------------------------------
# rank by generic centralizers
# ---------------------------------------------------------------------------

def _probe_coefficients(rng: random.Random | None, trials: int, dim: int) -> np.ndarray:
    """trials x dim coefficients in [-span, span], the values of
    ``rng.randint`` drawn trial by trial (seeded with the default seed
    when rng is None)."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if rng is None:
        rng = random.Random(_alg.DEFAULT_SEED)
    return _alg._random_rows(rng, trials, dim)


def _is_maximal_abelian(brackets: Brackets, x_coords: np.ndarray, kernel: np.ndarray) -> bool:
    """Whether the centralizer of a probe x in V is abelian, x not 0:
    on a compact l, the rank probes' exact certificate that it is
    maximal abelian (``_centralizer_rank``).  ``kernel`` holds integer
    multiples of an echelon basis of the centralizer, in coefficients of
    V, and ``x_coords`` the coordinates of x in it.  Dropping one vector
    at which x's coordinate is nonzero leaves, with x, a basis
    {x, b_2, ..., b_m}, and [x, b_i] = 0, so only the brackets [b_i, b_j]
    are taken (``_bracket_tensor``).
    """
    on_x = np.flatnonzero(x_coords)
    if not on_x.size:
        return False
    rest = np.delete(kernel, on_x[0], axis=0)
    return not _bracket_tensor(brackets, rest, rest).keys.size


def _probe_rows(brackets: Brackets, x: np.ndarray) -> SparseRows:
    """The constraint whose kernel is the centralizer of x = sum_u x_u v_u
    in V: row c, column v is sum_u x_u [v_u, v_v]_c, one ``_sparse_sum``
    over V's brackets."""
    m = brackets.shape[0]
    u, v, c = np.unravel_index(brackets.keys, brackets.shape)
    k, sums = _sparse_sum(c * m + v, x[u], brackets.vals)
    return SparseRows(k // m, k % m, sums)


def _centralizer_rank(
    space: Brackets, compact: bool, trials: int, rng: random.Random | None
) -> int:
    """Minimum over trials of dim {y in V : [x, y] = 0} for random x in V.

    V is all of l or the p of a Cartan pair, given by its brackets
    ``space``, and ``compact`` says whether l is.  The probes read only
    those brackets (one ``_probe_rows`` per probe) and their floor,
    found once per space.  Every trial's coefficients are drawn up front,
    so rng ends in the same state however many trials are solved.  On a
    compact l each probe x first takes a ceiling, the nullity of its
    constraint mod ``_seeded_prime(0)``, and the probes stop with nothing
    lifted at the first x whose ceiling meets the floor; a floor above a
    ceiling raises.  A probe above the floor, and every probe of an l
    that is not compact, is solved exactly, and on a compact l the probes
    stop at one whose centralizer in V ``_is_maximal_abelian`` certifies.
    """
    m = space.shape[0]
    probes = _probe_coefficients(rng, trials, m)
    if m == 0:
        return 0
    floor = space.floor if compact else None
    best = m
    for x in probes:
        rows = _probe_rows(space, x)
        if floor is not None:
            ceiling = m - len(_modp_rref(rows, m, _seeded_prime(0))[0])
            if floor > ceiling:
                raise RuntimeError("internal error: commuting vectors outnumber a centralizer")
            if floor == ceiling:
                return floor
        kernel, free, r = nullspace_with_info(rows, m)
        best = min(best, m - r)
        if floor is not None and _is_maximal_abelian(space, x[free], kernel._ints):
            break
    return best


def generic_rank(
    l: LieAlgebraBasis,
    trials: int = 5,
    rng: random.Random | None = None,
) -> int:
    """Minimum over trials of dim ker(ad_x) for random rational x.

    For a compact form the centralizer of a generic element is a Cartan
    subalgebra, so the minimum is the rank; extra trials guard against
    non-generic samples and can only lower the result.

    On a compact l the rank is certified by two bounds that meet
    (``_centralizer_rank`` over all of l).  All maximal abelian
    subalgebras of a compact Lie algebra are conjugate (Knapp, *Lie
    Groups Beyond an Introduction*, Thm 4.34), so share one dimension,
    the rank.  Commuting basis vectors span an abelian subalgebra, which
    lies in one, so their number is at most the rank; every y lies in
    one inside z(y), so the rank is at most dim z(y), at most the
    nullity of ad_y mod p.  A probe above the floor is solved exactly:
    an abelian z(x), x not 0, is maximal, since an abelian space
    containing it commutes with x.  An algebra that is not compact has
    every trial solved.
    """
    return _centralizer_rank(l.f, l.is_compact, trials, rng)


def flat_rank(
    pair: CartanPair,
    trials: int = 5,
    rng: random.Random | None = None,
) -> int:
    """Dimension of a maximal commuting subspace of p, by random probes.

    For a generic x in p the set {y in p : [x, y] = 0} is a maximal
    flat, whose dimension is the rank of the symmetric space.

    The split may come from a noncompact real form and still gives the
    compact space's rank: the rank is an invariant of the complexified
    pair (k_C, p_C), the common dimension of its Cartan subspaces, which
    are the centralizers in p_C of regular semisimple elements
    (Kostant-Rallis).  Those elements are Zariski dense in p_C, so a
    random rational probe in p is one of them unless it is unlucky; an
    unlucky probe has a larger centralizer, so extra trials can only
    lower the result.

    As in ``generic_rank``, the rank of a split of a compact g is
    certified by two bounds read from the [p, p] the split kept: basis
    vectors of p that commute pairwise, and the nullity mod p of a probe's
    constraint; a probe above the floor is solved exactly.  For a compact g all
    maximal abelian subspaces of p are Ad(K)-conjugate (Helgason,
    *Differential Geometry, Lie Groups, and Symmetric Spaces*, Ch. V,
    Lemma 6.3), so the same arguments hold in p.  A split of a g that is
    not compact has every trial solved.
    """
    return _centralizer_rank(pair._pp, pair.lie.is_compact, trials, rng)


# ---------------------------------------------------------------------------
# named registry
# ---------------------------------------------------------------------------

DERIVATION_TARGETS = ("complex", "quaternions", "octonions", "j3r", "j3c", "j3h", "j3o")


def _target_algebra(name: str) -> _alg.FiniteAlgebra:
    builders = {
        "complex": _alg.complex_algebra,
        "quaternions": _alg.quaternions,
        "octonions": _alg.octonions,
        "j3r": lambda: _jordan.jordan_algebra(_alg.real_algebra()),
        "j3c": lambda: _jordan.jordan_algebra(_alg.complex_algebra()),
        "j3h": lambda: _jordan.jordan_algebra(_alg.quaternions()),
        "j3o": lambda: _jordan.jordan_algebra(_alg.octonions()),
    }
    if name not in builders:
        raise ValueError(f"unknown derivation target {name!r}")
    return builders[name]()


_NAMED_CACHE: dict[str, LieAlgebraBasis] = {}


def named_derivation_algebra(
    name: str, cancel: Callable[[], bool] | None = None
) -> LieAlgebraBasis:
    """Cached derivation algebra for a named target (see DERIVATION_TARGETS).

    The cache is process-wide.  A cancel token is checked once, before a
    derivation that is not cached starts; one that has started runs on.
    """
    if name not in _NAMED_CACHE:
        if cancel is not None and cancel():
            raise ComputationCancelled("computation cancelled by caller")
        _NAMED_CACHE[name] = derivation_algebra(_target_algebra(name))
    return _NAMED_CACHE[name]
