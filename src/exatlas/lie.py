"""Derivation Lie algebras, Killing forms, and symmetric-pair splits.

A derivation of an algebra is a matrix D with D(xy) = D(x)y + xD(y);
the full space of derivations is the nullspace of a linear constraint
system assembled from the structure constants, one equation per
ordered basis pair and output coordinate (unordered pairs for a
commutative algebra), handed to ``linalg`` as ``SparseRows``.
Everything returned here is certified exactly: Leibniz on every
ordered basis pair by the solver's own substitution, bracket closure,
and the eigenspace bracket relations of an involution.

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
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import algebras as _alg
from . import jordan as _jordan
from .linalg import (
    CancelToken,
    DimensionError,
    RationalMatrix,
    SparseRows,
    _contract,
    _int_array,
    _join,
    _scaled_int_array,
    _sparse_sum,
    integer_rows,
    nullspace_with_info,
)


class InvalidInvolutionError(ValueError):
    """The supplied map is not an involutive automorphism."""


@dataclass(frozen=True)
class Involution:
    """A certified order-2 automorphism of an algebra.

    Construct through ``Involution.certify`` so the invariants (squares
    to the identity, preserves the structure constants) actually hold.
    """

    algebra: "_alg.FiniteAlgebra"
    matrix: RationalMatrix

    @classmethod
    def certify(cls, algebra, matrix: RationalMatrix) -> "Involution":
        n = algebra.dim
        if matrix.shape != (n, n):
            raise InvalidInvolutionError(f"expected a {n}x{n} map, got {matrix.shape}")
        if matrix @ matrix != RationalMatrix.identity(n):
            raise InvalidInvolutionError("map does not square to the identity")
        if not is_algebra_automorphism(algebra, matrix):
            raise InvalidInvolutionError("map does not preserve the structure constants")
        return cls(algebra, matrix)


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

@dataclass(frozen=True)
class LieAlgebraBasis:
    """Certified derivation Lie algebra in a canonical echelon basis.

    ``basis[t]`` is an ambient_dim x ambient_dim derivation matrix.  The
    flattened basis is in reduced-echelon form: vector t has a 1 at
    ``free_coords[t]`` and 0 at the other free coordinates, so the
    coordinates of any element of the span can be read off directly.
    Bracket structure constants satisfy
    [D_a, D_b] = sum_c f(a, b, c) D_c.  f is stored sparse, over one
    scale: the nonzero f(a, b, c) is ``_f_vals[t] / _f_scale`` at the
    key ``_f_keys[t] = (a * dim + b) * dim + c``, keys ascending.  Every
    reader of f (ad, the Killing form, the brackets of subspaces) runs
    over these nonzeros.
    """

    algebra: _alg.FiniteAlgebra
    ambient_dim: int
    basis: tuple[RationalMatrix, ...]
    free_coords: tuple[int, ...]
    _d_int: np.ndarray = field(repr=False)
    _d_scale: int = field(repr=False)
    _f_keys: np.ndarray = field(repr=False)
    _f_vals: np.ndarray = field(repr=False)
    _f_scale: int = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def structure_constant(self, a: int, b: int, c: int) -> Fraction:
        return self.bracket_in_basis(a, b)[c]

    def bracket_in_basis(self, a: int, b: int) -> tuple[Fraction, ...]:
        d = self.dim
        if not (0 <= a < d and 0 <= b < d):
            raise IndexError(f"basis indices ({a}, {b}) out of range for dimension {d}")
        lo, hi = np.searchsorted(self._f_keys, [(a * d + b) * d, (a * d + b + 1) * d])
        row = _dense((d,), self._f_keys[lo:hi] % d, self._f_vals[lo:hi])
        return tuple(Fraction(int(v), self._f_scale) for v in row)

    def coords_of(self, m: RationalMatrix) -> tuple[Fraction, ...]:
        """Coordinates of a matrix in the basis; raises if outside the span."""
        if m.shape != (self.ambient_dim, self.ambient_dim):
            raise DimensionError("matrix has the wrong ambient dimension")
        c_int = _span_coords(m._ints, self._d_int, self._d_scale, self.free_coords)
        if c_int is None:
            raise ValueError("matrix lies outside the span of the basis")
        return tuple(Fraction(v, m._den) for v in c_int.tolist())

    def _coord_array(self, coords: Sequence) -> tuple[np.ndarray, int]:
        if len(coords) != self.dim:
            raise DimensionError(f"expected {self.dim} coordinates, got {len(coords)}")
        return _scaled_int_array(coords, (self.dim,))

    def element_matrix(self, coords: Sequence) -> RationalMatrix:
        c_int, c_scale = self._coord_array(coords)
        m_int = _contract("t,tij->ij", self.dim, c_int, self._d_int)
        return RationalMatrix.from_ints(m_int, c_scale * self._d_scale)

    def ad_matrix(self, coords: Sequence) -> RationalMatrix:
        """Matrix of ad_x on the Lie algebra for x with the given coordinates."""
        x_int, x_scale = self._coord_array(coords)
        return RationalMatrix.from_ints(self._ad(x_int), x_scale * self._f_scale)

    def _ad(self, x_int: np.ndarray) -> np.ndarray:
        """Scaled matrix of ad_x, (c, b) entry sum_a x[a] f(a, b, c), for integer x."""
        d = self.dim
        a, b, c = np.unravel_index(self._f_keys, (d,) * 3)
        return _dense((d, d), *_sparse_sum(c * d + b, x_int[a], self._f_vals))


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
    vectors: np.ndarray, basis_int: np.ndarray, basis_scale: int, free: Sequence[int]
) -> np.ndarray | None:
    """Coordinates of vectors in the span of an echelon basis, or None.

    The basis is ``basis_int / basis_scale``, one vector per index of
    its leading axis; vector t is 1 at the flat coordinate ``free[t]``
    and 0 at the other free coordinates.  ``vectors`` holds integer
    multiples (any common scale s) of the vectors to place, in the
    basis vectors' shape on its trailing axes, after any batch axes.
    An element of the span has its coordinates (times s) at the free
    coordinates; the certificate rebuilds each vector from them and
    compares with ``basis_scale`` times the input.  The free coordinates
    are unravelled over the trailing axes, so a strided view is indexed
    in place, never flattened into a copy.
    """
    trail = "ijkl"[: basis_int.ndim - 1]
    lead = "abcd"[: vectors.ndim - len(trail)]
    free_idx = np.unravel_index(np.asarray(free, dtype=np.intp), basis_int.shape[1:])
    coeffs = vectors[(..., *free_idx)]
    recon = _contract(f"{lead}t,t{trail}->{lead}{trail}", basis_int.shape[0], coeffs, basis_int)
    scaled = _contract(",...->...", 1, _int_array([basis_scale], ()), vectors)
    return coeffs if np.array_equal(recon, scaled) else None


def derivation_algebra(
    algebra: _alg.FiniteAlgebra, cancel: CancelToken | None = None
) -> LieAlgebraBasis:
    """All derivations of the algebra, as a certified Lie algebra basis.

    Solves the Leibniz constraint system exactly (modular elimination,
    p-adic lifting and rational reconstruction, then exact substitution;
    see ``linalg.nullspace_with_info``).  The system holds the Leibniz
    identity on every ordered basis pair, so the solver's substitution
    certifies each basis vector as a derivation.  It then checks that
    every derivation kills ``unit_coords`` (Leibniz forces D(1) = 0),
    which guards against coordinates that are not the unit's, and
    certifies bracket closure while computing the structure constants.
    """
    n = algebra.dim
    rows, ncols = leibniz_constraint_rows(algebra)
    vectors, free_cols, _ = nullspace_with_info(rows, ncols, cancel)
    d = vectors.rows
    d_int, d_scale = vectors._ints.reshape(d, n, n), vectors._den

    # D(1) = 0 follows from Leibniz, so this validates unit_coords
    unit, _ = _scaled_int_array(list(algebra.unit_coords), (n,))
    if np.any(_contract("tij,j->ti", n, d_int, unit)):
        raise RuntimeError("internal error: derivation does not kill the unit")

    basis = tuple(RationalMatrix.from_ints(m, d_scale) for m in d_int)

    # the brackets of all basis pairs, scaled by d_scale^2, over the
    # nonzeros: D_a D_b at (i, k) joins D_a[i, j] with D_b[j, k] on j, and
    # the same terms, negated at (b, a), complete the commutators
    t, i, j = np.nonzero(d_int)
    v = d_int[t, i, j]
    x, y = _join(j, i)
    ik = i[x] * n + j[y]
    comm_keys, comm = _sparse_sum(
        np.concatenate([(t[x] * d + t[y]) * n * n + ik, (t[y] * d + t[x]) * n * n + ik]),
        np.concatenate([v[x], -v[x]]),
        np.concatenate([v[y], v[y]]),
    )
    # the coordinates of a bracket are its entries at the free coordinates
    free_pos = np.full(n * n, -1)
    free_pos[free_cols] = np.arange(d)
    pair, coord = np.divmod(comm_keys, n * n)
    at_free = free_pos[coord] >= 0
    f_keys, f_int = pair[at_free] * d + free_pos[coord[at_free]], comm[at_free]
    # closure certificate: sum_c f(a, b, c) D_c equals d_scale [D_a, D_b]
    x, y = _join(f_keys % d, t)
    recon_keys, recon = _sparse_sum(f_keys[x] // d * n * n + i[y] * n + j[y], f_int[x], v[y])
    scaled = _contract(",k->k", 1, _int_array([d_scale], ()), comm)
    if not (np.array_equal(recon_keys, comm_keys) and np.array_equal(recon, scaled)):
        raise RuntimeError("internal error: bracket closure certification failed")
    f_scale = d_scale * d_scale
    g = math.gcd(int(np.gcd.reduce(np.abs(f_int))), f_scale)
    f_scale //= g

    return LieAlgebraBasis(
        algebra=algebra,
        ambient_dim=n,
        basis=basis,
        free_coords=tuple(free_cols),
        _d_int=d_int,
        _d_scale=d_scale,
        _f_keys=f_keys,
        _f_vals=_int_array([q // g for q in f_int.tolist()], (-1,)),
        _f_scale=f_scale,
    )


# ---------------------------------------------------------------------------
# Killing form
# ---------------------------------------------------------------------------

def killing_form(l: LieAlgebraBasis) -> RationalMatrix:
    """B(a, b) = trace(ad_a ad_b) on the basis; symmetric by construction.

    B(a, b) = sum_xy f(a, x, y) f(b, y, x): the nonzeros of f joined
    with themselves on (x, y) = (y', x').
    """
    d = l.dim
    a, x, y = np.unravel_index(l._f_keys, (d,) * 3)
    i, j = _join(x * d + y, y * d + x)
    k_int = _dense((d, d), *_sparse_sum(a[i] * d + a[j], l._f_vals[i], l._f_vals[j]))
    return RationalMatrix.from_ints(k_int, l._f_scale * l._f_scale)


# ---------------------------------------------------------------------------
# involutions
# ---------------------------------------------------------------------------

def is_algebra_automorphism(algebra: _alg.FiniteAlgebra, sigma: RationalMatrix) -> bool:
    """Checks sigma(e_i e_j) = sigma(e_i) sigma(e_j) on all basis pairs.

    With sigma = S'/t and the tensor C' = s*c, both sides times s t^2
    are integer contractions: t sum_m C'[i,j,m] S'[k,m] against
    sum_ab S'[a,i] S'[b,j] C'[a,b,k].
    """
    n = algebra.dim
    if sigma.shape != (n, n):
        return False
    s_int = sigma._ints
    t = _int_array([sigma._den], ())
    c = algebra.tensor
    lhs = _contract(",ijm,km->ijk", n, t, c, s_int)
    rhs = _contract("ai,bj,abk->ijk", n * n, s_int, s_int, c, optimize=True)
    return bool(np.array_equal(lhs, rhs))


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
    picks up the sign signs[r] * signs[c].
    """
    if any(s * s != 1 for s in signs):
        raise ValueError("signs must be +1 or -1")
    k = j.coefficient_algebra
    diag = [1, 1, 1]
    for pos, (r, c) in enumerate(_jordan.OFF_POSITIONS):
        diag.extend([signs[r] * signs[c]] * k.dim)
    return RationalMatrix.from_ints(np.diag(diag), 1)


def induced_involution(
    algebra: _alg.FiniteAlgebra,
    sigma: RationalMatrix | Involution,
    l: LieAlgebraBasis,
) -> RationalMatrix:
    """The order-2 map D -> sigma D sigma^(-1) in the basis of l.

    sigma must square to the identity and preserve the structure
    constants; both properties are verified (a pre-certified Involution
    skips the recheck), as is the fact that each transported basis
    derivation lies back in the span.
    """
    n = algebra.dim
    if l.algebra is not algebra:
        raise ValueError("Lie algebra basis does not belong to this algebra")
    if isinstance(sigma, Involution):
        if sigma.algebra is not algebra:
            raise InvalidInvolutionError("involution certified for a different algebra")
        sigma = sigma.matrix
    else:
        sigma = Involution.certify(algebra, sigma).matrix

    s_int = sigma._ints
    # scaled by s^2 * d_scale
    transported = _contract("ij,tjk,kl->til", n * n, s_int, l._d_int, s_int, optimize=True)
    coords = _span_coords(transported, l._d_int, l._d_scale, l.free_coords)
    if coords is None:
        raise InvalidInvolutionError(
            "transported derivation leaves the span; sigma is not compatible"
        )
    # coords[t, u] = theta[u, t], scaled
    theta = RationalMatrix.from_ints(coords.T, sigma._den**2 * l._d_scale)
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
    basis vector, in coordinates of the Lie algebra) with its free
    columns, at which the coordinates of an element are read off.  The
    three bracket inclusions [k,k] in k, [k,p] in p, [p,p] in k are
    certified exactly on construction; the span flags record whether the
    inclusions are onto.
    """

    lie: LieAlgebraBasis
    k_basis: RationalMatrix
    p_basis: RationalMatrix
    k_free: tuple[int, ...]
    p_free: tuple[int, ...]
    pp_spans_k: bool
    kp_spans_p: bool

    @property
    def k_dim(self) -> int:
        return self.k_basis.rows

    @property
    def p_dim(self) -> int:
        return self.p_basis.rows

    @property
    def dims(self) -> tuple[int, int]:
        return (self.k_dim, self.p_dim)


def _subspace_brackets(
    l: LieAlgebraBasis, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Scaled bracket coordinates of all pairs from two integer bases.

    Entry (i, j, c) is sum_ab left[i, a] right[j, b] f(a, b, c): the
    first axis of f mapped by left and the second by right, over the
    nonzeros.  It runs in slices of left's rows, each holding the rows
    whose join terms, bounded from the nonzero counts, add up to about
    d^3: so dense bases need at most a d-th of the d^4 intermediate of a
    dense contraction, and sparse ones take one slice.
    """
    d, m = l.dim, right.shape[0]
    per_a = np.bincount(l._f_keys // (d * d), minlength=d)
    per_b = int((right != 0).sum(axis=0).max(initial=0))
    cost = (left != 0).astype(np.int64) @ per_a * (1 + per_b)
    cuts = (np.flatnonzero(np.diff(np.cumsum(cost) // max(d**3, 1))) + 1).tolist()
    keys, vals = [], []
    for lo, hi in zip([0, *cuts], [*cuts, left.shape[0]]):
        f = _map_axis(l._f_keys, l._f_vals, (d, d, d), 0, left[lo:hi])
        k, v, _ = _map_axis(*f, 1, right)
        keys.append(k + lo * m * d)
        vals.append(v)
    return _dense((left.shape[0], m, d), np.concatenate(keys), np.concatenate(vals))


def _int_rank(rows: np.ndarray) -> int:
    return nullspace_with_info(integer_rows(rows), rows.shape[1])[2]


def cartan_split(l: LieAlgebraBasis, theta: RationalMatrix) -> CartanPair:
    """Split l into the +/-1 eigenspaces of theta and certify the relations.

    theta must be an involutive Lie-algebra automorphism (both verified).
    Raises InvalidInvolutionError otherwise.  The zero algebra splits
    into two zero spaces, each spanned by the brackets vacuously.

    Once theta squares to the identity, g = k + p, so theta preserves
    the bracket exactly when the three inclusions hold on the two
    eigenbases: their certificate is the automorphism check.
    """
    d = l.dim
    if theta.shape != (d, d):
        raise InvalidInvolutionError(f"expected a {d}x{d} map on the Lie algebra")
    ident = RationalMatrix.identity(d)
    if theta @ theta != ident:
        raise InvalidInvolutionError("map does not square to the identity")
    if d == 0:
        empty = RationalMatrix.zeros(0, 0)
        return CartanPair(l, empty, empty, (), (), True, True)

    k, k_free, _ = nullspace_with_info(integer_rows(theta - ident), d)
    p, p_free, _ = nullspace_with_info(integer_rows(theta + ident), d)
    eigen = np.concatenate([k._ints, p._ints])
    brackets = _subspace_brackets(l, eigen, eigen)
    kd = k.rows
    kk, kp, pp = brackets[:kd, :kd], brackets[:kd, kd:], brackets[kd:, kd:]
    for part, basis, free, what in (
        (kk, k, k_free, "[k, k] escapes k"),
        (kp, p, p_free, "[k, p] escapes p"),
        (pp, k, k_free, "[p, p] escapes k"),
    ):
        if _span_coords(part, basis._ints, basis._den, free) is None:
            raise InvalidInvolutionError(f"map does not preserve the bracket: {what}")

    return CartanPair(
        lie=l,
        k_basis=k,
        p_basis=p,
        k_free=tuple(k_free),
        p_free=tuple(p_free),
        pp_spans_k=_int_rank(pp.reshape(-1, d)) == k.rows,
        kp_spans_p=_int_rank(kp.reshape(-1, d)) == p.rows,
    )


# ---------------------------------------------------------------------------
# rank by generic centralizers
# ---------------------------------------------------------------------------

def generic_rank(
    l: LieAlgebraBasis,
    trials: int = 5,
    rng: random.Random | None = None,
) -> int:
    """Minimum over trials of dim ker(ad_x) for random rational x.

    For a compact form the centralizer of a generic element is a Cartan
    subalgebra, so the minimum is the rank; extra trials guard against
    non-generic samples and can only lower the result.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    d = l.dim
    if d == 0:
        return 0
    if rng is None:
        rng = random.Random(_alg.DEFAULT_SEED)
    best = d
    for _ in range(trials):
        x = np.array(
            [rng.randint(-_alg.RANDOM_COEFF_SPAN, _alg.RANDOM_COEFF_SPAN) for _ in range(d)],
            dtype=np.int64,
        )
        best = min(best, d - _int_rank(l._ad(x)))
    return best


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
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    l = pair.lie
    np_dim = pair.p_dim
    if np_dim == 0:
        return 0
    if rng is None:
        rng = random.Random(_alg.DEFAULT_SEED)
    p_int = pair.p_basis._ints
    best = np_dim
    for _ in range(trials):
        c = np.array(
            [rng.randint(-_alg.RANDOM_COEFF_SPAN, _alg.RANDOM_COEFF_SPAN) for _ in range(np_dim)],
            dtype=np.int64,
        )
        ad_x = l._ad(_contract("u,ua->a", np_dim, c, p_int))
        # kernel in p-coefficient space is the flat
        constraint = _contract("cb,ub->cu", l.dim, ad_x, p_int)
        best = min(best, np_dim - _int_rank(constraint))
    return best


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
    name: str, cancel: CancelToken | None = None
) -> LieAlgebraBasis:
    """Cached derivation algebra for a named target (see DERIVATION_TARGETS).

    The cache is process-wide; a cooperative cancel token only applies
    to a computation that actually runs.
    """
    if name not in _NAMED_CACHE:
        _NAMED_CACHE[name] = derivation_algebra(_target_algebra(name), cancel)
    return _NAMED_CACHE[name]


def derivation_cached(name: str) -> bool:
    return name in _NAMED_CACHE
