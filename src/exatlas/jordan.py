"""3x3 hermitian Jordan algebras over the Cayley-Dickson coefficients.

J3(K) has one basis slot per diagonal entry and one per coefficient-unit
per off-diagonal position, so dim = 3 + 3*dim(K).  Its structure tensor
is built once, by one exact contraction of the hermitian basis matrices
with the tensor of K, and is shared by the derivation engine.  J3(K) is
a ``FiniteAlgebra``, so its elements are ``AlgebraElement``s whose ``*``
is the Jordan product (xy + yx)/2; ``coord_index`` locates a unit of K
in an off-diagonal slot.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .algebras import AlgebraElement, FiniteAlgebra, batch_multiply, sedenions
from .linalg import RationalMatrix, _contract, _join, _sparse_sum, is_positive_definite

#: Off-diagonal slots in basis order: (row, col) above the diagonal.
OFF_POSITIONS = ((0, 1), (0, 2), (1, 2))


def jordan_dim(k: FiniteAlgebra) -> int:
    """Dimension 3 + 3*dim(K) of the hermitian 3x3 algebra over K."""
    if k.dim not in (1, 2, 4, 8):
        raise ValueError(f"no division-coefficient Jordan algebra over dim {k.dim}")
    return 3 + 3 * k.dim


class JordanAlgebra(FiniteAlgebra):
    """Structure-constant form of J3(K) with the symmetrized product.

    Basis order: the three diagonal idempotents, then the off-diagonal
    blocks (1,2), (1,3), (2,3), each expanded over the basis of K.
    """

    def __init__(self, coefficient_algebra: FiniteAlgebra, tensor, scale: int):
        self.coefficient_algebra = coefficient_algebra
        super().__init__(
            name=f"J3({coefficient_algebra.name})",
            tensor=tensor,
            scale=scale,
            conjugation_signs=None,
            unit_coords=(1, 1, 1) + (0,) * (3 * coefficient_algebra.dim),
        )

    def coord_index(self, position: int, unit: int) -> int:
        """Flat coordinate of coefficient-unit ``unit`` in off slot ``position``."""
        return 3 + position * self.coefficient_algebra.dim + unit


# ---------------------------------------------------------------------------
# construction of the product table
# ---------------------------------------------------------------------------

def build_jordan_algebra(k: FiniteAlgebra) -> JordanAlgebra:
    """Construct J3(K) from scratch over any *-algebra K.

    B_a o B_b = (B_a B_b + B_b B_a)/2 for all hermitian basis matrices at
    once, summed over the nonzeros: entry (a, r, t, u) of the hermitian
    basis joins entry (b, t, c, v) on t, and the pair joins K's tensor
    at (u, v, w).  Permitted over the sedenions as well; there the
    Jordan identity fails, which is exactly what the negative-control
    tests probe.
    """
    if k.conjugation_signs is None:
        raise TypeError("coefficient algebra needs a conjugation")
    n = k.dim
    dim = 3 + 3 * n
    conj = np.array(k.conjugation_signs, dtype=np.int64)
    units = np.arange(n)
    # basis[b, r, c, u]: coefficient of unit u of K in entry (r, c) of B_b
    basis = np.zeros((dim, 3, 3, n), dtype=np.int64)
    for i in range(3):
        basis[i, i, i, 0] = 1
    for pos, (r, c) in enumerate(OFF_POSITIONS):
        basis[3 + pos * n + units, r, c, units] = 1
        basis[3 + pos * n + units, c, r, units] = conj
    a, r, t, u = np.nonzero(basis)
    x, y = _join(t, r)
    ku, kv, kw = np.nonzero(k.tensor)
    i, j = _join(u[x] * n + u[y], ku * n + kv)
    x, y = x[i], y[i]
    entry = (r[x] * 3 + t[y]) * n + kw[j]  # (row, col, unit) of the term
    vals = basis[a, r, t, u]
    # each term of B_a B_b, at (a, b) and again at (b, a)
    keys, sums = _sparse_sum(
        np.concatenate([a[x] * dim + a[y], a[y] * dim + a[x]]) * 9 * n
        + np.concatenate([entry, entry]),
        np.tile(vals[x], 2),
        np.tile(vals[y], 2),
        np.tile(k.tensor[ku, kv, kw][j], 2),
    )
    sym = np.zeros(dim * dim * 9 * n, dtype=sums.dtype)
    sym[keys] = sums
    sym = sym.reshape(dim, dim, 3, 3, n)  # 2 s (B_a o B_b), entrywise

    rows, cols = (list(t) for t in zip(*OFF_POSITIONS))
    diag = sym[:, :, [0, 1, 2], [0, 1, 2]]
    off = sym[:, :, rows, cols]
    assert not diag[..., 1:].any(), "diagonal entry not scalar"
    assert np.array_equal(sym[:, :, cols, rows], off * conj), "matrix not hermitian"
    tensor = np.concatenate([diag[..., 0], off.reshape(dim, dim, 3 * n)], axis=2)
    return JordanAlgebra(k, tensor, 2 * k.scale)


@lru_cache(maxsize=None)
def jordan_algebra(k: FiniteAlgebra) -> JordanAlgebra:
    """Cached J3(K); algebra identity keys the cache."""
    return build_jordan_algebra(k)


def jordan_identity_defect(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """(x^2 o (x o y)) - (x o (x^2 o y)); zero over division coefficients."""
    x2 = x * x
    return x2 * (x * y) - x * (x2 * y)


def jordan_identity_failures(j: JordanAlgebra, x: np.ndarray, y: np.ndarray) -> int:
    """Number of rows b where the Jordan identity fails for (x[b], y[b]).

    x and y are (batch, dim) integer coordinate arrays.  The product runs
    on the scaled structure tensor C' = sC, so both sides of the identity
    carry s^3 and are compared as they are.
    """
    c = j.tensor
    xx = batch_multiply(c, x, x)
    lhs = batch_multiply(c, xx, batch_multiply(c, x, y))
    rhs = batch_multiply(c, x, batch_multiply(c, xx, y))
    return int(np.count_nonzero(np.any(lhs != rhs, axis=1)))


def sedenion_jordan_witness() -> tuple[AlgebraElement, AlgebraElement]:
    """Frozen pair violating the Jordan identity over sedenion coefficients.

    Found by scanning unit off-diagonal entries; kept as a regression
    fixture.  x carries sedenion units e1, e2 in the first two off slots
    and y carries e12 in the first.
    """
    j = jordan_algebra(sedenions())
    b = j.basis_element
    return b(j.coord_index(0, 1)) + b(j.coord_index(1, 2)), b(j.coord_index(0, 12))


def trace_form_gram(j: JordanAlgebra) -> RationalMatrix:
    """Gram matrix of the bilinear form (x, y) -> trace(x o y).

    Read off the tensor: trace(e_i o e_j) is the sum of its three
    diagonal coordinates, C'[i, j, :3] / s.
    """
    traces = _contract("ijk->ij", 3, j.tensor[:, :, :3])
    return RationalMatrix.from_ints(traces, j.scale)


def trace_form_is_positive_definite(j: JordanAlgebra) -> bool:
    return is_positive_definite(trace_form_gram(j))
