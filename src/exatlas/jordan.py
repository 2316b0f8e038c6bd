"""3x3 hermitian Jordan algebras over the Cayley-Dickson coefficients.

J3(K) has one basis slot per diagonal entry and one per coefficient-unit
per off-diagonal position, so dim = 3 + 3*dim(K).  Its structure tensor
is built once, by one exact contraction of the hermitian basis matrices
with the tensor of K, and is shared by the derivation engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .algebras import (
    AlgebraElement,
    AlgebraMismatchError,
    FiniteAlgebra,
    batch_multiply,
)
from .linalg import Rational, RationalMatrix, _contract, is_positive_definite

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

    def hermitian(self, diag: Sequence, off: Sequence[AlgebraElement]) -> "HermitianMatrix3":
        return HermitianMatrix3(self, tuple(diag), tuple(off))

    def from_coords(self, coords: Sequence) -> "HermitianMatrix3":
        if len(coords) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(coords)}")
        k = self.coefficient_algebra
        off = tuple(
            k.element(coords[3 + p * k.dim : 3 + (p + 1) * k.dim]) for p in range(3)
        )
        return HermitianMatrix3(self, tuple(coords[:3]), off)

    def identity_element(self) -> "HermitianMatrix3":
        return self.from_coords(self.unit_coords)

    def basis_hermitian(self, index: int) -> "HermitianMatrix3":
        return self.from_coords(tuple(1 if i == index else 0 for i in range(self.dim)))


@dataclass(frozen=True)
class HermitianMatrix3:
    """Hermitian 3x3 matrix over a composition algebra.

    Stored by its free coordinates: three diagonal scalars and the three
    above-diagonal entries; the below-diagonal entries are conjugates by
    construction, so hermiticity is structural.
    """

    jordan: JordanAlgebra
    diag: tuple
    off: tuple[AlgebraElement, AlgebraElement, AlgebraElement]

    def __post_init__(self):
        if len(self.diag) != 3 or len(self.off) != 3:
            raise ValueError("need 3 diagonal scalars and 3 off-diagonal entries")
        for x in self.off:
            if x.algebra is not self.jordan.coefficient_algebra:
                raise AlgebraMismatchError(
                    "off-diagonal entries must lie in the coefficient algebra"
                )

    def to_coords(self) -> tuple:
        coords = list(self.diag)
        for x in self.off:
            coords.extend(x.coeffs)
        return tuple(coords)

    def _check_same(self, other: "HermitianMatrix3") -> None:
        if self.jordan is not other.jordan:
            raise AlgebraMismatchError("operands from different Jordan algebras")

    def __add__(self, other: "HermitianMatrix3") -> "HermitianMatrix3":
        self._check_same(other)
        return self.jordan.from_coords(
            tuple(a + b for a, b in zip(self.to_coords(), other.to_coords()))
        )

    def __sub__(self, other: "HermitianMatrix3") -> "HermitianMatrix3":
        self._check_same(other)
        return self.jordan.from_coords(
            tuple(a - b for a, b in zip(self.to_coords(), other.to_coords()))
        )

    def __rmul__(self, scalar) -> "HermitianMatrix3":
        return self.jordan.from_coords(tuple(scalar * c for c in self.to_coords()))

    def is_zero(self) -> bool:
        return all(not c for c in self.to_coords())

    def trace(self) -> Rational:
        return Fraction(self.diag[0] + self.diag[1] + self.diag[2])

    def traceless_projection(self) -> "HermitianMatrix3":
        shift = self.trace() / 3
        coords = list(self.to_coords())
        for i in range(3):
            coords[i] = coords[i] - shift
        return self.jordan.from_coords(tuple(coords))

    def full_matrix(self) -> list[list[AlgebraElement]]:
        """Expand to an explicit 3x3 matrix of coefficient-algebra elements."""
        k = self.jordan.coefficient_algebra
        m = [[k.zero() for _ in range(3)] for _ in range(3)]
        for i in range(3):
            m[i][i] = self.diag[i] * k.unit()
        for pos, (r, c) in enumerate(OFF_POSITIONS):
            m[r][c] = self.off[pos]
            m[c][r] = self.off[pos].conjugate()
        return m


def jordan_product(x: HermitianMatrix3, y: HermitianMatrix3) -> HermitianMatrix3:
    """(xy + yx)/2 through the precomputed structure constants."""
    x._check_same(y)
    coords = x.jordan.multiply_coords(x.to_coords(), y.to_coords())
    return x.jordan.from_coords(tuple(coords))


def trace(x: HermitianMatrix3) -> Rational:
    return x.trace()


def traceless_projection(x: HermitianMatrix3) -> HermitianMatrix3:
    return x.traceless_projection()


# ---------------------------------------------------------------------------
# construction of the product table
# ---------------------------------------------------------------------------

def build_jordan_algebra(k: FiniteAlgebra) -> JordanAlgebra:
    """Construct J3(K) from scratch over any *-algebra K.

    B_a o B_b = (B_a B_b + B_b B_a)/2 for all hermitian basis matrices at
    once, as one contraction with the tensor of K.  Permitted over the
    sedenions as well; there the Jordan identity fails, which is exactly
    what the negative-control tests probe.
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
    prod = _contract(
        "artu,btcv,uvw->abrcw", 3 * n * n, basis, basis, k.tensor, optimize=True
    )
    sym = prod + prod.transpose(1, 0, 2, 3, 4)  # 2 s (B_a o B_b), entrywise

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


def jordan_identity_defect(x: HermitianMatrix3, y: HermitianMatrix3) -> HermitianMatrix3:
    """(x^2 o (x o y)) - (x o (x^2 o y)); zero over division coefficients."""
    x2 = jordan_product(x, x)
    return jordan_product(x2, jordan_product(x, y)) - jordan_product(
        x, jordan_product(x2, y)
    )


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


def sedenion_jordan_witness() -> tuple[HermitianMatrix3, HermitianMatrix3]:
    """Frozen pair violating the Jordan identity over sedenion coefficients.

    Found by scanning unit off-diagonal entries; kept as a regression
    fixture.  x carries sedenion units e1, e2 in the first two off slots
    and y carries e12 in the first.
    """
    from .algebras import sedenions

    s = sedenions()
    j = jordan_algebra_over_sedenions()
    x = j.hermitian((0, 0, 0), (s.basis_element(1), s.basis_element(2), s.zero()))
    y = j.hermitian((0, 0, 0), (s.basis_element(12), s.zero(), s.zero()))
    return x, y


@lru_cache(maxsize=None)
def jordan_algebra_over_sedenions() -> JordanAlgebra:
    """J3 over the sedenions: a well-defined commutative algebra that is
    NOT a Jordan algebra; used as the negative control."""
    from .algebras import sedenions

    return build_jordan_algebra(sedenions())


def trace_form_gram(j: JordanAlgebra) -> RationalMatrix:
    """Gram matrix of the bilinear form (x, y) -> trace(x o y).

    Read off the tensor: trace(e_i o e_j) is the sum of its three
    diagonal coordinates, C'[i, j, :3] / s.
    """
    traces = _contract("ijk->ij", 3, j.tensor[:, :, :3])
    return RationalMatrix.from_ints(traces, j.scale)


def trace_form_is_positive_definite(j: JordanAlgebra) -> bool:
    return is_positive_definite(trace_form_gram(j))
