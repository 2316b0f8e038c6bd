"""3x3 hermitian Jordan algebras over the Cayley-Dickson coefficients.

J3(K) has one basis slot per diagonal entry and one per coefficient-unit
per off-diagonal position, so dim = 3 + 3*dim(K).  The symmetrized
product table is built once by multiplying explicit hermitian basis
matrices and is shared by the derivation engine.
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
    _structure_tensor,
    batch_multiply,
)
from .linalg import Rational, RationalMatrix, is_positive_definite

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

    def __init__(self, coefficient_algebra: FiniteAlgebra, products):
        self.coefficient_algebra = coefficient_algebra
        dim = 3 + 3 * coefficient_algebra.dim
        super().__init__(
            name=f"J3({coefficient_algebra.name})",
            dim=dim,
            products=products,
            conjugation_signs=None,
            unit_coords=(1, 1, 1) + (0,) * (dim - 3),
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

def _matmul3(a, b, k: FiniteAlgebra):
    out = [[None] * 3 for _ in range(3)]
    for r in range(3):
        for c in range(3):
            acc = [0] * k.dim
            for t in range(3):
                term = k.multiply_coords(a[r][t].coeffs, b[t][c].coeffs)
                acc = [u + v for u, v in zip(acc, term)]
            out[r][c] = k.element(acc)
    return out


def _decompose_hermitian(m, k: FiniteAlgebra) -> tuple:
    """Coordinates of an explicit hermitian matrix; asserts hermiticity."""
    coords = []
    for i in range(3):
        d = m[i][i]
        assert not any(d.coeffs[1:]), "diagonal entry not scalar"
        coords.append(d.coeffs[0])
    for pos, (r, c) in enumerate(OFF_POSITIONS):
        assert m[c][r] == m[r][c].conjugate(), "matrix not hermitian"
        coords.extend(m[r][c].coeffs)
    return tuple(coords)


def _symmetrized_product_coords(a, b, k: FiniteAlgebra) -> tuple:
    ab = _matmul3(a, b, k)
    ba = _matmul3(b, a, k)
    sym = [
        [
            k.element(
                tuple(Fraction(u + v, 2) for u, v in zip(ab[r][c].coeffs, ba[r][c].coeffs))
            )
            for c in range(3)
        ]
        for r in range(3)
    ]
    return _decompose_hermitian(sym, k)


def build_jordan_algebra(k: FiniteAlgebra) -> JordanAlgebra:
    """Construct J3(K) from scratch over any *-algebra K.

    Permitted over the sedenions as well; there the Jordan identity
    fails, which is exactly what the negative-control tests probe.
    """
    if k.conjugation_signs is None:
        raise TypeError("coefficient algebra needs a conjugation")
    dim = 3 + 3 * k.dim

    basis_matrices = []
    for idx in range(dim):
        coords = [1 if i == idx else 0 for i in range(dim)]
        diag = coords[:3]
        off = [k.element(coords[3 + p * k.dim : 3 + (p + 1) * k.dim]) for p in range(3)]
        m = [[k.zero() for _ in range(3)] for _ in range(3)]
        for i in range(3):
            m[i][i] = diag[i] * k.unit()
        for pos, (r, c) in enumerate(OFF_POSITIONS):
            m[r][c] = off[pos]
            m[c][r] = off[pos].conjugate()
        basis_matrices.append(m)

    table = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            coords = _symmetrized_product_coords(basis_matrices[i], basis_matrices[j], k)
            cell = [(t, c) for t, c in enumerate(coords) if c]
            table[i][j] = cell
            table[j][i] = cell
    return JordanAlgebra(k, table)


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
    c, _ = _structure_tensor(j)
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
    """Gram matrix of the bilinear form (x, y) -> trace(x o y)."""
    basis = [j.basis_hermitian(i) for i in range(j.dim)]
    rows = []
    for x in basis:
        rows.append([jordan_product(x, y).trace() for y in basis])
    return RationalMatrix.from_rows(rows)


def trace_form_is_positive_definite(j: JordanAlgebra) -> bool:
    return is_positive_definite(trace_form_gram(j))
