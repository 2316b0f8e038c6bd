"""Composition algebras built by Cayley-Dickson doubling.

The tower R -> C -> H -> O -> sedenions with exact rational coefficients.
Products, conjugation, norms and inverses all run off structure-constant
tables, so the same machinery serves the Jordan algebras downstream.
The tables' scaled-integer form (``_structure_tensor``) drives the
batched identity sweeps and the derivation engine.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .linalg import Rational

#: Default seed for every randomized identity check in the package.
DEFAULT_SEED = 1729

#: Coefficients for random elements are drawn uniformly from this range.
RANDOM_COEFF_SPAN = 9

_INT_BOUND = 1 << 20  # per-entry cap keeping every int64 contraction exact

#: Rows per einsum in ``batch_multiply``; bounds the memory of one call.
_BATCH_ROWS = 256


class AlgebraMismatchError(ValueError):
    """Operands belong to different algebras."""


ProductTable = tuple[tuple[tuple[tuple[int, object], ...], ...], ...]


class FiniteAlgebra:
    """Finite-dimensional algebra over Q defined by structure constants.

    ``products[i][j]`` lists the nonzero components ``(k, c)`` of the
    basis product e_i * e_j.  ``conjugation_signs`` is present for
    *-algebras (the Cayley-Dickson tower) and None otherwise.
    Identity of the algebra object is what ties elements together;
    builders are cached so each named algebra is constructed once.
    """

    def __init__(
        self,
        name: str,
        dim: int,
        products: Sequence[Sequence[Iterable[tuple[int, object]]]],
        conjugation_signs: Sequence[int] | None = None,
        unit_coords: Sequence | None = None,
    ):
        if dim < 1:
            raise ValueError("algebra dimension must be positive")
        self.name = name
        self.dim = dim
        self.products: ProductTable = tuple(
            tuple(tuple(sorted(cell)) for cell in row) for row in products
        )
        if len(self.products) != dim or any(len(r) != dim for r in self.products):
            raise ValueError("structure-constant table shape mismatch")
        self.conjugation_signs = (
            tuple(conjugation_signs) if conjugation_signs is not None else None
        )
        if unit_coords is None:
            unit_coords = (1,) + (0,) * (dim - 1)
        self.unit_coords = tuple(unit_coords)

    def structure_constant(self, i: int, j: int, k: int):
        for kk, c in self.products[i][j]:
            if kk == k:
                return c
        return 0

    def multiply_coords(self, x: Sequence, y: Sequence) -> list:
        out = [0] * self.dim
        products = self.products
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = products[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                f = xi * yj
                for k, c in row[j]:
                    out[k] += f * c
        return out

    def conjugate_coords(self, x: Sequence) -> list:
        if self.conjugation_signs is None:
            raise TypeError(f"{self.name} carries no conjugation")
        return [s * v for s, v in zip(self.conjugation_signs, x)]

    def element(self, coeffs: Sequence) -> "AlgebraElement":
        return AlgebraElement(self, tuple(coeffs))

    def basis_element(self, k: int) -> "AlgebraElement":
        return self.element(tuple(1 if i == k else 0 for i in range(self.dim)))

    def unit(self) -> "AlgebraElement":
        return self.element(self.unit_coords)

    def zero(self) -> "AlgebraElement":
        return self.element((0,) * self.dim)

    def basis(self) -> list["AlgebraElement"]:
        return [self.basis_element(k) for k in range(self.dim)]

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}, dim {self.dim}>"


@dataclass(frozen=True)
class AlgebraElement:
    """Element of a FiniteAlgebra: an exact coefficient vector."""

    algebra: FiniteAlgebra
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.algebra.dim:
            raise ValueError(
                f"coefficient vector length {len(self.coeffs)} != dim {self.algebra.dim}"
            )

    def _check_same(self, other: "AlgebraElement") -> None:
        if self.algebra is not other.algebra:
            raise AlgebraMismatchError(
                f"operands from different algebras: {self.algebra.name} vs {other.algebra.name}"
            )

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same(other)
        return AlgebraElement(
            self.algebra, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same(other)
        return AlgebraElement(
            self.algebra, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check_same(other)
            return AlgebraElement(
                self.algebra,
                tuple(self.algebra.multiply_coords(self.coeffs, other.coeffs)),
            )
        if isinstance(other, (int, Fraction)):
            return AlgebraElement(self.algebra, tuple(a * other for a in self.coeffs))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return AlgebraElement(self.algebra, tuple(other * a for a in self.coeffs))
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra is other.algebra and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __hash__(self) -> int:
        return hash((id(self.algebra), self.coeffs))

    def is_zero(self) -> bool:
        return all(not c for c in self.coeffs)

    def conjugate(self) -> "AlgebraElement":
        return AlgebraElement(
            self.algebra, tuple(self.algebra.conjugate_coords(self.coeffs))
        )

    def norm(self) -> Rational:
        """Scalar part of x-bar times x; a nonnegative rational."""
        prod = self.algebra.multiply_coords(
            self.algebra.conjugate_coords(self.coeffs), self.coeffs
        )
        if any(prod[1:]):
            raise ArithmeticError("conjugate-product is not scalar; broken table")
        return Fraction(prod[0])

    def inverse(self) -> "AlgebraElement":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero (or null) element has no inverse")
        return AlgebraElement(
            self.algebra,
            tuple(Fraction(c) / n for c in self.algebra.conjugate_coords(self.coeffs)),
        )

    def scalar_part(self):
        return self.coeffs[0]

    def __repr__(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            terms.append(str(c) if k == 0 else f"{c}*e{k}")
        body = " + ".join(terms) if terms else "0"
        return f"{self.algebra.name}({body})"


# ---------------------------------------------------------------------------
# scaled-integer structure constants
# ---------------------------------------------------------------------------

def _scaled_int_array(values, shape) -> tuple[np.ndarray, int]:
    """Common-denominator integer form of a nested rational array."""
    flat = list(values)
    scale = 1
    for v in flat:
        if isinstance(v, Fraction):
            scale = math.lcm(scale, v.denominator)
    arr = np.array([int(v * scale) for v in flat], dtype=np.int64).reshape(shape)
    if abs(int(arr.max(initial=0))) >= _INT_BOUND or abs(int(arr.min(initial=0))) >= _INT_BOUND:
        raise OverflowError("entries too large for the int64 fast path")
    return arr, scale


def _max_abs(arr: np.ndarray) -> int:
    return int(np.abs(arr).max(initial=0))


def _guard_contraction(sum_terms: int, *arrays: np.ndarray) -> None:
    """Every int64 contraction must provably fit; wraparound would be silent."""
    bound = sum_terms
    for a in arrays:
        bound *= max(_max_abs(a), 1)
    if bound >= 2**62:
        raise OverflowError("integer contraction could overflow int64")


def _structure_tensor(algebra: FiniteAlgebra) -> tuple[np.ndarray, int]:
    """Integer tensor C' and scale s with C'[i, j, k] = s * c_ijk."""
    n = algebra.dim
    vals = []
    for i in range(n):
        for j in range(n):
            row = [0] * n
            for k, c in algebra.products[i][j]:
                row[k] = c
            vals.extend(row)
    return _scaled_int_array(vals, (n, n, n))


def batch_multiply(tensor: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise products of two (batch, dim) integer coordinate arrays.

    Row b of the result is sum_ij x[b, i] y[b, j] tensor[i, j, :], so a
    tensor scaled by s returns s times the product.  Each block of rows
    runs in int64 when ``_guard_contraction`` proves the bound and on
    Python ints (dtype=object) otherwise, so the result is always exact.
    """
    n = tensor.shape[0]
    blocks = []
    for start in range(0, x.shape[0], _BATCH_ROWS):
        xb = x[start : start + _BATCH_ROWS]
        yb = y[start : start + _BATCH_ROWS]
        try:
            _guard_contraction(n * n, tensor, xb, yb)
            blocks.append(np.einsum(
                "bi,bj,ijk->bk", xb.astype(np.int64), yb.astype(np.int64), tensor
            ))
        except OverflowError:
            blocks.append(np.einsum(
                "bi,bj,ijk->bk", xb.astype(object), yb.astype(object), tensor.astype(object)
            ))
    if not blocks:
        return np.zeros((0, n), dtype=np.int64)
    return np.concatenate(blocks)


def batch_norms(algebra: FiniteAlgebra, tensor: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Scalar part of conj(x) x for each row of x, as Python ints.

    With the tensor scaled by s this is s times the norm.  Raises
    ArithmeticError, as ``AlgebraElement.norm`` does, when a product is
    not scalar.
    """
    signs = np.array(algebra.conjugate_coords((1,) * algebra.dim), dtype=np.int64)
    prod = batch_multiply(tensor, x * signs, x)
    if np.any(prod[:, 1:]):
        raise ArithmeticError("conjugate-product is not scalar; broken table")
    return prod[:, 0].astype(object)


# ---------------------------------------------------------------------------
# free-function forms of the element operations
# ---------------------------------------------------------------------------

def multiply(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    return x * y


def conjugate(x: AlgebraElement) -> AlgebraElement:
    return x.conjugate()


def norm(x: AlgebraElement) -> Rational:
    return x.norm()


def inverse(x: AlgebraElement) -> AlgebraElement:
    return x.inverse()


def commutator(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """xy - yx."""
    return x * y - y * x


def associator(x: AlgebraElement, y: AlgebraElement, z: AlgebraElement) -> AlgebraElement:
    """(xy)z - x(yz); identically zero up to the quaternions."""
    return (x * y) * z - x * (y * z)


# ---------------------------------------------------------------------------
# Cayley-Dickson doubling
# ---------------------------------------------------------------------------

def cayley_dickson_double(a: FiniteAlgebra) -> FiniteAlgebra:
    """Double an algebra: pairs (p, q) with (p,q)(r,s) = (pr - s~q, sp + qr~).

    Basis convention: e_k of the double is (e_k, 0) for k < dim and
    (0, e_{k-dim}) above; conjugation is (p, q) -> (p~, -q).
    """
    if a.dim not in (1, 2, 4, 8):
        raise ValueError(
            f"doubling is capped at the sedenions; cannot double dim {a.dim}"
        )
    n = a.dim
    names = {1: "C", 2: "H", 4: "O", 8: "S"}
    zero = [0] * n

    def half(idx: int) -> tuple[list, list]:
        v = [0] * n
        if idx < n:
            v[idx] = 1
            return v, list(zero)
        v[idx - n] = 1
        return list(zero), v

    table = []
    for i in range(2 * n):
        p, q = half(i)
        row = []
        for j in range(2 * n):
            r, s = half(j)
            s_conj = a.conjugate_coords(s)
            r_conj = a.conjugate_coords(r)
            first = [
                u - v
                for u, v in zip(
                    a.multiply_coords(p, r), a.multiply_coords(s_conj, q)
                )
            ]
            second = [
                u + v
                for u, v in zip(
                    a.multiply_coords(s, p), a.multiply_coords(q, r_conj)
                )
            ]
            cell = [(k, c) for k, c in enumerate(first) if c]
            cell += [(k + n, c) for k, c in enumerate(second) if c]
            row.append(cell)
        table.append(row)

    signs = list(a.conjugation_signs) + [-1] * n
    doubled = FiniteAlgebra(names[n], 2 * n, table, conjugation_signs=signs)
    _check_cayley_dickson_invariants(doubled)
    return doubled


def _check_cayley_dickson_invariants(a: FiniteAlgebra) -> None:
    """Unit, imaginary squares, and anticommutativity of the unit table."""
    unit = a.basis_element(0)
    for k in range(a.dim):
        ek = a.basis_element(k)
        assert unit * ek == ek and ek * unit == ek, f"e0 not a unit against e{k}"
    minus_unit = -unit
    for k in range(1, a.dim):
        ek = a.basis_element(k)
        assert ek * ek == minus_unit, f"e{k}^2 != -e0"
        for j in range(k + 1, a.dim):
            ej = a.basis_element(j)
            assert ek * ej == -(ej * ek), f"e{k}, e{j} fail to anticommute"


@lru_cache(maxsize=None)
def real_algebra() -> FiniteAlgebra:
    return FiniteAlgebra("R", 1, [[[(0, 1)]]], conjugation_signs=(1,))


@lru_cache(maxsize=None)
def complex_algebra() -> FiniteAlgebra:
    return cayley_dickson_double(real_algebra())


@lru_cache(maxsize=None)
def quaternions() -> FiniteAlgebra:
    return cayley_dickson_double(complex_algebra())


@lru_cache(maxsize=None)
def octonions() -> FiniteAlgebra:
    return cayley_dickson_double(quaternions())


@lru_cache(maxsize=None)
def sedenions() -> FiniteAlgebra:
    return cayley_dickson_double(octonions())


def cayley_dickson_algebra(dim: int) -> FiniteAlgebra:
    """The tower algebra of the given dimension (1, 2, 4, 8 or 16)."""
    builders = {
        1: real_algebra,
        2: complex_algebra,
        4: quaternions,
        8: octonions,
        16: sedenions,
    }
    if dim not in builders:
        raise ValueError(f"no Cayley-Dickson algebra of dimension {dim}")
    return builders[dim]()


# ---------------------------------------------------------------------------
# randomized sampling and counterexample search
# ---------------------------------------------------------------------------

def random_element(
    algebra: FiniteAlgebra,
    rng: random.Random,
    span: int = RANDOM_COEFF_SPAN,
) -> AlgebraElement:
    """Element with integer coefficients uniform in [-span, span]."""
    return algebra.element(
        tuple(rng.randint(-span, span) for _ in range(algebra.dim))
    )


def sedenion_composition_witness() -> tuple[AlgebraElement, AlgebraElement]:
    """Frozen pair violating N(xy) = N(x)N(y) in the sedenions.

    Found by ``find_composition_law_violation``; kept as a regression
    fixture.  Here N(x) = N(y) = 2 but N(xy) = 8.
    """
    s = sedenions()
    x = s.basis_element(1) + s.basis_element(10)
    y = s.basis_element(4) + s.basis_element(15)
    return x, y


def find_composition_law_violation(
    algebra: FiniteAlgebra,
) -> tuple[AlgebraElement, AlgebraElement] | None:
    """Deterministic scan for a pair with N(xy) != N(x)N(y).

    Scans two-unit combinations e_i +/- e_j; the sedenions contain zero
    divisors of this shape, so the scan terminates almost immediately
    there.  Returns None when no witness exists in the scanned family
    (the composition law holds through the octonions).
    """
    units = range(1, algebra.dim)
    for i in units:
        for j in units:
            if j <= i:
                continue
            for si in (1, -1):
                x = algebra.basis_element(i) + si * algebra.basis_element(j)
                for k in units:
                    for l in units:
                        if l <= k:
                            continue
                        for sk in (1, -1):
                            y = algebra.basis_element(k) + sk * algebra.basis_element(l)
                            if (x * y).norm() != x.norm() * y.norm():
                                return x, y
    return None
