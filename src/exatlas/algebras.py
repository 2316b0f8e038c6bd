"""Composition algebras built by Cayley-Dickson doubling.

The tower R -> C -> H -> O -> sedenions with exact rational coefficients.
Every algebra stores its structure constants once, as an exact integer
tensor C' = s*c with a positive integer scale s.  Products, norms, the
Jordan algebras downstream and the derivation engine contract that one
tensor through ``_contract``; the batched identity sweeps sum over its
nonzeros in ``batch_multiply``.  Both run in int64 when the bound is
proven and on Python ints otherwise.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .linalg import (
    _INT64_SAFE,
    Rational,
    _contract,
    _exact_quotient,
    _int_array,
    _key_runs,
    _scaled_int_array,
)

#: Default seed for every randomized identity check in the package.
DEFAULT_SEED = 1729

#: Coefficients for random elements are drawn uniformly from this range.
RANDOM_COEFF_SPAN = 9

#: Rows per block in ``batch_multiply``; bounds the memory of one call.
_BATCH_ROWS = 256


class AlgebraMismatchError(ValueError):
    """Operands belong to different algebras."""


class FiniteAlgebra:
    """Finite-dimensional algebra over Q defined by structure constants.

    ``tensor[i, j, k] / scale`` is the coefficient of e_k in the basis
    product e_i * e_j.  The pair is stored reduced (no integer > 1
    divides the scale and every entry), read-only, and in int64 only
    while every entry is below 2^62; Python ints (dtype=object) hold it
    otherwise.  ``conjugation_signs`` is present for *-algebras (the
    Cayley-Dickson tower) and None otherwise.  Identity of the algebra
    object is what ties elements together; builders are cached so each
    named algebra is constructed once.
    """

    def __init__(
        self,
        name: str,
        tensor,
        scale: int = 1,
        conjugation_signs: Sequence[int] | None = None,
        unit_coords: Sequence | None = None,
    ):
        t = np.asarray(tensor)
        if t.ndim != 3 or not t.shape[0] == t.shape[1] == t.shape[2]:
            raise ValueError(f"structure constants need an n x n x n array, got shape {t.shape}")
        if t.shape[0] < 1:
            raise ValueError("algebra dimension must be positive")
        if not (t.dtype.kind in "iu" or all(isinstance(v, (int, np.integer)) for v in t.flat)):
            raise TypeError("structure constants must be integers over a common scale")
        if not isinstance(scale, (int, np.integer)) or scale < 1:
            raise ValueError("scale must be a positive integer")
        if t.dtype != np.int64 or t.size and (t.max() >= _INT64_SAFE or t.min() <= -_INT64_SAFE):
            t = _int_array(t.astype(object).ravel().tolist(), t.shape)
        g = math.gcd(int(np.gcd.reduce(t, axis=None)), int(scale))
        self.tensor = t // g if g > 1 else t.copy()
        self.tensor.setflags(write=False)
        self.scale = int(scale) // g
        self.name = name
        self.dim = t.shape[0]
        self.conjugation_signs = (
            tuple(conjugation_signs) if conjugation_signs is not None else None
        )
        if unit_coords is None:
            unit_coords = (1,) + (0,) * (self.dim - 1)
        self.unit_coords = tuple(unit_coords)

    def structure_constant(self, i: int, j: int, k: int):
        return _exact_quotient(int(self.tensor[i, j, k]), self.scale)

    def multiply_coords(self, x: Sequence, y: Sequence) -> list:
        """Coordinates of xy: denominators cleared, then one exact contraction."""
        n = self.dim
        xi, dx = _scaled_int_array(x, (n,))
        yi, dy = _scaled_int_array(y, (n,))
        prod = _contract("i,j,ijk->k", n * n, xi, yi, self.tensor)
        den = self.scale * dx * dy
        return [_exact_quotient(v, den) for v in prod.tolist()]

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

    def __repr__(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            terms.append(str(c) if k == 0 else f"{c}*e{k}")
        body = " + ".join(terms) if terms else "0"
        return f"{self.algebra.name}({body})"


# ---------------------------------------------------------------------------
# batched products
# ---------------------------------------------------------------------------

def batch_multiply(tensor: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise products of two (batch, dim) integer coordinate arrays.

    Row b of the result is sum_ij x[b, i] y[b, j] tensor[i, j, :], so a
    tensor scaled by s returns s times the product.  Only the tensor's
    nonzero terms are formed: for each block of rows, every term
    x[:, i] y[:, j] tensor[i, j, k] is gathered and the terms are summed
    per k, in the dtype ``_exact_dtype`` proves for the most terms at
    one k, so the result is always exact.
    """
    n = tensor.shape[0]
    k, i, j = np.nonzero(tensor.transpose(2, 0, 1))  # sorted by k
    c = tensor[i, j, k]
    starts, dtype = _key_runs(k, x, y, c)
    x, y, c = (a.astype(dtype, copy=False) for a in (x, y, c))
    blocks = []
    for lo in range(0, x.shape[0], _BATCH_ROWS):
        xb, yb = x[lo : lo + _BATCH_ROWS], y[lo : lo + _BATCH_ROWS]
        block = np.zeros((xb.shape[0], n), dtype)
        if k.size:
            terms = xb[:, i] * yb[:, j]
            terms *= c
            block[:, k[starts]] = np.add.reduceat(terms, starts, axis=1)
        blocks.append(block)
    if not blocks:
        return np.zeros((0, n), dtype=np.int64)
    return np.concatenate(blocks)


def batch_norms(algebra: FiniteAlgebra, x: np.ndarray) -> np.ndarray:
    """Scalar part of conj(x) x for each row of x, as Python ints.

    Computed on the algebra's tensor, so this is its scale times the
    norm.  Raises ArithmeticError, as ``AlgebraElement.norm`` does, when
    a product is not scalar.
    """
    signs = np.array(algebra.conjugate_coords((1,) * algebra.dim), dtype=np.int64)
    prod = batch_multiply(algebra.tensor, x * signs, x)
    if np.any(prod[:, 1:]):
        raise ArithmeticError("conjugate-product is not scalar; broken table")
    return prod[:, 0].astype(object)


# ---------------------------------------------------------------------------
# commutator and associator
# ---------------------------------------------------------------------------

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
    (0, e_{k-dim}) above; conjugation is (p, q) -> (p~, -q).  The
    doubled tensor is four signed blocks of the half algebra's tensor.
    """
    if a.dim not in (1, 2, 4, 8):
        raise ValueError(
            f"doubling is capped at the sedenions; cannot double dim {a.dim}"
        )
    n = a.dim
    names = {1: "C", 2: "H", 4: "O", 8: "S"}
    t = a.tensor
    conj = np.array(a.conjugate_coords((1,) * n), dtype=np.int64)[None, :, None]
    doubled = np.zeros((2 * n, 2 * n, 2 * n), dtype=t.dtype)
    doubled[:n, :n, :n] = t  # (e_i, 0)(e_j, 0) = (e_i e_j, 0)
    doubled[:n, n:, n:] = t.transpose(1, 0, 2)  # (e_i, 0)(0, e_j) = (0, e_j e_i)
    doubled[n:, :n, n:] = t * conj  # (0, e_i)(e_j, 0) = (0, e_i e_j~)
    doubled[n:, n:, :n] = -t.transpose(1, 0, 2) * conj  # (0, e_i)(0, e_j) = (-e_j~ e_i, 0)

    signs = list(a.conjugation_signs) + [-1] * n
    result = FiniteAlgebra(names[n], doubled, a.scale, conjugation_signs=signs)
    _check_cayley_dickson_invariants(result)
    return result


def _check_cayley_dickson_invariants(a: FiniteAlgebra) -> None:
    """Unit, imaginary squares, and anticommutativity of the unit table."""
    t, n = a.tensor, a.dim
    unit = np.diag([a.scale] * n)
    assert np.array_equal(t[0], unit) and np.array_equal(t[:, 0], unit), "e0 is not a unit"
    imag = t[1:, 1:]
    k = np.arange(n - 1)
    assert np.array_equal(imag[k, k], np.broadcast_to(-unit[0], (n - 1, n))), "some e_k^2 != -e0"
    anti = imag + imag.transpose(1, 0, 2)
    anti[k, k] = 0
    assert not anti.any(), "imaginary units fail to anticommute"


@lru_cache(maxsize=None)
def real_algebra() -> FiniteAlgebra:
    return FiniteAlgebra("R", [[[1]]], conjugation_signs=(1,))


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
