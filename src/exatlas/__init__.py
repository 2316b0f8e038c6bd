"""exatlas: exact-arithmetic engine and verified atlas.

Composition algebras by Cayley-Dickson doubling, their derivation Lie
algebras, 3x3 hermitian Jordan algebras, Cartan symmetric-pair splits,
the Freudenthal magic square, and a machine-checkable catalog of the
twelve exceptional symmetric spaces, all over exact rationals.
"""

from .algebras import (
    AlgebraElement,
    AlgebraMismatchError,
    FiniteAlgebra,
    associator,
    cayley_dickson_algebra,
    cayley_dickson_double,
    commutator,
    complex_algebra,
    find_composition_law_violation,
    octonions,
    quaternions,
    random_element,
    real_algebra,
    sedenion_composition_witness,
    sedenions,
)
from .catalog import (
    ChainRecord,
    GroupRecord,
    MagicSquareCell,
    SymmetricSpaceRecord,
    atlas_document,
    classical_families,
    classical_group_dim,
    exceptional_atlas,
    exponents_check,
    family_space_dim,
    magic_square,
    palindrome_check,
    projective_spaces,
    supergravity_chain,
    verify_record,
)
from .jordan import (
    JordanAlgebra,
    jordan_algebra,
    jordan_dim,
    sedenion_jordan_witness,
)
from .lie import (
    CartanPair,
    InvalidInvolutionError,
    LieAlgebraBasis,
    bracket,
    cartan_split,
    derivation_algebra,
    diagonal_sign_involution,
    doubled_half_reflection,
    flat_rank,
    generic_rank,
    induced_involution,
    killing_form,
    named_derivation_algebra,
)
from .linalg import (
    ComputationCancelled,
    DimensionError,
    Rational,
    RationalMatrix,
    is_negative_definite,
    is_positive_definite,
    nullspace_basis,
    principal_minor_signs,
    rank,
)

__version__ = "0.1.0"
