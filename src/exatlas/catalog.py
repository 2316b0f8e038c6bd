"""Verified atlas of compact groups and symmetric spaces.

Group dimension/exponent tables, the seven classical families, the
twelve exceptional symmetric spaces, both magic squares, and the
maximal-supergravity scalar chain.  Every record carries enough data to
recompute its dimension identity, and ``verify_record`` does exactly
that; the level-3 magic square is computed from live derivation
dimensions rather than stored numbers.
"""

from __future__ import annotations

import ast
import operator
import re
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from . import algebras as _alg
from . import lie as _lie

# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupRecord:
    """A compact group with its dimension and (if simple) exponents.

    For a compact simple group the rational cohomology is that of a
    product of odd spheres S^(2e+1); hence dim = sum(2e + 1) over the
    exponents and the rank is their count.
    """

    name: str
    series: str
    dim: int
    rank: int | None = None
    exponents: tuple[int, ...] | None = None
    is_simple: bool = True


def _a_exponents(rank: int) -> tuple[int, ...]:
    return tuple(range(1, rank + 1))


def _bc_exponents(rank: int) -> tuple[int, ...]:
    return tuple(2 * i - 1 for i in range(1, rank + 1))


def _d_exponents(rank: int) -> tuple[int, ...]:
    return tuple(sorted([2 * i - 1 for i in range(1, rank)] + [rank - 1]))


_EXCEPTIONAL = {
    "G2": ("G", 14, 2, (1, 5)),
    "F4": ("F", 52, 4, (1, 5, 7, 11)),
    "E6": ("E", 78, 6, (1, 4, 5, 7, 8, 11)),
    "E7": ("E", 133, 7, (1, 5, 7, 9, 11, 13, 17)),
    "E8": ("E", 248, 8, (1, 7, 11, 13, 17, 19, 23, 29)),
}


def classical_group_dim(series: str, n: int) -> int:
    """Dimension of the named compact series at parameter n >= 1."""
    if n < 1:
        raise ValueError(f"series parameter must be >= 1, got {n}")
    if series in ("SO", "O", "Spin"):
        return n * (n - 1) // 2
    if series == "SU":
        return n * n - 1
    if series == "U":
        return n * n
    if series == "Sq":
        return n * (2 * n + 1)
    if series == "q":  # Sq(n) x Sq(1) modulo shared center
        return n * (2 * n + 1) + 3
    raise ValueError(f"unknown group series {series!r}")


def special_unitary(n: int) -> GroupRecord:
    return GroupRecord(
        f"SU({n})", "A", classical_group_dim("SU", n),
        rank=n - 1, exponents=_a_exponents(n - 1) or None, is_simple=n >= 2,
    )


def special_orthogonal(n: int, spin_name: bool = False) -> GroupRecord:
    dim = classical_group_dim("SO", n)
    name = f"Spin({n})" if spin_name else f"SO({n})"
    if n % 2:
        r = (n - 1) // 2
        exps = _bc_exponents(r) or None
        series = "B"
    else:
        r = n // 2
        exps = _d_exponents(r) if r >= 2 else None
        series = "D"
    # so(2) is abelian and so(4) splits; neither is simple
    simple = n == 3 or n >= 5
    return GroupRecord(name, series, dim, rank=r, exponents=exps, is_simple=simple)


def compact_symplectic(n: int) -> GroupRecord:
    return GroupRecord(
        f"Sq({n})", "C", classical_group_dim("Sq", n), rank=n, exponents=_bc_exponents(n)
    )


def exceptional_group(name: str) -> GroupRecord:
    series, dim, rank, exps = _EXCEPTIONAL[name]
    return GroupRecord(name, series, dim, rank=rank, exponents=exps)


_LABEL_RE = re.compile(r"^([A-Za-z]+)\(([^()]+)\)(?:\^(\d+))?$")


_ARITHMETIC = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,  # exact: the operands are Fractions
}


def _eval_int(expr: str, env: dict[str, int]) -> int:
    """Integer value of a catalog formula such as '(n-1)*(n+2)/2'.

    Only int literals, the names in env, unary minus and + - * / are
    accepted; anything else raises ValueError.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"malformed expression {expr!r}") from exc

    def value(node: ast.AST) -> Fraction:
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return Fraction(node.value)
        if isinstance(node, ast.Name):
            if node.id not in env:
                raise ValueError(f"unknown name {node.id!r} in {expr!r}")
            return Fraction(env[node.id])
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -value(node.operand)
        if isinstance(node, ast.BinOp) and type(node.op) in _ARITHMETIC:
            try:
                return _ARITHMETIC[type(node.op)](value(node.left), value(node.right))
            except ZeroDivisionError as exc:
                raise ValueError(f"division by zero in {expr!r} at {env}") from exc
        raise ValueError(f"malformed expression {expr!r}")

    result = value(tree.body)
    if result.denominator != 1:
        raise ValueError(f"expression {expr!r} is not integral at {env}")
    return int(result)


def group_dim(label: str, env: dict[str, int] | None = None) -> int:
    """Dimension of a group label such as 'SO(10)', 'Sq(n+1)', 'U(2)^2', 'E7'."""
    if label in _EXCEPTIONAL:
        return _EXCEPTIONAL[label][1]
    m = _LABEL_RE.match(label)
    if not m:
        raise ValueError(f"cannot resolve group label {label!r}")
    series, inner, power = m.group(1), m.group(2), m.group(3)
    n = _eval_int(inner, env or {})
    d = classical_group_dim(series, n)
    return d * int(power) if power else d


def standard_simple_groups() -> list[GroupRecord]:
    """The vetted simple-group records the atlas and checks draw from."""
    groups: list[GroupRecord] = []
    groups += [special_unitary(n) for n in range(2, 10)]
    groups += [special_orthogonal(n, spin_name=True) for n in (3, 5, 6, 7)]
    groups += [special_orthogonal(n, spin_name=True) for n in range(8, 17)]
    groups += [compact_symplectic(n) for n in range(1, 5)]
    groups += [exceptional_group(g) for g in ("G2", "F4", "E6", "E7", "E8")]
    return groups


# ---------------------------------------------------------------------------
# exponent arithmetic
# ---------------------------------------------------------------------------

def exponents_check(g: GroupRecord) -> bool:
    """dim = sum(2e + 1) and rank = number of exponents."""
    if g.exponents is None:
        raise ValueError(f"{g.name} carries no exponents")
    return g.dim == sum(2 * e + 1 for e in g.exponents) and g.rank == len(g.exponents)


def palindrome_check(exponents: tuple[int, ...] | list[int]) -> bool:
    """Consecutive differences read the same in both directions.

    Fewer than two exponents pass trivially (a single sphere).
    """
    if len(exponents) < 2:
        return True
    diffs = [b - a for a, b in zip(exponents, exponents[1:])]
    return diffs == diffs[::-1]


# ---------------------------------------------------------------------------
# symmetric space records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetricSpaceRecord:
    """A compact symmetric space G/K with machine-checkable dimension data.

    The isotropy group is stored as simple factors plus an explicit
    abelian dimension, so quotients written loosely elsewhere (U(n) vs
    SU(n) x U(1)) have unambiguous arithmetic here.  Parametric family
    records carry formulas instead of a concrete dimension: ``dim_formula``
    is evaluated and checked, while ``rank_formula`` is for display only
    (``[n/2]`` and ``min(p,q)`` lie outside ``_eval_int``'s grammar and
    are never evaluated).
    """

    cartan_label: str
    numerator: str
    denominator: tuple[str, ...]
    abelian_dim: int = 0
    dim: int | None = None
    rank: int | None = None
    family_params: tuple[str, ...] = ()
    dim_formula: str | None = None
    rank_formula: str | None = None
    display_isotropy: str | None = None
    notes: str = ""

    @property
    def is_parametric(self) -> bool:
        return bool(self.family_params)

    def isotropy_display(self) -> str:
        if self.display_isotropy:
            return self.display_isotropy
        parts = list(self.denominator)
        if self.abelian_dim:
            parts.append("U(1)" if self.abelian_dim == 1 else f"U(1)^{self.abelian_dim}")
        return " x ".join(parts)


@dataclass(frozen=True)
class RecordCheck:
    """Outcome of recomputing one record's dimension identity."""

    label: str
    passed: bool
    expected: object
    computed: object
    detail: str = ""


_FAMILY_SAMPLE_N = range(1, 9)
_FAMILY_SAMPLE_PQ = [(p, q) for p in range(1, 6) for q in range(1, 6)]


def _quotient_dim(r: SymmetricSpaceRecord, env: dict[str, int]) -> int:
    total = group_dim(r.numerator, env)
    for den in r.denominator:
        total -= group_dim(den, env)
    return total - r.abelian_dim


def verify_record(r: SymmetricSpaceRecord) -> RecordCheck:
    """Recompute dim(G) - dim(K) and compare with the stored dimension."""
    if not r.is_parametric:
        computed = _quotient_dim(r, {})
        ok = computed == r.dim
        detail = "" if ok else f"delta {computed - r.dim}"
        return RecordCheck(r.cartan_label, ok, r.dim, computed, detail)
    samples = (
        [{"n": n} for n in _FAMILY_SAMPLE_N]
        if r.family_params == ("n",)
        else [{"p": p, "q": q} for p, q in _FAMILY_SAMPLE_PQ]
    )
    expected = [_eval_int(r.dim_formula, env) for env in samples]
    computed = [_quotient_dim(r, env) for env in samples]
    mismatch = next((env for env, e, c in zip(samples, expected, computed) if e != c), None)
    detail = "" if mismatch is None else f"mismatch at {mismatch}"
    return RecordCheck(r.cartan_label, mismatch is None, expected, computed, detail)


def family_space_dim(label: str, **params: int) -> int:
    """Dimension formula of one of the seven classical families."""
    record = next((r for r in classical_families() if r.cartan_label == label), None)
    if record is None:
        raise ValueError(f"unknown family label {label!r}")
    names = record.family_params
    if not set(names) <= params.keys() or any(params[k] < 1 for k in names):
        what = "a parameter" if len(names) == 1 else "parameters"
        raise ValueError(f"family {label} needs {what} {', '.join(names)} >= 1")
    return _eval_int(record.dim_formula, {k: params[k] for k in names})


def classical_families() -> list[SymmetricSpaceRecord]:
    """The seven classical families over R, C and H."""
    return [
        SymmetricSpaceRecord(
            "AI", "SU(n)", ("SO(n)",), dim_formula="(n-1)*(n+2)/2",
            rank_formula="n-1", family_params=("n",),
        ),
        SymmetricSpaceRecord(
            "CI", "Sq(n)", ("SU(n)",), abelian_dim=1, dim_formula="n*(n+1)",
            rank_formula="n", family_params=("n",), display_isotropy="U(n)",
        ),
        SymmetricSpaceRecord(
            "AII", "SU(2*n)", ("Sq(n)",), dim_formula="(2*n+1)*(n-1)",
            rank_formula="n-1", family_params=("n",),
        ),
        SymmetricSpaceRecord(
            "DIII", "SO(2*n)", ("SU(n)",), abelian_dim=1, dim_formula="n*(n-1)",
            rank_formula="[n/2]", family_params=("n",), display_isotropy="U(n)",
        ),
        SymmetricSpaceRecord(
            "BDI", "SO(p+q)", ("SO(p)", "SO(q)"), dim_formula="p*q",
            rank_formula="min(p,q)", family_params=("p", "q"),
            notes="real grassmannian; p = 1 gives the spheres",
        ),
        SymmetricSpaceRecord(
            "AIII", "SU(p+q)", ("SU(p)", "SU(q)"), abelian_dim=1,
            dim_formula="2*p*q", rank_formula="min(p,q)", family_params=("p", "q"),
            display_isotropy="S(U(p) x U(q))",
            notes="complex grassmannian; p = 1 gives CP^q",
        ),
        SymmetricSpaceRecord(
            "CII", "Sq(p+q)", ("Sq(p)", "Sq(q)"), dim_formula="4*p*q",
            rank_formula="min(p,q)", family_params=("p", "q"),
            notes="quaternion grassmannian; p = 1 gives HP^q",
        ),
    ]


_RANK_NOTE = "rank from the standard classification tables"


def exceptional_atlas() -> list[SymmetricSpaceRecord]:
    """The twelve exceptional symmetric spaces, 1 + 2 + 4 + 3 + 2 by group."""
    return [
        SymmetricSpaceRecord(
            "G", "G2", ("SO(4)",), dim=8, rank=2,
            notes="isotropy fixes a quaternion subalgebra of the octonions",
        ),
        SymmetricSpaceRecord(
            "FI", "F4", ("Sq(3)", "Sq(1)"), dim=28, rank=4,
        ),
        SymmetricSpaceRecord(
            "FII", "F4", ("Spin(9)",), dim=16, rank=1,
            notes="the octonion projective plane OP^2 (Moufang plane)",
        ),
        SymmetricSpaceRecord(
            "EI", "E6", ("Sq(4)",), dim=42, rank=6,
            notes=f"compact partner of the split form E6(+6); {_RANK_NOTE}",
        ),
        SymmetricSpaceRecord(
            "EII", "E6", ("SU(6)", "SU(2)"), dim=40, rank=4, notes=_RANK_NOTE,
        ),
        SymmetricSpaceRecord(
            "EIII", "E6", ("SO(10)",), abelian_dim=1, dim=32, rank=2,
            display_isotropy="SO(10) x U(1)", notes=_RANK_NOTE,
        ),
        SymmetricSpaceRecord(
            "EIV", "E6", ("F4",), dim=26, rank=2,
            notes=f"tangent model: trace-zero hermitian octonion matrices; {_RANK_NOTE}",
        ),
        SymmetricSpaceRecord(
            "EV", "E7", ("SU(8)",), dim=70, rank=7,
            notes=f"compact partner of the split form E7(+7); {_RANK_NOTE}",
        ),
        SymmetricSpaceRecord(
            "EVI", "E7", ("SO(12)", "Sq(1)"), dim=64, rank=4, notes=_RANK_NOTE,
        ),
        SymmetricSpaceRecord(
            "EVII", "E7", ("E6",), abelian_dim=1, dim=54, rank=3,
            display_isotropy="E6 x U(1)", notes=_RANK_NOTE,
        ),
        SymmetricSpaceRecord(
            "EVIII", "E8", ("SO(16)",), dim=128, rank=8, notes=_RANK_NOTE,
        ),
        SymmetricSpaceRecord(
            "EIX", "E8", ("E7", "Sq(1)"), dim=112, rank=4, notes=_RANK_NOTE,
        ),
    ]


def exceptional_partition() -> dict[str, int]:
    return dict(Counter(r.numerator for r in exceptional_atlas()))


def projective_spaces() -> list[SymmetricSpaceRecord]:
    """Projective spaces over the four algebras, all of rank one."""
    return [
        SymmetricSpaceRecord(
            "BDI", "SO(n+1)", ("SO(n)",), dim_formula="n", rank=1,
            family_params=("n",), display_isotropy="O(n)",
            notes="RP^n; doubles as the sphere chain S^n = SO(n+1)/SO(n)",
        ),
        SymmetricSpaceRecord(
            "AIII", "SU(n+1)", ("SU(n)",), abelian_dim=1, dim_formula="2*n",
            rank=1, family_params=("n",), display_isotropy="U(n)", notes="CP^n",
        ),
        SymmetricSpaceRecord(
            "CII", "Sq(n+1)", ("Sq(n)", "Sq(1)"), dim_formula="4*n", rank=1,
            family_params=("n",), display_isotropy="q(n)", notes="HP^n",
        ),
        SymmetricSpaceRecord(
            "BDI", "Spin(9)", ("Spin(8)",), dim=8, rank=1,
            notes="OP^1 = S^8",
        ),
        SymmetricSpaceRecord(
            "FII", "F4", ("Spin(9)",), dim=16, rank=1,
            notes="OP^2, the octonion projective plane",
        ),
    ]


def sphere_identities() -> list[tuple[str, str, str, int]]:
    """Quotient presentations of spheres as pure dimension arithmetic."""
    return [
        ("S7", "Spin(7)", "G2", 7),
        ("S8", "Spin(9)", "Spin(8)", 8),
        ("S15", "Spin(9)", "Spin(7)", 15),
    ]


# ---------------------------------------------------------------------------
# magic squares
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MagicSquareCell:
    row_algebra: str
    col_algebra: str
    lie_dim: int
    group_label: str
    note: str = ""


_DIVISION_ALGEBRAS = {"R": 1, "C": 2, "H": 4, "O": 8}  # name: dimension

#: Cell labels by level: compact groups at matrix size 2, Lie algebras at 3.
_MAGIC_LABELS = {
    2: [
        ["O(2)", "U(2)", "Sq(2)", "Spin(9)"],
        ["U(2)", "U(2)^2", "U(4)", "Spin(10)"],
        ["Sq(2)", "U(4)", "SO(8)", "Spin(12)"],
        ["Spin(9)", "Spin(10)", "Spin(12)", "Spin(16)"],
    ],
    3: [
        ["so(3)", "su(3)", "sp(3)", "f4"],
        ["su(3)", "su(3)+su(3)", "su(6)", "e6"],
        ["sp(3)", "su(6)", "so(12)", "e7"],
        ["f4", "e6", "e7", "e8"],
    ],
}

#: The level-3 table the live computation must reproduce.
EXPECTED_LEVEL3_DIMS = (
    (3, 8, 21, 52),
    (8, 16, 35, 78),
    (21, 35, 66, 133),
    (52, 78, 133, 248),
)


@lru_cache(maxsize=None)
def derivation_dimension(key: str) -> int:
    """Live derivation-algebra dimension for R, C, H, O or J3 over them."""
    if key == "R":
        return _lie.derivation_algebra(_alg.real_algebra()).dim
    named = {"C": "complex", "H": "quaternions", "O": "octonions"}
    return _lie.named_derivation_algebra(named.get(key, key)).dim


def tits_dimension(a: str, b: str) -> int:
    """dim Der(A) + dim Der(J3(B)) + (dim A - 1)(dim J3(B) - 1), live."""
    j3_dim = 3 + 3 * _DIVISION_ALGEBRAS[b]
    return (
        derivation_dimension(a)
        + derivation_dimension(f"j3{b.lower()}")
        + (_DIVISION_ALGEBRAS[a] - 1) * (j3_dim - 1)
    )


def magic_square(level: int) -> list[list[MagicSquareCell]]:
    """The 4x4 magic square at matrix size 2 (spin groups) or 3 (Lie dims).

    Level 3 dimensions are computed through the Tits formula from live
    derivation dimensions; level 2 is recorded data whose dimensions are
    resolved from the group labels.
    """
    if level not in _MAGIC_LABELS:
        raise ValueError(f"magic square level must be 2 or 3, got {level}")

    def cell(a: str, b: str, label: str) -> MagicSquareCell:
        if level == 2:
            return MagicSquareCell(a, b, group_dim(label), label)
        note = "semisimple part of u(3)+u(3)" if a == b == "C" else ""
        return MagicSquareCell(a, b, tits_dimension(a, b), label, note)

    return [
        [cell(a, b, label) for b, label in zip(_DIVISION_ALGEBRAS, labels)]
        for a, labels in zip(_DIVISION_ALGEBRAS, _MAGIC_LABELS[level])
    ]


def magic_square_dims(level: int) -> list[list[int]]:
    return [[cell.lie_dim for cell in row] for row in magic_square(level)]


# ---------------------------------------------------------------------------
# supergravity chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainRecord:
    """One rung of the split-form chain: scalars = dim(G_split) - dim(K)."""

    spacetime_dim: int
    split_group: GroupRecord
    compact_subgroup: GroupRecord
    scalar_count: int


#: (spacetime dim, split-form name, compact complexification partner,
#:  maximal compact subgroup label)
_CHAIN_DATA = [
    (3, "E8(+8)", "E8", "SO(16)"),
    (4, "E7(+7)", "E7", "SU(8)"),
    (5, "E6(+6)", "E6", "Sq(4)"),
    (6, "SO(5,5)", "SO(10)", "Sq(2)^2"),
    (7, "SL(5,R)", "SU(5)", "Sq(2)"),
]

#: Scalar counts the chain must reproduce for d = 3..7.
EXPECTED_CHAIN_SCALARS = (128, 70, 42, 25, 14)


def supergravity_chain() -> list[ChainRecord]:
    """Split exceptional groups over their maximal compact subgroups.

    A split real form has the dimension of its compact partner (same
    complexification), so every count here is recomputed from the
    compact dimension data at call time.
    """
    out = []
    for d, split_name, compact_partner, sub_label in _CHAIN_DATA:
        split_dim = group_dim(compact_partner)
        sub_dim = group_dim(sub_label)
        split = GroupRecord(split_name, "split", split_dim, is_simple=True)
        sub = GroupRecord(sub_label, "compact", sub_dim, is_simple="^" not in sub_label)
        out.append(ChainRecord(d, split, sub, split_dim - sub_dim))
    return out


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Table:
    """A catalog table: its JSON-ready document and, unless JSON-only, its markdown."""

    document: dict | list
    headers: list[str] | None = None
    rows: list[list[str]] | None = None


def _record_to_dict(r: SymmetricSpaceRecord) -> dict:
    d: dict = {
        "cartan_label": r.cartan_label,
        "numerator": r.numerator,
        "denominator": list(r.denominator),
        "abelian_dim": r.abelian_dim,
        "isotropy": r.isotropy_display(),
    }
    if r.is_parametric:
        d["family_params"] = list(r.family_params)
        d["dim_formula"] = r.dim_formula
        if r.rank_formula:
            d["rank_formula"] = r.rank_formula
    else:
        d["dim"] = r.dim
    if r.rank is not None:
        d["rank"] = r.rank
    if r.notes:
        d["notes"] = r.notes
    return d


def _spaces_table(records: list[SymmetricSpaceRecord]) -> Table:
    """Symmetric spaces; a family shows its formulas in the Dim and Rank columns."""
    return Table(
        [_record_to_dict(r) for r in records],
        ["Cartan", "Space", "Dim", "Rank"],
        [
            [
                r.cartan_label,
                f"{r.numerator} / {r.isotropy_display()}",
                r.dim_formula if r.is_parametric else str(r.dim),
                (r.rank_formula or "") if r.is_parametric else str(r.rank),
            ]
            for r in records
        ],
    )


def _magic_square_table(level: int) -> Table:
    cells = magic_square(level)
    return Table(
        {
            "level": level,
            "algebras": list(_DIVISION_ALGEBRAS),
            "labels": [[c.group_label for c in row] for row in cells],
            "dims": [[c.lie_dim for c in row] for row in cells],
        },
        ["K", *_DIVISION_ALGEBRAS],
        [[a] + [f"{c.group_label} ({c.lie_dim})" for c in row]
         for a, row in zip(_DIVISION_ALGEBRAS, cells)],
    )


def _chains_table() -> Table:
    chain = supergravity_chain()
    return Table(
        [
            {
                "spacetime_dim": c.spacetime_dim,
                "split_group": c.split_group.name,
                "split_dim": c.split_group.dim,
                "compact_subgroup": c.compact_subgroup.name,
                "compact_dim": c.compact_subgroup.dim,
                "scalar_count": c.scalar_count,
            }
            for c in chain
        ],
        ["d", "Split group", "Compact subgroup", "Scalars"],
        [
            [
                str(c.spacetime_dim),
                f"{c.split_group.name} ({c.split_group.dim})",
                f"{c.compact_subgroup.name} ({c.compact_subgroup.dim})",
                str(c.scalar_count),
            ]
            for c in chain
        ],
    )


def atlas_document() -> dict:
    """Canonical JSON-ready document with the whole verified atlas."""
    squares = {}
    for level in (2, 3):
        doc = _magic_square_table(level).document
        squares[f"level{level}"] = {"labels": doc["labels"], "dims": doc["dims"]}
    return {
        "groups": [
            {
                "name": g.name,
                "series": g.series,
                "dim": g.dim,
                "rank": g.rank,
                "exponents": list(g.exponents) if g.exponents else None,
            }
            for g in standard_simple_groups()
        ],
        "families": _spaces_table(classical_families()).document,
        "exceptional_spaces": _spaces_table(exceptional_atlas()).document,
        "magic_squares": squares,
        "chains": _chains_table().document,
    }


#: Table builders by name, in the order the CLI lists them.
_TABLES = {
    "magic-square": _magic_square_table,
    "exceptional-spaces": lambda level: _spaces_table(exceptional_atlas()),
    "chains": lambda level: _chains_table(),
    "families": lambda level: _spaces_table(classical_families()),
    "atlas": lambda level: Table(atlas_document()),
}

TABLE_NAMES = tuple(_TABLES)


def table(name: str, level: int = 3) -> Table:
    """The named catalog table; ``level`` (2 or 3) selects the magic square."""
    if name not in _TABLES:
        raise ValueError(f"unknown table {name!r}")
    return _TABLES[name](level)


def corrupted_atlas() -> list[SymmetricSpaceRecord]:
    """Atlas with the first record's dimension off by one (negative control)."""
    records = exceptional_atlas()
    return [replace(records[0], dim=records[0].dim + 1)] + records[1:]
