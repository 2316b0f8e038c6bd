"""Command-line interface: verification suites and atlas tables.

Exit codes: 0 all checks pass, 1 verification failure, 2 usage error.
Randomized checks draw from a seeded generator (--seed, or ATLAS_SEED);
the heavy J3(O) derivation computation honors --budget and reports
"skipped (budget)" instead of failing when the cap is hit.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import algebras as alg
from . import catalog as cat
from . import jordan as jrd
from . import lie
from .linalg import ComputationCancelled, is_negative_definite

DEFAULT_SEED = alg.DEFAULT_SEED
DEFAULT_BUDGET = 300.0
DEFAULT_PAIRS = 1000
DEFAULT_JORDAN_PAIRS = 500

VERIFY_SCOPES = (
    "all", "algebras", "derivations", "magic-square", "atlas", "chains", "exponents",
)
TABLE_NAMES = cat.TABLE_NAMES

_SKIPPED = "skipped (budget)"


@dataclass
class CheckResult:
    check_id: str
    status: str  # "pass" | "fail" | "skipped (budget)"
    expected: object
    computed: object
    elapsed_s: float


@dataclass
class VerificationReport:
    suite: str
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)


class Budget:
    """Wall-clock cap shared by the heavy checks of a run."""

    def __init__(self, seconds: float):
        self.deadline = time.monotonic() + seconds

    def cancel(self) -> bool:
        return time.monotonic() > self.deadline

    def require(self) -> None:
        if self.cancel():
            raise ComputationCancelled("budget exhausted")


class SuiteRunner:
    def __init__(self, suite: str):
        self.report = VerificationReport(suite, [])

    def check(self, check_id: str, expected, fn) -> None:
        start = time.perf_counter()
        try:
            computed = fn()
            status = "pass" if computed == expected else "fail"
        except ComputationCancelled:
            computed = None
            status = _SKIPPED
        self.report.checks.append(
            CheckResult(check_id, status, expected, computed, time.perf_counter() - start)
        )


def _heavy_lie(name: str, budget: Budget) -> lie.LieAlgebraBasis:
    """Fetch a named derivation algebra under the budget token."""
    if not lie.derivation_cached(name):
        budget.require()
    return lie.named_derivation_algebra(name, budget.cancel)


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

# The batched sweeps draw their samples row by row in the order of the
# per-element loops (x then y per pair), the very values random_element
# draws, and check them on the scaled structure tensor C' = sC, where an
# m-fold product carries s^m on both sides of each identity.

def _random_rows(rng: random.Random, count: int, dim: int) -> np.ndarray:
    """count x dim coordinates in [-span, span]: the values, and the final
    state of rng, of count * dim calls of ``rng.randint(-span, span)``.

    CPython's randint draws one 32-bit Mersenne Twister word per try,
    keeps its top bits r = word >> (32 - bit_length(width)) and rejects
    r >= width; ``getrandbits(32 m)`` returns m such words, least
    significant first.  Each word gives at most one value, so drawing
    exactly the shortfall each round never reads past the last word a
    loop of randint calls would read.
    """
    span = alg.RANDOM_COEFF_SPAN
    width = 2 * span + 1
    shift = 32 - width.bit_length()
    need = max(count, 0) * dim
    drawn = [np.zeros(0, dtype=np.int64)]
    while need:
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        r = (np.frombuffer(words, dtype="<u4") >> shift).astype(np.int64)
        drawn.append(r[r < width])
        need -= drawn[-1].size
    return (np.concatenate(drawn) - span).reshape(-1, dim)


def _associator_rows(c: np.ndarray, x, y, z) -> np.ndarray:
    # each product is guarded below 2^62, so the difference fits int64
    mul = alg.batch_multiply
    return mul(c, mul(c, x, y), z) - mul(c, x, mul(c, y, z))


def _composition_failures(a: alg.FiniteAlgebra, rng: random.Random, pairs: int) -> int:
    """Random pairs with N(xy) != N(x) N(y)."""
    rows = _random_rows(rng, 2 * pairs, a.dim)
    x, y = rows[0::2], rows[1::2]
    n_xy = alg.batch_norms(a, alg.batch_multiply(a.tensor, x, y))  # s^3 N(xy)
    return int(np.count_nonzero(n_xy != a.scale * alg.batch_norms(a, x) * alg.batch_norms(a, y)))


def _alternativity_failures(a: alg.FiniteAlgebra, rng: random.Random, pairs: int) -> int:
    """Random pairs with (x, x, y) or (x, y, y) a nonzero associator."""
    rows = _random_rows(rng, 2 * pairs, a.dim)
    x, y = rows[0::2], rows[1::2]
    bad = np.any(_associator_rows(a.tensor, x, x, y), axis=1) | np.any(
        _associator_rows(a.tensor, x, y, y), axis=1
    )
    return int(np.count_nonzero(bad))


def _antisymmetry_failures(a: alg.FiniteAlgebra, rng: random.Random, triples: int) -> int:
    """(triple, permutation) cases where the associator does not pick up the sign."""
    c = a.tensor
    rows = _random_rows(rng, 3 * triples, a.dim)
    t = (rows[0::3], rows[1::3], rows[2::3])
    base = _associator_rows(c, *t)
    bad = 0
    for perm in itertools.permutations(range(3)):
        got = _associator_rows(c, t[perm[0]], t[perm[1]], t[perm[2]])
        bad += int(np.count_nonzero(np.any(got != _perm_sign(perm) * base, axis=1)))
    return bad


def _associator_failures(a: alg.FiniteAlgebra, rng: random.Random, triples: int) -> int:
    """Random triples with a nonzero associator."""
    rows = _random_rows(rng, 3 * triples, a.dim)
    assoc = _associator_rows(a.tensor, rows[0::3], rows[1::3], rows[2::3])
    return int(np.count_nonzero(np.any(assoc, axis=1)))


def _inverse_failures(a: alg.FiniteAlgebra, rng: random.Random, count: int) -> int:
    """Random nonzero x without the two-sided inverse conj(x)/N(x).

    That is N(x) = 0, or x conj(x) or conj(x) x differing from N(x) 1.
    """
    x = _random_rows(rng, count, a.dim)
    xc = x * np.array(a.conjugate_coords((1,) * a.dim), dtype=np.int64)
    norms = alg.batch_norms(a, x)  # s N(x)
    scalar = norms[:, None] * np.array(a.unit_coords, dtype=object)
    bad = (
        (norms == 0)
        | np.any(alg.batch_multiply(a.tensor, x, xc) != scalar, axis=1)
        | np.any(alg.batch_multiply(a.tensor, xc, x) != scalar, axis=1)
    )
    return int(np.count_nonzero(bad & np.any(x, axis=1)))


def _suite_algebras(seed: int, pairs: int, jordan_pairs: int) -> VerificationReport:
    r = SuiteRunner("algebras")
    cd = alg.cayley_dickson_algebra
    small = max(pairs // 5, 20)  # triples, and elements for the inverse law

    for dim in (1, 2, 4, 8):
        r.check(
            f"composition-law-dim{dim}",
            0,
            lambda d=dim: _composition_failures(cd(d), random.Random(seed + d), pairs),
        )

    def witness_violates() -> bool:
        x, y = alg.sedenion_composition_witness()
        return (x * y).norm() != x.norm() * y.norm()

    r.check("sedenion-composition-witness", True, witness_violates)
    r.check(
        "alternativity-octonions",
        0,
        lambda: _alternativity_failures(alg.octonions(), random.Random(seed + 31), pairs),
    )
    r.check(
        "associator-antisymmetry-octonions",
        0,
        lambda: _antisymmetry_failures(alg.octonions(), random.Random(seed + 37), small),
    )
    for dim in (1, 2, 4):
        r.check(
            f"associator-vanishes-dim{dim}",
            0,
            lambda d=dim: _associator_failures(cd(d), random.Random(seed + 41 + d), small),
        )

    for dim in (2, 4, 8):
        r.check(
            f"inverse-law-dim{dim}",
            0,
            lambda d=dim: _inverse_failures(cd(d), random.Random(seed + 53 + d), small),
        )

    jordan_algebras = {
        "r": alg.real_algebra,
        "c": alg.complex_algebra,
        "h": alg.quaternions,
        "o": alg.octonions,
    }

    def jordan_violations(key: str) -> int:
        j = jrd.jordan_algebra(jordan_algebras[key]())
        rows = _random_rows(random.Random(seed + 101), 2 * jordan_pairs, j.dim)
        return jrd.jordan_identity_failures(j, rows[0::2], rows[1::2])

    for key in jordan_algebras:
        r.check(f"jordan-identity-{key}", 0, lambda k=key: jordan_violations(k))

    def jordan_witness_violates() -> bool:
        x, y = jrd.sedenion_jordan_witness()
        return not jrd.jordan_identity_defect(x, y).is_zero()

    r.check("jordan-identity-sedenion-witness", True, jordan_witness_violates)

    for key in jordan_algebras:
        r.check(
            f"jordan-trace-form-posdef-{key}",
            True,
            lambda k=key: jrd.trace_form_is_positive_definite(
                jrd.jordan_algebra(jordan_algebras[k]())
            ),
        )
    return r.report


def _perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


_DER_EXPECTED = {
    "complex": 0,
    "quaternions": 3,
    "octonions": 14,
    "j3r": 3,
    "j3c": 8,
    "j3h": 21,
    "j3o": 52,
}


def _suite_derivations(seed: int, budget: Budget) -> VerificationReport:
    r = SuiteRunner("derivations")
    for name, expected in _DER_EXPECTED.items():
        r.check(f"der-dim-{name}", expected, lambda n=name: _heavy_lie(n, budget).dim)

    for name in _DER_EXPECTED:
        r.check(
            f"killing-negative-definite-{name}",
            True,
            lambda n=name: is_negative_definite(lie.killing_form(_heavy_lie(n, budget))),
        )

    rank_cases = {"quaternions": 1, "octonions": 2, "j3o": 4}
    for name, expected in rank_cases.items():
        r.check(
            f"generic-rank-{name}",
            expected,
            lambda n=name: lie.generic_rank(
                _heavy_lie(n, budget), trials=5, rng=random.Random(seed)
            ),
        )

    pairs: dict[str, lie.CartanPair] = {}

    def split(name: str) -> lie.CartanPair:
        """The g2 (octonions) or f4 (j3o) Cartan pair, built once per run."""
        if name not in pairs:
            l = _heavy_lie(name, budget)
            a = l.algebra
            if name == "octonions":
                sigma = lie.doubled_half_reflection(a)
            else:
                sigma = lie.diagonal_sign_involution(a, (-1, 1, 1))
            pairs[name] = lie.cartan_split(l, lie.induced_involution(a, sigma, l))
        return pairs[name]

    def split_summary(name: str):
        pair = split(name)
        return (pair.dims, pair.pp_spans_k, pair.kp_spans_p)

    r.check("cartan-split-g2", ((6, 8), True, True), lambda: split_summary("octonions"))
    r.check("cartan-split-f4", ((36, 16), True, True), lambda: split_summary("j3o"))

    def flat_ranks():
        rng = random.Random(seed)
        return (lie.flat_rank(split("octonions"), rng=rng), lie.flat_rank(split("j3o"), rng=rng))

    r.check("flat-ranks-g2-f4-splits", (2, 1), flat_ranks)
    return r.report


def _suite_magic_square(budget: Budget) -> VerificationReport:
    r = SuiteRunner("magic-square")

    def live_dims():
        _heavy_lie("j3o", budget)  # the one expensive ingredient
        for name in ("quaternions", "octonions", "j3r", "j3c", "j3h"):
            _heavy_lie(name, budget)
        return tuple(tuple(row) for row in cat.magic_square_dims(3))

    r.check("level3-live-matches", cat.EXPECTED_LEVEL3_DIMS, live_dims)

    def symmetric(level: int) -> bool:
        dims = cat.magic_square_dims(level)
        return all(dims[i][j] == dims[j][i] for i in range(4) for j in range(4))

    r.check("level3-symmetric", True, lambda: symmetric(3))
    r.check(
        "level3-bottom-row",
        (52, 78, 133, 248),
        lambda: tuple(cat.magic_square_dims(3)[3]),
    )
    r.check(
        "level3-e8-split",
        True,
        lambda: cat.magic_square_dims(3)[3][3]
        == cat.group_dim("SO(16)") + 128,
    )

    r.check("level2-symmetric", True, lambda: symmetric(2))
    r.check("level2-corner-spin16", 120, lambda: cat.magic_square_dims(2)[3][3])
    return r.report


def _suite_atlas(inject_corruption: bool) -> VerificationReport:
    r = SuiteRunner("atlas")
    records = cat.corrupted_atlas() if inject_corruption else cat.exceptional_atlas()

    r.check("exceptional-count", 12, lambda: len(records))
    r.check(
        "exceptional-partition",
        {"G2": 1, "F4": 2, "E6": 4, "E7": 3, "E8": 2},
        cat.exceptional_partition,
    )
    for rec in records:
        r.check(
            f"exceptional-{rec.cartan_label}",
            True,
            lambda rr=rec: cat.verify_record(rr).passed,
        )
    for i, rec in enumerate(cat.projective_spaces()):
        r.check(
            f"projective-{i}-{rec.cartan_label}",
            True,
            lambda rr=rec: cat.verify_record(rr).passed,
        )
    for rec in cat.classical_families():
        r.check(
            f"family-{rec.cartan_label}",
            True,
            lambda rr=rec: cat.verify_record(rr).passed,
        )

    def spheres_ok() -> bool:
        return all(
            cat.group_dim(g) - cat.group_dim(k) == expected
            for _, g, k, expected in cat.sphere_identities()
        )

    r.check("sphere-identities", True, spheres_ok)
    r.check(
        "exceptional-dims",
        (8, 28, 16, 42, 40, 32, 26, 70, 64, 54, 128, 112),
        lambda: tuple(rec.dim for rec in cat.exceptional_atlas()),
    )
    return r.report


def _suite_chains() -> VerificationReport:
    r = SuiteRunner("chains")
    chain = cat.supergravity_chain()
    r.check(
        "chain-scalars",
        cat.EXPECTED_CHAIN_SCALARS,
        lambda: tuple(c.scalar_count for c in chain),
    )
    for c, expected in zip(chain, cat.EXPECTED_CHAIN_SCALARS):
        r.check(
            f"chain-d{c.spacetime_dim}",
            expected,
            lambda cc=c: cc.split_group.dim - cc.compact_subgroup.dim,
        )
    r.check(
        "chain-compact-dims",
        True,
        lambda: all(
            c.compact_subgroup.dim == cat.group_dim(c.compact_subgroup.name)
            for c in chain
        ),
    )
    return r.report


def _suite_exponents() -> VerificationReport:
    r = SuiteRunner("exponents")
    for g in cat.standard_simple_groups():
        r.check(
            f"exponents-{g.name}",
            True,
            lambda gg=g: cat.exponents_check(gg) and cat.palindrome_check(gg.exponents),
        )
    r.check(
        "spin10-exponents",
        (1, 3, 4, 5, 7),
        lambda: cat.special_orthogonal(10).exponents,
    )
    r.check(
        "oct3-candidate-not-palindromic",
        False,
        lambda: cat.palindrome_check((1, 3, 5, 7, 11)),
    )
    r.check(
        "unimodular-restriction-palindromic",
        True,
        lambda: cat.palindrome_check((1, 5, 7, 11)),
    )
    return r.report


def run_verify(
    scope: str,
    seed: int,
    trials: int | None,
    budget_seconds: float,
    inject_corruption: bool = False,
) -> list[VerificationReport]:
    pairs = trials if trials is not None else DEFAULT_PAIRS
    jordan_pairs = trials if trials is not None else DEFAULT_JORDAN_PAIRS
    budget = Budget(budget_seconds)
    suites: list[VerificationReport] = []
    if scope in ("all", "algebras"):
        suites.append(_suite_algebras(seed, pairs, jordan_pairs))
    if scope in ("all", "derivations"):
        suites.append(_suite_derivations(seed, budget))
    if scope in ("all", "magic-square"):
        suites.append(_suite_magic_square(budget))
    if scope in ("all", "atlas"):
        suites.append(_suite_atlas(inject_corruption))
    if scope in ("all", "chains"):
        suites.append(_suite_chains())
    if scope in ("all", "exponents"):
        suites.append(_suite_exponents())
    return suites


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _fmt_value(v) -> str:
    if isinstance(v, tuple):
        return "(" + ", ".join(_fmt_value(x) for x in v) + ")"
    return str(v)


def _render_reports_text(reports: list[VerificationReport], out) -> None:
    total = passed = failed = skipped = 0
    for rep in reports:
        out.write(f"== {rep.suite} ==\n")
        for c in rep.checks:
            total += 1
            if c.status == "pass":
                passed += 1
                tag = "PASS"
            elif c.status == "fail":
                failed += 1
                tag = "FAIL"
            else:
                skipped += 1
                tag = "SKIP"
            line = f"{tag} {c.check_id}"
            if c.status == "fail":
                line += f" expected={_fmt_value(c.expected)} computed={_fmt_value(c.computed)}"
            elif c.status == "pass":
                line += f" = {_fmt_value(c.computed)}"
            else:
                line += f" [{c.status}]"
            out.write(f"  {line} ({c.elapsed_s:.2f}s)\n")
    out.write(
        f"== summary ==\n{len(reports)} suites, {total} checks: "
        f"{passed} pass, {failed} fail, {skipped} skipped\n"
    )
    out.write(f"overall: {'PASS' if failed == 0 else 'FAIL'}\n")


def _jsonable(v):
    if isinstance(v, tuple):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (int, float, str, bool)) or v is None:
        return v
    return str(v)


def _render_reports_json(reports: list[VerificationReport], out) -> None:
    doc = {
        "pass": all(r.passed for r in reports),
        "suites": [
            {
                "suite": r.suite,
                "pass": r.passed,
                "checks": [
                    {
                        "id": c.check_id,
                        "status": c.status,
                        "expected": _jsonable(c.expected),
                        "computed": _jsonable(c.computed),
                        "elapsed_s": round(c.elapsed_s, 4),
                    }
                    for c in r.checks
                ],
            }
            for r in reports
        ],
    }
    out.write(_json_text(doc))


def _json_text(doc) -> str:
    """The one JSON form of every document the CLI prints."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _markdown_table(headers: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + "|".join(" --- " for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def render_table(name: str, fmt: str, level: int = 3) -> str:
    table = cat.table(name, level)
    if fmt == "json":
        return _json_text(table.document)
    if table.headers is None:
        raise ValueError("the full atlas document is JSON-only")
    return _markdown_table(table.headers, table.rows)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exatlas",
        description="Exact verification engine and atlas for the exceptional symmetric spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("scope", choices=VERIFY_SCOPES)
    v.add_argument("--format", choices=("text", "json"), default="text")
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--trials", type=int, default=None,
                   help="override the randomized-check sample counts")
    v.add_argument("--budget", type=float, default=DEFAULT_BUDGET,
                   help="wall-clock cap in seconds for the heavy derivation computations")
    v.add_argument("--inject-corruption", action="store_true",
                   help="test mode: corrupt one atlas record to exercise failure paths")

    t = sub.add_parser("table", help="emit an atlas table")
    t.add_argument("name", choices=TABLE_NAMES)
    t.add_argument("--format", choices=("markdown", "json"), default="markdown")
    t.add_argument("--level", type=int, choices=(2, 3), default=3,
                   help="magic square level (matrix size)")

    d = sub.add_parser("derive", help="compute a derivation-algebra dimension")
    d.add_argument("target", choices=lie.DERIVATION_TARGETS)
    d.add_argument("--emit-basis", action="store_true",
                   help="dump the canonical echelon basis matrices as JSON")
    return parser


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("ATLAS_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SystemExit(f"ATLAS_SEED must be an integer, got {env!r}")
    return DEFAULT_SEED


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "verify":
        if args.trials is not None and args.trials < 1:
            parser.error(f"argument --trials: must be >= 1, got {args.trials}")
        reports = run_verify(
            args.scope,
            seed=_resolve_seed(args.seed),
            trials=args.trials,
            budget_seconds=args.budget,
            inject_corruption=args.inject_corruption,
        )
        if args.format == "json":
            _render_reports_json(reports, out)
        else:
            _render_reports_text(reports, out)
        return 0 if all(r.passed for r in reports) else 1

    if args.command == "table":
        if args.name == "atlas" and args.format != "json":
            out.write("error: the full atlas document is JSON-only; pass --format json\n")
            return 2
        out.write(render_table(args.name, args.format, args.level))
        return 0

    if args.command == "derive":
        basis = lie.named_derivation_algebra(args.target)
        if args.emit_basis:
            doc = {
                "target": args.target,
                "dimension": basis.dim,
                "ambient_dim": basis.ambient_dim,
                "basis": [
                    [[str(v) for v in row] for row in m.to_rows()] for m in basis.basis
                ],
            }
            out.write(_json_text(doc))
        else:
            out.write(f"{basis.dim}\n")
        return 0

    raise AssertionError("unreachable")


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
