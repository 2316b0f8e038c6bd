"""Acceptance suite: one test per exit criterion, with stated runtime caps.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criteria that time a computation construct fresh inputs so
no process-wide cache can hide the cost.
"""

import io
import pathlib
import random
import time

from exatlas.algebras import (
    DEFAULT_SEED,
    cayley_dickson_algebra,
    complex_algebra,
    octonions,
    quaternions,
    random_element,
    real_algebra,
    sedenion_composition_witness,
)
from exatlas.cli import main
from exatlas.jordan import (
    build_jordan_algebra,
    jordan_algebra,
    jordan_identity_defect,
)
from exatlas.lie import (
    cartan_split,
    derivation_algebra,
    diagonal_sign_involution,
    doubled_half_reflection,
    generic_rank,
    induced_involution,
    killing_form,
    named_derivation_algebra,
)
from exatlas.linalg import is_negative_definite, principal_minor_signs
from exatlas import catalog as cat

DATA = pathlib.Path(__file__).parent / "data"


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_01_composition_law():
    start = time.perf_counter()
    pairs = 1000
    for dim in (1, 2, 4, 8):
        algebra = cayley_dickson_algebra(dim)
        rng = random.Random(DEFAULT_SEED + dim)
        for _ in range(pairs):
            x = random_element(algebra, rng)
            y = random_element(algebra, rng)
            assert (x * y).norm() == x.norm() * y.norm()
    wx, wy = sedenion_composition_witness()
    assert (wx * wy).norm() != wx.norm() * wy.norm()
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"composition sweep took {elapsed:.2f}s"
    _report(
        "01 composition law",
        f"{pairs} pairs per dim 1/2/4/8 plus sedenion witness in {elapsed:.2f}s",
    )


def test_02_derivation_dimensions():
    assert derivation_algebra(complex_algebra()).dim == 0

    start = time.perf_counter()
    der_o = derivation_algebra(octonions())
    octonion_time = time.perf_counter() - start
    assert der_o.dim == 14
    assert octonion_time < 10.0, f"octonion derivations took {octonion_time:.2f}s"

    assert derivation_algebra(quaternions()).dim == 3

    # fresh Jordan algebra object: the timing below includes the full
    # modular-probe-plus-certification path, nothing cached
    j3o_fresh = build_jordan_algebra(octonions())
    start = time.perf_counter()
    der_j3o = derivation_algebra(j3o_fresh)
    j3o_time = time.perf_counter() - start
    assert der_j3o.dim == 52
    assert j3o_time < 300.0, f"J3(O) derivations took {j3o_time:.2f}s"
    _report(
        "02 derivation dimensions",
        f"0/3/14/52 certified; octonions {octonion_time:.2f}s, J3(O) {j3o_time:.2f}s",
    )


def test_03_generic_ranks():
    r_o = generic_rank(
        named_derivation_algebra("octonions"), trials=5, rng=random.Random(DEFAULT_SEED)
    )
    r_f = generic_rank(
        named_derivation_algebra("j3o"), trials=5, rng=random.Random(DEFAULT_SEED)
    )
    assert (r_o, r_f) == (2, 4)
    _report("03 generic ranks", "rank 2 for dim 14, rank 4 for dim 52, 5 seeded trials")


def test_04_cartan_splits():
    der_o = named_derivation_algebra("octonions")
    sigma = doubled_half_reflection(octonions())
    pair_g = cartan_split(der_o, induced_involution(octonions(), sigma, der_o))
    assert pair_g.dims == (6, 8)
    assert pair_g.pp_spans_k and pair_g.kp_spans_p

    der_f = named_derivation_algebra("j3o")
    j3o = jordan_algebra(octonions())
    tau = diagonal_sign_involution(j3o, (-1, 1, 1))
    pair_f = cartan_split(der_f, induced_involution(j3o, tau, der_f))
    assert pair_f.dims == (36, 16)
    assert pair_f.pp_spans_k and pair_f.kp_spans_p
    # the three bracket inclusions are certified inside cartan_split;
    # reaching this point means they held exactly
    _report("04 cartan splits", "(6, 8) and (36, 16) with [p,p] spanning k")


def test_05_magic_square_live():
    dims = cat.magic_square_dims(3)
    assert tuple(tuple(r) for r in dims) == cat.EXPECTED_LEVEL3_DIMS
    for i in range(4):
        for j in range(4):
            assert dims[i][j] == dims[j][i]
    assert dims[3] == [52, 78, 133, 248]
    assert dims[3][3] == cat.group_dim("SO(16)") + 128
    _report("05 magic square", "live Tits table matches, symmetric, 248 = 120 + 128")


def test_06_exceptional_atlas():
    records = cat.exceptional_atlas()
    assert len(records) == 12
    assert cat.exceptional_partition() == {"G2": 1, "F4": 2, "E6": 4, "E7": 3, "E8": 2}
    dims = [r.dim for r in records]
    assert sorted(dims) == sorted([8, 28, 16, 26, 40, 32, 42, 54, 64, 70, 112, 128])
    by_label = {r.cartan_label: r.dim for r in records}
    assert by_label["EI"] == 42 and by_label["EV"] == 70
    for r in records:
        assert cat.verify_record(r).passed, r.cartan_label
    _report("06 exceptional atlas", "12 records, 1+2+4+3+2 partition, all verified")


def test_07_exponents():
    for g in cat.standard_simple_groups():
        assert cat.exponents_check(g), g.name
        assert cat.palindrome_check(g.exponents), g.name
    assert cat.special_orthogonal(10).exponents == (1, 3, 4, 5, 7)
    assert not cat.palindrome_check((1, 3, 5, 7, 11))
    assert cat.palindrome_check((1, 5, 7, 11))
    _report(
        "07 exponents",
        f"{len(cat.standard_simple_groups())} groups pass; palindromy controls agree",
    )


def test_08_supergravity_chain():
    chain = cat.supergravity_chain()
    scalars = tuple(c.scalar_count for c in chain)
    assert scalars == (128, 70, 42, 25, 14)
    for c in chain:
        assert c.scalar_count == c.split_group.dim - c.compact_subgroup.dim
    _report("08 supergravity chain", "scalars 128/70/42/25/14 recomputed from dims")


def test_09_killing_forms():
    for name in ("quaternions", "octonions", "j3o"):
        form = killing_form(named_derivation_algebra(name))
        signs = principal_minor_signs(form)
        assert all(s == (-1) ** (k + 1) for k, s in enumerate(signs)), name
        assert is_negative_definite(form)
    _report("09 killing forms", "negative definite via exact principal-minor signs")


def test_10_jordan_identity():
    start = time.perf_counter()
    pairs = 500
    for builder in (real_algebra, complex_algebra, quaternions, octonions):
        j = jordan_algebra(builder())
        rng = random.Random(DEFAULT_SEED)
        for _ in range(pairs):
            x = j.element(tuple(rng.randint(-9, 9) for _ in range(j.dim)))
            y = j.element(tuple(rng.randint(-9, 9) for _ in range(j.dim)))
            assert jordan_identity_defect(x, y).is_zero()
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"Jordan sweep took {elapsed:.2f}s"
    _report("10 jordan identity", f"{pairs} pairs per coefficient algebra in {elapsed:.2f}s")


def test_11_cli_contract():
    buf = io.StringIO()
    code = main(["verify", "all"], out=buf)
    assert code == 0, buf.getvalue()[-2000:]

    buf = io.StringIO()
    code = main(["verify", "atlas", "--inject-corruption"], out=buf)
    assert code == 1

    goldens = [
        ("magic_square_l3.md", ["table", "magic-square"]),
        ("exceptional_spaces.md", ["table", "exceptional-spaces"]),
        ("chains.md", ["table", "chains"]),
        ("families.md", ["table", "families"]),
    ]
    for fname, argv in goldens:
        buf = io.StringIO()
        assert main(argv, out=buf) == 0
        assert buf.getvalue() == (DATA / fname).read_text(), fname
    _report("11 cli contract", "verify all = 0, corrupted atlas = 1, tables byte-stable")
