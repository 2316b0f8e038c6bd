import hashlib
import io
import itertools
import json
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest

from exatlas import algebras as alg
from exatlas import lie
from exatlas.cli import (
    _alternativity_failures,
    _antisymmetry_failures,
    _associator_failures,
    _composition_failures,
    _inverse_failures,
    _perm_sign,
    main,
    render_table,
)

DATA = pathlib.Path(__file__).parent / "data"

GOLDEN_TABLES = [
    ("magic_square_l3.md", ["table", "magic-square"]),
    ("magic_square_l2.md", ["table", "magic-square", "--level", "2"]),
    ("magic_square_l3.json", ["table", "magic-square", "--format", "json"]),
    ("exceptional_spaces.md", ["table", "exceptional-spaces"]),
    ("exceptional_spaces.json", ["table", "exceptional-spaces", "--format", "json"]),
    ("chains.md", ["table", "chains"]),
    ("chains.json", ["table", "chains", "--format", "json"]),
    ("families.md", ["table", "families"]),
    ("families.json", ["table", "families", "--format", "json"]),
    ("atlas.json", ["table", "atlas", "--format", "json"]),
]


def run_cli(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


class TestExitCodes:
    def test_verify_exponents_passes(self):
        code, out = run_cli(["verify", "exponents"])
        assert code == 0
        assert "overall: PASS" in out

    def test_verify_chains_passes(self):
        code, _ = run_cli(["verify", "chains"])
        assert code == 0

    def test_corrupted_atlas_fails(self):
        code, out = run_cli(["verify", "atlas", "--inject-corruption"])
        assert code == 1
        assert "FAIL" in out

    def test_unknown_scope_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "everything"])
        assert exc.value.code == 2

    def test_unknown_table_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["table", "nope"])
        assert exc.value.code == 2

    def test_atlas_table_requires_json(self):
        code, out = run_cli(["table", "atlas"])
        assert code == 2
        assert "JSON-only" in out


class TestGoldenTables:
    @pytest.mark.parametrize("fname,argv", GOLDEN_TABLES, ids=[g[0] for g in GOLDEN_TABLES])
    def test_byte_stable(self, fname, argv):
        code, out = run_cli(argv)
        assert code == 0
        assert out == (DATA / fname).read_text()

    def test_level2_json_is_pinned(self):
        # no golden file covers this output; its sha256 pins it byte for byte
        code, out = run_cli(["table", "magic-square", "--level", "2", "--format", "json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "1a52ef1d8c5418a0c67a62bcd10765b5172aa933b05776203b263eb8ac89a593"
        )

    def test_rendering_deterministic(self):
        first = render_table("exceptional-spaces", "markdown")
        second = render_table("exceptional-spaces", "markdown")
        assert first == second


class TestJsonOutputs:
    def test_table_round_trip(self):
        _, out = run_cli(["table", "chains", "--format", "json"])
        parsed = json.loads(out)
        assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == out

    def test_magic_square_json_matrix(self):
        _, out = run_cli(["table", "magic-square", "--format", "json"])
        doc = json.loads(out)
        assert doc["dims"][3] == [52, 78, 133, 248]
        assert doc["dims"] == [list(r) for r in zip(*doc["dims"])]  # symmetric

    def test_verify_json_structure(self):
        code, out = run_cli(["verify", "exponents", "--format", "json"])
        doc = json.loads(out)
        assert code == 0
        assert doc["pass"] is True
        assert doc["suites"][0]["suite"] == "exponents"
        statuses = {c["status"] for c in doc["suites"][0]["checks"]}
        assert statuses == {"pass"}

    def test_verify_all_matches_pinned_checks(self):
        # the benchmark's correctness gate: same check ids and values, in order
        pinned = json.loads((DATA.parents[1] / "perfbench" / "verify_all_checks.json").read_text())
        code, out = run_cli(["verify", "all", "--format", "json", "--seed", "7"])
        doc = json.loads(out)
        assert code == 0
        got = [[c["id"], c["computed"]] for s in doc["suites"] for c in s["checks"]]
        assert got == pinned["checks"]

    def test_verify_json_failure_reported(self):
        code, out = run_cli(["verify", "atlas", "--inject-corruption", "--format", "json"])
        doc = json.loads(out)
        assert code == 1
        assert doc["pass"] is False


class TestDerive:
    def test_octonions(self):
        code, out = run_cli(["derive", "octonions"])
        assert (code, out) == (0, "14\n")

    def test_complex(self):
        assert run_cli(["derive", "complex"]) == (0, "0\n")

    def test_j3o(self):
        assert run_cli(["derive", "j3o"]) == (0, "52\n")

    def test_emit_basis(self):
        code, out = run_cli(["derive", "quaternions", "--emit-basis"])
        doc = json.loads(out)
        assert code == 0
        assert doc["dimension"] == 3
        assert len(doc["basis"]) == 3
        assert len(doc["basis"][0]) == 4
        # entries are exact rational strings
        flat = [v for m in doc["basis"] for row in m for v in row]
        assert all(isinstance(v, str) for v in flat)

    #: sha256 of the `derive <target> --emit-basis` output: the canonical
    #: echelon bases are pinned byte for byte, whatever computes them
    EMITTED_BASIS_SHA256 = {
        "complex": "92f04d07200a975aae55aecbf3a877b3296841e0d78fbade8780d0b8107e0bc1",
        "quaternions": "8a0ba81c7b284f64fc665063affb35a199a24b9eca2ac5f7ec64d83f8cc7def0",
        "octonions": "f8b11b5c67fd61b17ab1cbbfcaa4a6107a8f10bea300852b5d05eb7b061ce56f",
        "j3r": "434ff86cdd0da2f9d1e1d346405b9ea2ace21a2bbf8d82babed396987ffb6e5a",
        "j3c": "8bf504ed0c23a1da0f69c2353ef0e045c8c693469b2c2786d29e2ab616c5051e",
        "j3h": "81af3c50f93ef2fb1036d7a1b30a890d3f95cc18e1e1a0477882f4eac418ef3d",
        "j3o": "82576d84c4541e9217ac23ce413cd48c8ed3f942c885a5eb74fcd776fe6a6a88",
    }

    @pytest.mark.parametrize("target", EMITTED_BASIS_SHA256)
    def test_emitted_basis_is_pinned(self, target):
        code, out = run_cli(["derive", target, "--emit-basis"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.EMITTED_BASIS_SHA256[target]

    def test_unknown_target(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["derive", "j3s"])
        assert exc.value.code == 2


class TestBudget:
    def test_zero_budget_skips_heavy_checks(self):
        # fresh subprocess so no derivation cache is warm
        proc = subprocess.run(
            [sys.executable, "-m", "exatlas.cli", "verify", "derivations",
             "--budget", "0", "--format", "json"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        statuses = {c["status"] for s in doc["suites"] for c in s["checks"]}
        assert statuses == {"skipped (budget)"}

    def test_in_process_skip_marker(self):
        # run with an already-exhausted budget but warm cache: checks pass
        for name in lie.DERIVATION_TARGETS:
            lie.named_derivation_algebra(name)
        code, out = run_cli(["verify", "derivations", "--budget", "0", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        statuses = {c["status"] for s in doc["suites"] for c in s["checks"]}
        assert statuses == {"pass"}

    @pytest.mark.parametrize("budget", ["nan", "-1", "-inf"])
    def test_nan_or_negative_budget_is_usage_error(self, budget):
        # no deadline compares past NaN, so it used to remove the cap
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "chains", "--budget", budget])
        assert exc.value.code == 2

    def test_infinite_budget_accepted(self):
        assert run_cli(["verify", "chains", "--budget", "inf"])[0] == 0


class TestSeedHandling:
    def test_seed_flag(self):
        code, _ = run_cli(["verify", "chains", "--seed", "7"])
        assert code == 0

    def test_env_seed(self, monkeypatch):
        monkeypatch.setenv("ATLAS_SEED", "99")
        code, _ = run_cli(["verify", "chains"])
        assert code == 0

    def test_bad_env_seed(self, monkeypatch):
        monkeypatch.setenv("ATLAS_SEED", "not-a-number")
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "chains"])
        assert exc.value.code == 2  # a usage error, not a failed verification

    def test_trials_flag(self):
        code, _ = run_cli(["verify", "exponents", "--trials", "10"])
        assert code == 0

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_below_one_is_usage_error(self, trials):
        # zero samples would pass every randomized check without testing any
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "algebras", "--trials", trials])
        assert exc.value.code == 2


class TestConsoleScript:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "exatlas.cli", "verify", "exponents"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "overall: PASS" in proc.stdout

    def test_entry_point_if_installed(self):
        import shutil

        exe = shutil.which("exatlas")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(
            [exe, "verify", "chains"], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0


class TestBatchedSweeps:
    """The batched sweeps count what the per-element loops count, on the
    same random draws; the sedenions make every count nonzero."""

    @staticmethod
    def elements(a, seed, count):
        rng = random.Random(seed)
        return [alg.random_element(a, rng) for _ in range(count)]

    @pytest.mark.parametrize("dim", [8, 16])
    def test_composition(self, dim):
        a = alg.cayley_dickson_algebra(dim)
        e = self.elements(a, 5, 2 * 60)
        want = sum((x * y).norm() != x.norm() * y.norm() for x, y in zip(e[0::2], e[1::2]))
        assert _composition_failures(a, random.Random(5), 60) == want
        assert (want > 0) == (dim == 16)

    def test_composition_with_scaled_structure_constants(self):
        # C in the basis (1, i/2): (i/2)^2 = -1/4, so the tensor carries s = 4
        half_i = alg.FiniteAlgebra(
            "C/2", [[[4, 0], [0, 4]], [[0, 4], [-1, 0]]], scale=4, conjugation_signs=(1, -1),
        )
        e = self.elements(half_i, 8, 2 * 40)
        assert all((x * y).norm() == x.norm() * y.norm() for x, y in zip(e[0::2], e[1::2]))
        assert half_i.scale == 4
        assert _composition_failures(half_i, random.Random(8), 40) == 0

    @pytest.mark.parametrize("dim", [8, 16])
    def test_alternativity(self, dim):
        a = alg.cayley_dickson_algebra(dim)
        e = self.elements(a, 6, 2 * 60)
        want = sum(
            not alg.associator(x, x, y).is_zero() or not alg.associator(x, y, y).is_zero()
            for x, y in zip(e[0::2], e[1::2])
        )
        assert _alternativity_failures(a, random.Random(6), 60) == want
        assert (want > 0) == (dim == 16)

    @pytest.mark.parametrize("dim", [8, 16])
    def test_antisymmetry_and_associativity(self, dim):
        a = alg.cayley_dickson_algebra(dim)
        e = self.elements(a, 7, 3 * 20)
        want_sign = want_assoc = 0
        for t in zip(e[0::3], e[1::3], e[2::3]):
            base = alg.associator(*t)
            want_assoc += not base.is_zero()
            for perm in itertools.permutations(range(3)):
                got = alg.associator(t[perm[0]], t[perm[1]], t[perm[2]])
                want_sign += got != _perm_sign(perm) * base
        assert _antisymmetry_failures(a, random.Random(7), 20) == want_sign
        assert _associator_failures(a, random.Random(7), 20) == want_assoc
        assert want_assoc == 20 and (want_sign > 0) == (dim == 16)

    @staticmethod
    def inverse_reference(a, seed, count):
        """The per-element loop: nonzero x where x.inverse() fails or is not two-sided."""
        unit = a.unit()
        bad = 0
        for x in TestBatchedSweeps.elements(a, seed, count):
            if x.is_zero():
                continue
            try:
                xi = x.inverse()
            except ZeroDivisionError:  # a nonzero element of norm 0
                bad += 1
                continue
            bad += x * xi != unit or xi * x != unit
        return bad

    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_inverse_law(self, dim):
        a = alg.cayley_dickson_algebra(dim)
        assert _inverse_failures(a, random.Random(9), 60) == self.inverse_reference(a, 9, 60) == 0

    def test_inverse_law_counts_null_elements(self):
        # split-complex numbers: a + aj and a - aj are nonzero with norm 0
        split = alg.FiniteAlgebra(
            "C'", [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], conjugation_signs=(1, -1),
        )
        want = self.inverse_reference(split, 3, 200)
        assert want > 0
        assert _inverse_failures(split, random.Random(3), 200) == want
        assert _inverse_failures(split, random.Random(3), 200) == sum(
            abs(x.coeffs[0]) == abs(x.coeffs[1]) and not x.is_zero()
            for x in self.elements(split, 3, 200)
        )


class TestRandomRows:
    """The bulk draws are exactly the values, and leave the generator in
    exactly the state, of one ``randint(-9, 9)`` call per coordinate."""

    class CountingRandom(random.Random):
        # overriding getrandbits keeps randint on its getrandbits path
        def getrandbits(self, k):
            self.calls = getattr(self, "calls", 0) + 1
            return super().getrandbits(k)

    @pytest.mark.parametrize("seed", [0, 7, 1729, 2**40 + 3])
    @pytest.mark.parametrize("count, dim", [(0, 8), (1, 1), (1, 27), (3, 8), (5, 0), (1000, 27)])
    def test_matches_randint_calls(self, seed, count, dim):
        rng, ref = random.Random(seed), random.Random(seed)
        got = alg._random_rows(rng, count, dim)
        assert got.shape == (count, dim) and got.dtype == np.int64
        assert got.ravel().tolist() == [ref.randint(-9, 9) for _ in range(count * dim)]
        assert rng.getstate() == ref.getstate()
        assert rng.random() == ref.random()

    def test_rejected_words_are_drawn_again(self):
        # 13 of every 32 words are rejected, so 1,000 values need redraws
        rng, ref = self.CountingRandom(11), random.Random(11)
        got = alg._random_rows(rng, 100, 10)
        assert rng.calls > 1
        assert got.ravel().tolist() == [ref.randint(-9, 9) for _ in range(1000)]
        assert rng.getstate() == ref.getstate()
