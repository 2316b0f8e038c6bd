import dataclasses
import json

import pytest

from exatlas import catalog as cat
from exatlas.cli import render_table


class TestGroupDims:
    @pytest.mark.parametrize(
        "series,n,expected",
        [
            ("SO", 4, 6),
            ("SO", 10, 45),
            ("Spin", 9, 36),
            ("SU", 6, 35),
            ("U", 1, 1),
            ("Sq", 3, 21),
            ("Sq", 1, 3),
            ("O", 8, 28),
            ("q", 1, 6),
        ],
    )
    def test_classical_series(self, series, n, expected):
        assert cat.classical_group_dim(series, n) == expected

    def test_unknown_series(self):
        with pytest.raises(ValueError):
            cat.classical_group_dim("Sp", 3)

    def test_invalid_parameter(self):
        with pytest.raises(ValueError):
            cat.classical_group_dim("SO", 0)

    def test_f4_quotient_arithmetic(self):
        # isotropy Sq(3) x Sq(1) leaves 52 - 24 = 28 directions
        assert 52 - cat.classical_group_dim("Sq", 3) - cat.classical_group_dim("Sq", 1) == 28
        assert 52 - cat.classical_group_dim("Spin", 9) == 16
        assert 14 - cat.classical_group_dim("SO", 4) == 8

    def test_label_parser(self):
        assert cat.group_dim("E7") == 133
        assert cat.group_dim("SO(16)") == 120
        assert cat.group_dim("U(2)^2") == 8
        assert cat.group_dim("Sq(n+1)", {"n": 1}) == 10
        with pytest.raises(ValueError):
            cat.group_dim("nonsense")
        with pytest.raises(ValueError):
            cat.group_dim("SO(import os)")


class TestExponents:
    def test_spin10(self):
        g = cat.special_orthogonal(10)
        assert g.exponents == (1, 3, 4, 5, 7)
        assert cat.exponents_check(g)
        assert cat.palindrome_check(g.exponents)

    def test_f4_sum(self):
        f4 = cat.exceptional_group("F4")
        assert f4.exponents == (1, 5, 7, 11)
        assert sum(2 * e + 1 for e in f4.exponents) == 52
        assert cat.exponents_check(f4)

    def test_su2_single_sphere(self):
        su2 = cat.special_unitary(2)
        assert su2.exponents == (1,)
        assert su2.dim == 3
        assert cat.exponents_check(su2)
        assert cat.palindrome_check(su2.exponents)  # trivially

    def test_palindromy_controls(self):
        assert cat.palindrome_check((1, 3, 4, 5, 7))  # diffs (2,1,1,2)
        assert not cat.palindrome_check((1, 3, 5, 7, 11))  # diffs (2,2,2,4)
        assert cat.palindrome_check((1, 5, 7, 11))  # diffs (4,2,4)

    def test_all_standard_groups(self):
        groups = cat.standard_simple_groups()
        assert len(groups) >= 25
        for g in groups:
            assert g.is_simple
            assert cat.exponents_check(g), g.name
            assert cat.palindrome_check(g.exponents), g.name

    def test_missing_exponents_rejected(self):
        with pytest.raises(ValueError):
            cat.exponents_check(cat.GroupRecord("U(3)", "U", 9, rank=3, is_simple=False))


class TestFamilies:
    @pytest.mark.parametrize(
        "label,params,expected",
        [
            ("AI", {"n": 3}, 5),
            ("CI", {"n": 2}, 6),
            ("AII", {"n": 2}, 5),
            ("DIII", {"n": 4}, 12),
            ("BDI", {"p": 1, "q": 7}, 7),
            ("AIII", {"p": 2, "q": 3}, 12),
            ("CII", {"p": 1, "q": 1}, 4),
        ],
    )
    def test_dimension_formulas(self, label, params, expected):
        assert cat.family_space_dim(label, **params) == expected

    def test_sphere_family(self):
        # BDI with p = 1 realizes S^n = SO(n+1)/SO(n)
        for n in range(1, 8):
            assert cat.family_space_dim("BDI", p=1, q=n) == n

    def test_quaternion_projective_line(self):
        # HP^1 = S^4 two ways
        assert cat.family_space_dim("CII", p=1, q=1) == 4
        assert cat.classical_group_dim("Sq", 2) - 2 * cat.classical_group_dim("Sq", 1) == 4

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            cat.family_space_dim("XX", n=2)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            cat.family_space_dim("AI", n=0)
        with pytest.raises(ValueError):
            cat.family_space_dim("BDI", p=1)

    @pytest.mark.parametrize("expr", ["n**2", "n(2)", "abs(n)", "n.real", "1/(n-3)", "n/2"])
    def test_formula_outside_the_grammar_rejected(self, expr):
        # only int literals, the given names, unary minus and + - * / are
        # formulas; a power or a call is not, whatever it would evaluate to
        with pytest.raises(ValueError):
            cat._eval_int(expr, {"n": 3})

    def test_formula_with_exact_division(self):
        assert cat._eval_int("-(n-1)*(n+2)/2", {"n": 3}) == -5

    def test_seven_families_verify(self):
        families = cat.classical_families()
        assert len(families) == 7
        assert [f.cartan_label for f in families] == [
            "AI", "CI", "AII", "DIII", "BDI", "AIII", "CII",
        ]
        for f in families:
            assert cat.verify_record(f).passed, f.cartan_label

    def test_mismatch_names_the_first_failing_sample(self):
        # p*q + (p-1) agrees with p*q at every p = 1 sample, and its value
        # at the first mismatch, (2, 1), is also the value at (1, 2)
        bdi = next(f for f in cat.classical_families() if f.cartan_label == "BDI")
        check = cat.verify_record(dataclasses.replace(bdi, dim_formula="p*q + (p-1)"))
        assert not check.passed
        assert check.detail == "mismatch at {'p': 2, 'q': 1}"


class TestExceptionalAtlas:
    def test_twelve_records(self):
        assert len(cat.exceptional_atlas()) == 12

    def test_partition(self):
        assert cat.exceptional_partition() == {
            "G2": 1, "F4": 2, "E6": 4, "E7": 3, "E8": 2,
        }

    def test_dims_in_order(self):
        assert [r.dim for r in cat.exceptional_atlas()] == [
            8, 28, 16, 42, 40, 32, 26, 70, 64, 54, 128, 112,
        ]

    def test_e_series_quotient_dims(self):
        by_label = {r.cartan_label: r for r in cat.exceptional_atlas()}
        assert by_label["EIV"].dim == 26
        assert by_label["EII"].dim == 40
        assert by_label["EIII"].dim == 32
        assert by_label["EVII"].dim == 54
        assert by_label["EVI"].dim == 64
        assert by_label["EIX"].dim == 112
        assert by_label["EVIII"].dim == 128
        assert by_label["EI"].dim == 42
        assert by_label["EV"].dim == 70

    def test_every_record_verifies(self):
        for r in cat.exceptional_atlas():
            check = cat.verify_record(r)
            assert check.passed, (r.cartan_label, check.detail)

    def test_corrupted_record_fails_with_delta(self):
        records = cat.corrupted_atlas()
        check = cat.verify_record(records[0])
        assert not check.passed
        assert "delta" in check.detail
        # the remaining records are untouched
        assert all(cat.verify_record(r).passed for r in records[1:])

    def test_rank_one_records(self):
        by_label = {r.cartan_label: r for r in cat.exceptional_atlas()}
        assert by_label["FII"].rank == 1
        assert by_label["G"].rank == 2
        assert by_label["EVIII"].rank == 8


class TestProjectiveSpaces:
    def test_all_rank_one(self):
        for r in cat.projective_spaces():
            assert r.rank == 1
            assert cat.verify_record(r).passed

    def test_octonion_line_and_plane(self):
        records = cat.projective_spaces()
        op1 = records[3]
        assert (op1.numerator, op1.denominator) == ("Spin(9)", ("Spin(8)",))
        assert op1.dim == 36 - 28 == 8
        op2 = records[4]
        assert op2.dim == 52 - 36 == 16

    def test_complex_projective_line(self):
        cp = cat.projective_spaces()[1]
        env = {"n": 1}
        computed = cat.group_dim(cp.numerator, env) - cat.group_dim(cp.denominator[0], env) - 1
        assert computed == 2  # CP^1 = S^2


class TestMagicSquare:
    def test_level3_matches_expected(self):
        dims = cat.magic_square_dims(3)
        assert tuple(tuple(r) for r in dims) == cat.EXPECTED_LEVEL3_DIMS

    def test_level3_symmetric(self):
        dims = cat.magic_square_dims(3)
        for i in range(4):
            for j in range(4):
                assert dims[i][j] == dims[j][i]

    def test_tits_formula_values(self):
        assert cat.tits_dimension("O", "O") == 14 + 52 + 7 * 26 == 248
        assert cat.tits_dimension("O", "C") == 14 + 8 + 7 * 8 == 78
        assert cat.tits_dimension("C", "O") == 0 + 52 + 1 * 26 == 78
        assert cat.tits_dimension("R", "R") == 0 + 3 + 0 == 3

    def test_level3_labels(self):
        cells = cat.magic_square(3)
        assert cells[3][3].group_label == "e8"
        assert cells[0][0].group_label == "so(3)"
        assert cells[1][1].group_label == "su(3)+su(3)"
        assert cells[1][1].lie_dim == 16

    def test_level2_static_table(self):
        dims = cat.magic_square_dims(2)
        assert dims[3][3] == 120  # Spin(16)
        assert dims[0][3] == 36  # Spin(9)
        for i in range(4):
            for j in range(4):
                assert dims[i][j] == dims[j][i]

    def test_level2_labels_resolve(self):
        for row in cat.magic_square(2):
            for cell in row:
                assert cat.group_dim(cell.group_label) == cell.lie_dim

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            cat.magic_square(4)


class TestSupergravityChain:
    def test_scalar_counts(self):
        chain = cat.supergravity_chain()
        assert tuple(c.scalar_count for c in chain) == (128, 70, 42, 25, 14)
        assert [c.spacetime_dim for c in chain] == [3, 4, 5, 6, 7]

    def test_three_dimensional_rung(self):
        c = cat.supergravity_chain()[0]
        assert c.split_group.dim == 248
        assert c.compact_subgroup.dim == 120
        assert c.scalar_count == 128

    def test_five_dimensional_rung(self):
        c = cat.supergravity_chain()[2]
        assert c.scalar_count == 78 - 36 == 42
        assert c.compact_subgroup.name == "Sq(4)"

    def test_seven_dimensional_rung(self):
        c = cat.supergravity_chain()[4]
        assert c.split_group.dim == 24
        assert c.scalar_count == 24 - 10 == 14

    def test_four_dimensional_scalar_split(self):
        # the 70 scalars arrive as two halves of 35
        c = cat.supergravity_chain()[1]
        assert c.scalar_count == 35 + 35

    def test_counts_recomputed_from_dims(self):
        for c in cat.supergravity_chain():
            assert c.scalar_count == c.split_group.dim - c.compact_subgroup.dim
            assert c.compact_subgroup.dim == cat.group_dim(c.compact_subgroup.name)


class TestSphereIdentities:
    def test_all_identities(self):
        for name, g, k, expected in cat.sphere_identities():
            assert cat.group_dim(g) - cat.group_dim(k) == expected

    def test_spin7_over_g2(self):
        assert cat.group_dim("Spin(7)") - cat.group_dim("G2") == 7


class TestAtlasDocument:
    def test_top_level_keys(self):
        doc = cat.atlas_document()
        assert set(doc) == {
            "groups", "families", "exceptional_spaces", "magic_squares", "chains",
        }

    def test_json_round_trip(self):
        assert json.loads(render_table("atlas", "json")) == cat.atlas_document()

    def test_json_stable(self):
        assert render_table("atlas", "json") == render_table("atlas", "json")

    def test_group_entries_consistent(self):
        for g in cat.atlas_document()["groups"]:
            if g["exponents"]:
                assert g["dim"] == sum(2 * e + 1 for e in g["exponents"])
