import json
from fractions import Fraction as F

import numpy as np
import pytest

from freeconv import cli, grammar
from freeconv import closedform as C
from freeconv import measures as M
from freeconv import resolvent as R
from freeconv.errors import ParseError


class TestGrammar:
    def test_basic_atoms(self):
        assert grammar.parse_measure("mp(1)") == M.mp(1)
        assert grammar.parse_measure("as") == M.arcsine()
        assert grammar.parse_measure("rat(2,2;1,2)") == M.rational_factor((2, 2), (1, 2))

    def test_rational_forms(self):
        assert grammar.parse_measure("mp(0.5)") == M.mp(F(1, 2))
        assert grammar.parse_measure("mp(1/4)") == M.mp(F(1, 4))

    def test_powers(self):
        assert grammar.parse_measure("mp(1)^3") == M.free_power(M.mp(1), 3)
        assert grammar.parse_measure("mp(1)^(1/3)") == M.free_power(M.mp(1), F(1, 3))

    def test_products_and_precedence(self):
        spec = grammar.parse_measure("as*mp(1)^2")
        want = M.boxtimes(M.arcsine(), M.free_power(M.mp(1), 2))
        assert spec == want

    def test_whitespace(self):
        assert grammar.parse_measure(" as * mp( 1 ) ^ 2 ") == \
            M.boxtimes(M.arcsine(), M.free_power(M.mp(1), 2))

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            grammar.parse_measure("mp(1)^^2")
        assert err.value.pos == 6
        assert "^" in err.value.diagnostic()

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            grammar.parse_measure("mp(1) junk")

    def test_target_resolution(self):
        fam, spec = grammar.parse_target("fc2")
        assert fam is not None and fam.name == "fc2"
        assert spec == M.free_power(M.mp(1), 2)
        fam, spec = grammar.parse_target("mp(1)^2")
        assert fam is None
        assert spec == M.free_power(M.mp(1), 2)


class TestCli:
    def run(self, argv, capsys):
        code = cli.main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_density_csv(self, capsys):
        code, out, _ = self.run(
            ["density", "--measure", "mp(1)", "--points", "8"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,rho"
        assert len(lines) == 9

    def test_density_json_round_trip(self, capsys, tmp_path):
        path = tmp_path / "curve.json"
        code = cli.main(["density", "--measure", "mp(1)^2", "--points", "16",
                         "--format", "json", "--out", str(path)])
        assert code == 0
        blob = json.loads(path.read_text())
        redumped = json.dumps(json.loads(json.dumps(blob)))
        assert redumped == json.dumps(blob)
        assert abs(blob["support"][1] - 27 / 4) < 1e-8

    def test_alias_and_expression_agree(self, capsys):
        code, out_alias, _ = self.run(
            ["density", "--measure", "fc2", "--points", "32"], capsys)
        code2, out_expr, _ = self.run(
            ["density", "--measure", "mp(1)^2", "--points", "32"], capsys)
        assert code == 0 and code2 == 0

        def parse(txt):
            rows = [line.split(",") for line in txt.strip().split("\n")[1:]]
            return np.array([[float(a), float(b)] for a, b in rows])

        a, b = parse(out_alias), parse(out_expr)
        assert np.abs(a[:, 0] - b[:, 0]).max() < 1e-8   # same grid from same support
        assert np.abs(a[:, 1] - b[:, 1]).max() < 1e-6   # closed form vs resolvent

    def test_alias_density_is_the_sampled_family(self, capsys):
        code, out, _ = self.run(
            ["density", "--measure", "fc3", "--points", "64", "--format", "json"], capsys)
        assert code == 0
        assert out == R.curve_from_callable(C.family("fc3"), 64).to_json() + "\n"

    def test_support_json(self, capsys):
        code, out, _ = self.run(
            ["support", "--measure", "bures2", "--format", "json"], capsys)
        assert code == 0
        blob = json.loads(out)
        assert abs(blob["support"][1] - 8.0) < 1e-10

    def test_moments_exact_fractions(self, capsys):
        code, out, _ = self.run(
            ["moments", "--measure", "as*mp(1)", "-K", "4"], capsys)
        assert code == 0
        rows = dict(line.split(",") for line in out.strip().split("\n")[1:])
        assert rows["1"] == "1"
        assert rows["2"] == "5/2"
        assert rows["3"] == "8"

    def test_moments_with_huge_rational_factor(self, capsys):
        # clearing the 1/2 power turns S(0) into (10^53 + 1)^2, whose
        # exact square root lies beyond float precision
        big = 10 ** 53 + 1
        code, out, _ = self.run(
            ["moments", "--measure", f"mp(1)^(1/2)*rat({big};1)",
             "-K", "2"], capsys)
        assert code == 0
        rows = dict(line.split(",") for line in out.strip().split("\n")[1:])
        assert rows["1"] == f"1/{big}"
        code, out, _ = self.run(
            ["moments", "--measure", f"mp(1)^(1/2)*rat({10 ** 400};1)",
             "-K", "2"], capsys)
        assert code == 0
        rows = dict(line.split(",") for line in out.strip().split("\n")[1:])
        assert rows["1"] == f"1/{10 ** 400}"

    def test_negative_seed_is_a_typed_error(self, capsys):
        for argv in (["simulate", "--n", "8", "--seed", "-1"],
                     ["compare", "--measure", "mp(1)",
                      "--simulate", "N=8,samples=1,seed=-3"]):
            code, out, err = self.run(argv, capsys)
            assert code == 1 and out == ""
            assert err == "error: seed must be non-negative\n"

    @pytest.mark.parametrize("argv", [
        ["compare", "--measure", "mp(1)", "--simulate", "N=abc,samples=1"],
        ["compare", "--measure", "mp(1)", "--simulate", "N=8,samples=1,k=x"],
        ["compare", "--measure", "mp(1)", "--simulate", "N=8,samples=1,c=1/0"],
        ["simulate", "--n", "8", "--shapes", "abc"],
        ["simulate", "--n", "8", "--shapes", "1/0"],
        ["simulate", "--n", "8", "--samples", "1", "--histogram", "-1"],
    ])
    def test_malformed_simulation_number_is_a_typed_error(self, argv, capsys):
        code, out, err = self.run(argv, capsys)
        assert code == 1 and out == ""
        assert err and "Traceback" not in err

    @pytest.mark.parametrize("measure", ["mp(1)*mp(1)", "fc2"])
    @pytest.mark.parametrize("margin", ["1.5", "-0.5", "0.7"])
    def test_edge_margin_outside_half_is_a_typed_error(self, measure, margin, capsys):
        code, out, err = self.run(["density", "--measure", measure, "--points", "3",
                                   "--edge-margin", margin], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: edge margin") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["density", "--measure", "mp(1)", "--points", "-3"],
        ["density", "--measure", "fc2", "--points", "0"],
        ["ring", "--measure", "mp(1)", "--points", "-1"],
        ["potential", "--measure", "mp(1)*mp(1/2)", "--points", "-2"],
    ])
    def test_point_count_below_one_is_a_typed_error(self, argv, capsys):
        code, out, err = self.run(argv, capsys)
        assert code == 1 and out == ""
        assert err == f"error: point count must be at least 1, not {argv[-1]}\n"

    def test_mp_alias_of_zero_is_a_typed_error(self, capsys):
        code, out, err = self.run(["support", "--measure", "mp(0)"], capsys)
        assert code == 1 and out == ""
        assert err == "error: Marchenko-Pastur rectangularity must be > 0\n"

    @pytest.mark.parametrize("measure, err_tail", [
        ("mp(1/0)", "error: zero denominator in '1/0'\n"),
        ("mp(1)^(1/0)", "\n       ^\nzero denominator in '1/0'\n"),
        ("rat(1;0/0)", "\n      ^\nzero denominator in '0/0'\n"),
        ("mp(1.5/2)", "error: cannot interpret '1.5/2' as an exact rational\n"),
    ])
    def test_bad_rational_is_a_typed_error(self, measure, err_tail, capsys):
        code, out, err = self.run(["support", "--measure", measure], capsys)
        assert code == 1 and out == ""
        assert err.endswith(err_tail)

    def test_atom_just_above_c_one(self, capsys):
        code, out, _ = self.run(
            ["support", "--measure", "as*mp(201/200)", "--format", "json"], capsys)
        assert code == 0
        assert abs(json.loads(out)["atom_at_zero"] - 1 / 201) <= 1e-12

    @pytest.mark.parametrize("measure", ["mp(2)^(1/2)", "mp(3/2)^(1/3)"])
    def test_mass_defect_is_a_one_line_error(self, measure, capsys):
        code, out, err = self.run(["support", "--measure", measure], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: continuous mass") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["support", "--measure", f"mp(1)^(1/2)*rat({10 ** 320 + 1};1)"],
        ["density", "--measure", f"mp(1)*rat({10 ** 320 + 1};1)"],
        ["potential", "--measure", f"mp(1)*rat(1;{10 ** 320 + 1})"],
    ])
    def test_float_overflow_is_a_one_line_error(self, argv, capsys):
        code, out, err = self.run(argv, capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: OverflowError") and err.count("\n") == 1

    def test_simulate_json(self, capsys):
        code, out, _ = self.run(
            ["simulate", "--n", "24", "--samples", "2", "--seed", "3",
             "--ks-against", "mp(1)"], capsys)
        assert code == 0
        blob = json.loads(out)
        assert blob["config"]["N"] == 24
        assert len(blob["eigenvalues"]) == 48
        assert 0 <= blob["ks"]["distance"] <= 1

    def test_simulate_histogram(self, capsys):
        code, out, _ = self.run(
            ["simulate", "--n", "24", "--samples", "2", "--seed", "3",
             "--histogram", "10"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "bin_lo,bin_hi,density"
        assert len(lines) == 11

    def test_compare(self, capsys):
        code, out, _ = self.run(
            ["compare", "--measure", "mp(1)",
             "--simulate", "N=32,samples=4,seed=7"], capsys)
        assert code == 0
        blob = json.loads(out)
        assert blob["ks"] < 0.2
        assert len(blob["moments"]) == 3

    def test_compare_derives_ensemble_from_measure(self, capsys):
        # the chain structure comes from the measure when k and c are
        # not given: mp(1)^2 must simulate a two-factor product
        code, out, _ = self.run(
            ["compare", "--measure", "mp(1)^2",
             "--simulate", "N=48,samples=6,seed=3"], capsys)
        assert code == 0
        blob = json.loads(out)
        assert blob["config"]["ginibre_shape_ratios"] == ["1", "1"]
        assert blob["ks"] < 0.1
        m2 = next(m for m in blob["moments"] if m["k"] == 2)
        assert abs(m2["empirical"] - 3.0) < 0.3

    def test_mp_alias_above_one_has_its_atom(self, capsys):
        code, out, _ = self.run(["support", "--measure", "mp(2)", "--format", "json"], capsys)
        assert code == 0 and json.loads(out)["atom_at_zero"] == 0.5
        code, out, _ = self.run(
            ["compare", "--measure", "mp(2)", "--simulate", "N=64,samples=2,seed=1"], capsys)
        assert code == 0
        blob = json.loads(out)
        assert abs(blob["atom_fraction"] - 0.5) < 1e-12
        assert blob["ks"] < 0.05

    def test_compare_explicit_overrides(self, capsys):
        code, out, _ = self.run(
            ["compare", "--measure", "bures",
             "--simulate", "N=32,samples=4,seed=7,k=2,c=1"], capsys)
        assert code == 0
        blob = json.loads(out)
        assert blob["config"]["unitary_sum_k"] == 2

    def test_ring(self, capsys):
        code, out, _ = self.run(
            ["ring", "--measure", "mp(1)", "--points", "16",
             "--format", "json"], capsys)
        assert code == 0
        blob = json.loads(out)
        assert blob["inner_radius"] == 0.0
        assert blob["outer_radius"] == 1.0

    def test_potential(self, capsys):
        code, out, _ = self.run(
            ["potential", "--measure", "mp(1)", "--x", "2.0"], capsys)
        assert code == 0
        val = float(out.strip().split("\n")[1].split(",")[1])
        assert abs(val - 1.0) < 1e-9

    def test_parse_error_diagnostic(self, capsys):
        code, out, err = self.run(["density", "--measure", "mp(1)^^2"], capsys)
        assert code == 1
        assert "^" in err

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["density"])  # missing --measure
        assert exc.value.code == 2
