"""Command-line interface: exit codes, JSON/CSV output, gallery:// URIs."""

import json
import time
from fractions import Fraction

import pytest

from stochex.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, main
from stochex.dist import ExactJointDist, UnivariateDist
from stochex.stochorder import st_compare


@pytest.fixture
def sci_json(tmp_path):
    d = ExactJointDist.build(
        2, [((1, 0), Fraction(1, 2)), ((-1, 0), Fraction(1, 2))]
    )
    path = tmp_path / "sci.json"
    path.write_text(d.to_json())
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCheck:
    def test_failing_condition_exits_1_with_witness(self, capsys, sci_json):
        code, out = run(capsys, "check", sci_json, "--condition", "re-kl",
                        "--k", "1", "--l", "2")
        assert code == EXIT_CHECK_FAILED
        report = json.loads(out)
        assert report["holds"] is False
        assert report["witness"]["prob"] != report["witness"]["reflected_prob"]

    def test_passing_condition_exits_0(self, capsys, sci_json):
        code, out = run(capsys, "check", sci_json, "--condition", "sci")
        assert code == EXIT_OK
        assert json.loads(out)["holds"] is True

    def test_gallery_uri_source(self, capsys):
        code, out = run(capsys, "check", "gallery://axes:3", "--condition", "esci")
        assert code == EXIT_OK and json.loads(out)["holds"]

    def test_continuous_gallery_entry_rejected_as_dist(self, capsys):
        code, _ = run(capsys, "check", "gallery://bvn:1.5,0.3", "--condition", "sci")
        assert code == EXIT_USAGE

    def test_missing_file_is_usage_error(self, capsys):
        code, _ = run(capsys, "check", "/no/such/file.json", "--condition", "sci")
        assert code == EXIT_USAGE


class TestAbsdist:
    def test_json_output_is_exact(self, capsys, sci_json):
        code, out = run(capsys, "absdist", sci_json, "--prefix", "2")
        assert code == EXIT_OK
        assert json.loads(out)["atoms"] == [
            {"v": "0", "p": "1/2"}, {"v": "1", "p": "1/2"}
        ]

    def test_csv_output(self, capsys, sci_json):
        code, out = run(capsys, "absdist", sci_json, "--prefix", "2", "--csv")
        assert code == EXIT_OK
        assert out == "x,F\n0,1/2\n1,1\n"

    def test_csv_decimal_output(self, capsys, sci_json):
        code, out = run(capsys, "absdist", sci_json, "--prefix", "2", "--csv",
                        "--decimal")
        assert code == EXIT_OK
        assert out == "x,F\n0.0,0.5\n1.0,1.0\n"


class TestRegionsOrderClassify:
    def test_regions_report(self, capsys, sci_json):
        code, out = run(capsys, "regions", sci_json, "--x", "1/2")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["E"] == "1/2" and report["W"] == "1/2"
        assert report["identities"]["ok"]

    def test_order_compares_absolute_laws(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(ExactJointDist.build(1, [((0,), Fraction(1))]).to_json())
        b.write_text(ExactJointDist.build(
            1, [((0,), Fraction(1, 2)), ((2,), Fraction(1, 2))]
        ).to_json())
        code, out = run(capsys, "order", str(a), str(b), "--absolute")
        assert code == EXIT_OK
        assert json.loads(out)["relation"] == "strictly_less"

    def test_order_compares_signed_laws(self, capsys, tmp_path):
        laws = {"a": [(-2, "1/4"), (1, "3/4")], "b": [(-1, "1/2"), (1, "1/4"), (3, "1/4")]}
        for name, atoms in laws.items():
            (tmp_path / f"{name}.json").write_text(ExactJointDist.build(
                1, [((v,), Fraction(p)) for v, p in atoms]).to_json())
        code, out = run(capsys, "order", str(tmp_path / "a.json"), str(tmp_path / "b.json"))
        assert code == EXIT_OK
        want = st_compare(*(UnivariateDist.build([(v, Fraction(p)) for v, p in atoms])
                            for atoms in laws.values()))
        assert json.loads(out) == want.to_jsonable()
        assert want.relation == "incomparable"  # |a| and |b| would compare otherwise

    def test_classify_axes(self, capsys):
        code, out = run(capsys, "classify", "gallery://axes:3")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["label_max"] == "SSIAMX*"
        assert report["label_min"] == "SSIAMN*"


class TestGallerySubcommand:
    def test_list(self, capsys):
        code, out = run(capsys, "gallery", "--list")
        assert code == EXIT_OK
        ids = [row["id"] for row in json.loads(out)]
        assert "axes:3" in ids

    def test_nan_density_grid_fails(self, capsys):
        # Finite parameters whose densities are all NaN on the grid.
        code, out = run(capsys, "gallery", "elliptical:gauss,1e308,5e307,1,1,0.9")
        assert code == EXIT_CHECK_FAILED
        assert not any(row["pass"] for row in json.loads(out)["expectations"])

    def test_emit(self, capsys):
        code, out = run(capsys, "gallery", "sci-not-re", "--emit")
        assert code == EXIT_OK
        d = ExactJointDist.from_json(out)
        assert len(d.atoms) == 2

    def test_verify(self, capsys):
        code, out = run(capsys, "gallery", "remark-asym")
        assert code == EXIT_OK
        report = json.loads(out)
        assert all(r["pass"] for r in report["expectations"])

    def test_unknown_id(self, capsys):
        code, _ = run(capsys, "gallery", "no-such-entry")
        assert code == EXIT_USAGE

    def test_needs_id_or_list(self, capsys):
        code, _ = run(capsys, "gallery")
        assert code == EXIT_USAGE


class TestNumericSubcommands:
    def test_phi2(self, capsys):
        code, out = run(capsys, "phi2", "0", "0", "0.5")
        assert code == EXIT_OK
        assert abs(json.loads(out)["phi2"] - (0.25 + 1 / 12)) < 1e-12

    def test_identity11_with_leading_dash_rho_list(self, capsys):
        code, out = run(capsys, "identity11", "--xmax", "3", "--steps", "7",
                        "--rhos", "-0.9,0,0.9")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["pass"] and report["max_deviation"] <= 1e-10

    @pytest.mark.parametrize("argv", [
        ["phi2", "1", "-1e-3", "0.5"],
        ["phi2", "-.5", "-1E2", "-0.25"],
        ["identity11", "--steps", "5", "--rhos", "-1e-1,0.5"],
    ])
    def test_negative_values_in_exponent_form(self, capsys, argv):
        code, out = run(capsys, *argv)
        assert code == EXIT_OK
        json.loads(out)

    def test_mc_folded_normal_check(self, capsys):
        code, out = run(capsys, "mc", "bvn:1.5,0.3", "--check", "absmax-absx-ks",
                        "--n", "20000", "--seed", "4")
        assert code == EXIT_OK
        assert json.loads(out)["pass"]

    def test_mc_min_max_equality(self, capsys):
        code, out = run(capsys, "mc", "bvn:0.0,0.4", "--check", "min-max-equal",
                        "--n", "20000", "--seed", "4")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["forward"]["pass"] and report["backward"]["pass"]

    def test_mc_mlr_model(self, capsys):
        code, out = run(capsys, "mc", "mlr:normal,1,2", "--n", "20000", "--seed", "4")
        assert code == EXIT_OK
        assert json.loads(out)["grid_violations"] == 0

    def test_mc_seed_env_default(self, capsys):
        code, out = run(capsys, "mc", "bvn:0.0,0.0", "--n", "20000")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["seed"] == 0
        assert report["check"] == "min-max-equal"  # the default for an elliptical id

    def test_mc_ure_chain(self, capsys):
        code, out = run(capsys, "mc", "bvn:1.5,0.3", "--check", "ure-chain",
                        "--n", "20000", "--seed", "4")
        assert code == EXIT_OK
        parts = json.loads(out)["parts"]
        assert len(parts) == 4 and all(p["pass"] for p in parts.values())


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_no_arguments(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_bad_rational_threshold(self, capsys, sci_json):
        assert main(["regions", sci_json, "--x", "0.5"]) == EXIT_USAGE

    def test_order_requires_univariate(self, capsys, sci_json):
        assert main(["order", sci_json, sci_json]) == EXIT_USAGE


class TestInputErrorsExit2:
    """Bad input ends in exit 2 with an `error:` line, never a traceback."""

    @staticmethod
    def assert_input_error(capsys, *argv):
        code = main(list(argv))
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", [
        '{"dim": 2, "atoms": [{"x": ["1", "0"], "p": "1"}',
        "",
        "[1, 2]",
        '{"atoms": [{"x": ["1"], "p": "1"}]}',
        '{"dim": 1}',
        '{"dim": "1", "atoms": [{"x": ["1"], "p": "1"}]}',
        '{"dim": 1, "atoms": {"x": ["1"], "p": "1"}}',
        '{"dim": 1, "atoms": [{"p": "1"}]}',
        '{"dim": 1, "atoms": [{"x": ["1"]}]}',
        '{"dim": 1, "atoms": [{"x": "1", "p": "1"}]}',
        '{"dim": 1, "atoms": [{"x": [1], "p": "1"}]}',
        '{"dim": 1, "atoms": [{"x": ["1"], "p": 1}]}',
        '{"dim": 1, "atoms": [["1", "1"]]}',
        '{"dim": 1, "atoms": [{"x": ["1"], "p": "-1"}, {"x": ["2"], "p": "2"}]}',
    ])
    def test_malformed_distribution_json(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        self.assert_input_error(capsys, "check", str(path), "--condition", "re-kl")

    def test_distribution_file_not_text(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe\x00{")
        self.assert_input_error(capsys, "check", str(path), "--condition", "sci")

    def test_re_kl_needs_pair_beyond_dim_2(self, capsys, tmp_path):
        path = tmp_path / "dim3.json"
        path.write_text(ExactJointDist.build(3, [((1, 0, -1), Fraction(1))]).to_json())
        self.assert_input_error(capsys, "check", str(path), "--condition", "re-kl")

    def test_re_n_needs_dim_2(self, capsys, tmp_path):
        path = tmp_path / "dim1.json"
        path.write_text(ExactJointDist.build(1, [((1,), Fraction(1))]).to_json())
        self.assert_input_error(capsys, "check", str(path), "--condition", "re-n")

    def test_axes_needs_positive_n(self, capsys):
        self.assert_input_error(capsys, "absdist", "gallery://axes:0", "--prefix", "1")

    def test_decimal_needs_csv(self, capsys):
        self.assert_input_error(capsys, "absdist", "gallery://axes:2", "--prefix", "2", "--decimal")

    @pytest.mark.parametrize("coordinate,prob", [("1/0", "1"), ("1", "1/0")])
    def test_zero_denominator_in_distribution_json(self, capsys, tmp_path, coordinate, prob):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"dim": 1, "atoms": [{{"x": ["{coordinate}"], "p": "{prob}"}}]}}')
        self.assert_input_error(capsys, "check", str(path), "--condition", "sci")
        self.assert_input_error(capsys, "absdist", str(path), "--prefix", "1")

    @pytest.mark.parametrize("argv", [
        ["regions", "gallery://axes:2", "--x", "1/0"],
        ["gallery", "draws-2:-1/0,1/0"],
        ["gallery", "intraclass:1,0.5"],
    ])
    def test_zero_denominator_and_one_coordinate_intraclass(self, capsys, argv):
        self.assert_input_error(capsys, *argv)

    @pytest.mark.parametrize("argv", [
        ["mc", "mlr:normal,1"],
        ["mc", "gauss-seq:1,4", "--n", "1000"],
        ["mc", "intraclass:3,-0.3", "--check", "absmax-absx-ks", "--n", "1000"],
        ["phi2", "nan", "0", "0.5"],
        ["phi2", "inf", "0", "0.5"],
        ["identity11", "--xmax", "-1"],
        ["identity11", "--rhos", "x"],
        ["mc", "intraclass:1,0.5", "--n", "1000"],
        ["identity11", "--steps", "0"],
        ["identity11", "--steps", "-3"],
        ["mc", "mlr:normal,1,2", "--check", "absmax-absx-ks", "--n", "1000"],
        ["mc", "intraclass:3,-0.3", "--check", "ure-chain", "--n", "1000"],
        ["mc", "bvn:1.5,0.3", "--n", "1000", "--seed", "-1"],
        ["mc", "bvn:1.5,0.3", "--n", "100000000000000"],
        ["identity11", "--steps", "100000000"],
    ])
    def test_numeric_command_inputs(self, capsys, argv):
        self.assert_input_error(capsys, *argv)

    @pytest.mark.parametrize("argv", [
        ["gallery", "bvn:1e400,0.1"],
        ["gallery", "bvn:1,nan"],
        ["gallery", "elliptical:gauss,0,0,-1,1,0"],
        ["gallery", "elliptical:gauss,0,0,1,0,0"],
        ["gallery", "elliptical:gauss,inf,0,1,1,0"],
        ["gallery", "elliptical:tinf,0,0,1,1,0"],
        ["gallery", "elliptical:tnan,0,0,1,1,0"],
        ["gallery", "intraclass:3,nan"],
        ["gallery", "mlr:normal,1,inf"],
        ["mc", "bvn:nan,0.1", "--n", "1000"],
    ])
    def test_continuous_id_parameters_finite_and_scales_positive(self, capsys, argv):
        self.assert_input_error(capsys, *argv)

    @pytest.mark.parametrize("value", ["-inf", "-Infinity", "-NAN"])
    def test_negative_non_finite_value_is_named(self, capsys, value):
        code = main(["phi2", "1", value, "0"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("error: ")
        assert f"invalid finite value: '{value}'" in err

    @pytest.mark.parametrize("argv", [
        ["check", "gallery://axes:3", "--condition", "e", "--k", "1", "--l", "3"],
        ["check", "gallery://axes:3", "--condition", "re-n", "--k", "1", "--l", "3"],
        ["gallery", "axes:2", "--list"],
        ["gallery", "--list", "--emit"],
        ["gallery", "bvn:1.5,0.3", "--emit"],
        ["check", "gallery://sci-not-re", "--condition", "ursub-kl", "--l", "7"],
        ["check", "gallery://sci-not-re", "--condition", "re-kl", "--k", "2"],
    ])
    def test_arguments_that_do_not_apply(self, capsys, argv):
        self.assert_input_error(capsys, *argv)

    @pytest.mark.parametrize("argv", [
        ["absdist", "gallery://draws-n:-5,-4,-3,-2,-1,1,2,3,4,5;10", "--prefix", "2"],
        ["absdist", "gallery://axes:1000000", "--prefix", "1"],
        ["classify", "gallery://iid-sym:tri,1000000000"],
        ["classify", "gallery://alt-signs:1000000000"],
    ])
    def test_law_over_the_atom_budget(self, capsys, argv):
        t0 = time.perf_counter()
        self.assert_input_error(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0
