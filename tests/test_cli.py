import contextlib
import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from heterodro import cli
from heterodro.cli import (
    CSV_HEADER,
    ConfigInvalid,
    DegeneratePoints,
    ExperimentConfig,
    NoPositivePoints,
    build_parser,
    default_family,
    default_scan_grid,
    fit_rate,
    main,
    make_row,
    rows_to_csv,
    run_experiment,
)
from heterodro.measures import from_text, to_text
from heterodro.metrics import DistanceKind
from heterodro.policies import PolicySpec, recommended_parameter
from heterodro.problems import ProblemSpec
from heterodro.regret import RegretReport, dro_regret_scan

from conftest import reference_dro_regret_scan, reference_from_text

K, TV, W = DistanceKind.KOLMOGOROV, DistanceKind.TOTAL_VARIATION, DistanceKind.WASSERSTEIN


def csv_to_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestFitRate:
    def test_linear_rate(self):
        pts = [(e, 3 * e) for e in (0.01, 0.02, 0.05, 0.1)]
        fit = fit_rate(pts)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_sqrt_rate(self):
        pts = [(e, 2 * math.sqrt(e)) for e in (0.01, 0.04, 0.16)]
        assert fit_rate(pts).slope == pytest.approx(0.5, abs=1e-12)

    def test_requires_positive_points(self):
        with pytest.raises(NoPositivePoints):
            fit_rate([(0.01, 0.0), (0.02, 0.0), (0.05, 1.0)])

    def test_degenerate(self):
        with pytest.raises(DegeneratePoints):
            fit_rate([(0.01, 1.0), (0.01, 2.0), (0.01, 3.0)])


class TestExperimentConfig:
    def test_eps_grid_must_ascend(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(
                problem=ProblemSpec.pricing(1),
                kind=K,
                policy=PolicySpec.saa(),
                eps_grid=(0.1, 0.05),
            )

    def test_unknown_family_parameter(self):
        with pytest.raises(ConfigInvalid, match="unknown parameter 'cu'"):
            ExperimentConfig(
                problem=ProblemSpec.newsvendor(1, 1, 1),
                kind=K,
                policy=None,
                eps_grid=(0.01,),
                family_params={"cu": 2.0},
            )

    def test_unknown_mode(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(
                problem=ProblemSpec.pricing(1),
                kind=K,
                policy=None,
                eps_grid=(0.1,),
                mode="exhaustive",
            )

    def test_default_families(self):
        nv = ProblemSpec.newsvendor(1, 1, 1)
        pr = ProblemSpec.pricing(1)
        ski = ProblemSpec.ski_rental(1, 10)
        saa = PolicySpec.saa()
        assert default_family(nv, K, saa) == "nv_tv_pair"
        assert default_family(pr, TV, saa) == "pr_k_pair"
        assert default_family(pr, W, saa) == "pr_w_saa_fail"
        assert default_family(pr, W, PolicySpec.delta_saa(-0.2)) == "pr_w_lower"
        assert default_family(ski, K, saa) == "ski_k_saa_fail"
        assert default_family(ski, K, PolicySpec.capped(2.0)) == "ski_k_lower"
        assert default_family(ski, W, saa) == "ski_w_saa_fail"
        assert default_family(ski, W, PolicySpec.delta_saa(0.1)) == "ski_w_lower"


class TestRunExperiment:
    def test_newsvendor_sweep_is_sandwiched(self):
        cfg = ExperimentConfig(
            problem=ProblemSpec.newsvendor(1, 1, 1),
            kind=K,
            policy=PolicySpec.saa(),
            eps_grid=tuple(e / 100 for e in range(1, 11)),
        )
        results = run_experiment(cfg)
        assert len(results) == 10
        for eps, report, note in results:
            assert note == ""
            assert report.analytic_lower - 1e-9 <= report.estimate
            assert report.estimate <= report.analytic_upper + 1e-9

    def test_pricing_wasserstein_saa_stuck_at_m(self):
        cfg = ExperimentConfig(
            problem=ProblemSpec.pricing(1),
            kind=W,
            policy=PolicySpec.saa(),
            eps_grid=(0.01, 0.02, 0.05),
        )
        for eps, report, _ in run_experiment(cfg):
            assert report.estimate == pytest.approx(1.0, abs=0.01)

    def test_invalid_eps_skipped_with_warning(self):
        cfg = ExperimentConfig(
            problem=ProblemSpec.newsvendor(1, 1, 1),
            kind=K,
            policy=PolicySpec.saa(),
            eps_grid=(0.1, 0.7),  # 0.7 > min(q, 1-q)
        )
        results = run_experiment(cfg)
        assert results[0][1] is not None
        assert results[1][1] is None
        assert "skipped" in results[1][2]

    def test_monte_carlo_mode(self):
        cfg = ExperimentConfig(
            problem=ProblemSpec.ski_rental(2, 10),
            kind=W,
            policy=PolicySpec.saa(),
            eps_grid=(0.1,),
            n=200,
            trials=50,
            mode="monte-carlo",
        )
        ((eps, report, note),) = run_experiment(cfg)
        assert note == ""
        assert report.trials == 50
        assert report.analytic_lower == pytest.approx(1.0)  # b/2

    def test_scan_mode_uses_default_grid(self):
        cfg = ExperimentConfig(
            problem=ProblemSpec.newsvendor(1, 1, 1),
            kind=K,
            policy=PolicySpec.saa(),
            eps_grid=(0.05,),
            mode="dro-scan",
        )
        ((_, report, _),) = run_experiment(cfg)
        assert report.estimate == pytest.approx(0.1, abs=1e-12)


class TestCsv:
    def test_round_trip_string_exact(self):
        report = RegretReport(
            estimate=1 / 3,
            ci_half_width=0.0123456789012,
            analytic_lower=0.1,
            analytic_upper=2 / 3,
            n=100,
            trials=7,
            seed=42,
        )
        row = make_row("regret", ProblemSpec.newsvendor(1, 2, 1), K, "saa", 0.05, report)
        text = rows_to_csv([row])
        parsed = csv_to_rows(text)
        assert list(parsed[0].keys()) == CSV_HEADER
        rebuilt = rows_to_csv([[parsed[0][c] for c in CSV_HEADER]])
        assert rebuilt == text

    def test_witness_field_survives_quoting(self, capsys):
        code = main(
            [
                "adversarial",
                "--name",
                "nv_tv_pair",
                "--params",
                "eps=0.1,c_u=1,c_o=1,M=1",
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        rows = csv_to_rows(text)
        assert "nv_tv_pair" in rows[0]["witness"]
        assert "mu=" in rows[0]["witness"]


class TestCommands:
    def test_distance(self, capsys):
        assert main(["distance", "--kind", "tv", "--a", "0.0:1.0@1.0", "--b", "1.0:1.0@1.0"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_distance_sig_digits(self, capsys):
        main(["distance", "--kind", "wasserstein", "--a", "0.0:1.0@1.0", "--b", "0.123456789123456:1.0@1.0"])
        assert capsys.readouterr().out.strip() == "0.123456789123"

    def test_oracle(self, capsys):
        assert main(["oracle", "--problem", "ski:3,10", "--measure", "5.0:1.0@10.0"]) == 0
        assert capsys.readouterr().out.strip() == "action 0 value 3"

    def test_diagnose(self, capsys):
        main(["diagnose", "--problem", "pricing:1", "--kind", "wasserstein"])
        assert capsys.readouterr().out.strip() == "infinite"
        main(["diagnose", "--problem", "newsvendor:1,2,1", "--kind", "wasserstein"])
        assert capsys.readouterr().out.strip() == "finite 4"

    def test_regret_row(self, capsys):
        code = main(
            [
                "regret",
                "--problem",
                "pricing:1",
                "--policy",
                "saa",
                "--mu",
                "0.9:1.0@1.0",
                "--nu",
                "0.95:1.0@1.0",
            ]
        )
        assert code == 0
        rows = csv_to_rows(capsys.readouterr().out)
        assert rows[0]["regret_est"] == "0.9"

    def test_invalid_config_exits_2(self, capsys):
        assert main(["oracle", "--problem", "auction:1", "--measure", "0.5:1.0@1.0"]) == 2
        assert main(["distance", "--kind", "hellinger", "--a", "0:1@1", "--b", "0:1@1"]) == 2

    @pytest.mark.parametrize(
        "problem, name",
        [
            ("newsvendor:nan,1,1", "c_u"),
            ("newsvendor:inf,1,1", "c_u"),
            ("newsvendor:1,nan,1", "c_o"),
            ("newsvendor:1,-inf,1", "c_o"),
        ],
    )
    def test_non_finite_newsvendor_cost_exits_2(self, capsys, problem, name):
        assert main(["oracle", "--problem", problem, "--measure", "0.5:1.0@1.0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error:") and name in line
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "name, params, message",
        [
            ("hetero_helps", "k=1.7", "parameter k must be an integer, got 1.7"),
            ("ski_k_saa_fail", "M=10.9,b=3,eps=0.01", "parameter M must be an integer, got 10.9"),
            ("ski_k_saa_fail", "M=10,b=3.5,eps=0.01", "parameter b must be an integer, got 3.5"),
        ],
    )
    def test_fractional_integer_parameter_exits_2(self, capsys, name, params, message):
        # never truncated into a different instance
        assert main(["adversarial", "--name", name, "--params", params]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["rates", "--problem", "newsvendor:1,1,1", "--kind", "k", "--policy", "saa",
              "--eps-grid", "0.01,0.02,0.04", "--family", "pr_k_pair"],
             "family 'pr_k_pair' builds c_u=None, not the given c_u=1.0"),
            (["rates", "--problem", "pricing:1", "--kind", "k", "--policy", "saa",
              "--eps-grid", "0.01,0.02,0.04", "--family", "pr_w_saa_fail"],
             "family 'pr_w_saa_fail' builds kind=wasserstein, not the given kind=kolmogorov"),
            (["rates", "--problem", "ski:3,10", "--kind", "tv", "--policy", "saa",
              "--eps-grid", "0.01,0.02,1.0", "--mode", "monte-carlo", "--trials", "2",
              "--family", "hetero_helps", "--params", "k=1"],
             "family 'hetero_helps' builds eps=1.0, not the given eps=0.01"),
            (["adversarial", "--name", "pr_w_lower", "--kind", "kolmogorov",
              "--params", "eps=0.01"],
             "family 'pr_w_lower' builds kind=wasserstein, not the given kind=kolmogorov"),
            (["adversarial", "--name", "hetero_helps", "--params", "k=1,eps=0.3"],
             "family 'hetero_helps' builds eps=1.0, not the given eps=0.3"),
            (["rates", "--problem", "pricing:1", "--kind", "tv", "--policy", "saa",
              "--eps-grid", "0.01,0.02,0.04", "--family", "nv_tv_pair"],
             "family 'nv_tv_pair' builds newsvendor:1.0,1.0,1.0, not the given pricing:1.0"),
            (["rates", "--problem", "pricing:10", "--kind", "k", "--eps-grid", "0.01,0.02,0.04",
              "--family", "ski_k_saa_fail", "--mode", "monte-carlo", "--trials", "2"],
             "family 'ski_k_saa_fail' builds ski:3.0,10.0, not the given pricing:10.0"),
        ],
        ids=["rates-problem", "rates-kind", "rates-mc-eps", "adversarial-kind", "adversarial-eps",
             "rates-problem-kind", "rates-mc-problem-kind"],
    )
    def test_family_building_another_instance_exits_2(self, capsys, argv, message):
        # never a row for an instance other than the one asked for
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("mode", ["adversarial-named", "monte-carlo"])
    def test_family_missing_a_parameter_exits_2(self, capsys, mode):
        # Missing for every eps alike: one error, not a skipped row per eps.
        argv = ["rates", "--problem", "ski:3,10", "--kind", "tv", "--eps-grid", "0.01,0.02",
                "--family", "hetero_helps", "--mode", mode, "--trials", "2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: family 'hetero_helps' requires parameter 'k'\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["rates", "--problem", "ski:3,10", "--kind", "k", "--eps-grid", "0.01,0.02,0.05",
              "--family", "nosuch"],
             "unknown adversarial family 'nosuch'"),
            *[(["rates", "--problem", "pricing:1", "--kind", "k", "--policy", "cap:2",
                "--eps-grid", "0.01,0.02,0.05", "--trials", "2", "--n", "10", "--mode", mode],
               "the capped rental policy is only defined for ski rental")
              for mode in ("adversarial-named", "monte-carlo", "dro-scan")],
            (["rates", "--problem", "pricing:1", "--kind", "w", "--policy", "saa",
              "--eps-grid", "0.01,0.02,0.04", "--family", "ski_w_saa_fail"],
             "need M > 2b, got M=1.0, b=2.0"),
            (["rates", "--problem", "ski:3,10", "--kind", "w", "--policy", "saa",
              "--eps-grid", "0.01,0.02,0.04", "--family", "ski_k_lower"],
             "ski_k_lower: historical measure leaves the wasserstein ball of radius 0.01"),
            (["rates", "--problem", "ski:3,10", "--kind", "k", "--eps-grid", "0.01,0.02,0.05",
              "--mode", "dro-scan", "--family", "hetero_helps"],
             "dro-scan mode scans a grid and takes no --family or --params"),
            (["rates", "--problem", "ski:3,10", "--kind", "k", "--eps-grid", "0.01,0.02,0.05",
              "--mode", "dro-scan", "--params", "eta=0.5"],
             "dro-scan mode scans a grid and takes no --family or --params"),
        ],
        ids=["unknown-family", "cap-on-pricing-named", "cap-on-pricing-mc", "cap-on-pricing-scan",
             "family-needs-larger-M", "family-outside-ball", "scan-with-family",
             "scan-with-params"],
    )
    def test_sweep_error_for_every_eps_exits_2(self, capsys, argv, message):
        # Only an eps outside a validity range skips a row; an error that
        # does not depend on eps is the command's error, never a sweep of
        # skipped rows.
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("mode", ["adversarial-named", "dro-scan"])
    def test_cap_outside_its_range_skips_rows(self, capsys, mode):
        # the recommended cap b*ln(1/eps) exists only for eps < 1 and 1/eps finite
        argv = ["rates", "--problem", "ski:3,10", "--kind", "k", "--eps-grid", "5e-324,0.5,1,2",
                "--mode", mode]
        assert main(argv) == 0
        rows = csv_to_rows(capsys.readouterr().out)
        assert [row["regret_est"] == "" for row in rows] == [True, False, True, True]
        for row, eps in zip((rows[0], *rows[2:]), ("5e-324", "1.0", "2.0")):
            assert row["slope_note"].startswith(
                f"skipped: the cap b*ln(1/eps) needs eps < 1 and 1/eps finite, got {eps}"
            )

    @pytest.mark.parametrize(
        "name, params, message",
        [
            ("pr_w_lower", "eps=1e-25",
             "need mu's atoms M/2 - sqrt(M*eps)/2 and M/2 more than 1e-12 apart, got eps=1e-25"),
            ("pr_w_lower", "eps=1e-30",
             "need mu's atoms M/2 - sqrt(M*eps)/2 and M/2 more than 1e-12 apart, got eps=1e-30"),
            ("pr_w_saa_fail", "eps=1e-30",
             "need mu's atom M - eta and nu's atom M - eta + eps more than 0.0 apart, "
             "got eps=1e-30"),
            ("ski_w_saa_fail", "eps=1e-30",
             "need nu's atom b/2 and mu's atom b/2 + eps more than 0.0 apart, got eps=1e-30"),
            ("ski_w_lower", "eps=1e-30",
             "need mu's atoms b/2 -/+ sqrt(b*eps)/2 more than 1e-12 apart, got eps=1e-30"),
        ],
    )
    def test_eps_too_small_to_separate_atoms_exits_2(self, capsys, name, params, message):
        # Below these radii the construction's atoms merge or coincide, so
        # the pair is no longer the instance its target describes.
        assert main(["adversarial", "--name", name, "--params", params, "--strict"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, note",
        [
            (["rates", "--problem", "ski:2,10", "--kind", "w", "--policy", "saa"],
             "need nu's atom b/2 and mu's atom b/2 + eps more than 0.0 apart"),
            (["rates", "--problem", "pricing:1", "--kind", "w"],
             "need mu's atoms M/2 - sqrt(M*eps)/2 and M/2 more than 1e-12 apart"),
        ],
    )
    def test_eps_too_small_to_separate_atoms_skips_rows(self, capsys, argv, note):
        eps_grid = ("1e-32", "1e-31", "1e-30")
        assert main([*argv, "--eps-grid", ",".join(eps_grid), "--strict"]) == 0
        rows = csv_to_rows(capsys.readouterr().out)
        assert [row["regret_est"] for row in rows] == ["", "", ""]
        for row, eps in zip(rows, eps_grid):
            assert row["slope_note"].startswith(f"skipped: {note}, got eps={eps}")

    @pytest.mark.parametrize(
        "argv, brackets",
        [
            (["adversarial", "--name", "nv_tv_pair", "--params", "eps=0.1", "--policy", "saa"],
             [("0.2", "0.2", "0.2")]),
            (["adversarial", "--name", "nv_tv_pair", "--params", "eps=0.1", "--policy",
              "dsaa:0.3"],
             [("0.14", "", "")]),
            (["rates", "--problem", "pricing:1", "--kind", "w", "--policy", "dsaa:-0.1",
              "--eps-grid", "0.01,0.02,0.05", "--family", "pr_w_saa_fail"],
             [("0.099", "", "0.4"), ("0.099", "", ""), ("0.099", "", "")]),
            (["adversarial", "--name", "ski_w_lower", "--params", "b=2,M=10,eps=0.1"],
             [("0.111803398875", "0.111803398875", "0.111803398875")]),
            (["adversarial", "--name", "ski_w_lower", "--params", "b=2,M=10,eps=0.1",
              "--policy", "dsaa:0.5"],
             [("0.12639320225", "0.111803398875", "")]),
        ],
        ids=["cited", "nv-other-policy", "pr-w-saa-fail-other-policy", "minimax",
             "minimax-other-policy"],
    )
    def test_target_brackets_only_the_policy_it_holds_for(self, capsys, argv, brackets):
        # A family's target is the value of the policy it certifies: an upper
        # bound for that policy alone, and a lower bound for it and, on a
        # two-point minimax family, for every policy.
        assert main([*argv, "--strict"]) == 0
        rows = csv_to_rows(capsys.readouterr().out)
        got = [(row["regret_est"], row["analytic_lo"], row["analytic_hi"]) for row in rows]
        assert got == brackets

    def test_family_given_its_own_values_runs(self, capsys):
        argv = ["adversarial", "--name", "hetero_helps", "--kind", "tv", "--params", "k=1,eps=1"]
        assert main(argv) == 0
        assert csv_to_rows(capsys.readouterr().out)[0]["eps"] == "1"

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["dro-scan", "--policy", "saa", "--kind", "k", "--eps", "inf"], "--eps"),
            (["dro-scan", "--policy", "saa", "--kind", "w", "--eps", "nan"], "--eps"),
            (["regret", "--policy", "saa", "--mu", "0.5:1@1", "--nu", "0.5:1@1",
              "--kind", "k", "--eps", "nan"], "--eps"),
            (["regret", "--policy", "saa", "--mu", "0.5:1@1", "--nu", "0.5:1@1",
              "--kind", "tv", "--eps", "inf"], "--eps"),
            (["rates", "--kind", "k", "--eps-grid", "0.01,nan"], "eps_grid"),
            (["rates", "--kind", "k", "--eps-grid", "0.01,inf", "--mode", "dro-scan"], "eps_grid"),
        ],
        ids=["dro-scan-inf", "dro-scan-nan", "regret-nan", "regret-inf", "rates-nan", "rates-inf"],
    )
    def test_non_finite_radius_exits_2(self, capsys, argv, name):
        assert main(argv[:1] + ["--problem", "newsvendor:1,1,1"] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error:") and name in line and "finite" in line

    @pytest.mark.parametrize(
        "argv",
        [
            ["rates", "--kind", "k", "--eps-grid"],
            ["dro-scan", "--policy", "saa", "--kind", "k", "--eps", "0.1", "--locations"],
        ],
        ids=["eps-grid", "locations"],
    )
    @pytest.mark.parametrize(
        "text, item", [("0.1,,0.2", ""), ("abc", "abc"), ("0.1,0.2,", "")], ids=["empty", "abc", "trailing"]
    )
    def test_list_item_not_a_number_exits_2(self, capsys, argv, text, item):
        assert main(argv[:1] + ["--problem", "newsvendor:1,1,1"] + argv[1:] + [text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {argv[-1]} item {item!r} is not a number\n"

    @pytest.mark.parametrize(
        "name, params, key",
        [
            ("pr_w_saa_fail", "eps=inf,M=1", "eps"),
            ("pr_w_saa_fail", "eps=nan,M=1", "eps"),
            ("pr_w_saa_fail", "eps=0.1,M=inf", "M"),
            ("ski_w_saa_fail", "b=nan,eps=0.1", "b"),
            ("nv_tv_pair", "c_u=nan,eps=0.1", "c_u"),
            ("hetero_helps", "k=inf", "k"),
        ],
    )
    def test_non_finite_family_parameter_exits_2(self, capsys, name, params, key):
        assert main(["adversarial", "--name", name, "--params", params]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        value = params.split(f"{key}=")[1].split(",")[0]
        assert captured.err == f"error: parameter {key} must be finite, got {value}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["adversarial", "--name", "nv_tv_pair", "--params", "eps=0.1"],
            ["rates", "--problem", "newsvendor:1,1,1", "--kind", "k",
             "--eps-grid", "0.01,0.02", "--params", "eps=0.1"],
        ],
        ids=["adversarial", "rates"],
    )
    @pytest.mark.parametrize(
        "value, reason",
        [("nan", "must be finite, got nan"), ("inf", "must be finite, got inf"),
         ("abc", "must be a number, got 'abc'")],
        ids=["nan", "inf", "abc"],
    )
    def test_invalid_params_value_exits_2(self, capsys, argv, value, reason):
        # an invalid value fails the whole command, never one skipped row per eps
        assert main(argv[:-1] + [f"{argv[-1]},c_u={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: parameter c_u {reason}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["adversarial", "--name", "nv_tv_pair", "--params", "eps=0.1"],
            ["rates", "--problem", "newsvendor:1,1,1", "--kind", "k",
             "--eps-grid", "0.01,0.02", "--params", "eps=0.1"],
            ["rates", "--problem", "ski:3,10", "--kind", "k", "--mode", "monte-carlo",
             "--eps-grid", "0.01,0.02", "--trials", "2", "--n", "10", "--params", "M=10"],
        ],
        ids=["adversarial", "rates", "rates-mc"],
    )
    @pytest.mark.parametrize("key", ["cu", "foo", ""])
    def test_unknown_params_key_exits_2(self, capsys, argv, key):
        # a misspelt key fails the command, never runs the default value
        assert main(argv[:-1] + [f"{argv[-1]},{key}=2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unknown parameter {key!r}\n"

    @pytest.mark.parametrize(
        "problem, key, value, own",
        [
            ("newsvendor:1,1,1", "c_u", "2", "1"),
            ("newsvendor:1,1,1", "c_o", "0.5", "1"),
            ("newsvendor:1,1,1", "M", "2", "1"),
            ("ski:3,10", "b", "4", "3"),
            ("ski:3,10", "M", "12", "10"),
            ("pricing:1", "M", "1.5", "1"),
        ],
    )
    def test_params_contradicting_problem_exit_2(self, capsys, problem, key, value, own):
        # the witness would use --params while the bounds and the CSV use
        # --problem: refused before any row
        argv = ["rates", "--problem", problem, "--kind", "tv", "--eps-grid", "0.01,0.02",
                "--params", f"{key}={value}"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: parameter {key}={value} contradicts the problem's {key}={own}\n"
        # an unknown key is still named first
        assert main(argv[:-1] + [f"{argv[-1]},cu=2"]) == 2
        assert capsys.readouterr().err == "error: unknown parameter 'cu'\n"

    @pytest.mark.parametrize("params", ["eps=0.1", "M=1,eps=0.05"])
    def test_rates_eps_param_exits_2(self, capsys, params):
        # the sweep's eps comes from --eps-grid; --params must not replace it
        argv = ["rates", "--problem", "newsvendor:1,1,1", "--kind", "k",
                "--eps-grid", "0.01,0.02,0.05", "--params", params]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: parameter eps is set by --eps-grid\n"

    @pytest.mark.parametrize(
        "problem, params",
        [("newsvendor:2,1,1", "c_u=2,c_o=1.0,M=1"), ("ski:3,10", "b=3,M=10"), ("pricing:1", "M=1")],
    )
    def test_params_agreeing_with_problem_run(self, capsys, problem, params):
        argv = ["rates", "--problem", problem, "--kind", "k", "--eps-grid", "0.01,0.02,0.05"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--params", params]) == 0
        assert capsys.readouterr().out == plain

    @pytest.mark.parametrize("policy", ["cap:nan", "cap:inf"])
    def test_non_finite_cap_exits_2(self, capsys, policy):
        argv = ["regret", "--problem", "ski:3,10", "--policy", policy,
                "--mu", "5:1@10", "--nu", "5:1@10"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot parse policy text {policy!r}\n"

    def test_strict_violation_exits_3(self, capsys):
        # SAA on the truth has zero regret, far below the pricing/W lower
        # bound M, so --strict flags the sandwich violation
        code = main(
            [
                "regret",
                "--problem",
                "pricing:1",
                "--policy",
                "saa",
                "--mu",
                "0.5:1.0@1.0",
                "--nu",
                "0.5:1.0@1.0",
                "--kind",
                "wasserstein",
                "--eps",
                "0.01",
                "--strict",
            ]
        )
        assert code == 3

    def test_strict_pass_exits_0(self, capsys):
        code = main(
            [
                "dro-scan",
                "--problem",
                "newsvendor:1,1,1",
                "--policy",
                "saa",
                "--kind",
                "kolmogorov",
                "--eps",
                "0.05",
                "--strict",
            ]
        )
        assert code == 0

    def test_rates_emits_slope(self, capsys):
        code = main(
            [
                "rates",
                "--problem",
                "newsvendor:1,1,1",
                "--kind",
                "kolmogorov",
                "--policy",
                "saa",
                "--eps-grid",
                "0.01,0.02,0.05,0.1",
                "--mode",
                "dro-scan",
            ]
        )
        assert code == 0
        rows = csv_to_rows(capsys.readouterr().out)
        assert len(rows) == 4
        assert rows[-1]["slope_note"].startswith("slope=1")

    def test_deterministic_output(self, tmp_path):
        args = [
            "rates",
            "--problem",
            "ski:2,10",
            "--kind",
            "wasserstein",
            "--policy",
            "saa",
            "--eps-grid",
            "0.05,0.1",
            "--mode",
            "monte-carlo",
            "--n",
            "300",
            "--trials",
            "40",
            "--seed",
            "123",
        ]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()


class TestDroScanFlags:
    """Every grid flag applies on the default per-cell grid too."""

    SCAN = ["dro-scan", "--problem", "newsvendor:1,1,1", "--policy", "saa", "--kind", "k",
            "--eps", "0.05"]

    def test_max_pairs_on_default_grid(self, capsys):
        # 3 locations at resolution 100, up to 2 atoms: 300 measures
        assert main(self.SCAN + ["--max-pairs", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 90000 pairs exceed the cap 10\n"

    def test_max_atoms_changes_the_grid(self, capsys):
        # 3 + 3 * 99 + C(99, 2) = 5151 measures with a third atom
        assert main(self.SCAN + ["--max-atoms", "3", "--max-pairs", "10"]) == 2
        assert capsys.readouterr().err == f"error: {5151**2} pairs exceed the cap 10\n"
        # three point masses: 9 pairs fit under the cap
        assert main(self.SCAN + ["--max-atoms", "1", "--max-pairs", "10"]) == 0
        assert csv_to_rows(capsys.readouterr().out)[0]["regret_est"] == "0"

    @pytest.mark.parametrize("value", ["0", "5"])
    def test_max_atoms_out_of_range(self, capsys, value):
        assert main(self.SCAN + ["--max-atoms", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: max_atoms must be between 1 and 4\n"

    @pytest.mark.parametrize("locations", [[], ["--locations", "0,0.5,1"]], ids=["default", "given"])
    def test_zero_weight_resolution(self, capsys, locations):
        assert main(self.SCAN + locations + ["--weight-res", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: weight_resolution must be >= 1\n"

    def test_weight_res_on_default_grid(self, capsys):
        # the default newsvendor grid already has resolution 100
        assert main(self.SCAN) == 0
        plain = capsys.readouterr().out
        assert main(self.SCAN + ["--weight-res", "100"]) == 0
        assert capsys.readouterr().out == plain
        assert main(self.SCAN + ["--weight-res", "3", "--max-pairs", "100"]) == 0
        assert capsys.readouterr().out != plain

    @pytest.mark.parametrize("locations, bad", [("nan", "nan"), ("0.5,nan", "nan"), ("inf", "inf")])
    def test_non_finite_location_exits_2(self, capsys, locations, bad):
        assert main(self.SCAN + ["--locations", locations]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: scan location {bad} is not finite\n"


class TestDroScanParity:
    """dro-scan on each cell's default grid gives the estimate and witness of
    the reference scan, which builds every grid measure and calls the scalar
    oracle (tests/conftest.py)."""

    @pytest.mark.parametrize("eps", [0.02, 0.1])
    @pytest.mark.parametrize("kind", [K, TV, W], ids=["k", "tv", "w"])
    @pytest.mark.parametrize("problem", ["newsvendor:1,2,1", "pricing:1", "ski:3,10"])
    def test_default_grid_matches_reference(self, capsys, problem, kind, eps):
        p = ProblemSpec.from_text(problem)
        pol = recommended_parameter(p, kind, eps)
        grid = default_scan_grid(p, kind, pol, eps)
        estimate, (mu, nu) = reference_dro_regret_scan(p, pol, kind, eps, grid)
        rep = dro_regret_scan(p, pol, kind, eps, grid)
        assert rep.estimate.hex() == estimate.hex()
        assert (rep.witness.mu, rep.witness.nus) == (mu, (nu,))
        argv = ["dro-scan", "--problem", problem, "--policy", pol.to_text(),
                "--kind", kind.value, "--eps", repr(eps)]
        assert main(argv) == 0
        (row,) = csv_to_rows(capsys.readouterr().out)
        assert row["regret_est"] == f"{estimate:.12g}"
        assert row["witness"] == f"scan_witness;mu={to_text(mu)};nus={to_text(nu)}"

    def test_close_locations_row(self, capsys):
        # The default grid is (0.4999999999999, 0.49999999999995, 0.5, 1.0):
        # subsets holding two of the first three locations merge them.
        argv = ["dro-scan", "--problem", "pricing:1", "--policy", "dsaa:-0.001",
                "--kind", "w", "--eps", "1e-26"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            ",".join(CSV_HEADER) + "\n"
            "dro-scan,pricing,wasserstein,dsaa:-0.001,1e-26,1,,,0,0,0,0.0010000000001,0,,,"
            '"scan_witness;mu=0.5:0.85,1.0:0.15@1.0;nus=0.4999999999999:0.85,1.0:0.15@1.0",\n'
        )


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestCachedParser:
    """``main`` reuses one parser per process; no call may leave a trace on
    the next."""

    def run_in_process(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejections
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def run_fresh(self, argv):
        env = dict(os.environ, COLUMNS="80",
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-m", "heterodro.cli", *argv],
                              env=env, capture_output=True, text=True)
        return proc.returncode, proc.stdout, proc.stderr

    def test_repeated_calls_match_fresh_processes(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to this
        rates = ["rates", "--problem", "newsvendor:1,1,1", "--kind", "k",
                 "--eps-grid", "0.01,0.02,0.05"]
        runs = [
            rates + ["--params", "eps=0.1"],
            rates,  # the --params list of the call before must not leak
            ["rates", "--kind", "k"],  # argparse: required arguments missing
            ["distance", "--kind", "k", "--a", "0.5:1@1", "--b", "0.2:0.5,0.7:0.5@1"],
        ]
        got = [self.run_in_process(argv) for argv in runs]
        assert got == [self.run_fresh(argv) for argv in runs]
        # eps belongs to --eps-grid: the first run is refused, the second,
        # without --params, must run
        assert [code for code, _, _ in got] == [2, 0, 2, 0]
        assert got[0][1] != got[1][1]
        assert build_parser() is build_parser()


class TestThousandAtomTexts:
    """distance, oracle and regret on 1000-atom texts print the bytes they
    print with the reference parser in place of ``from_text``."""

    @staticmethod
    def text(rng, upper, sort):
        pts = np.round(rng.uniform(0.0, upper, 1000), 9)
        pts[rng.random(1000) < 0.05] = pts[0]  # duplicates to merge
        if sort:
            pts.sort()
        wts = rng.dirichlet(np.ones(1000))
        return ",".join(f"{p!r}:{w!r}" for p, w in zip(pts.tolist(), wts.tolist())) + f"@{upper!r}"

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_reference_parser(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        a, b = self.text(rng, 10.0, True), self.text(rng, 10.0, False)
        runs = [["distance", "--kind", kind, "--a", a, "--b", b] for kind in ("k", "tv", "w")]
        runs += [
            ["oracle", "--problem", "newsvendor:1.5,1,10", "--measure", b],
            ["oracle", "--problem", "pricing:10", "--measure", a],
            ["regret", "--problem", "pricing:10", "--policy", "saa", "--mu", a, "--nu", b,
             "--kind", "w", "--eps", "0.5"],
            ["regret", "--problem", "newsvendor:1,2,10", "--policy", "dsaa:0.1", "--mu", b,
             "--nu", a, "--kind", "k", "--eps", "0.05"],
        ]
        got = [run_captured(argv) for argv in runs]
        assert all(code == 0 and out for code, out, _ in got)
        monkeypatch.setattr(cli, "from_text", reference_from_text)
        assert got == [run_captured(argv) for argv in runs]


def parses(parse, text):
    try:
        parse(text)
    except ValueError:
        return False
    return True


# characters of the three text forms, the words they use, and a few others
TEXTS = st.text(alphabet="0123456789.:,@-+eEinfa skpqrcdwvotl_x", max_size=30)


class TestMalformedText:
    """A malformed problem, policy or measure text exits 2 with one
    ``error:`` line, no traceback and no output."""

    def check(self, argv):
        code, out, err = run_captured(argv)
        assert code == 2
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: ") and len(line) > len("error: ")

    @given(TEXTS)
    def test_problem(self, text):
        assume(not parses(ProblemSpec.from_text, text))
        self.check(["oracle", f"--problem={text}", "--measure=0.5:1@1"])

    @given(TEXTS)
    def test_policy(self, text):
        assume(not parses(PolicySpec.from_text, text))
        self.check(["regret", "--problem=ski:3,10", f"--policy={text}",
                    "--mu=5:1@10", "--nu=5:1@10"])

    @given(TEXTS)
    def test_measure(self, text):
        assume(not parses(from_text, text))
        self.check(["oracle", "--problem=pricing:1", f"--measure={text}"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["regret", "--problem=ski:3,10", "--policy=--", "--mu=5:1@10", "--nu=5:1@10"],
            ["oracle", "--problem=--", "--measure=0.5:1@1"],
            ["rates", "--problem=ski:3,10", "--kind=k", "--eps-grid=0.1", "--params=--"],
            ["rates", "--problem=ski:3,10", "--kind=k", "--eps-grid=0.1", "--seed=--"],
        ],
    )
    def test_lone_dash_value(self, argv):
        # argparse before Python 3.12 turns the value "--" into []
        self.check(argv)
