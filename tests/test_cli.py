import contextlib
import csv
import io
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from heterodro import cli, regret
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
from heterodro.regret import (
    MAX_HISTORIES,
    MAX_INDIFFERENCE_M,
    MAX_TRIALS,
    RegretReport,
    dro_regret_scan,
)

from conftest import reference_dro_regret_scan, reference_from_text

K, TV, W = DistanceKind.KOLMOGOROV, DistanceKind.TOTAL_VARIATION, DistanceKind.WASSERSTEIN
# Each family with a problem it builds, and the one of eta, alpha, k it reads.
FAMILY_PROBLEM = {
    "nv_tv_pair": "newsvendor:1,1,1", "pr_k_pair": "pricing:1", "pr_w_saa_fail": "pricing:1",
    "pr_w_lower": "pricing:1", "ski_k_saa_fail": "ski:3,10", "ski_k_lower": "ski:1,2",
    "ski_w_saa_fail": "ski:2,10", "ski_w_lower": "ski:1,4", "hetero_helps": "ski:3,5",
}
FAMILY_READS = {"pr_w_saa_fail": "eta", "ski_k_saa_fail": "alpha", "hetero_helps": "k"}


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
        "argv, message",
        [
            (["adversarial", "--name", "ski_k_saa_fail", "--params",
              f"M={MAX_INDIFFERENCE_M + 1},b=3,eps=0.01"],
             f"M = {MAX_INDIFFERENCE_M + 1} exceeds the cap {MAX_INDIFFERENCE_M}"),
            (["rates", "--problem", "ski:3,10", "--kind", "k", "--mode", "monte-carlo",
              "--eps-grid", "0.01,0.02", "--n", str(MAX_HISTORIES + 1)],
             f"n = {MAX_HISTORIES + 1} exceeds the cap {MAX_HISTORIES}"),
            (["rates", "--problem", "ski:3,10", "--kind", "k", "--mode", "monte-carlo",
              "--eps-grid", "0.01,0.02", "--trials", str(MAX_TRIALS + 1)],
             f"trials = {MAX_TRIALS + 1} exceeds the cap {MAX_TRIALS}"),
        ],
        ids=["indifference-M", "n", "trials"],
    )
    def test_size_above_cap_exits_2(self, capsys, argv, message):
        # refused before the n-long history list, the trials array or the
        # M-atom measure (8-17 MB at these sizes) is built
        build_parser()
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 1 << 20
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

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
            ("nv_tv_pair", "eps=1e-20",
             "need mu's weight q - shift at 0 and nu's q more than 0.0 apart, got eps=1e-20"),
            ("pr_k_pair", "eps=1e-20",
             "need mu's weight 1/2 - eps at M/2 and nu's 1/2 more than 0.0 apart, "
             "got eps=1e-20"),
            ("ski_k_lower", "eps=1e-20",
             "need the weights 1/2 -/+ eps/2 more than 0.0 apart, got eps=1e-20"),
            ("ski_k_saa_fail", "M=10,b=3,eps=1e-20",
             "need mu's weight nu(1) - eps at 1 and nu's nu(1) more than 0.0 apart, "
             "got eps=1e-20"),
        ],
    )
    def test_eps_too_small_to_separate_atoms_exits_2(self, capsys, name, params, message):
        # Below these radii the construction's atoms merge or coincide, or
        # the eps move leaves a weight unchanged (mu == nu), so the pair is
        # no longer the instance its target describes.
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
        "problem, kind, family, weights",
        [
            ("newsvendor:1,1,1", "tv", "nv_tv_pair", "mu's weight q - shift at 0 and nu's q"),
            ("pricing:1", "k", "pr_k_pair", "mu's weight 1/2 - eps at M/2 and nu's 1/2"),
            ("ski:1,2", "k", "ski_k_lower", "the weights 1/2 -/+ eps/2"),
            ("ski:3,10", "k", "ski_k_saa_fail", "mu's weight nu(1) - eps at 1 and nu's nu(1)"),
        ],
    )
    def test_eps_move_that_rounds_away_skips_row(self, capsys, problem, kind, family, weights):
        argv = ["rates", "--problem", problem, "--kind", kind, "--policy", "saa",
                "--family", family, "--eps-grid", "1e-20,0.01,0.02", "--strict"]
        assert main(argv) == 0
        rows = csv_to_rows(capsys.readouterr().out)
        assert rows[0]["regret_est"] == ""
        assert rows[0]["slope_note"] == (
            f"skipped: need {weights} more than 0.0 apart, got eps=1e-20"
        )
        assert all(float(row["regret_est"]) > 0.0 for row in rows[1:])

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
             [("0.12639320225", "", "")]),
            # dsaa:-0.1 moves nu's atom 0.5 onto mu's optimum 0.4: regret 0 on
            # (mu <- nu), below the minimax target 0.05
            (["adversarial", "--name", "pr_w_lower", "--params", "eps=0.04",
              "--policy", "dsaa:-0.1"],
             [("0", "", "")]),
        ],
        ids=["cited", "nv-other-policy", "pr-w-saa-fail-other-policy", "minimax",
             "minimax-other-policy", "minimax-policy-below-target"],
    )
    def test_target_brackets_only_the_policy_it_holds_for(self, capsys, argv, brackets):
        # A family's target is the value it certifies: for the policy it
        # cites, or on a two-point minimax family for the minimax value.  It
        # brackets that value alone: a minimax target bounds a policy's worst
        # case over the pair, not the regret on (mu <- nu) that a row reports.
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
        "name, key",
        [(name, key) for name in FAMILY_PROBLEM for key in ("eta", "alpha", "k")
         if FAMILY_READS.get(name) != key],
    )
    @pytest.mark.parametrize("command", ["adversarial", "rates"])
    def test_key_the_family_does_not_read_exits_2(self, capsys, command, name, key):
        # eta, alpha and k are each read by one family; given to another,
        # the command fails, never builds a pair that ignored it
        if command == "adversarial":
            own = "k=2" if name == "hetero_helps" else "eps=0.01"
            argv = ["adversarial", "--name", name, "--params", f"{own},{key}=1"]
        else:
            argv = ["rates", "--problem", FAMILY_PROBLEM[name], "--kind", "tv", "--policy", "saa",
                    "--eps-grid", "0.01,0.02", "--family", name, "--params", f"{key}=1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: family {name!r} does not read parameter {key!r}\n"

    def test_first_unread_key_is_named(self, capsys):
        argv = ["adversarial", "--name", "nv_tv_pair", "--params", "eps=0.1,eta=0.5,alpha=3,k=7"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: family 'nv_tv_pair' does not read parameter 'eta'\n"

    @pytest.mark.parametrize("command", ["regret", "dro-scan"])
    @pytest.mark.parametrize("eps", ["-0.5", "-1e-300"])
    def test_negative_eps_exits_2(self, capsys, command, eps):
        argv = [command, "--problem", "pricing:1", "--policy", "dsaa:0.1", "--kind", "w",
                f"--eps={eps}"]
        if command == "regret":
            argv += ["--mu", "0.5:1@1", "--nu", "0.5:1@1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: eps must be >= 0, got {float(eps)}\n"

    def test_regret_at_zero_eps_has_no_bounds(self, capsys):
        argv = ["regret", "--problem", "pricing:1", "--policy", "saa", "--kind", "k",
                "--eps", "0", "--mu", "0.5:1@1", "--nu", "0.5:1@1"]
        assert main(argv) == 0
        (row,) = csv_to_rows(capsys.readouterr().out)
        assert (row["eps"], row["analytic_lo"], row["analytic_hi"]) == ("0", "", "")

    def test_bound_error_other_than_a_range_exits_2(self, capsys, monkeypatch):
        # only EpsTooLarge, EpsNonPositive and NoAnalyticBound mean "no bound"
        def broken(*args):
            raise ValueError("broken bound")

        monkeypatch.setattr(regret, "analytic_bounds", broken)
        argv = ["regret", "--problem", "pricing:1", "--policy", "saa", "--kind", "k",
                "--eps", "0.1", "--mu", "0.5:1@1", "--nu", "0.5:1@1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: broken bound\n"

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
        "command, params, key",
        [
            ("adversarial", ["--params", "eps=0.1,eps=0.2"], "eps"),
            ("adversarial", ["--params", "eps=0.1", "--params", "eps=0.1"], "eps"),
            ("rates", ["--params", "c_u=1,c_u=1"], "c_u"),
            ("rates", ["--params", "M=1", "--params", "c_o=1,M=1"], "M"),
        ],
        ids=["adversarial", "adversarial-across", "rates", "rates-across"],
    )
    def test_repeated_params_key_exits_2(self, capsys, command, params, key):
        # a key given twice, in one --params or across two, never keeps the last
        if command == "adversarial":
            argv = ["adversarial", "--name", "nv_tv_pair", *params]
        else:
            argv = ["rates", "--problem", "newsvendor:1,1,1", "--kind", "k",
                    "--eps-grid", "0.01,0.02", *params]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: parameter {key} is given twice\n"

    @pytest.mark.parametrize("grid", ["0.01,0.01,0.02", "0.01,0.02,0.02"])
    def test_repeated_eps_exits_2(self, capsys, grid):
        # a repeated eps would print its row twice and weigh it twice in the fit
        argv = ["rates", "--problem", "newsvendor:1,1,1", "--kind", "k", "--eps-grid", grid]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: eps_grid must be strictly increasing, got ")

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

    def test_strict_pair_outside_the_ball_exits_2(self, capsys):
        # the bounds cover only pairs in the ball; nu is at K distance 1
        argv = ["regret", "--problem", "newsvendor:1,1,1", "--policy", "saa",
                "--mu", "0:1@1", "--nu", "1:1@1", "--kind", "k", "--eps", "0.05"]
        assert main(argv + ["--strict"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --strict: nu lies at kolmogorov distance 1 from mu, "
            "outside the eps = 0.05 ball\n"
        )
        # without --strict the row is printed as before
        assert main(argv) == 0
        (row,) = csv_to_rows(capsys.readouterr().out)
        assert (row["regret_est"], row["analytic_hi"]) == ("1", "0.1")

    @pytest.mark.parametrize(
        "name, params",
        [
            ("pr_k_pair", "eps=6e-17"),
            ("pr_k_pair", "eps=8e-17"),
            ("ski_k_lower", "eps=1e-16"),
            ("ski_k_saa_fail", "M=10,b=3,eps=1e-16"),
        ],
    )
    def test_strict_slack_scales_with_the_bound(self, capsys, name, params):
        # At these eps the weights move by about an ulp, and the regret (0,
        # or 4.4e-16 for ski_k_saa_fail) falls below analytic_lo (6e-17 to
        # 5.5e-16): a slack of 1e-9 times the bound flags it, an absolute
        # 1e-9 forgave it.
        code = main(["adversarial", "--strict", "--name", name, "--params", params])
        row = csv_to_rows(capsys.readouterr().out)[0]
        assert float(row["regret_est"]) < float(row["analytic_lo"])
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


# One valid invocation of each subcommand, and the shared options it reads.
SUBCOMMANDS = {
    "distance": (["--kind", "w", "--a", "0.0:1.0@1.0", "--b", "1.0:1.0@1.0"], ("--out",)),
    "oracle": (["--problem", "pricing:1", "--measure", "0.5:1.0@1.0"], ("--out",)),
    "regret": (["--problem", "pricing:1", "--policy", "saa", "--mu", "0.9:1.0@1.0",
                "--nu", "0.95:1.0@1.0"], ("--seed", "--out", "--strict")),
    "dro-scan": (["--problem", "newsvendor:1,1,1", "--policy", "saa", "--kind", "k",
                  "--eps", "0.05", "--weight-res", "10"], ("--out", "--strict")),
    "adversarial": (["--name", "pr_k_pair", "--params", "eps=0.05"],
                    ("--seed", "--out", "--strict")),
    "diagnose": (["--problem", "pricing:1", "--kind", "w"], ("--out",)),
    "rates": (["--problem", "ski:3,10", "--kind", "k", "--eps-grid", "0.01,0.02,0.05"],
              ("--seed", "--trials", "--out", "--strict")),
}
REMOVED_SLOTS = [
    (cmd, flag)
    for cmd, (_, kept) in SUBCOMMANDS.items()
    for flag in ("--seed", "--trials", "--strict")
    if flag not in kept
]


class TestSubcommandOptions:
    """Each subcommand takes only the shared options it reads: one it would
    ignore is refused at parse time, never run silently."""

    @staticmethod
    def flag_argv(flag, out):
        return {"--seed": ["--seed", "7"], "--trials": ["--trials", "5"],
                "--out": ["--out", str(out)], "--strict": ["--strict"]}[flag]

    @pytest.mark.parametrize("cmd, flag", REMOVED_SLOTS)
    def test_unread_option_exits_2(self, capsys, tmp_path, cmd, flag):
        argv, _ = SUBCOMMANDS[cmd]
        with pytest.raises(SystemExit) as exc:
            main([cmd, *argv, *self.flag_argv(flag, tmp_path / "out.csv")])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag}" in captured.err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("cmd", SUBCOMMANDS)
    def test_kept_options_parse(self, capsys, tmp_path, cmd):
        argv, kept = SUBCOMMANDS[cmd]
        out = tmp_path / "out.csv"
        extra = [item for flag in kept for item in self.flag_argv(flag, out)]
        assert main([cmd, *argv, *extra]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text()

    def test_every_subcommand_runs_without_scipy(self):
        # scipy is a test dependency only: with every import of it made to
        # fail, each subcommand still runs
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from heterodro.cli import main\n"
            f"for argv in {[[cmd, *argv] for cmd, (argv, _) in SUBCOMMANDS.items()]!r}:\n"
            "    assert main(argv) == 0, argv\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count(",".join(CSV_HEADER)) == 4


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


class TestOutPath:
    """An --out path that cannot be written exits 2 with one named error
    line and prints nothing; a missing directory or a directory is refused
    before any work."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "--problem", "pricing:1", "--measure", "0.5:1@1"],
            ["rates", "--problem", "ski:3,10", "--kind", "k", "--eps-grid", "0.01,0.02,0.05"],
        ],
        ids=["oracle", "rates"],
    )
    @pytest.mark.parametrize("where", ["missing-dir", "directory", "name-too-long"])
    def test_unwritable_out_exits_2(self, tmp_path, monkeypatch, argv, where):
        out = {
            "missing-dir": tmp_path / "missing" / "x.csv",
            "directory": tmp_path,
            "name-too-long": tmp_path / ("x" * 300),  # open() alone finds this
        }[where]
        if where != "name-too-long":
            def no_work(*args):
                raise AssertionError("computed before refusing --out")
            monkeypatch.setattr(cli, "oracle", no_work)
            monkeypatch.setattr(cli, "run_experiment", no_work)
        code, stdout, stderr = run_captured([*argv, "--out", str(out)])
        assert (code, stdout) == (2, "")
        (line,) = stderr.splitlines()
        assert line.startswith(f"error: cannot write --out {out}: ")
        assert not any(tmp_path.iterdir())

    def test_writable_out(self, tmp_path):
        out = tmp_path / "x.txt"
        argv = ["oracle", "--problem", "pricing:1", "--measure", "0.5:1@1"]
        assert run_captured([*argv, "--out", str(out)]) == (0, "", "")
        assert out.read_text() == run_captured(argv)[1]


class TestSignedValues:
    """A measure text or location list whose first atom is -0.0 is read as
    the option's value, the same as the ``--opt=value`` form."""

    @pytest.mark.parametrize(
        "head, option, value, tail",
        [
            (["distance", "--kind", "k"], "--a", "-0.0:0.5,1.0:0.5@1.0", ["--b", "0.0:1.0@1.0"]),
            (["distance", "--kind", "w", "--a", "0.5:1@1"], "--b", "-0.0:0.5,1.0:0.5@1.0", []),
            (["regret", "--problem", "ski:3,10", "--policy", "saa"], "--mu", "-0.0:0.5,4:0.5@10",
             ["--nu", "2:1@10"]),
            (["regret", "--problem", "ski:3,10", "--policy", "saa", "--mu", "2:1@10"], "--nu",
             "-0.0:0.5,4:0.5@10", []),
            (["oracle", "--problem", "ski:3,10"], "--measure", "-0.0:0.5,1.0:0.5@10", []),
            (["dro-scan", "--problem", "pricing:1", "--policy", "saa", "--kind", "k",
              "--eps", "0.05"], "--locations", "-0.0,0.5,1", []),
            # abbreviations, which argparse resolves to the options above
            (["oracle", "--problem", "ski:3,10"], "--meas", "-0.0:0.5,1.0:0.5@10", []),
            (["regret", "--problem", "ski:3,10", "--policy", "saa"], "--m", "-0.0:0.5,4:0.5@10",
             ["--nu", "2:1@10"]),
            (["dro-scan", "--problem", "pricing:1", "--policy", "saa", "--kind", "k",
              "--eps", "0.05"], "--loc", "-0.0,0.5,1", []),
        ],
        ids=["a", "b", "mu", "nu", "measure", "locations", "meas", "m", "loc"],
    )
    def test_value_starting_with_minus_zero(self, head, option, value, tail):
        joined = run_captured([*head, f"{option}={value}", *tail])
        assert joined[0] == 0 and joined[1] and joined[2] == ""
        assert run_captured([*head, option, value, *tail]) == joined

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["distance", "--kind", "k", "--a", "--b", "0.0:1.0@1.0"], "--a"),
            (["distance", "--kind", "k", "--a", "--k", "k", "--b", "0.0:1.0@1.0"], "--a"),
            (["oracle", "--meas", "--prob", "ski:3,10"], "--measure"),
        ],
        ids=["option", "abbreviated-option", "both-abbreviated"],
    )
    def test_option_in_value_position_exits_2(self, argv, option, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {option}: expected one argument" in capsys.readouterr().err
