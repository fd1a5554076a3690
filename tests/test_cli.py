import math

import pytest

from heterodro.cli import (
    CSV_HEADER,
    ConfigInvalid,
    DegeneratePoints,
    ExperimentConfig,
    NoPositivePoints,
    csv_to_rows,
    default_family,
    fit_rate,
    main,
    make_row,
    rows_to_csv,
    run_experiment,
)
from heterodro.metrics import DistanceKind
from heterodro.policies import PolicySpec
from heterodro.problems import ProblemSpec
from heterodro.regret import RegretReport

K, TV, W = DistanceKind.KOLMOGOROV, DistanceKind.TOTAL_VARIATION, DistanceKind.WASSERSTEIN


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
