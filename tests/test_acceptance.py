"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from heterodro.cli import default_scan_grid, fit_rate, main
from heterodro.measures import make_finite_measure
from heterodro.metrics import DistanceKind, distance, weights_on
from heterodro.policies import PolicySpec, recommended_parameter
from heterodro.problems import (
    ProblemSpec,
    expected_objective,
    expected_objective_grid,
    opt_value,
)
from heterodro.regret import (
    ScanGrid,
    adversarial_instance,
    dro_regret_scan,
    evaluate_pair,
    exhaustive_regret_n2,
    fixed_action_minimax,
    monte_carlo_regret,
    ski_indifference_measure,
)

from conftest import (
    bernstein_error_check,
    distance_terms,
    empirical_from,
    enumerate_grid_measures,
    hetero_helps_homogeneous_max,
    mean,
    mix,
    random_measure,
    sense,
)

K, TV, W = DistanceKind.KOLMOGOROV, DistanceKind.TOTAL_VARIATION, DistanceKind.WASSERSTEIN
SAA = PolicySpec.saa()


@contextmanager
def criterion(num: int, description: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL  {description}")
        raise
    print(f"[criterion {num:02d}] PASS  {description}  ({time.perf_counter() - t0:.1f}s)")


def test_criterion_01_newsvendor_sandwich():
    with criterion(1, "newsvendor Kolmogorov SAA scan in [eps, 2eps], slope ~1"):
        t0 = time.perf_counter()
        p = ProblemSpec.newsvendor(1, 1, 1)
        points = []
        for eps in (0.01, 0.02, 0.05, 0.1):
            rep = dro_regret_scan(p, SAA, K, eps, default_scan_grid(p, K, SAA, eps))
            assert eps <= rep.estimate <= 2 * eps + 1e-9
            points.append((eps, rep.estimate))
        fit = fit_rate(points)
        assert 0.9 <= fit.slope <= 1.1
        assert time.perf_counter() - t0 < 60.0


def test_criterion_02_pricing_saa_wasserstein_failure():
    with criterion(2, "pricing SAA/Wasserstein witness: exact regret 0.999"):
        pair = adversarial_instance("pr_w_saa_fail", dict(M=1.0, eps=0.01, eta=0.001))
        got = evaluate_pair(pair)
        assert got == 0.999  # exact arithmetic on point masses, zero tolerance
        assert got == 1.0 - 0.001


def test_criterion_03_pricing_deviated_saa_rate():
    with criterion(3, "pricing deviated-SAA: scan <= 4*sqrt(M*eps), minimax >= sqrt(M*eps)/4, slope ~1/2"):
        t0 = time.perf_counter()
        p = ProblemSpec.pricing(1)
        points = []
        for eps in (0.0025, 0.01, 0.04):
            pol = recommended_parameter(p, W, eps)
            assert pol.delta == pytest.approx(-math.sqrt(eps))
            rep = dro_regret_scan(p, pol, W, eps, default_scan_grid(p, W, pol, eps))
            assert rep.estimate <= 4 * math.sqrt(eps) + 1e-9
            points.append((eps, rep.estimate))

            pair = adversarial_instance("pr_w_lower", dict(M=1.0, eps=eps))
            value, _ = fixed_action_minimax(pair.problem, (pair.mu,) + pair.nus)
            assert value >= math.sqrt(eps) / 4 - 1e-9
        fit = fit_rate(points)
        assert 0.4 <= fit.slope <= 0.6
        assert time.perf_counter() - t0 < 120.0


def test_criterion_04_ski_saa_wasserstein_monte_carlo():
    with criterion(4, "ski SAA/Wasserstein Monte-Carlo estimate in [b/2, 2(b+eps)] +- 3ci"):
        t0 = time.perf_counter()
        b, M, eps = 2.0, 10.0, 0.1
        pair = adversarial_instance("ski_w_saa_fail", dict(b=b, M=M, eps=eps))
        rep = monte_carlo_regret(
            pair.problem, SAA, pair.mu, pair.nus * 10_000, trials=500, seed=42
        )
        assert rep.estimate >= b / 2 - 3 * rep.ci_half_width
        assert rep.estimate <= 2 * (b + eps) + 3 * rep.ci_half_width
        assert time.perf_counter() - t0 < 120.0


def test_criterion_05_capped_policy():
    with criterion(5, "capped rental: scan <= b(ln(1/eps)+2)eps, minimax >= eps*b/8"):
        b, M = 1.0, 10.0
        p = ProblemSpec.ski_rental(b, M)
        for eps in (0.01, 0.05):
            cap = b * math.log(1.0 / eps)
            pol = PolicySpec.capped(cap)
            rep = dro_regret_scan(p, pol, K, eps, default_scan_grid(p, K, pol, eps))
            assert rep.estimate <= b * (math.log(1.0 / eps) + 2.0) * eps + 1e-9

            pair = adversarial_instance("ski_k_lower", dict(b=b, M=M, eps=eps))
            value, _ = fixed_action_minimax(pair.problem, (pair.mu,) + pair.nus)
            assert value >= eps * b / 8 - 1e-9


def test_criterion_06_ski_deviated_saa_wasserstein():
    with criterion(6, "ski deviated-SAA: scan <= 4*sqrt(b*eps)+2eps, minimax >= sqrt(b*eps)/4"):
        b, M = 1.0, 10.0
        p = ProblemSpec.ski_rental(b, M)
        for eps in (0.01, 0.04):
            pol = recommended_parameter(p, W, eps)
            assert pol.delta == pytest.approx(math.sqrt(b * eps))
            rep = dro_regret_scan(p, pol, W, eps, default_scan_grid(p, W, pol, eps))
            assert rep.estimate <= 4 * math.sqrt(b * eps) + 2 * eps + 1e-9

            pair = adversarial_instance("ski_w_lower", dict(b=b, M=M, eps=eps))
            value, _ = fixed_action_minimax(pair.problem, (pair.mu,) + pair.nus)
            assert value >= math.sqrt(b * eps) / 4 - 1e-9


def test_criterion_07_heterogeneity_strictly_helps():
    with criterion(7, "two heterogeneous histories beat every single one by a margin"):
        for k in (1, 2, 5):
            pair = adversarial_instance("hetero_helps", dict(k=k))
            hetero = exhaustive_regret_n2(
                pair.problem, SAA, pair.mu, pair.nus[0], pair.nus[1]
            )
            assert hetero == 2.0 * k  # exact arithmetic on point masses
            homogeneous = hetero_helps_homogeneous_max(k, resolution=50)
            assert hetero - homogeneous > 0.0
            assert hetero - homogeneous > 0.5 * k  # comfortably strict


def test_criterion_08_indifference_measure():
    with criterion(8, "ski indifference measure: every rental duration costs b, mean b"):
        nu = ski_indifference_measure(10, 3)
        p = ProblemSpec.ski_rental(3, 10)
        for k in list(range(7)) + [10]:
            assert abs(expected_objective(p, k, nu) - 3.0) <= 1e-10
        assert abs(mean(nu) - 3.0) <= 1e-10


def test_criterion_09_metric_suite():
    with criterion(9, "metric axioms, convexity, domination chain, triangular-array convergence"):
        rng = np.random.default_rng(90210)
        for _ in range(1000):
            a, b, c = (random_measure(rng) for _ in range(3))
            lam = float(rng.uniform())
            blend = mix(a, c, lam)
            for kind in (K, TV, W):
                dab = distance(kind, a, b)
                assert dab == distance(kind, b, a)
                assert distance(kind, a, a) == 0.0
                assert dab <= distance(kind, a, c) + distance(kind, c, b) + 1e-9
                lhs = distance(kind, blend, b)
                assert lhs <= lam * dab + (1 - lam) * distance(kind, c, b) + 1e-9
            M = a.upper
            assert distance(W, a, b) <= M * distance(K, a, b) + 1e-9
            assert M * distance(K, a, b) <= M * distance(TV, a, b) + 1e-9

        # triangular arrays: one draw from each of n distinct measures in a
        # Kolmogorov eps-ball; empirical vs row-average within the DKW band
        eps = 0.05
        for n in (1000, 10_000):
            bound = 2 * 1.63 / math.sqrt(n)
            ps = 0.4 + np.linspace(-eps, eps, n)
            p_bar = float(np.mean(ps))
            row_avg = make_finite_measure([0.0, 1.0], [1 - p_bar, p_bar], 1.0)
            failures = 0
            for seed in range(100):
                u = np.random.default_rng(seed).random(n)
                emp = empirical_from((u < ps).astype(float).tolist(), 1.0)
                if distance(K, emp, row_avg) > bound:
                    failures += 1
            assert failures <= 3


def test_criterion_10_oracle_brute_force():
    with criterion(10, "closed-form oracles match a 10^4-point action grid"):
        rng = np.random.default_rng(1001)
        problems = [
            ProblemSpec.newsvendor(1, 2, 1),
            ProblemSpec.pricing(1),
            ProblemSpec.ski_rental(3, 10),
        ]
        for p in problems:
            xs = np.linspace(0.0, p.M, 10_001)
            for _ in range(500):
                m = random_measure(rng, upper=p.M, max_atoms=4)
                values = expected_objective_grid(p, xs, m)
                best = opt_value(p, m)
                if sense(p) == "min":
                    assert best <= values.min() + 1e-9
                else:
                    assert best >= values.max() - 1e-9


def _holder_saa_scan(eps: float, alpha: float = 0.5) -> float:
    """Worst-case Kolmogorov-ball SAA regret for g(x, xi) = |xi - x|^alpha
    on [0, 1], by brute force over a small measure grid."""
    grid = ScanGrid((0.0, 0.25, 0.5, 0.75, 1.0), weight_resolution=100, max_atoms=2)
    measures = enumerate_grid_measures(grid, 1.0)
    locs = np.asarray(grid.locations)
    xs = np.linspace(0.0, 1.0, 201)
    Wm = weights_on(measures, locs)
    G = Wm @ (np.abs(locs[:, None] - xs[None, :]) ** alpha)  # (n, n_actions)
    opts = G.min(axis=1)
    act = G.argmin(axis=1)
    best = 0.0
    for i in range(len(measures)):
        d = distance_terms(K, Wm[i], Wm, None).max(axis=1)
        feasible = d <= eps + 1e-12
        regret = np.abs(opts[i] - G[i, act])
        regret[~feasible] = -1.0
        best = max(best, float(regret.max()))
    return best


def test_criterion_11_bernstein_boundary_case():
    with criterion(11, "Hoelder objective: scan within the Bernstein bound; Popoviciu check"):
        G_sup = 1.0  # sup |xi - x|^(1/2) over the unit square
        for eps in (0.01, 0.1):
            scanned = _holder_saa_scan(eps)
            assert scanned <= 5.0 * (G_sup * eps) ** 0.2 + 4.0 * G_sup * eps
        for q in (25, 100, 400):
            assert bernstein_error_check(math.sqrt, math.sqrt, q)


def test_criterion_12_determinism(tmp_path):
    with criterion(12, "byte-identical CSV across reruns with the same seed"):
        commands = [
            [
                "rates",
                "--problem", "newsvendor:1,1,1",
                "--kind", "kolmogorov",
                "--policy", "saa",
                "--eps-grid", "0.01,0.02,0.05,0.1",
                "--mode", "dro-scan",
                "--seed", "42",
            ],
            [
                "adversarial",
                "--name", "ski_w_lower",
                "--params", "b=1,M=10,eps=0.04",
                "--seed", "42",
            ],
            [
                "rates",
                "--problem", "ski:2,10",
                "--kind", "wasserstein",
                "--policy", "saa",
                "--eps-grid", "0.1",
                "--mode", "monte-carlo",
                "--n", "2000",
                "--trials", "100",
                "--seed", "42",
            ],
        ]
        for idx, cmd in enumerate(commands):
            f1 = tmp_path / f"run{idx}_a.csv"
            f2 = tmp_path / f"run{idx}_b.csv"
            assert main(cmd + ["--out", str(f1)]) == 0
            assert main(cmd + ["--out", str(f2)]) == 0
            assert f1.read_bytes() == f2.read_bytes()
