import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heterodro.measures import cdf, make_finite_measure, mean
from heterodro.metrics import (
    DistanceKind,
    distance,
    distance_terms,
    in_ball,
    kolmogorov,
    total_variation,
    wasserstein1,
    weights_on,
)
from heterodro.policies import PolicySpec, recommended_parameter
from heterodro import regret
from heterodro.problems import ProblemSpec, expected_objective, oracle
from heterodro.regret import (
    AdversarialPair,
    EpsTooLarge,
    GridTooLarge,
    InvalidBRange,
    RegretReport,
    ScanGrid,
    UnknownName,
    adversarial_instance,
    analytic_bounds,
    bounds_for_policy,
    dro_regret_scan,
    enumerate_grid_measures,
    evaluate_pair,
    exact_regret,
    exhaustive_regret_n2,
    fixed_action_minimax,
    hetero_helps_homogeneous_max,
    monte_carlo_regret,
    ski_indifference_measure,
)

K, TV, W = DistanceKind.KOLMOGOROV, DistanceKind.TOTAL_VARIATION, DistanceKind.WASSERSTEIN
SAA = PolicySpec.saa()


def delta(p, upper):
    return make_finite_measure([p], [1.0], upper)


class TestExactRegret:
    def test_pricing_overshoot(self):
        p = ProblemSpec.pricing(1)
        assert exact_regret(p, SAA, delta(0.9, 1), delta(0.95, 1)) == pytest.approx(0.9)

    def test_saa_on_truth_is_zero(self, rng):
        from conftest import random_measure

        for problem in (
            ProblemSpec.newsvendor(1, 2, 1),
            ProblemSpec.pricing(1),
            ProblemSpec.ski_rental(0.3, 1),
        ):
            for _ in range(30):
                m = random_measure(rng)
                assert exact_regret(problem, SAA, m, m) == 0.0

    def test_newsvendor_two_point_enumeration(self):
        # Independent enumeration: SAA on the centred coin plays the
        # fractile quantile 0; against mu with mass 0.6 at 1 the cost of 0
        # is 0.6 while the optimum (order 1) costs 0.4.
        p = ProblemSpec.newsvendor(1, 1, 1)
        mu = make_finite_measure([0, 1], [0.4, 0.6], 1)
        nu = make_finite_measure([0, 1], [0.5, 0.5], 1)
        assert exact_regret(p, SAA, mu, nu) == pytest.approx(0.2, abs=1e-12)


class TestMonteCarlo:
    def test_degenerate_histories_have_zero_variance(self):
        p = ProblemSpec.pricing(1)
        mu = make_finite_measure([0.4, 0.9], [0.5, 0.5], 1)
        nus = [delta(0.8, 1)] * 50
        rep = monte_carlo_regret(p, SAA, mu, nus, trials=20, seed=5)
        assert rep.ci_half_width <= 1e-15
        assert rep.estimate == pytest.approx(exact_regret(p, SAA, mu, delta(0.8, 1)))

    def test_matches_exhaustive_two_sample(self):
        p = ProblemSpec.ski_rental(3, 5)
        mu, nu1, nu2 = delta(2, 5), delta(1, 5), delta(5, 5)
        exact = exhaustive_regret_n2(p, SAA, mu, nu1, nu2)
        rep = monte_carlo_regret(p, SAA, mu, [nu1, nu2], trials=400, seed=11)
        assert abs(rep.estimate - exact) <= 3 * rep.ci_half_width + 1e-12

    def test_mixed_histories_estimate(self):
        p = ProblemSpec.ski_rental(3, 5)
        nu1 = make_finite_measure([1, 5], [0.5, 0.5], 5)
        nu2 = make_finite_measure([2, 5], [0.25, 0.75], 5)
        mu = delta(2, 5)
        exact = exhaustive_regret_n2(p, SAA, mu, nu1, nu2)
        rep = monte_carlo_regret(p, SAA, mu, [nu1, nu2], trials=3000, seed=3)
        assert abs(rep.estimate - exact) <= 3 * rep.ci_half_width

    def test_deterministic_in_seed(self):
        p = ProblemSpec.pricing(1)
        mu = make_finite_measure([0.3, 0.9], [0.4, 0.6], 1)
        nus = [make_finite_measure([0.3, 0.8], [0.5, 0.5], 1)] * 40
        a = monte_carlo_regret(p, SAA, mu, nus, trials=50, seed=7)
        b = monte_carlo_regret(p, SAA, mu, nus, trials=50, seed=7)
        assert a == b

    def test_report_independent_of_history_objects(self, rng):
        # Setup groups histories by object and then by content; the report
        # depends only on the contents, in column order.
        p = ProblemSpec.ski_rental(60, 100)
        pts = np.sort(rng.choice(np.arange(1, 101), size=40, replace=False)).astype(float)

        def wide():
            return make_finite_measure(pts.tolist(), rng.dirichlet(np.ones(40)).tolist(), 100)

        def copy(m):
            return make_finite_measure(list(m.support), list(m.weights), m.upper)

        mu, a, b = wide(), wide(), wide()
        n = 60
        same = monte_carlo_regret(p, SAA, mu, [a] * n, trials=5, seed=9)
        copies = [copy(a) for _ in range(n)]
        assert len({id(m) for m in copies}) == n and copies[0] == a
        assert monte_carlo_regret(p, SAA, mu, copies, trials=5, seed=9) == same

        mixed = monte_carlo_regret(p, SAA, mu, [a, b] * (n // 2), trials=5, seed=9)
        interleaved = [m if i % 3 else copy(m) for i, m in enumerate([a, b] * (n // 2))]
        assert monte_carlo_regret(p, SAA, mu, interleaved, trials=5, seed=9) == mixed
        assert same.estimate > 0.0 and mixed.estimate > 0.0 and mixed != same

    def test_history_interval_must_match_mu(self):
        p = ProblemSpec.ski_rental(3, 10)
        with pytest.raises(ValueError, match="historical measure on"):
            monte_carlo_regret(p, SAA, delta(4, 10), [delta(4, 10), delta(4, 5)], 3, 1)


class TestExhaustiveTwoSample:
    def test_heterogeneous_worst_case(self):
        # three-point ski variant, k = 1: histories delta_1 and delta_5
        # force SAA to buy right before the trip ends
        p = ProblemSpec.ski_rental(3, 5)
        got = exhaustive_regret_n2(p, SAA, delta(2, 5), delta(1, 5), delta(5, 5))
        assert got == pytest.approx(2.0, abs=1e-12)

    def test_homogeneous_long_history(self):
        # both samples equal 5: SAA buys immediately, regret 1 against xi=2
        p = ProblemSpec.ski_rental(3, 5)
        got = exhaustive_regret_n2(p, SAA, delta(2, 5), delta(5, 5), delta(5, 5))
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_data_independent_policy(self):
        p = ProblemSpec.ski_rental(3, 5)
        pol = PolicySpec.capped(1e-9)
        mu = delta(2, 5)
        got = exhaustive_regret_n2(p, pol, mu, delta(1, 5), delta(5, 5))
        assert got == pytest.approx(exact_regret(p, pol, mu, delta(1, 5)), abs=1e-12)


class TestIndifferenceMeasure:
    def test_all_rental_durations_cost_b(self):
        nu = ski_indifference_measure(10, 3)
        p = ProblemSpec.ski_rental(3, 10)
        for k in list(range(7)) + [10]:
            assert expected_objective(p, k, nu) == pytest.approx(3.0, abs=1e-10)

    def test_mean_is_b(self):
        assert mean(ski_indifference_measure(10, 3)) == pytest.approx(3.0, abs=1e-10)

    def test_endpoints_have_mass(self):
        nu = ski_indifference_measure(10, 3)
        w = dict(zip(nu.support, nu.weights))
        assert w[1.0] > 0.0 and w[10.0] > 0.0
        assert 0.0 not in w
        assert all(pt not in w for pt in (8.0, 9.0))

    def test_b_range(self):
        with pytest.raises(InvalidBRange):
            ski_indifference_measure(10, 1)
        with pytest.raises(InvalidBRange):
            ski_indifference_measure(10, 10)


class TestAdversarialInstances:
    def test_nv_tv_pair_distance(self):
        pair = adversarial_instance("nv_tv_pair", dict(c_u=1, c_o=1, M=1, eps=0.1))
        assert total_variation(pair.mu, pair.nus[0]) == pytest.approx(0.1, abs=1e-12)
        assert evaluate_pair(pair) == pytest.approx(pair.target, abs=1e-12)

    def test_pr_w_lower_distance_is_eps(self):
        pair = adversarial_instance("pr_w_lower", dict(M=1, eps=0.04))
        assert wasserstein1(pair.mu, pair.nus[0]) == pytest.approx(0.04, abs=1e-12)

    def test_ski_w_lower_distance_is_eps(self):
        pair = adversarial_instance("ski_w_lower", dict(b=1, M=10, eps=0.04))
        assert wasserstein1(pair.mu, pair.nus[0]) == pytest.approx(0.04, abs=1e-12)

    def test_hetero_helps_shape(self):
        pair = adversarial_instance("hetero_helps", dict(k=5))
        assert pair.problem.b == 11
        support = sorted({pt for nu in pair.nus for pt in nu.support} | set(pair.mu.support))
        assert support == [5.0, 6.0, 17.0]

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            adversarial_instance("nv_k_pair", dict(eps=0.1))

    def test_eps_too_large(self):
        with pytest.raises(EpsTooLarge):
            adversarial_instance("nv_tv_pair", dict(c_u=1, c_o=3, M=1, eps=0.3))
        with pytest.raises(EpsTooLarge):
            adversarial_instance("pr_w_lower", dict(M=1, eps=0.3))
        with pytest.raises(EpsTooLarge):
            adversarial_instance("ski_w_saa_fail", dict(b=2, M=10, eps=0.6))

    def test_missing_parameter(self):
        with pytest.raises(ValueError, match="requires parameter"):
            adversarial_instance("pr_k_pair", dict())

    def test_ball_invariant_enforced(self):
        with pytest.raises(ValueError, match="ball"):
            AdversarialPair(
                name="bad",
                problem=ProblemSpec.pricing(1),
                mu=delta(0.1, 1),
                nus=(delta(0.9, 1),),
                kind=W,
                eps=0.01,
            )

    def test_every_family_hits_its_target(self):
        cases = [
            ("nv_tv_pair", dict(eps=0.1)),
            ("pr_k_pair", dict(eps=0.1)),
            ("pr_w_saa_fail", dict(eps=0.01, eta=0.001)),
            ("pr_w_lower", dict(eps=0.04)),
            ("ski_k_saa_fail", dict(eps=0.1)),
            ("ski_k_lower", dict(eps=0.05, b=1.0, M=10.0)),
            ("ski_w_saa_fail", dict(eps=0.1, b=2.0, M=10.0)),
            ("ski_w_lower", dict(eps=0.04, b=1.0, M=10.0)),
            ("hetero_helps", dict(k=3)),
        ]
        for name, params in cases:
            pair = adversarial_instance(name, params)
            got = evaluate_pair(pair)
            assert got == pytest.approx(pair.target, abs=1e-9), name

    def test_sandwich_on_witnesses(self):
        # analytic lower (the pair's own target) <= evaluated regret <= cell
        # upper bound for the cited policy
        cases = [
            ("nv_tv_pair", dict(eps=0.1), SAA),
            ("pr_k_pair", dict(eps=0.1), SAA),
            ("pr_w_saa_fail", dict(eps=0.01, eta=0.001), SAA),
            ("ski_w_saa_fail", dict(eps=0.1, b=2.0, M=10.0), SAA),
            ("ski_k_saa_fail", dict(eps=0.1), SAA),
        ]
        for name, params, pol in cases:
            pair = adversarial_instance(name, params)
            got = evaluate_pair(pair, pol)
            _, hi = bounds_for_policy(pair.problem, pair.kind, pol, pair.eps)
            assert got >= pair.target - 1e-9, name
            if hi is not None:
                assert got <= hi + 1e-9, name

    def test_ski_k_saa_fail_historical_rents_past_every_buy_point(self):
        # Renting M-b days and never buying tie on the perturbed measure
        # (no mass lives between them); either way SAA pays the full tail.
        pair = adversarial_instance("ski_k_saa_fail", dict(eps=0.1))
        nu_alpha = pair.nus[0]
        M, b = pair.problem.M, pair.problem.b
        assert oracle(pair.problem, nu_alpha) >= M - b


class TestFixedActionMinimax:
    def test_pr_w_lower_value(self):
        pair = adversarial_instance("pr_w_lower", dict(M=1, eps=0.04))
        value, _ = fixed_action_minimax(pair.problem, (pair.mu,) + pair.nus)
        assert value == pytest.approx(math.sqrt(0.04) / 4, abs=1e-12)

    def test_ski_k_lower_value(self):
        pair = adversarial_instance("ski_k_lower", dict(b=1.0, M=10.0, eps=0.05))
        value, x = fixed_action_minimax(pair.problem, (pair.mu,) + pair.nus)
        assert value == pytest.approx(0.05 / 8, abs=1e-12)

    def test_ski_w_lower_value(self):
        pair = adversarial_instance("ski_w_lower", dict(b=1.0, M=10.0, eps=0.04))
        value, _ = fixed_action_minimax(pair.problem, (pair.mu,) + pair.nus)
        assert value == pytest.approx(0.05, abs=1e-12)


class TestScan:
    def test_zero_radius_saa_is_zero(self):
        cases = [
            (ProblemSpec.newsvendor(1, 1, 1), (0.0, 0.5, 1.0)),
            (ProblemSpec.pricing(1), (0.5, 0.8, 1.0)),
            (ProblemSpec.ski_rental(2, 10), (1.0, 2.5, 10.0)),
        ]
        for p, locs in cases:
            grid = ScanGrid(locs, weight_resolution=10, max_atoms=2)
            assert dro_regret_scan(p, SAA, K, 0.0, grid).estimate == 0.0

    def test_pricing_wasserstein_scan_finds_overshoot(self):
        # with the failure points on the grid the scan reaches M - eta_grid
        p = ProblemSpec.pricing(1)
        for eps in (0.01, 0.05):
            grid = ScanGrid((0.5, 1.0 - eps, 1.0), weight_resolution=20, max_atoms=2)
            rep = dro_regret_scan(p, SAA, W, eps, grid)
            assert rep.estimate >= 1.0 - eps - 1e-12

    def test_monotone_in_eps(self):
        p = ProblemSpec.newsvendor(1, 1, 1)
        grid = ScanGrid((0.0, 0.5, 1.0), weight_resolution=50, max_atoms=2)
        values = [dro_regret_scan(p, SAA, K, e, grid).estimate for e in (0.02, 0.06, 0.1)]
        assert values == sorted(values)

    def test_below_analytic_upper(self):
        p = ProblemSpec.newsvendor(1, 1, 1)
        grid = ScanGrid((0.0, 0.5, 1.0), weight_resolution=100, max_atoms=2)
        for eps in (0.01, 0.05, 0.1):
            rep = dro_regret_scan(p, SAA, K, eps, grid)
            assert rep.estimate <= rep.analytic_upper + 1e-9

    def test_witness_reproduces_estimate(self):
        p = ProblemSpec.pricing(1)
        grid = ScanGrid((0.5, 1.0), weight_resolution=50, max_atoms=2)
        rep = dro_regret_scan(p, SAA, K, 0.1, grid)
        w = rep.witness
        assert exact_regret(p, SAA, w.mu, w.nus[0]) == pytest.approx(rep.estimate, abs=1e-12)

    def test_grid_too_large(self):
        grid = ScanGrid((0.0, 0.5, 1.0), weight_resolution=100, max_atoms=2, max_pairs=100)
        with pytest.raises(GridTooLarge):
            dro_regret_scan(ProblemSpec.pricing(1), SAA, K, 0.1, grid)

    def test_enumeration_counts(self):
        grid = ScanGrid((0.0, 1.0), weight_resolution=4, max_atoms=2)
        ms = enumerate_grid_measures(grid, 1.0)
        # 2 point masses + 3 interior weightings of the pair
        assert len(ms) == 5
        for shape in [((0.0, 0.3, 0.7, 1.0), 7, 3), ((0.1, 0.2, 0.5), 5, 4), ((0.5,), 9, 2)]:
            grid = ScanGrid(*shape)
            assert grid.measure_count == len(enumerate_grid_measures(grid, 1.0))

    def test_grid_too_large_checked_before_enumerating(self, monkeypatch):
        def fail(*args):
            raise AssertionError("enumerated an oversized grid")

        monkeypatch.setattr(regret, "enumerate_grid_measures", fail)
        grid = ScanGrid((0.1, 0.3, 0.5, 0.7, 0.9, 1.0), weight_resolution=20, max_atoms=4)
        n = 18_246
        assert grid.measure_count == n
        with pytest.raises(GridTooLarge, match=rf"^{n * n} pairs exceed the cap 10000000$"):
            dro_regret_scan(ProblemSpec.pricing(1), SAA, K, 0.1, grid)

    def test_vectorized_distances_match_metrics(self, rng):
        locs = (0.0, 0.3, 0.7, 1.0)
        grid = ScanGrid(locs, weight_resolution=7, max_atoms=3)
        ms = enumerate_grid_measures(grid, 1.0)
        arr = np.asarray(locs)
        W_mat = weights_on(ms, arr)
        gaps = np.append(arr[1:], 1.0) - arr
        idx = rng.choice(len(ms), size=20)
        for kind in (K, TV, W):
            terms = distance_terms(kind, W_mat[idx, None, :], W_mat[None, :, :], gaps)
            D = terms.max(axis=2) if kind is K else terms.sum(axis=2)
            if kind is TV:
                D *= 0.5
            for r, i in enumerate(idx):
                for j in rng.choice(len(ms), size=10):
                    if kind is K:
                        assert D[r, j] == distance(kind, ms[i], ms[j])
                    else:
                        assert D[r, j] == pytest.approx(distance(kind, ms[i], ms[j]), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        cell=st.sampled_from(
            [
                (ProblemSpec.newsvendor(1, 2, 1), SAA),
                (ProblemSpec.newsvendor(1, 2, 1), PolicySpec.delta_saa(0.1)),
                (ProblemSpec.pricing(1), SAA),
                (ProblemSpec.pricing(1), PolicySpec.delta_saa(-0.1)),
                (ProblemSpec.ski_rental(3, 10), SAA),
                (ProblemSpec.ski_rental(3, 10), PolicySpec.capped(2.0)),
            ]
        ),
        kind=st.sampled_from([K, TV, W]),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4, unique=True),
        resolution=st.integers(1, 8),
        max_atoms=st.integers(1, 3),
        eps=st.floats(0.0, 0.6),
    )
    def test_witness_in_scalar_ball(self, cell, kind, fractions, resolution, max_atoms, eps):
        problem, pol = cell
        locs = tuple(sorted({f * problem.M for f in fractions}))
        grid = ScanGrid(locs, weight_resolution=resolution, max_atoms=max_atoms)
        rep = dro_regret_scan(problem, pol, kind, eps, grid)
        if rep.witness is None:
            assert rep.estimate == 0.0
            return
        mu, (nu,) = rep.witness.mu, rep.witness.nus
        assert in_ball(mu, nu, kind, eps)
        assert rep.estimate == pytest.approx(exact_regret(problem, pol, mu, nu), abs=1e-9)


class TestAnalyticBounds:
    def test_newsvendor_kolmogorov(self):
        p = ProblemSpec.newsvendor(1, 1, 1)
        assert analytic_bounds(p, K, "saa", 0.05) == pytest.approx((0.05, 0.1))

    def test_pricing_wasserstein_best(self):
        p = ProblemSpec.pricing(1)
        lo, hi = analytic_bounds(p, W, "best", 0.04)
        assert (lo, hi) == pytest.approx((0.05, 0.8))

    def test_pricing_wasserstein_saa_is_m(self):
        p = ProblemSpec.pricing(2)
        assert analytic_bounds(p, W, "saa", 0.01) == (2.0, 2.0)

    def test_ski_kolmogorov_best(self):
        p = ProblemSpec.ski_rental(1, 10)
        lo, hi = analytic_bounds(p, K, "best", 0.01)
        assert lo == pytest.approx(0.00125)
        assert hi == pytest.approx(0.01 * (math.log(100) + 2))

    def test_ski_wasserstein_saa(self):
        p = ProblemSpec.ski_rental(2, 10)
        assert analytic_bounds(p, W, "saa", 0.1) == pytest.approx((1.0, 4.2))

    def test_validity_enforced(self):
        with pytest.raises(EpsTooLarge):
            analytic_bounds(ProblemSpec.newsvendor(1, 1, 1), K, "saa", 0.9)
        with pytest.raises(EpsTooLarge):
            analytic_bounds(ProblemSpec.ski_rental(2, 10), W, "saa", 1.0)

    def test_unknown_cell(self):
        from heterodro.regret import NoAnalyticBound

        with pytest.raises(NoAnalyticBound):
            analytic_bounds(ProblemSpec.pricing(1), K, "oracle", 0.1)

    def test_bounds_for_policy_mapping(self):
        p = ProblemSpec.pricing(1)
        rec = recommended_parameter(p, W, 0.04)
        assert bounds_for_policy(p, W, rec, 0.04) == pytest.approx((0.05, 0.8))
        assert bounds_for_policy(p, W, SAA, 0.04) == (1.0, 1.0)
        assert bounds_for_policy(p, W, PolicySpec.delta_saa(-0.123), 0.04) == (None, None)


class TestHeterogeneityHelps:
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_heterogeneous_value_is_2k(self, k):
        pair = adversarial_instance("hetero_helps", dict(k=k))
        got = exhaustive_regret_n2(pair.problem, SAA, pair.mu, pair.nus[0], pair.nus[1])
        assert got == pytest.approx(2.0 * k, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_strictly_beats_homogeneous(self, k):
        hom = hetero_helps_homogeneous_max(k, resolution=50)
        assert 2.0 * k - hom > 0.5 * k  # margin is ~2k/3, demand at least k/2

    def test_homogeneous_max_has_interior_optimum(self):
        # the best single distribution mixes the short and the long trip
        hom = hetero_helps_homogeneous_max(1, resolution=50)
        assert hom == pytest.approx(4.0 / 3.0, abs=2e-3)


class TestTailBound:
    def test_exponential_tail_when_renting_past_cap_is_optimal(self):
        # measures whose oracle rents beyond C must have a thin tail at C:
        # 1 - F(C) <= exp(-C / b)
        p_cases = [(20, 3, 0.05), (30, 4, 0.1), (15, 2, 0.2)]
        checked = 0
        for M, b, eps in p_cases:
            # alpha must stay below the (geometrically small) mass at M
            pair = adversarial_instance("ski_k_saa_fail", dict(M=M, b=b, eps=eps, alpha=5e-5))
            nu = pair.nus[0]
            problem = pair.problem
            C = b * math.log(1.0 / eps)
            if oracle(problem, nu) > C:
                checked += 1
                assert 1.0 - cdf(nu, C) <= math.exp(-C / b) + 1e-9
        assert checked >= 2

    def test_scanned_measures_obey_tail_bound(self):
        p = ProblemSpec.ski_rental(1, 10)
        eps = 0.05
        C = math.log(1.0 / eps)
        grid = ScanGrid((0.75, 1.25, 10.0), weight_resolution=40, max_atoms=2)
        for nu in enumerate_grid_measures(grid, 10.0):
            if oracle(p, nu) > C:
                assert 1.0 - cdf(nu, C) <= math.exp(-C) + 1e-9


class TestReportInvariants:
    def test_negative_estimate_rejected(self):
        with pytest.raises(ValueError):
            RegretReport(estimate=-0.5, ci_half_width=0.1)

    def test_crossed_bounds_rejected(self):
        with pytest.raises(ValueError):
            RegretReport(estimate=0.1, analytic_lower=0.5, analytic_upper=0.2)
