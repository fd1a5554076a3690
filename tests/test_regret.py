import itertools
import math
import tracemalloc
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heterodro.approx import saa_diagnostic
from heterodro.measures import MERGE_TOL, _from_canonical, _renormalized, make_finite_measure
from heterodro.metrics import (
    BALL_SLACK,
    DistanceKind,
    distance,
    distance_block,
    distance_terms,
    in_ball,
    kolmogorov,
    location_columns,
    total_variation,
    wasserstein1,
    weights_on,
)
from heterodro.policies import PolicySpec, apply_policy, recommended_parameter
from heterodro import regret
from heterodro.problems import (
    ProblemKind,
    ProblemSpec,
    _row_measure,
    expected_objective,
    opt_value,
    oracle,
)
from heterodro.regret import (
    AdversarialPair,
    EpsTooLarge,
    GridTooLarge,
    InvalidBRange,
    MissingParameter,
    Z95,
    RegretReport,
    ScanGrid,
    UnknownName,
    adversarial_instance,
    analytic_bounds,
    bounds_for_policy,
    dro_regret_scan,
    evaluate_pair,
    exact_regret,
    exhaustive_regret_n2,
    fixed_action_minimax,
    grid_weight_rows,
    monte_carlo_regret,
    ski_indifference_measure,
)

from conftest import (
    cdf,
    enumerate_grid_measures,
    hetero_helps_homogeneous_max,
    mean,
    mix,
    reference_analytic_bounds,
    reference_dro_regret_scan,
    reference_saa_diagnostic,
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


def reference_monte_carlo_regret(p, pol, mu, nus, trials, seed):
    """Monte-Carlo regret with the columns grouped by a per-element dict of
    ids, then merged by content, each group mapped by its own searchsorted:
    the reference for ``monte_carlo_regret``, which groups by object with
    one ``np.unique`` and counts through shared tables.  Sampling and RNG
    streams are the same."""
    n = len(nus)
    opt_mu = opt_value(p, mu)
    columns_of_id = {}
    for i, ident in enumerate(map(id, nus)):
        columns_of_id.setdefault(ident, []).append(i)
    columns_of = {}
    for cols in columns_of_id.values():
        nu = nus[cols[0]]
        columns_of.setdefault((nu.support, nu.weights), []).extend(cols)
    union = sorted({pt for sup, _ in columns_of for pt in sup})
    union_arr = np.asarray(union)
    index_of = {pt: i for i, pt in enumerate(union)}
    plans = [
        (np.cumsum(wts), np.asarray([index_of[pt] for pt in sup]), np.asarray(cols))
        for (sup, wts), cols in columns_of.items()
    ]
    regrets = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(t,)))
        u = rng.random(n)
        sample_idx = np.empty(n, dtype=np.int64)
        for cum, idx_map, cols in plans:
            k = np.minimum(np.searchsorted(cum, u[cols], side="right"), len(idx_map) - 1)
            sample_idx[cols] = idx_map[k]
        counts = np.bincount(sample_idx, minlength=len(union))
        nz = counts > 0
        m_hat = _from_canonical(union_arr[nz].tolist(), (counts[nz] / n).tolist(), mu.upper)
        action = apply_policy(pol, p, m_hat)
        regrets[t] = abs(opt_mu - expected_objective(p, action, mu))
    ci = float(Z95 * regrets.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return RegretReport(
        estimate=float(regrets.mean()), ci_half_width=ci, n=n, trials=trials, seed=seed
    )


@st.composite
def mc_histories(draw):
    """A problem, a policy, mu and a history of 1-5 distinct objects, some
    of them equal-content copies of another, in random order."""
    problem, pol = draw(
        st.sampled_from(
            [
                (ProblemSpec.newsvendor(2.0, 1.0, 10.0), SAA),
                (ProblemSpec.pricing(10.0), PolicySpec.delta_saa(0.5)),
                (ProblemSpec.ski_rental(3.0, 10.0), SAA),
                (ProblemSpec.ski_rental(3.0, 10.0), PolicySpec.capped(4.0)),
            ]
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    integer_days = problem.kind is ProblemKind.SKI_RENTAL

    def fresh():
        k = int(rng.integers(1, 7))
        if integer_days:
            pts = rng.choice(np.arange(1, 11), size=k, replace=False).astype(float)
        else:
            pts = rng.uniform(0.0, 10.0, size=k)
        return make_finite_measure(pts.tolist(), rng.dirichlet(np.ones(k)).tolist(), 10.0)

    objects = [fresh()]
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            m = objects[draw(st.integers(0, len(objects) - 1))]
            objects.append(make_finite_measure(list(m.support), list(m.weights), m.upper))
        else:
            objects.append(fresh())
    n = draw(st.integers(1, 300))
    order = draw(st.lists(st.integers(0, len(objects) - 1), min_size=n, max_size=n))
    return problem, pol, fresh(), [objects[i] for i in order]


# Settings of monte_carlo_regret's counting, each forcing one regime; the
# last keeps the module's own switches.
COUNTING_REGIMES = {
    "loop-compare": dict(_ENTRIES_PER_GROUP=0, _COLUMNS_PER_COMPARE=0),
    "loop-search": dict(_ENTRIES_PER_GROUP=0, _COLUMNS_PER_COMPARE=10**9),
    "table": dict(_ENTRIES_PER_GROUP=10**9),
    "default": dict(_ENTRIES_PER_GROUP=regret._ENTRIES_PER_GROUP),
}


def assert_matches_reference(p, pol, mu, nus, trials, seed):
    want = reference_monte_carlo_regret(p, pol, mu, nus, trials, seed)
    for name, regime in COUNTING_REGIMES.items():
        with mock.patch.multiple(regret, **regime):
            got = monte_carlo_regret(p, pol, mu, nus, trials, seed)
        assert got.estimate.hex() == want.estimate.hex(), name
        assert got.ci_half_width.hex() == want.ci_half_width.hex(), name


@st.composite
def mc_many_histories(draw):
    """A problem, a policy, mu and a history of 1-39 distinct objects of
    1-29 atoms: either each on its own support (the union grows with the
    objects) or all on subsets of one shared support with their own
    weights, atoms at 0 and at the upper end included."""
    problem, pol = draw(
        st.sampled_from(
            [
                (ProblemSpec.newsvendor(2.0, 1.0, 10.0), SAA),
                (ProblemSpec.pricing(10.0), PolicySpec.delta_saa(0.5)),
                (ProblemSpec.ski_rental(3.0, 10.0), SAA),
                (ProblemSpec.ski_rental(3.0, 10.0), PolicySpec.capped(4.0)),
            ]
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if problem.kind is ProblemKind.SKI_RENTAL:  # integer days
        shared = np.arange(0.0, 11.0)
    else:
        shared = np.concatenate([[0.0, 10.0], rng.uniform(0.0, 10.0, size=30)])
    drifting = draw(st.booleans())

    def fresh():
        k = int(rng.integers(1, min(30, len(shared)) + 1))
        if drifting and problem.kind is not ProblemKind.SKI_RENTAL:
            pts = rng.uniform(0.0, 10.0, size=k)
            pts[: int(rng.integers(0, 3))] = rng.choice([0.0, 10.0])
        else:
            pts = rng.choice(shared, size=k, replace=False)
        return make_finite_measure(pts.tolist(), rng.dirichlet(np.ones(k)).tolist(), 10.0)

    objects = [fresh() for _ in range(draw(st.integers(1, 39)))]
    n = draw(st.integers(1, 1200))
    return problem, pol, fresh(), [objects[i] for i in rng.integers(0, len(objects), n)]


def below_one_cumsum(rng, k):
    """Canonical weights of k >= 3 atoms whose running sum rounds below 1 at
    the end (for k <= 2 it is always exactly 1)."""
    for _ in range(1000):
        w = make_finite_measure(np.arange(k).tolist(), rng.dirichlet(np.ones(k)).tolist(), 10.0)
        if np.cumsum(w.weights)[-1] < 1.0:
            return list(w.weights)
    raise AssertionError(f"no {k}-atom weights with a cumsum below 1")


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
        # Setup groups histories by object, so equal-content copies form
        # groups of their own; the report depends only on the contents, in
        # column order.
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

    @settings(max_examples=150, deadline=None)
    @given(case=mc_histories(), trials=st.integers(1, 3), seed=st.integers(0, 10**6))
    def test_grouping_matches_reference(self, case, trials, seed):
        p, pol, mu, nus = case
        got = monte_carlo_regret(p, pol, mu, nus, trials, seed)
        want = reference_monte_carlo_regret(p, pol, mu, nus, trials, seed)
        assert got.estimate.hex() == want.estimate.hex()
        assert got.ci_half_width.hex() == want.ci_half_width.hex()

    @settings(max_examples=60, deadline=None)
    @given(case=mc_many_histories(), trials=st.integers(1, 3), seed=st.integers(0, 10**6))
    def test_every_counting_regime_matches_reference(self, case, trials, seed):
        p, pol, mu, nus = case
        assert_matches_reference(p, pol, mu, nus, trials, seed)

    @settings(max_examples=100, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 300), min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_padded_cumsum_rows_are_each_cumsum(self, sizes, seed):
        # monte_carlo_regret takes each history's cumulative weights from one
        # row-wise cumsum over a zero-padded table: add.accumulate adds along
        # each row in order, so a row's leading entries are the history's
        # own np.cumsum, bit for bit (including sums that round below 1).
        rng = np.random.default_rng(seed)
        rows = [
            below_one_cumsum(rng, k) if 3 <= k <= 11 and rng.random() < 0.5
            else rng.dirichlet(np.ones(k)).tolist()
            for k in sizes
        ]
        table = np.zeros((len(rows), max(sizes)))
        for g, w in enumerate(rows):
            table[g, : len(w)] = w
        cum = np.cumsum(table, axis=1)
        for g, w in enumerate(rows):
            got = cum[g, : len(w)].tolist()
            assert [x.hex() for x in got] == [x.hex() for x in np.cumsum(w).tolist()]

    def test_uniforms_on_the_cumulative_weights(self, monkeypatch):
        # Uniforms exactly at, just below and just above every cumulative
        # weight, 0, and the largest double below 1 at or above a cumsum that
        # rounds below 1: the draws where a count could be off by one or the
        # clamp to the last atom matters.
        rng = np.random.default_rng(12)
        objects = []
        for k in (1, 2, 3, 5, 8, 2, 3, 4, 6, 7, 9, 2):
            pts = np.sort(rng.choice(np.arange(11.0), size=k, replace=False))
            wts = below_one_cumsum(rng, k) if k >= 3 else rng.dirichlet(np.ones(k)).tolist()
            objects.append(make_finite_measure(pts.tolist(), wts, 10.0))
        nus = [objects[i % len(objects)] for i in range(600)]
        pools = []
        for nu in nus:
            cum = np.cumsum(nu.weights)
            near = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, 2.0), [0.0]])
            pools.append(np.append(near[near < 1.0], np.nextafter(1.0, 0.0)))

        def edge_generator(seed_seq):
            t = seed_seq.spawn_key[0]
            draws = np.array([pool[(i + t) % len(pool)] for i, pool in enumerate(pools)])
            return types.SimpleNamespace(random=lambda n: draws[:n])

        monkeypatch.setattr(np.random, "default_rng", edge_generator)
        p = ProblemSpec.newsvendor(2.0, 1.0, 10.0)
        assert_matches_reference(p, SAA, objects[4], nus, 9, 0)

    def test_heterogeneous_history_converges_to_the_mixture(self):
        # The paper's DRO connection: n samples, each from its own nu_i in
        # the ball, behave like n samples from the mixture (1/n) sum nu_i,
        # which lies in the ball too (balls of an IPM are convex).  Every
        # nu_i here is a distinct object with its own weights on {0.2, 0.5,
        # 0.8}, so each trial counts 10^4 distinct histories.
        p, n = ProblemSpec.newsvendor(1.0, 1.0, 1.0), 10_000
        mu = make_finite_measure([0.2, 0.5, 0.8], [0.3, 0.15, 0.55], 1.0)
        drift = np.random.default_rng(8).uniform(-0.05, 0.05, n)
        nus = [make_finite_measure([0.2, 0.5, 0.8], [0.3, 0.28 + d, 0.42 - d], 1.0) for d in drift]
        nu_bar = nus[0]
        for i, nu in enumerate(nus[1:], 2):
            nu_bar = mix(nu_bar, nu, (i - 1) / i)
        assert in_ball(mu, nu_bar, K, 0.2)
        # strict oracle margin: the median of nu_bar, 0.5, stays the median
        # of every empirical CDF within 10 standard deviations of nu_bar's
        assert cdf(nu_bar, 0.2) < 0.5 - 0.05 and cdf(nu_bar, 0.5) > 0.5 + 0.05
        rep = monte_carlo_regret(p, SAA, mu, nus, trials=20, seed=4)
        exact = exact_regret(p, SAA, mu, nu_bar)
        assert exact > 0.0
        assert abs(rep.estimate - exact) <= 3 * rep.ci_half_width + 1.0 / math.sqrt(n)

    def test_history_interval_must_match_mu(self):
        p = ProblemSpec.ski_rental(3, 10)
        with pytest.raises(ValueError, match="historical measure on"):
            monte_carlo_regret(p, SAA, delta(4, 10), [delta(4, 10), delta(4, 5)], 3, 1)

    @pytest.mark.parametrize("order", list(itertools.permutations(range(4))))
    def test_interval_error_names_first_off_interval_column(self, order):
        # Groups are ordered by object id, not by column; the error still
        # names the history of the first off-interval column.
        p = ProblemSpec.ski_rental(3, 10)
        off = [delta(4, upper) for upper in (5, 6, 7, 8)]
        nus = [delta(4, 10)] * 3 + [off[i] for i in order] * 2
        first = off[order[0]].upper
        with pytest.raises(ValueError, match=rf"historical measure on \[0, {first}\]"):
            monte_carlo_regret(p, SAA, delta(4, 10), nus, 3, 1)

    @pytest.mark.parametrize(
        "problem, pol",
        [
            (ProblemSpec.newsvendor(2.0, 1.0, 10.0), SAA),
            (ProblemSpec.pricing(10.0), PolicySpec.delta_saa(0.5)),
            (ProblemSpec.ski_rental(3.0, 10.0), SAA),
            (ProblemSpec.ski_rental(3.0, 10.0), PolicySpec.capped(4.0)),
        ],
    )
    def test_signed_zero_atoms_match_reference(self, problem, pol):
        # Objects put atoms at -0.0 and at 0.0, some with equal content
        # otherwise: the union holds one zero, whichever sign np.unique
        # keeps, and every regime matches the reference bit for bit.
        objects = [
            make_finite_measure([zero, *pts], wts, 10.0)
            for zero in (-0.0, 0.0)
            for pts, wts in (([4.0], [0.5, 0.5]), ([3.0, 7.0], [0.25, 0.25, 0.5]))
        ]
        objects.append(make_finite_measure([-0.0], [1.0], 10.0))
        assert {math.copysign(1.0, m.support[0]) for m in objects} == {-1.0, 1.0}
        mu = make_finite_measure([0.0, 4.0, 8.0], [0.2, 0.5, 0.3], 10.0)
        rng = np.random.default_rng(21)
        for n in (1, 7, 400):
            nus = [objects[i] for i in rng.integers(0, len(objects), n)]
            assert_matches_reference(problem, pol, mu, nus, 4, n)


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
        with pytest.raises(MissingParameter, match="requires parameter"):
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


SCAN_CELLS = [
    (ProblemSpec.newsvendor(1, 2, 1), SAA),
    (ProblemSpec.newsvendor(1, 2, 1), PolicySpec.delta_saa(0.1)),
    (ProblemSpec.pricing(1), SAA),
    (ProblemSpec.pricing(1), PolicySpec.delta_saa(-0.1)),
    (ProblemSpec.ski_rental(3, 10), SAA),
    (ProblemSpec.ski_rental(3, 10), PolicySpec.capped(2.0)),
]


def eps_on_boundary(d):
    """The eps >= 0 with eps + BALL_SLACK == d, where one exists."""
    eps = max(d - BALL_SLACK, 0.0)
    for _ in range(4):  # undo the rounding of d - BALL_SLACK
        if eps == 0.0 or eps + BALL_SLACK == d:
            break
        eps = float(np.nextafter(eps, math.inf if eps + BALL_SLACK < d else -math.inf))
    return eps


@st.composite
def scan_cases(draw, locations, resolution):
    """A policy cell, a distance, a grid, an eps and a block budget for
    ``regret._SCAN_ENTRIES``.  eps is drawn at random, or is the scalar
    distance of one of the grid's pairs, or puts that pair exactly on the
    scan's boundary: eps + BALL_SLACK equals its distance as the 3-D blocks
    reduce it."""
    problem, pol = draw(st.sampled_from(SCAN_CELLS))
    kind = draw(st.sampled_from([K, TV, W]))
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=locations[0],
                              max_size=locations[1], unique=True))
    locs = tuple(sorted({f * problem.M for f in fractions}))
    grid = ScanGrid(
        locs,
        weight_resolution=draw(st.integers(*resolution)),
        max_atoms=draw(st.integers(1, 3)),
    )
    index = st.integers(0, grid.measure_count - 1)
    pair = draw(st.none() | st.tuples(index, index, st.sampled_from(["scalar", "boundary"])))
    if pair is None:
        eps = draw(st.floats(0.0, 0.6))
    else:
        i, j, mode = pair
        ms = enumerate_grid_measures(grid, problem.M)
        if mode == "scalar":
            eps = distance(kind, ms[i], ms[j])
        else:
            arr = np.asarray(locs)
            Wm = weights_on([ms[i], ms[j]], arr)
            terms = distance_terms(kind, Wm[0], Wm[1], np.append(arr[1:], problem.M) - arr)
            d = terms.max() if kind is K else terms.sum() * (0.5 if kind is TV else 1.0)
            eps = eps_on_boundary(d)
    entries = draw(st.sampled_from([1, 5, 64, 1 << 17]))
    return problem, pol, kind, grid, eps, entries


@st.composite
def weight_row_grids(draw):
    """A grid and its interval's upper end.  Locations are random or on a
    1/8 lattice, sometimes include 0 and ``upper``, and up to two of them
    get a partner closer than ``MERGE_TOL``, at it, or just past it."""
    upper = draw(st.sampled_from([1.0, 0.75, 10.0]))
    lattice = st.integers(0, 8).map(lambda k: k / 8)
    fractions = draw(st.lists(st.floats(0.0, 1.0) | lattice, min_size=1, max_size=4))
    locs = {f * upper for f in fractions}
    for x in draw(st.lists(st.sampled_from(sorted(locs)), max_size=2)):
        gap = draw(st.sampled_from([1e-13, 5e-13, MERGE_TOL, 2 * MERGE_TOL]))
        locs.add(x + draw(st.sampled_from([gap, -gap])))
    if draw(st.booleans()):
        locs |= {0.0, upper}
    grid = ScanGrid(
        tuple(sorted({min(max(v, 0.0), upper) for v in locs})),
        weight_resolution=draw(st.integers(1, 10)),
        max_atoms=draw(st.integers(1, 4)),
    )
    assume(grid.measure_count <= 3000)
    return grid, upper


@st.composite
def window_cases(draw):
    """A distance, 1-10 locations on [0, upper], weight rows on them and an
    eps for ``regret._ball_windows``.  Sometimes a location sits at
    ``upper`` (the last W1 gap is zero) and some locations get a partner
    just over ``MERGE_TOL`` away.  The rows are a grid's, or random (their
    CDFs and distances round more often); random TV rows are renormalised
    to fsum 1, as grid rows are, which the TV windows need.  eps is drawn
    at random, or puts one pair exactly on the ball's edge: eps + BALL_SLACK
    equals its ``distance_block`` value."""
    kind = draw(st.sampled_from([K, TV, W]))
    upper = draw(st.sampled_from([1.0, 10.0]))
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=7))
    locs = {f * upper for f in fractions}
    for x in draw(st.lists(st.sampled_from(sorted(locs)), max_size=2)):
        locs.add(x + draw(st.sampled_from([1.5e-12, 2e-12, 1e-11])))
    if draw(st.booleans()):
        locs.add(upper)
    locs = sorted({min(v, upper) for v in locs})
    if draw(st.booleans()):
        grid = ScanGrid(
            tuple(locs), draw(st.integers(1, 6)), max_atoms=draw(st.integers(1, 3))
        )
        assume(grid.measure_count <= 1500)
        rows = grid_weight_rows(grid, upper)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n, L = draw(st.integers(1, 60)), len(locs)
        rows = rng.dirichlet(np.ones(L), size=n) * (rng.random((n, L)) < 0.7)
        if kind is TV:
            rows[~rows.any(axis=1), 0] = 1.0
            rows = np.array([_renormalized(row) for row in rows.tolist()])
    arr = np.asarray(locs)
    gaps = np.append(arr[1:], upper) - arr
    cols = location_columns(kind, rows)
    D = distance_block(kind, cols, cols, gaps)
    if draw(st.booleans()):
        eps = draw(st.floats(0.0, 0.6))
    else:
        index = st.integers(0, len(rows) - 1)
        eps = eps_on_boundary(float(D[draw(index), draw(index)]))
    return kind, cols, gaps, D, eps


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

    @settings(max_examples=200, deadline=None)
    @given(case=weight_row_grids())
    def test_weight_rows_match_enumeration(self, case):
        # Row i is weights_on of the reference's measure i, float for float,
        # and the scan rebuilds that measure from it.
        grid, upper = case
        measures = enumerate_grid_measures(grid, upper)
        locs = np.asarray(grid.locations)
        W = grid_weight_rows(grid, upper)
        ref = weights_on(measures, locs)
        assert W.shape == ref.shape
        assert [v.hex() for v in W.ravel().tolist()] == [v.hex() for v in ref.ravel().tolist()]
        assert [_row_measure(row, locs, upper) for row in W] == measures

    def test_compositions_computed_once_and_read_only(self):
        grid = ScanGrid((0.0, 0.3, 0.7, 1.0), weight_resolution=7, max_atoms=3)
        first = grid_weight_rows(grid, 1.0)
        raw, comps = regret._compositions(3, 7)
        assert regret._compositions(3, 7)[1] is comps
        assert len(raw) == len(comps) == 15
        with pytest.raises(ValueError):
            comps[0, 0] = 0.0
        assert grid_weight_rows(grid, 1.0).tobytes() == first.tobytes()

    def test_weight_rows_merge_close_locations(self):
        # The default pricing/W1 grid at eps = 1e-26: its first three
        # locations lie within MERGE_TOL of each other.
        grid = ScanGrid((0.4999999999999, 0.49999999999995, 0.5, 1.0), 20, 2)
        W = grid_weight_rows(grid, 1.0)
        # 4 point masses, and the 19 compositions of each of the 3 close pairs
        assert (np.count_nonzero(W, axis=1) == 1).sum() == 4 + 3 * 19
        ref = weights_on(enumerate_grid_measures(grid, 1.0), np.asarray(grid.locations))
        assert np.array_equal(W, ref)

    def test_grid_too_large_checked_before_enumerating(self, monkeypatch):
        def fail(*args):
            raise AssertionError("enumerated an oversized grid")

        monkeypatch.setattr(regret, "grid_weight_rows", fail)
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
        cell=st.sampled_from(SCAN_CELLS),
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


    @settings(max_examples=150, deadline=None)
    @given(case=scan_cases(locations=(1, 7), resolution=(1, 12)))
    def test_matches_reference(self, case):
        # Below 8 locations the running sums add in np.sum's order, so the
        # estimate and the witness are bit-identical to the 3-D blocks,
        # whatever the block size (which sets how often rows are pruned).
        problem, pol, kind, grid, eps, entries = case
        with mock.patch.object(regret, "_SCAN_ENTRIES", entries):
            rep = dro_regret_scan(problem, pol, kind, eps, grid)
        estimate, pair = reference_dro_regret_scan(problem, pol, kind, eps, grid)
        if pair is not None and not in_ball(pair[0], pair[1], kind, eps):
            # The reference's witness fails in_ball (the old scan raised on
            # it); the scan reports the best pair that passes instead.
            assert rep.estimate <= estimate
            assert rep.witness is None or in_ball(rep.witness.mu, rep.witness.nus[0], kind, eps)
            return
        assert rep.estimate.hex() == estimate.hex()
        if pair is None:
            assert rep.witness is None
        else:
            assert (rep.witness.mu, rep.witness.nus) == (pair[0], (pair[1],))

    @settings(max_examples=40, deadline=None)
    @given(case=scan_cases(locations=(8, 10), resolution=(1, 5)))
    def test_many_locations_certified(self, case):
        # From 8 locations np.sum adds pairwise and the running sums may
        # differ from it in the last bit, so only the certificate is checked.
        problem, pol, kind, grid, eps, entries = case
        with mock.patch.object(regret, "_SCAN_ENTRIES", entries):
            rep = dro_regret_scan(problem, pol, kind, eps, grid)
        if rep.witness is None:
            assert rep.estimate == 0.0
            return
        mu, (nu,) = rep.witness.mu, rep.witness.nus
        assert in_ball(mu, nu, kind, eps)
        assert rep.estimate == pytest.approx(exact_regret(problem, pol, mu, nu), abs=1e-9)

    def test_edge_pair_failing_in_ball_is_not_reported(self):
        # At this eps the block's TV sum puts the best pair inside the ball
        # and the scalar distance puts it just outside: the old scan picked
        # it and raised ValueError building the witness.
        p, eps = ProblemSpec.newsvendor(1, 2, 1), 0.9999999999989999
        grid = ScanGrid((0.0, 0.5, 0.75, 0.875, 1.0), weight_resolution=3, max_atoms=2)
        _, (ref_mu, ref_nu) = reference_dro_regret_scan(p, SAA, TV, eps, grid)
        assert not in_ball(ref_mu, ref_nu, TV, eps)
        rep = dro_regret_scan(p, SAA, TV, eps, grid)
        mu, (nu,) = rep.witness.mu, rep.witness.nus
        assert in_ball(mu, nu, TV, eps)
        assert rep.estimate == pytest.approx(exact_regret(p, SAA, mu, nu), abs=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(case=window_cases())
    def test_windows_hold_every_pair_in_the_ball(self, case):
        # Each location's term alone bounds the block distance, so every pair
        # the scan's blocks could put in the ball lies in its row's window.
        kind, cols, gaps, D, eps = case
        n = D.shape[0]
        order, lo, hi = regret._ball_windows(kind, cols, gaps, eps)
        assert sorted(order.tolist()) == list(range(n))
        assert (np.diff(lo) >= 0).all() and (np.diff(hi) >= 0).all()
        at = np.empty(n, np.intp)
        at[order] = np.arange(n)
        mu, nu = np.nonzero(D <= eps + BALL_SLACK)
        assert ((lo[at[mu]] <= at[nu]) & (at[nu] < hi[at[mu]])).all()

    @settings(max_examples=100, deadline=None)
    @given(case=scan_cases(locations=(1, 7), resolution=(1, 12)))
    def test_window_bound_covers_every_pair_in_the_ball(self, case):
        # Every pair that distance_block puts in the ball scores at most its
        # row's bound, and the bound is the largest score in the row's window.
        problem, pol, kind, grid, eps, _ = case
        seen = {}

        def spy(name):
            def call(*args):
                seen[name] = args, real(*args)
                return seen[name][1]

            real = getattr(regret, name)
            return mock.patch.object(regret, name, call)

        with spy("_ball_windows"), spy("_window_bound"):
            dro_regret_scan(problem, pol, kind, eps, grid)
        (_, cols, gaps, _), (order, lo, hi) = seen["_ball_windows"]
        (V, a_idx, _, _), bound = seen["_window_bound"]
        D = distance_block(kind, cols[:, order], cols[:, order], gaps)
        mu, nu = np.nonzero(D <= eps + BALL_SLACK)
        assert (V[mu, a_idx[nu]] <= bound[mu]).all()
        for p in range(len(bound)):
            assert bound[p] == V[p, a_idx[lo[p] : hi[p]]].max()

    def test_bound_prunes_the_default_grid(self, monkeypatch):
        # ski:3,10, Kolmogorov, eps 0.05, SAA: 600 measures.  Skipping only
        # rows whose regret over every action is below the best scored
        # 95 160 entries in 10 blocks; the window bound, blocks taken from
        # the largest bound down, scores 16 892 in 4.
        from heterodro.cli import default_scan_grid

        entries = []

        def recording(kind, a, b, gaps):
            entries.append(a.shape[1] * b.shape[1])
            return distance_block(kind, a, b, gaps)

        monkeypatch.setattr(regret, "distance_block", recording)
        p = ProblemSpec.ski_rental(3, 10)
        rep = dro_regret_scan(p, SAA, K, 0.05, default_scan_grid(p, K, SAA, 0.05))
        assert rep.estimate == pytest.approx(0.15, abs=1e-9)
        assert 0 < sum(entries) <= 30_000

    @pytest.mark.parametrize("kind", [K, TV, W])
    def test_windows_hold_pairs_whose_distance_rounds_down(self, kind):
        # Where x > 2y the difference x - y can be inexact.  Where it rounds
        # down to eps + BALL_SLACK the pair is in the ball, yet
        # x - (eps + BALL_SLACK) lies above y: only the widened radius keeps
        # y in x's window.
        rng = np.random.default_rng(3)
        rows = rng.dirichlet(np.ones(2), size=40)
        locs = np.array([0.25, 0.5])
        gaps = np.append(locs[1:], 1.0) - locs
        cols = location_columns(kind, rows)
        D = distance_block(kind, cols, cols, gaps)
        at = np.empty(len(rows), np.intp)
        for d in np.unique(D[D > 0.25]).tolist():
            eps = eps_on_boundary(d)
            order, lo, hi = regret._ball_windows(kind, cols, gaps, eps)
            at[order] = np.arange(len(rows))
            mu, nu = np.nonzero(D <= eps + BALL_SLACK)
            assert ((lo[at[mu]] <= at[nu]) & (at[nu] < hi[at[mu]])).all()

    def test_tv_windows_hold_pairs_whose_weights_round_apart(self):
        # Rows that fsum to 1 can differ at one location by an ulp or so more
        # than their TV distance.  Near eps = 0 a relative widening of the
        # radius misses that; its additive term keeps such pairs inside.
        rng = np.random.default_rng(0)
        x, d = rng.random(40), 10.0 ** rng.uniform(-11.5, -10, 40)
        pairs = [([v, 1 - v], [v + dv, 1 - v - dv]) for v, dv in zip(x.tolist(), d.tolist())]
        rows = np.array([_renormalized(r) for pair in pairs for r in pair])
        gaps = np.array([0.5, 0.5])
        cols = location_columns(TV, rows)
        D = distance_block(TV, cols, cols, gaps)
        at = np.empty(len(rows), np.intp)
        for k in range(len(pairs)):
            eps = eps_on_boundary(float(D[2 * k, 2 * k + 1]))
            order, lo, hi = regret._ball_windows(TV, cols, gaps, eps)
            at[order] = np.arange(len(rows))
            mu, nu = np.nonzero(D <= eps + BALL_SLACK)
            assert ((lo[at[mu]] <= at[nu]) & (at[nu] < hi[at[mu]])).all()

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.25])
    def test_tv_windows_reach_eps_not_twice_eps(self, eps):
        # |dw| at one location is at most the TV distance (plus ulps), not
        # twice it, so no window holds more than some location's pairs
        # within eps + BALL_SLACK of each other.  A 2 * eps radius would also
        # take pairs up to 0.1, 0.2 or 0.5 apart.
        grid = ScanGrid((0.0, 0.25, 0.5, 0.75, 1.0), 10, 2)
        cols = location_columns(TV, grid_weight_rows(grid, 1.0))
        _, lo, hi = regret._ball_windows(TV, cols, np.full(5, 0.25), eps)
        reach = (eps + BALL_SLACK) * (1 + 2.0**-40)
        counts = [int((np.abs(c[:, None] - c) <= reach).sum()) for c in cols]
        assert (hi - lo).sum() <= min(counts) < len(hi) ** 2

    @settings(max_examples=100, deadline=None)
    @given(case=weight_row_grids(), kind=st.sampled_from([K, TV, W]), seed=st.integers(0, 2**32 - 1))
    def test_block_distances_without_all_zero_locations(self, case, kind, seed):
        # At a location where every row agrees (or a W1 gap is 0) each term
        # is +0.0, so the scan drops it and D stays bit for bit; and on grid
        # rows block K is the scalar kolmogorov, so the scan takes K pairs
        # without in_ball.
        grid, upper = case
        rows = grid_weight_rows(grid, upper)
        locs = np.asarray(grid.locations)
        gaps = np.append(locs[1:], upper) - locs
        cols = location_columns(kind, rows)
        D = distance_block(kind, cols, cols, gaps)
        live = (cols.max(axis=1) > cols.min(axis=1)) & ((gaps > 0.0) | (kind is not W))
        assert live.any() or D.shape == (1, 1)
        if live.any():
            assert distance_block(kind, cols[live], cols[live], gaps[live]).tobytes() == D.tobytes()
        if kind is K:
            ms = [_row_measure(row, locs, upper) for row in rows]
            pairs = np.random.default_rng(seed).integers(len(ms), size=(200, 2)).tolist()
            for i, j in pairs + [[0, len(ms) - 1]]:
                assert float(D[i, j]).hex() == kolmogorov(ms[i], ms[j]).hex()

    @pytest.mark.parametrize("entries", [1, 5, 64])
    @pytest.mark.parametrize(
        "kind, resolution, max_atoms, eps",
        # K reaches 2 * eps; on the dyadic W1 grid 72 in-ball pairs, in 72
        # rows, tie exactly at the largest score.
        [(K, 20, 2, 0.05), (K, 20, 2, 0.1), (W, 8, 3, 0.125)],
    )
    def test_ties_across_blocks_keep_the_first_witness(
        self, kind, resolution, max_atoms, eps, entries
    ):
        # The sorted order puts equal scores in many blocks; the witness is
        # still the first such pair in (mu, nu) order.
        p = ProblemSpec.newsvendor(1, 1, 1)
        grid = ScanGrid((0.0, 0.25, 0.5, 0.75, 1.0), resolution, max_atoms)
        with mock.patch.object(regret, "_SCAN_ENTRIES", entries):
            rep = dro_regret_scan(p, SAA, kind, eps, grid)
        estimate, (mu, nu) = reference_dro_regret_scan(p, SAA, kind, eps, grid)
        assert rep.estimate.hex() == estimate.hex()
        assert rep.estimate == pytest.approx(2 * eps, abs=1e-9)
        assert (rep.witness.mu, rep.witness.nus) == (mu, (nu,))

    @pytest.mark.parametrize("entries", [regret._SCAN_ENTRIES, 4096])
    def test_blocks_bounded(self, monkeypatch, entries):
        # Every block of the default grids and of the 1055- and 1905-measure
        # grids holds at most _SCAN_ENTRIES pairs and _SCAN_ROWS rows; a
        # smaller _SCAN_ENTRIES (still above one row) binds before the rows.
        from heterodro.cli import default_scan_grid

        monkeypatch.setattr(regret, "_SCAN_ENTRIES", entries)

        blocks = []

        def recording(kind, a, b, gaps):
            blocks.append((a.shape[1], b.shape[1]))
            return distance_block(kind, a, b, gaps)

        monkeypatch.setattr(regret, "distance_block", recording)
        for p in (ProblemSpec.newsvendor(1, 1, 1), ProblemSpec.pricing(1), ProblemSpec.ski_rental(3, 10)):
            for kind in (K, TV, W):
                for eps in (0.005, 0.02, 0.1):
                    dro_regret_scan(p, SAA, kind, eps, default_scan_grid(p, kind, SAA, eps))
        locs = (0.1, 0.3, 0.5, 0.7, 0.9)
        for res, n in ((15, 1055), (20, 1905)):
            grid = ScanGrid(locs, weight_resolution=res, max_atoms=3, max_pairs=10**8)
            assert grid.measure_count == n
            for kind in (K, TV, W):
                dro_regret_scan(ProblemSpec.newsvendor(1, 1, 1), SAA, kind, 0.1, grid)
        assert blocks
        assert all(r * w <= entries and r <= regret._SCAN_ROWS for r, w in blocks)

    def test_block_memory(self):
        # 1905 measures: the distance and regret blocks are (rows x n) with
        # rows x n about _SCAN_ENTRIES, not 128 rows x n x L.
        grid = ScanGrid((0.1, 0.3, 0.5, 0.7, 0.9), weight_resolution=20, max_atoms=3)
        assert grid.measure_count == 1905
        tracemalloc.start()
        try:
            dro_regret_scan(ProblemSpec.newsvendor(1, 1, 1), SAA, K, 0.1, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


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

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_matches_reference(self, data):
        # Sizes in [0.01, 100] keep every product a normal float, where
        # 2 * (a * M) and (2 * a) * M round alike.
        size = st.floats(0.01, 100.0)
        p = data.draw(
            st.one_of(
                st.sampled_from(
                    [
                        ProblemSpec.newsvendor(1, 3, 1),
                        ProblemSpec.pricing(1),
                        ProblemSpec.ski_rental(3, 10),
                    ]
                ),
                st.builds(ProblemSpec.newsvendor, size, size, size),
                st.builds(ProblemSpec.pricing, size),
                st.builds(
                    lambda M, f: ProblemSpec.ski_rental(f * M, M), size, st.floats(0.01, 0.99)
                ),
            )
        )
        # eps on, and one ulp either side of, every validity cap
        if p.kind is ProblemKind.NEWSVENDOR:
            q = p.critical_fractile
            caps = [min(q, 1 - q), p.M * min(q, 1 - q)]
        elif p.kind is ProblemKind.PRICING:
            caps = [0.5, p.M / 4.0]
        else:
            caps = [0.5, p.b / 4.0, math.exp(-p.M / p.b)]
        cap = data.draw(st.sampled_from(caps))
        eps = data.draw(
            st.one_of(
                st.sampled_from(
                    [cap, math.nextafter(cap, math.inf), math.nextafter(cap, 0.0), 0.0]
                ),
                st.floats(0.0, 1.5 * cap, exclude_min=True),
            )
        )

        def result(bounds, *args):
            try:
                return [v.hex() for v in bounds(*args)]
            except Exception as exc:
                return type(exc), str(exc)

        for kind in DistanceKind:
            assert saa_diagnostic(p, kind).hex() == reference_saa_diagnostic(p, kind).hex()
            for pol_kind in ("saa", "best"):
                got = result(analytic_bounds, p, kind, pol_kind, eps)
                assert got == result(reference_analytic_bounds, p, kind, pol_kind, eps)
        assert saa_diagnostic(p, TV).hex() == saa_diagnostic(p, K).hex()

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
