import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import heterodro.problems
from heterodro.cli import default_scan_grid
from heterodro.measures import make_finite_measure
from heterodro.metrics import DistanceKind, distance, weights_on
from heterodro.problems import (
    OutOfRange,
    ProblemKind,
    ProblemSpec,
    expected_objective,
    expected_objective_grid,
    objective,
    opt_value,
    oracle,
    oracle_rows,
)
from heterodro.policies import PolicySpec
from heterodro.regret import ScanGrid, ski_indifference_measure

from conftest import cdf, enumerate_grid_measures, random_measure, sense, tail

NV = ProblemSpec.newsvendor(1, 1, 1)
PR = ProblemSpec.pricing(1)
SKI = ProblemSpec.ski_rental(3, 10)


def delta(p, upper):
    return make_finite_measure([p], [1.0], upper)


# ---------------------------------------------------------------------------
# reference forms: the scalar objective and its generator-fsum expectation,
# which the broadcast kernel replaced, and the two ski-only cost forms the
# tail and Lipschitz arguments rest on


def reference_objective(p, x, xi):
    """g(x, xi) for one action and one realization, branch by branch."""
    for what, value in (("action", x), ("realization", xi)):
        if not (0.0 <= value <= p.M):
            raise OutOfRange(f"{what} {value} outside [0, {p.M}]")
    if p.kind is ProblemKind.NEWSVENDOR:
        return p.c_u * max(xi - x, 0.0) + p.c_o * max(x - xi, 0.0)
    if p.kind is ProblemKind.PRICING:
        return x if xi >= x else 0.0
    return xi if xi <= x else p.b + x


def reference_expected_objective(p, x, m):
    """fsum over the atoms of w * g(x, xi), one scalar objective at a time."""
    return math.fsum(w * reference_objective(p, x, xi) for xi, w in zip(m.support, m.weights))


class NonIntegerSupport(ValueError):
    pass


def ski_cost_from_cdf(p, x, m):
    """Ski-rental cost in CDF form: b*(1-F(x)) + x - int_0^x F."""
    if p.kind is not ProblemKind.SKI_RENTAL:
        raise ValueError("CDF cost form is specific to ski rental")
    if not (0.0 <= x <= p.M):
        raise OutOfRange(f"action {x} outside [0, {p.M}]")
    integral = 0.0
    f_prev = 0.0
    prev = 0.0
    for pt, w in zip(m.support, m.weights):
        if pt >= x:
            break
        integral += f_prev * (pt - prev)
        f_prev += w
        prev = pt
    integral += f_prev * (x - prev)
    return p.b * (1.0 - cdf(m, x)) + x - integral


def ski_discrete_cost(k, m, b):
    """Integer-day rental cost: sum_{i=1}^k P(xi >= i) + b * P(xi >= k+1)."""
    if abs(k - round(k)) > 1e-9:
        raise NonIntegerSupport(f"action {k} is not an integer day count")
    for pt in m.support:
        if abs(pt - round(pt)) > 1e-9:
            raise NonIntegerSupport(f"support point {pt} is not an integer")
    k = int(round(k))
    rent = math.fsum(tail(m, i - 0.5) for i in range(1, k + 1))
    return rent + b * tail(m, k + 0.5)


@st.composite
def problems(draw):
    """A problem of each kind with drawn parameters."""
    kind = draw(st.sampled_from(list(ProblemKind)))
    M = draw(st.floats(1e-3, 1e3))
    if kind is ProblemKind.NEWSVENDOR:
        return ProblemSpec.newsvendor(draw(st.floats(1e-3, 1e3)), draw(st.floats(1e-3, 1e3)), M)
    if kind is ProblemKind.PRICING:
        return ProblemSpec.pricing(M)
    return ProblemSpec.ski_rental(draw(st.floats(0.001, 0.999)) * M, M)


def points(M):
    """Values in [0, M], the edges -0.0, 0 and M drawn often."""
    return st.one_of(st.sampled_from([-0.0, 0.0, M]), st.floats(0.0, M))


class TestObjectiveKernel:
    """The broadcast kernel and its fsum reduction against the reference forms,
    bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_pointwise(self, data):
        p = data.draw(problems())
        x = data.draw(points(p.M))
        xi = data.draw(st.one_of(st.just(x), points(p.M)))
        assert float(objective(p, x, xi)).hex() == reference_objective(p, x, xi).hex()

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_broadcast(self, data):
        p = data.draw(problems())
        xs = data.draw(st.lists(points(p.M), min_size=1, max_size=8))
        xis = data.draw(st.lists(points(p.M), min_size=1, max_size=8))
        table = objective(p, np.asarray(xs)[:, None], xis)
        assert table.shape == (len(xs), len(xis))
        for row, x in zip(table.tolist(), xs):
            assert [v.hex() for v in row] == [reference_objective(p, x, xi).hex() for xi in xis]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_expectation(self, data):
        p = data.draw(problems())
        k = data.draw(st.integers(1, 300))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        pts = rng.uniform(0.0, p.M, size=k)
        edges = data.draw(st.lists(st.sampled_from([-0.0, 0.0, p.M]), max_size=2))
        for j, edge in enumerate(edges):
            pts[j % k] = edge
        m = make_finite_measure(pts.tolist(), rng.dirichlet(np.ones(k)).tolist(), p.M)
        actions = [data.draw(points(p.M)) for _ in range(3)] + [data.draw(st.sampled_from(m.support))]
        for x in actions:
            assert expected_objective(p, x, m).hex() == reference_expected_objective(p, x, m).hex()

    @pytest.mark.parametrize("M", range(3, 41))
    def test_indifference_measures(self, M):
        for b in range(2, M):
            p, m = ProblemSpec.ski_rental(b, M), ski_indifference_measure(M, b)
            for x in range(M + 1):
                assert expected_objective(p, x, m).hex() == reference_expected_objective(p, x, m).hex()

    def test_scalar_inputs_give_0d(self):
        for p in (NV, PR, SKI):
            assert np.shape(objective(p, 0.5, 0.25)) == ()

    def test_out_of_range_entry_named(self):
        with pytest.raises(OutOfRange, match=r"realization 1\.5 outside"):
            objective(PR, 0.5, [0.2, 1.5, 2.5])
        with pytest.raises(OutOfRange, match=r"action nan outside"):
            objective(SKI, [1.0, math.nan], 2.0)


class TestObjective:
    def test_newsvendor_underage(self):
        p = ProblemSpec.newsvendor(2, 1, 1)
        assert objective(p, 0.3, 0.8) == pytest.approx(1.0, abs=1e-15)

    def test_pricing_tie_is_sale(self):
        assert objective(PR, 0.5, 0.5) == 0.5

    def test_ski_buy_branch(self):
        assert objective(SKI, 2, 5) == 5.0

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            objective(PR, 1.5, 0.5)
        with pytest.raises(OutOfRange):
            objective(PR, 0.5, -0.1)

    def test_pointwise_bounds(self, rng):
        for _ in range(500):
            x, xi = rng.uniform(0, 1, size=2)
            assert 0.0 <= objective(PR, x, xi) <= PR.M
            assert 0.0 <= objective(NV, x, xi) <= max(NV.c_u, NV.c_o) * NV.M
            xs, xis = 10 * x, 10 * xi
            assert 0.0 <= objective(SKI, xs, xis) <= SKI.M + SKI.b


class TestExpectedObjective:
    def test_pricing_two_point(self):
        mu_plus = make_finite_measure([0.5, 1.0], [0.4, 0.6], 1)
        assert expected_objective(PR, 1.0, mu_plus) == pytest.approx(0.6, abs=1e-15)
        assert expected_objective(PR, 0.5, mu_plus) == pytest.approx(0.5, abs=1e-15)

    def test_newsvendor_point_mass(self, rng):
        for _ in range(50):
            x, xi0 = rng.uniform(0, 1, size=2)
            got = expected_objective(NV, x, delta(xi0, 1))
            assert got == pytest.approx(abs(x - xi0), abs=1e-12)

    def test_ski_indifference_costs(self):
        nu = ski_indifference_measure(10, 3)
        for k in list(range(7)) + [10]:
            assert expected_objective(SKI, k, nu) == pytest.approx(3.0, abs=1e-10)

    def test_ski_closed_form_matches_atom_sum(self, rng):
        for _ in range(300):
            m = random_measure(rng, upper=10.0)
            x = float(rng.uniform(0, 10))
            direct = expected_objective(SKI, x, m)
            via_cdf = ski_cost_from_cdf(SKI, x, m)
            assert direct == pytest.approx(via_cdf, abs=1e-10)

    @pytest.mark.parametrize(
        "x", [11, -1, 10.5, np.float64(-0.5), math.nan, math.nextafter(10.0, math.inf)],
        ids=["int", "negative-int", "float", "float64", "nan", "M+ulp"],
    )
    def test_action_out_of_range(self, x):
        # the reference text, with x printed as a float
        m = ski_indifference_measure(10, 3)
        with pytest.raises(OutOfRange) as info:
            expected_objective(SKI, x, m)
        assert str(info.value) == f"action {float(x)} outside [0, {SKI.M}]"

    @pytest.mark.parametrize("p", [NV, PR, SKI], ids=["newsvendor", "pricing", "ski"])
    def test_negative_zero_action(self, p):
        m = make_finite_measure([0.0, 0.5 * p.M, p.M], [0.25, 0.5, 0.25], p.M)
        assert expected_objective(p, -0.0, m) == expected_objective(p, 0.0, m)
        assert expected_objective(p, -0.0, m) == reference_expected_objective(p, -0.0, m)

    def test_grid_kernel_matches_scalar(self, rng):
        xs = np.linspace(0, 1, 37)
        for p in (NV, PR):
            for _ in range(20):
                m = random_measure(rng)
                grid = expected_objective_grid(p, xs, m)
                scalar = [expected_objective(p, x, m) for x in xs]
                assert np.allclose(grid, scalar, atol=1e-12)
        xs10 = np.linspace(0, 10, 37)
        for _ in range(20):
            m = random_measure(rng, upper=10.0)
            grid = expected_objective_grid(SKI, xs10, m)
            scalar = [expected_objective(SKI, x, m) for x in xs10]
            assert np.allclose(grid, scalar, atol=1e-12)


class TestSkiDiscreteCost:
    def test_rent_then_buy(self):
        m = delta(5, 10)
        assert ski_discrete_cost(0, m, 3) == 3.0
        assert ski_discrete_cost(5, m, 3) == 5.0
        assert ski_discrete_cost(2, m, 3) == 5.0

    def test_matches_expected_objective(self, rng):
        for _ in range(100):
            pts = rng.choice(np.arange(0, 11), size=3, replace=False)
            wts = rng.dirichlet(np.ones(3))
            m = make_finite_measure(pts.tolist(), wts.tolist(), 10)
            for k in range(11):
                assert ski_discrete_cost(k, m, 3) == pytest.approx(
                    expected_objective(SKI, k, m), abs=1e-10
                )

    def test_non_integer_support(self):
        with pytest.raises(NonIntegerSupport):
            ski_discrete_cost(1, delta(0.5, 10), 3)
        with pytest.raises(NonIntegerSupport):
            ski_discrete_cost(1.5, delta(5, 10), 3)


class TestOracle:
    def test_newsvendor_critical_fractile(self):
        m = make_finite_measure([0, 1], [0.25, 0.75], 1)
        assert oracle(NV, m) == 1.0

    def test_pricing_posts_high_atom(self):
        mu_plus = make_finite_measure([0.5, 1.0], [0.4, 0.6], 1)
        assert oracle(PR, mu_plus) == 1.0

    def test_ski_buys_immediately_when_cheap(self):
        assert oracle(SKI, delta(5, 10)) == 0.0

    def test_opt_values(self):
        assert opt_value(PR, delta(0.7, 1)) == pytest.approx(0.7)
        assert opt_value(SKI, delta(5, 10)) == pytest.approx(3.0)
        assert opt_value(SKI, delta(2, 10)) == pytest.approx(2.0)
        coin = make_finite_measure([0, 1], [0.5, 0.5], 1)
        assert opt_value(NV, coin) == pytest.approx(0.5)

    def test_pricing_tie_breaks_small(self):
        m = make_finite_measure([0.5, 1.0], [0.5, 0.5], 1)
        assert oracle(PR, m) == 0.5


def reference_ski_oracle(p, m):
    """The exhaustive ski-rental argmin: every candidate of {0} union
    support(m) costed with the exact fsum, in order, strict < (so ties go
    to the smallest action)."""
    candidates = [0.0] + [s for s in m.support if s > 0.0]
    best_x, best_cost = candidates[0], math.inf
    for x in candidates:
        c = expected_objective(p, x, m)
        if c < best_cost:
            best_x, best_cost = x, c
    return best_x


@st.composite
def ski_instances(draw):
    """(problem, measure) with real or integer atoms, optionally one at 0.

    Weights come from a skewed Dirichlet or from empirical counts (whose
    rational costs tie often).  The third shape is an indifference measure
    scaled by a real factor: every candidate ties exactly in real
    arithmetic, and only rounding separates them.
    """
    shape = draw(st.sampled_from(["real", "integer", "scaled_indifference"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "scaled_indifference":
        M0 = draw(st.integers(3, 40))
        b0 = draw(st.integers(2, M0 - 1))
        c = draw(st.floats(0.01, 100.0))
        base = ski_indifference_measure(M0, b0)
        M, b = M0 * c, b0 * c
        pts = np.asarray(base.support) * c
        wts = np.asarray(base.weights)
        # mass at 0 costs nothing for every candidate, so ties survive it
        if draw(st.booleans()):
            pts = np.concatenate([[0.0], pts])
            wts = np.concatenate([[draw(st.floats(0.01, 0.9))], wts])
            wts = wts / wts.sum()
        return ProblemSpec.ski_rental(b, M), make_finite_measure(pts.tolist(), wts.tolist(), M)
    if shape == "integer":
        M = float(draw(st.integers(3, 300)))
        b = float(draw(st.integers(1, int(M) - 1)))
        k = draw(st.integers(1, min(int(M), 60)))
        pts = rng.choice(np.arange(1, int(M) + 1), size=k, replace=False).astype(float)
    else:
        M = draw(st.floats(0.5, 500.0))
        b = draw(st.floats(0.01, 0.99)) * M
        k = draw(st.integers(1, 60))
        pts = rng.uniform(0.0, M, size=k)
    if draw(st.booleans()):
        pts[0] = 0.0
    if draw(st.booleans()):
        wts = rng.dirichlet(np.full(k, draw(st.sampled_from([0.05, 0.3, 1.0, 5.0]))))
    else:
        n = draw(st.integers(1, 400))
        wts = np.bincount(rng.integers(0, k, size=n), minlength=k) / n
    if not wts.any():
        wts[0] = 1.0
    return ProblemSpec.ski_rental(b, M), make_finite_measure(pts.tolist(), wts.tolist(), M)


class TestSkiOracleScreen:
    """The screened ski oracle returns the exhaustive argmin bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(ski_instances())
    def test_matches_reference(self, instance):
        p, m = instance
        assert oracle(p, m).hex() == reference_ski_oracle(p, m).hex()

    @pytest.mark.parametrize("M", range(3, 41))
    def test_indifference_measures(self, M):
        for b in range(2, M):
            p, m = ProblemSpec.ski_rental(b, M), ski_indifference_measure(M, b)
            assert oracle(p, m).hex() == reference_ski_oracle(p, m).hex()

    def test_empirical_histories(self, rng):
        # the Monte-Carlo use: empirical measures of integer-day samples
        p = ProblemSpec.ski_rental(97, 250)
        for _ in range(50):
            xs = rng.integers(1, 251, size=int(rng.integers(1, 300)))
            vals, counts = np.unique(xs, return_counts=True)
            m = make_finite_measure(vals.tolist(), (counts / len(xs)).tolist(), 250)
            assert oracle(p, m).hex() == reference_ski_oracle(p, m).hex()


@st.composite
def measured_problems(draw):
    """A problem of each kind and a measure on [0, M]: atoms at 0.0, -0.0
    and M drawn often, weights multiples of 1/n (so costs tie often)."""
    p = draw(problems())
    pts = draw(st.lists(points(p.M), min_size=1, max_size=12))
    counts = draw(st.lists(st.integers(1, 10), min_size=len(pts), max_size=len(pts)))
    return p, make_finite_measure(pts, [c / sum(counts) for c in counts], p.M)


def costed_actions(fn, p, m):
    """fn(p, m) and the actions expected_objective costed during the call."""
    calls = []
    real = heterodro.problems.expected_objective
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            heterodro.problems, "expected_objective",
            lambda p, x, m: calls.append(x) or real(p, x, m),
        )
        value = fn(p, m)
    return value, calls


class TestOptValue:
    """opt_value is the expected objective of oracle's action, bit for bit;
    for ski rental it reuses the oracle's exact recost."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(measured_problems(), ski_instances()))
    @example((SKI, ski_indifference_measure(10, 3)))
    @example((SKI, make_finite_measure([-0.0, 0.0, 5.0], [0.25, 0.25, 0.5], 10.0)))
    def test_matches_cost_of_oracle_action(self, instance):
        p, m = instance
        action, oracle_costed = costed_actions(oracle, p, m)
        value, costed = costed_actions(opt_value, p, m)
        assert value.hex() == expected_objective(p, action, m).hex()
        # ski: once per candidate the oracle recosts, and no more; the
        # other oracles cost nothing, so opt_value costs their action once
        if p.kind is ProblemKind.SKI_RENTAL:
            assert costed == oracle_costed and action in costed
        else:
            assert oracle_costed == [] and costed == [action]

    @pytest.mark.parametrize("M", range(3, 16))
    def test_ski_indifference_recosts_every_candidate_once(self, M):
        # every candidate ties, so all survive the screen
        for b in range(2, M):
            p, m = ProblemSpec.ski_rental(b, M), ski_indifference_measure(M, b)
            value, costed = costed_actions(opt_value, p, m)
            assert costed == [0.0, *m.support]
            assert value.hex() == expected_objective(p, oracle(p, m), m).hex()

    def test_measure_beyond_problem_interval(self):
        m = make_finite_measure([1.0, 12.0], [0.5, 0.5], 12.0)
        for p in (NV, PR, SKI):
            with pytest.raises(OutOfRange, match=r"measure interval \[0,12\.0\] exceeds"):
                opt_value(p, m)


# q = 1.0 exactly and q just below 1: a row whose running sum ends below q
# takes its last atom (quantile's clamp).
ROW_PROBLEMS = [
    NV,
    ProblemSpec.newsvendor(3, 1, 1),
    ProblemSpec.newsvendor(1, 1e-20, 1),
    ProblemSpec.newsvendor(1, 1e-15, 1),
    PR,
    ProblemSpec.pricing(4),
    SKI,
    ProblemSpec.ski_rental(1, 4),
]


@st.composite
def row_grids(draw):
    """A problem and a grid on [0, M]: random locations, a 1/8 lattice
    (whose weights tie pricing revenues), or integers for ski rental."""
    p = draw(st.sampled_from(ROW_PROBLEMS))
    shapes = [st.floats(0.0, p.M), st.integers(0, 8).map(lambda k: k / 8 * p.M)]
    if p.kind is ProblemKind.SKI_RENTAL:
        shapes.append(st.integers(0, int(p.M)).map(float))
    points = draw(st.sampled_from(shapes))
    locs = tuple(sorted(draw(st.lists(points, min_size=1, max_size=5, unique=True))))
    grid = ScanGrid(locs, draw(st.integers(1, 12)), draw(st.integers(1, 4)))
    assume(grid.measure_count <= 3000)
    return p, grid


def _default_grid(p):
    return p, default_scan_grid(p, DistanceKind.KOLMOGOROV, PolicySpec.saa(), 0.05)


# Grids with rows at or near exact ties, each of which oracle_rows hands to
# oracle: the row (0.7, 0.1, 0.2) on (0.2, 0.5, 0.8), where 0.5 and 0.8 both
# cost 0.45000000000000007 under newsvendor(4, 1, 1); the newsvendor and
# pricing default scan grids at eps 0.05; a ski grid that holds location 0.
NEAR_TIES = [
    (ProblemSpec.newsvendor(4, 1, 1), ScanGrid((0.2, 0.5, 0.8), weight_resolution=10, max_atoms=3)),
    _default_grid(NV),
    _default_grid(PR),
    (SKI, ScanGrid((0.0, 3.0, 6.0), weight_resolution=4, max_atoms=3)),
]


def assert_rows_match_oracle(p, measures, locs):
    """Assert oracle_rows matches oracle by float.hex; return the number of
    rows oracle_rows handed to oracle."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(heterodro.problems, "oracle", lambda p, m: calls.append(m) or oracle(p, m))
        got = oracle_rows(p, weights_on(measures, locs), locs).tolist()
    assert [a.hex() for a in got] == [oracle(p, m).hex() for m in measures]
    return len(calls)


class TestOracleRows:
    """oracle_rows gives oracle's action on every row, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(row_grids())
    @example(NEAR_TIES[0])
    @example(NEAR_TIES[1])
    @example(NEAR_TIES[2])
    @example(NEAR_TIES[3])
    def test_grid_rows(self, case):
        p, grid = case
        locs = np.asarray(grid.locations, dtype=float)
        sent = assert_rows_match_oracle(p, enumerate_grid_measures(grid, p.M), locs)
        assert sent or case not in NEAR_TIES

    @pytest.mark.parametrize("M", range(3, 16))
    def test_ski_indifference_ties(self, M):
        # Every candidate of an indifference measure ties in real
        # arithmetic; the grid on its support adds rows near such ties.
        for b in range(2, M):
            p, m = ProblemSpec.ski_rental(b, M), ski_indifference_measure(M, b)
            locs = np.asarray((0.0,) + m.support)
            grid = ScanGrid(tuple(locs.tolist()), weight_resolution=3, max_atoms=3)
            assert_rows_match_oracle(p, [m] + enumerate_grid_measures(grid, M), locs)

    @settings(max_examples=100, deadline=None)
    @given(ski_instances())
    def test_ski_measures(self, instance):
        p, m = instance
        assert_rows_match_oracle(p, [m], np.asarray(m.support))

    @settings(max_examples=50, deadline=None)
    @given(
        p=st.sampled_from(ROW_PROBLEMS[2:4]),
        locs=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=5, unique=True),
        resolution=st.integers(6, 14),
    )
    def test_newsvendor_fractile_near_one(self, p, locs, resolution):
        # Three atoms at these resolutions give rows whose running sum ends
        # below 1.0.
        grid = ScanGrid(tuple(sorted(locs)), resolution, max_atoms=3)
        assert_rows_match_oracle(p, enumerate_grid_measures(grid, p.M), np.asarray(grid.locations))

    def test_newsvendor_clamp(self):
        # Rows whose running sum ends below q = 1.0 take their last atom.
        p = ProblemSpec.newsvendor(1, 1e-20, 1)
        grid = ScanGrid((0.0, 0.5, 1.0), weight_resolution=10, max_atoms=3)
        measures = enumerate_grid_measures(grid, 1.0)
        below = [m for m in measures if sum(m.weights) < p.critical_fractile]
        assert below and all(oracle(p, m) == m.support[-1] for m in below)
        assert_rows_match_oracle(p, below, np.asarray(grid.locations))


class TestOracleBruteForce:
    @pytest.mark.parametrize("problem", [NV, PR, SKI])
    def test_matches_grid_optimum(self, problem, rng):
        xs = np.linspace(0.0, problem.M, 10_001)
        for _ in range(100):
            m = random_measure(rng, upper=problem.M, max_atoms=5)
            values = expected_objective_grid(problem, xs, m)
            best = opt_value(problem, m)
            if sense(problem) == "min":
                assert best <= values.min() + 1e-9
            else:
                assert best >= values.max() - 1e-9


class TestStructuralInequalities:
    def test_ski_partial_lipschitz(self, rng):
        # cost increase over a longer rental is at most the extra duration
        for _ in range(300):
            m = random_measure(rng, upper=10.0)
            x1, x2 = sorted(rng.uniform(0, 10, size=2))
            g1 = expected_objective(SKI, x1, m)
            g2 = expected_objective(SKI, x2, m)
            assert g2 - g1 <= (x2 - x1) + 1e-10

    def test_cdf_vs_wasserstein(self, rng):
        # F(x1) <= H(x2) + d_W / (x2 - x1) for x1 < x2
        for _ in range(300):
            a, b = random_measure(rng), random_measure(rng)
            x1, x2 = sorted(rng.uniform(0, 1, size=2))
            if x2 - x1 < 1e-6:
                continue
            dw = distance(DistanceKind.WASSERSTEIN, a, b)
            assert cdf(a, x1) <= cdf(b, x2) + dw / (x2 - x1) + 1e-9

    def test_pricing_revenue_shift(self, rng):
        # G(x2 | nu) - G(x1 | mu) <= (x2 - x1) + M * d_W / (x2 - x1)
        for _ in range(300):
            a, b = random_measure(rng), random_measure(rng)
            x1, x2 = sorted(rng.uniform(0, 1, size=2))
            if x2 - x1 < 1e-6:
                continue
            dw = distance(DistanceKind.WASSERSTEIN, a, b)
            lhs = expected_objective(PR, x2, b) - expected_objective(PR, x1, a)
            assert lhs <= (x2 - x1) + 1.0 * dw / (x2 - x1) + 1e-9

    def test_ski_cost_shift(self, rng):
        # G(x2 | mu) - G(x1 | nu) <= b * d_W / (x2 - x1) + d_W + (x2 - x1)
        for _ in range(300):
            a, b = random_measure(rng, upper=10.0), random_measure(rng, upper=10.0)
            x1, x2 = sorted(rng.uniform(0, 10, size=2))
            if x2 - x1 < 1e-6:
                continue
            dw = distance(DistanceKind.WASSERSTEIN, a, b)
            lhs = expected_objective(SKI, x2, a) - expected_objective(SKI, x1, b)
            assert lhs <= SKI.b * dw / (x2 - x1) + dw + (x2 - x1) + 1e-9


class TestParsing:
    def test_round_trip(self):
        for p in (NV, PR, SKI):
            assert ProblemSpec.from_text(p.to_text()) == p

    @given(problems())
    def test_round_trip_any(self, p):
        assert ProblemSpec.from_text(p.to_text()) == p

    def test_invalid(self):
        with pytest.raises(ValueError):
            ProblemSpec.from_text("auction:1")
        with pytest.raises(ValueError):
            ProblemSpec.ski_rental(10, 5)
        with pytest.raises(ValueError):
            ProblemSpec.newsvendor(0, 1, 1)
