import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heterodro import measures
from heterodro.measures import (
    MERGE_TOL,
    FiniteMeasure,
    NegativeWeight,
    PointOutOfRange,
    QOutOfRange,
    WeightsNotNormalized,
    _renormalized,
    from_text,
    make_finite_measure,
    quantile,
    to_text,
)
from heterodro.metrics import DistanceKind, distance, weights_on
from heterodro.policies import PolicySpec
from heterodro.problems import ProblemSpec, expected_objective
from heterodro.regret import monte_carlo_regret

from conftest import (
    cdf,
    empirical_from,
    mean,
    outcome,
    random_measure,
    reference_distance,
    reference_expected_objective,
    reference_from_text,
    reference_make_finite_measure,
    reference_monte_carlo_regret,
    reference_renormalized,
    reference_weights_on,
    sample,
)


def delta(p, upper):
    return make_finite_measure([p], [1.0], upper)


class TestConstruction:
    def test_duplicates_merge(self):
        m = make_finite_measure([1, 1, 3], [1 / 3, 1 / 3, 1 / 3], 10)
        assert m.support == (1.0, 3.0)
        assert m.weights == pytest.approx((2 / 3, 1 / 3), abs=1e-15)

    def test_point_mass(self):
        m = make_finite_measure([5], [1.0], 5)
        assert m.support == (5.0,)
        assert m.weights == (1.0,)

    def test_two_point_cdf(self):
        m = make_finite_measure([0, 1], [0.3, 0.7], 1)
        assert cdf(m, 0) == pytest.approx(0.3, abs=1e-15)

    def test_zero_weights_dropped(self):
        m = make_finite_measure([0, 0.5, 1], [0.5, 0.0, 0.5], 1)
        assert m.support == (0.0, 1.0)

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight):
            make_finite_measure([0, 1], [-0.1, 1.1], 1)

    def test_not_normalized(self):
        with pytest.raises(WeightsNotNormalized):
            make_finite_measure([0, 1], [0.5, 0.6], 1)

    def test_point_out_of_range(self):
        with pytest.raises(PointOutOfRange):
            make_finite_measure([2], [1.0], 1)
        with pytest.raises(PointOutOfRange):
            make_finite_measure([-0.1], [1.0], 1)

    def test_near_duplicates_merge(self):
        m = make_finite_measure([0.5, 0.5 + 1e-13], [0.5, 0.5], 1)
        assert len(m.support) == 1

    def test_weight_sum_exact_after_canonicalization(self, rng):
        for _ in range(200):
            m = random_measure(rng)
            assert math.fsum(m.weights) == 1.0

    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 1.0, allow_nan=False),
                st.integers(1, 100),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_canonicalization_idempotent(self, raw):
        total = sum(w for _, w in raw)
        pts = [p for p, _ in raw]
        wts = [w / total for _, w in raw]
        m = make_finite_measure(pts, wts, 1.0)
        again = make_finite_measure(list(m.support), list(m.weights), m.upper)
        assert again == m


class TestCdfQuantile:
    def test_point_mass_step(self):
        m = delta(5, 5)
        assert cdf(m, 4.999) == 0.0
        assert cdf(m, 5) == 1.0

    def test_cdf_at_upper_is_one(self, rng):
        for _ in range(50):
            m = random_measure(rng)
            assert cdf(m, m.upper) == 1.0

    def test_quantile_examples(self):
        m = make_finite_measure([0, 1], [0.25, 0.75], 1)
        assert quantile(m, 0.5) == 1.0
        assert quantile(m, 0.25) == 0.0

    def test_quantile_point_mass(self):
        m = delta(5, 5)
        for q in (1e-9, 0.5, 1.0):
            assert quantile(m, q) == 5.0
        assert quantile(m, 0.0) == 5.0

    def test_quantile_out_of_range(self):
        with pytest.raises(QOutOfRange):
            quantile(delta(1, 1), 1.5)
        with pytest.raises(QOutOfRange):
            quantile(delta(1, 1), -0.1)

    @settings(max_examples=200)
    @given(st.floats(1e-12, 1.0), st.integers(0, 2**32))
    def test_galois_cdf_quantile(self, q, seed):
        m = random_measure(np.random.default_rng(seed), max_atoms=6)
        assert cdf(m, quantile(m, q)) >= q - 1e-15


class TestSampling:
    def test_degenerate(self):
        assert sample(delta(5, 5), 123, 3) == [5.0, 5.0, 5.0]

    def test_deterministic(self):
        m = make_finite_measure([0, 0.5, 1], [0.2, 0.3, 0.5], 1)
        assert sample(m, 7, 100) == sample(m, 7, 100)

    def test_fair_coin_mean(self):
        m = make_finite_measure([0, 1], [0.5, 0.5], 1)
        xs = sample(m, 7, 10_000)
        assert 0.45 <= float(np.mean(xs)) <= 0.55

    def test_empirical_examples(self):
        m = empirical_from([1, 1, 3], 10)
        assert m.support == (1.0, 3.0)
        assert m.weights == pytest.approx((2 / 3, 1 / 3), abs=1e-15)
        assert empirical_from([2], 2).support == (2.0,)

    def test_empirical_out_of_range(self):
        with pytest.raises(PointOutOfRange):
            empirical_from([3], 2)

    def test_empirical_close_in_kolmogorov(self):
        m = make_finite_measure([0, 1], [0.5, 0.5], 1)
        emp = empirical_from(sample(m, 99, 10_000), 1)
        assert distance(DistanceKind.KOLMOGOROV, emp, m) <= 0.03

    def test_dkw_convergence_over_seeds(self):
        # DKW at 99% confidence: d_K <= 1.63/sqrt(n), doubled for slack;
        # over 100 seeds at most 3 may fail.
        m = make_finite_measure([0, 0.25, 1], [0.25, 0.35, 0.4], 1)
        n = 10_000
        bound = 2 * 1.63 / math.sqrt(n)
        failures = sum(
            distance(DistanceKind.KOLMOGOROV, empirical_from(sample(m, seed, n), 1), m) > bound
            for seed in range(100)
        )
        assert failures <= 3


class TestMean:
    def test_point_mass(self):
        assert mean(delta(5, 5)) == 5.0

    def test_coin(self):
        assert mean(make_finite_measure([0, 1], [0.5, 0.5], 1)) == 0.5


class TestSerialization:
    def test_round_trip(self, rng):
        for _ in range(100):
            m = random_measure(rng)
            assert from_text(to_text(m)) == m

    @given(st.data())
    def test_round_trip_any(self, data):
        upper = data.draw(st.floats(1e-6, 1e6))
        k = data.draw(st.integers(1, 20))
        pts = data.draw(st.lists(st.floats(0.0, upper), min_size=k, max_size=k))
        wts = data.draw(st.lists(st.floats(1e-6, 1.0), min_size=k, max_size=k))
        total = math.fsum(wts)
        m = make_finite_measure(pts, [w / total for w in wts], upper)
        assert from_text(to_text(m)) == m

    def test_format(self):
        m = make_finite_measure([0.5], [1.0], 2.0)
        assert to_text(m) == "0.5:1.0@2.0"

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            from_text("not-a-measure")


@st.composite
def raw_atoms(draw):
    """(points, weights, upper) as callers pass them: 1-1000 atoms, sorted
    or not, chains of near-duplicates (each step within ``MERGE_TOL``, the
    chain longer), -0.0 beside 0.0, zero and tied weights, a sum off 1 by
    up to 1e-10, as a list of floats, numpy arrays, numpy scalars or ints."""
    upper = draw(st.sampled_from([1.0, 3.7, 250.0, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.one_of(st.integers(1, 6), st.integers(1, 1000)))
    if draw(st.integers(0, 9)) == 0:
        pts = rng.integers(0, upper, k, endpoint=True).tolist()
        wts = [0] * k
        wts[int(rng.integers(k))] = 1
        return pts, wts, upper
    pts = rng.uniform(0.0, upper, k)
    if draw(st.booleans()):
        n = int(rng.integers(1, k + 1))
        i = int(rng.integers(0, k - n + 1))
        step = draw(st.sampled_from([0.5, 0.75, 1.0, 1.5])) * MERGE_TOL
        base = draw(st.sampled_from([0.0, float(pts[i])]))
        pts[i : i + n] = np.minimum(base + step * np.arange(n), upper)
    if draw(st.booleans()):
        pts[rng.random(k) < 0.2] = draw(st.sampled_from([0.0, -0.0]))
    if draw(st.booleans()):
        pts.sort()
    wts = {
        "dirichlet": lambda: rng.dirichlet(np.ones(k)),
        "counts": lambda: rng.integers(1, 4, k).astype(float),
        "equal": lambda: np.ones(k),
    }[draw(st.sampled_from(["dirichlet", "counts", "equal"]))]()
    if k > 1 and draw(st.booleans()):
        wts[rng.random(k) < 0.3] = 0.0
        wts[int(rng.integers(k))] = 1.0
    wts = wts / wts.sum() * (1.0 + draw(st.sampled_from([0.0, 1e-10, -1e-10, 3e-16])))
    form = draw(st.sampled_from(["list", "array", "scalars"]))
    if form == "list":
        return pts.tolist(), wts.tolist(), upper
    if form == "array":
        return pts, wts, upper
    return list(pts), list(wts), upper


BAD_VALUES = [math.nan, math.inf, -math.inf, -0.5, -1e-300, 1e308, "above"]


class TestMatchesReference:
    """The builtin forms against the one-step-per-atom references in
    conftest: the same fields by ``float.hex``, the same error type and
    message."""

    @settings(max_examples=300, deadline=None)
    @given(raw_atoms())
    def test_make_finite_measure(self, raw):
        # the reference takes numpy arrays as lists of numpy scalars: its
        # emptiness test cannot take an array
        pts, wts, upper = raw
        expected = outcome(reference_make_finite_measure, list(pts), list(wts), upper)
        assert outcome(make_finite_measure, pts, wts, upper) == expected

    @settings(max_examples=300, deadline=None)
    @given(
        raw_atoms(),
        st.lists(
            st.tuples(st.sampled_from(["point", "weight"]), st.sampled_from(BAD_VALUES),
                      st.integers(0, 999)),
            min_size=1,
            max_size=3,
        ),
    )
    def test_first_offender(self, raw, bad):
        # NaN, inf, negative or out-of-range values anywhere, several at
        # once: the same check fires first, naming the same value.
        pts, wts, upper = list(raw[0]), list(raw[1]), raw[2]
        for which, value, pos in bad:
            if which == "point":
                pts[pos % len(pts)] = upper + 1.0 if value == "above" else value
            else:
                wts[pos % len(wts)] = 2.0 if value == "above" else value
        expected = outcome(reference_make_finite_measure, pts, wts, upper)
        assert outcome(make_finite_measure, pts, wts, upper) == expected
        assert outcome(make_finite_measure, np.array(pts), np.array(wts), upper) == expected

    @pytest.mark.parametrize(
        "args",
        [
            ([], [], 1.0),
            ([0.5], [0.5, 0.5], 1.0),
            ([0.5], [1.0], 0.0),
            ([0.5], [1.0], math.inf),
            ([0.5], [1.0], math.nan),
            ([0.0, 0.0], [0.0, 0.0], 1.0),
            ([0.0, -0.0, 0.0], [0.25, 0.5, 0.25], 1.0),
            ([-0.0, 0.0], [0.5, 0.5], 1.0),
            ([0.0, 1e-12, 2e-12, 3e-12], [0.25] * 4, 1.0),
            ([0.0, 0.75e-12, 1.5e-12, 2.25e-12], [0.25] * 4, 1.0),
            ([1e-12, 0.0], [0.25, 0.75], 1.0),
            ([1.5e-12, 0.5, 0.0, 0.75e-12], [0.25] * 4, 1.0),
            ([1, 0, 1], [0, 1, 0], 1),
            ([-1.0, math.nan], [0.5, 0.5], 1.0),
            ([2 ** 60, 2 ** 60 + 1], [0.5, 0.5], 2.0 ** 61),
            ([0.5, 0.5], [-1.0, 10 ** 400], 1.0),
        ],
    )
    def test_edge_cases(self, args):
        assert outcome(make_finite_measure, *args) == outcome(reference_make_finite_measure, *args)

    def test_numpy_arrays(self):
        m = make_finite_measure(np.array([0.0, 1.0]), np.array([0.5, 0.5]), 1.0)
        assert m == make_finite_measure([0.0, 1.0], [0.5, 0.5], 1.0)
        assert all(type(x) is float for x in (*m.support, *m.weights, m.upper))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from([0.1, 0.2, 1 / 3, 0.25, 0.3, 0.7]), min_size=1, max_size=40),
        st.sampled_from([1.0, 1.0 + 1e-10, 1.0 - 1e-10, 1.0 + 3e-16, 2.0]),
    )
    def test_renormalized(self, weights, scale):
        # tied weights, so the residual goes to the first largest one
        total = math.fsum(weights) / scale
        weights = [w / total for w in weights]
        got = _renormalized(list(weights))
        assert [w.hex() for w in got] == [w.hex() for w in reference_renormalized(list(weights))]


@st.composite
def near_valid_texts(draw):
    """A measure text of 1-1000 atoms with up to two edits: an extra ':', a
    ':' moved to another atom, an empty atom, a trailing ',', spaces, '_'
    between digits, '@' twice or no upper."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.one_of(st.integers(1, 4), st.integers(1, 1000)))
    pts = rng.uniform(0.0, 10.0, k)
    wts = rng.dirichlet(np.ones(k))
    atoms = [f"{p!r}:{w!r}" for p, w in zip(pts.tolist(), wts.tolist())]
    upper = "10.0"
    for edit in draw(st.lists(st.integers(0, 9), max_size=2)):
        i = draw(st.integers(0, k - 1))
        j = draw(st.integers(0, k - 1))
        if edit == 0:
            atoms[i] += ":" + atoms[j].split(":")[0]
        elif edit == 1 and i != j:
            atoms[i], _, w = atoms[i].partition(":")
            atoms[j] += ":" + w
        elif edit == 2:
            atoms.insert(i, "")
        elif edit == 3:
            atoms.append("")
        elif edit == 4:
            atoms[i] = " " + atoms[i].replace(":", " : ") + " "
        elif edit == 5:
            atoms[i] = atoms[i].replace("0", "0_0", 1)
        elif edit == 6:
            upper += "@10.0"
        elif edit == 7:
            upper = ""
        elif edit == 8:
            atoms[i] = atoms[i].replace(":", ",", 1)
        else:
            atoms[i] = atoms[i].replace(".", "", 1)
    text = ",".join(atoms)
    return text if upper == "" and draw(st.booleans()) else f"{text}@{upper}"


class TestFromTextMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(near_valid_texts())
    def test_near_valid(self, text):
        assert outcome(from_text, text) == outcome(reference_from_text, text)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="0123456789.:,@-+eEinfa _", max_size=30))
    def test_any_text(self, text):
        assert outcome(from_text, text) == outcome(reference_from_text, text)

    @pytest.mark.parametrize(
        "text",
        ["0:1:2@1", "0:1,@1", ",", "@1", "0:1", "0:1@", "0,0.5:1:0.5@1", "0:1@2@3",
         " 0 : 1 @ 1 ", "0:1_0@10", "1_0:1@1_0", "0:nan@1", "inf:1@1", "0:1@inf",
         "0:0.5,0:0.5@1", "-0.0:0.5,0.0:0.5@1", "0:1\n@1"],
    )
    def test_examples(self, text):
        assert outcome(from_text, text) == outcome(reference_from_text, text)


@st.composite
def edge_measures(draw, upper, min_atoms=1):
    """A canonical measure on [0, upper] of 1-40 atoms, its first atom
    sometimes at -0.0 or 0.0 and its last sometimes at upper."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(min_atoms, 40))
    pts = rng.uniform(0.0, upper, k)
    pts[0] = draw(st.sampled_from([pts[0], -0.0, 0.0]))
    if draw(st.booleans()):
        pts[-1] = upper
    return make_finite_measure(pts.tolist(), rng.dirichlet(np.ones(k)).tolist(), upper)


def fresh(m):
    """An equal measure whose array view is not built yet."""
    return FiniteMeasure(m.support, m.weights, m.upper)


class TestArrays:
    """``FiniteMeasure.arrays``: the tuples as read-only float64 arrays,
    built once per measure and invisible to ``==``, ``hash`` and ``repr``."""

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([1.0, 3.7, 250.0]).flatmap(edge_measures))
    def test_matches_tuples(self, m):
        support, weights = m.arrays
        for arr, values in ((support, m.support), (weights, m.weights)):
            assert arr.dtype == np.float64 and arr.shape == (len(values),)
            assert [x.hex() for x in arr.tolist()] == [x.hex() for x in values]
        assert m.arrays[0] is support and m.arrays[1] is weights

    def test_signed_zero_and_upper_atoms(self):
        m = make_finite_measure([-0.0, 0.5, 2.5], [0.25, 0.5, 0.25], 2.5)
        support, _ = m.arrays
        assert [x.hex() for x in support.tolist()] == ["-0x0.0p+0", "0x1.0000000000000p-1",
                                                       "0x1.4000000000000p+1"]

    def test_writes_raise(self):
        m = make_finite_measure([0.2, 0.7], [0.25, 0.75], 1.0)
        for arr in m.arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.5
            with pytest.raises(ValueError, match="read-only"):
                arr += 1.0
        assert m.arrays[0].tolist() == [0.2, 0.7] and m.arrays[1].tolist() == [0.25, 0.75]

    def test_eq_hash_repr_unchanged(self):
        m = make_finite_measure([-0.0, 0.7], [0.25, 0.75], 1.0)
        before = repr(m)
        m.arrays
        other = fresh(m)
        assert "arrays" not in vars(other)
        assert m == other and hash(m) == hash(other)
        assert repr(m) == repr(other) == before
        assert "array" not in before

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        problem=st.sampled_from(["newsvendor:2,1,10", "pricing:10", "ski:3,10"]),
        trials=st.integers(1, 3),
        seed=st.integers(0, 10**6),
    )
    def test_readers_match_tuple_references(self, data, problem, trials, seed):
        # Every reader of the view gives the tuple-based reference's bits,
        # on a measure whose view is built by the call and on one whose
        # view is already built.
        p = ProblemSpec.from_text(problem)
        mu, nu = data.draw(edge_measures(10.0)), data.draw(edge_measures(10.0))
        xs = [0.0, 10.0, mu.support[-1], data.draw(st.floats(0.0, 10.0))]
        locs = np.array(sorted({*mu.support, *nu.support}))
        nus = data.draw(st.lists(st.sampled_from([mu, nu]), min_size=1, max_size=30))
        pol = data.draw(st.sampled_from([PolicySpec.saa(), PolicySpec.delta_saa(-0.5)]))
        for a, b in ((fresh(mu), fresh(nu)), (mu, nu)):
            for x in xs:
                got = expected_objective(p, x, a)
                assert got.hex() == reference_expected_objective(p, x, a).hex()
            for kind in DistanceKind:
                for x, y in ((a, b), (b, a)):
                    assert distance(kind, x, y).hex() == reference_distance(kind, x, y).hex()
            got = weights_on([a, b, a], locs)
            assert got.tobytes() == reference_weights_on([a, b, a], locs).tobytes()
        for history in ([fresh(m) for m in nus], nus):
            got = monte_carlo_regret(p, pol, fresh(mu), history, trials, seed)
            want = reference_monte_carlo_regret(p, pol, mu, history, trials, seed)
            assert got.estimate.hex() == want.estimate.hex()
            assert got.ci_half_width.hex() == want.ci_half_width.hex()

    @pytest.mark.parametrize("problem", ["newsvendor:2,1,10", "pricing:10", "ski:3,10"])
    def test_mu_converted_once_per_monte_carlo_call(self, monkeypatch, problem):
        converted = []
        read_only = measures._read_only
        monkeypatch.setattr(
            measures, "_read_only", lambda values: converted.append(values) or read_only(values)
        )
        p = ProblemSpec.from_text(problem)
        nu = make_finite_measure([1.0, 4.0, 6.0, 9.0], [0.1, 0.2, 0.3, 0.4], 10.0)
        for trials in (1, 25):
            mu = make_finite_measure([2.0, 5.0, 7.0], [0.3, 0.3, 0.4], 10.0)
            converted.clear()
            monte_carlo_regret(p, PolicySpec.saa(), mu, [nu] * 50, trials, seed=3)
            assert sum(values is mu.support for values in converted) == 1
            assert sum(values is mu.weights for values in converted) == 1
