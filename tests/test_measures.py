import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heterodro.measures import (
    MERGE_TOL,
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
from heterodro.metrics import DistanceKind, distance

from conftest import (
    cdf,
    empirical_from,
    mean,
    outcome,
    random_measure,
    reference_from_text,
    reference_make_finite_measure,
    reference_renormalized,
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
