import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heterodro.measures import (
    NegativeWeight,
    PointOutOfRange,
    QOutOfRange,
    WeightsNotNormalized,
    from_text,
    make_finite_measure,
    quantile,
    to_text,
)
from heterodro.metrics import kolmogorov

from conftest import cdf, empirical_from, mean, random_measure, sample


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
        assert kolmogorov(emp, m) <= 0.03

    def test_dkw_convergence_over_seeds(self):
        # DKW at 99% confidence: d_K <= 1.63/sqrt(n), doubled for slack;
        # over 100 seeds at most 3 may fail.
        m = make_finite_measure([0, 0.25, 1], [0.25, 0.35, 0.4], 1)
        n = 10_000
        bound = 2 * 1.63 / math.sqrt(n)
        failures = sum(
            kolmogorov(empirical_from(sample(m, seed, n), 1), m) > bound
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
