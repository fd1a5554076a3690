import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from heterodro.measures import make_finite_measure
from heterodro.metrics import DistanceKind
from heterodro.policies import (
    CappedOnNonSki,
    EpsNonPositive,
    PolicyKind,
    PolicySpec,
    apply_policy,
    policy_action,
    recommended_parameter,
)
from heterodro.problems import ProblemSpec, oracle

from conftest import empirical_from, random_measure

PR = ProblemSpec.pricing(1)
SKI = ProblemSpec.ski_rental(4, 10)


def delta(p, upper):
    return make_finite_measure([p], [1.0], upper)


class TestApplyPolicy:
    def test_saa_point_mass(self):
        assert apply_policy(PolicySpec.saa(), PR, delta(0.7, 1)) == 0.7

    def test_deflation(self):
        pol = PolicySpec.delta_saa(-0.2)
        assert apply_policy(pol, PR, delta(1.0, 1)) == pytest.approx(0.8)

    def test_clamp_at_zero(self):
        pol = PolicySpec.delta_saa(-0.2)
        assert apply_policy(pol, PR, delta(0.1, 1)) == 0.0

    def test_clamp_at_upper(self):
        pol = PolicySpec.delta_saa(0.5)
        assert apply_policy(pol, PR, delta(0.9, 1)) == 1.0

    def test_capped_truncates(self):
        m = make_finite_measure([3, 10], [0.9, 0.1], 10)
        uncapped = apply_policy(PolicySpec.saa(), SKI, m)
        capped = apply_policy(PolicySpec.capped(2.0), SKI, m)
        assert capped == min(2.0, uncapped)

    def test_capped_on_non_ski(self):
        with pytest.raises(CappedOnNonSki):
            apply_policy(PolicySpec.capped(1.0), PR, delta(0.5, 1))

    def test_delta_zero_is_saa(self, rng):
        for problem in (PR, SKI):
            for _ in range(50):
                m = random_measure(rng, upper=problem.M)
                assert apply_policy(PolicySpec.delta_saa(0.0), problem, m) == apply_policy(
                    PolicySpec.saa(), problem, m
                )

    def test_sample_size_agnostic(self, rng):
        # multiplicity-preserving duplication of the sample leaves the
        # empirical measure, and hence the action, unchanged
        for pol in (PolicySpec.saa(), PolicySpec.delta_saa(0.3), PolicySpec.capped(2.0)):
            for _ in range(20):
                xs = rng.choice([1.0, 2.0, 7.0], size=6).tolist()
                m1 = empirical_from(xs, 10)
                m2 = empirical_from(xs * 5, 10)
                assert apply_policy(pol, SKI, m1) == apply_policy(pol, SKI, m2)

    def test_output_in_action_space(self, rng):
        pols = [PolicySpec.saa(), PolicySpec.delta_saa(-5.0), PolicySpec.delta_saa(5.0)]
        for _ in range(100):
            m = random_measure(rng, upper=10.0)
            for pol in pols:
                assert 0.0 <= apply_policy(pol, SKI, m) <= SKI.M


class TestPolicyAction:
    @pytest.mark.parametrize(
        "pol",
        [PolicySpec.saa(), PolicySpec.delta_saa(-0.3), PolicySpec.delta_saa(2.5),
         PolicySpec.capped(0.4), PolicySpec.capped(6.0)],
        ids=["saa", "dsaa-neg", "dsaa-pos", "cap-low", "cap-high"],
    )
    def test_function_of_the_oracle_action(self, pol, rng):
        # the DRO scan maps each measure's one oracle action through
        # policy_action; apply_policy must give the same action
        for p in (PR, SKI, ProblemSpec.newsvendor(2, 1, 1)):
            for _ in range(50):
                m = random_measure(rng, upper=p.M)
                if pol.kind is PolicyKind.CAPPED and p is not SKI:
                    with pytest.raises(CappedOnNonSki):
                        apply_policy(pol, p, m)
                    with pytest.raises(CappedOnNonSki):
                        policy_action(pol, p, oracle(p, m))
                    continue
                assert policy_action(pol, p, oracle(p, m)) == apply_policy(pol, p, m)


class TestRecommendedParameter:
    def test_pricing_wasserstein_deflates(self):
        pol = recommended_parameter(PR, DistanceKind.WASSERSTEIN, 0.04)
        assert pol.kind is PolicyKind.DELTA_SAA
        assert pol.delta == pytest.approx(-0.2)

    def test_ski_wasserstein_inflates(self):
        pol = recommended_parameter(SKI, DistanceKind.WASSERSTEIN, 0.04)
        assert pol.delta == pytest.approx(0.4)

    def test_ski_kolmogorov_caps(self):
        pol = recommended_parameter(SKI, DistanceKind.KOLMOGOROV, 0.01)
        assert pol.kind is PolicyKind.CAPPED
        assert pol.cap == pytest.approx(4 * math.log(100))

    def test_newsvendor_stays_saa(self):
        nv = ProblemSpec.newsvendor(1, 2, 1)
        for kind in DistanceKind:
            assert recommended_parameter(nv, kind, 0.1) == PolicySpec.saa()

    def test_pricing_kolmogorov_stays_saa(self):
        assert recommended_parameter(PR, DistanceKind.KOLMOGOROV, 0.1) == PolicySpec.saa()

    def test_eps_must_be_positive(self):
        with pytest.raises(EpsNonPositive):
            recommended_parameter(PR, DistanceKind.WASSERSTEIN, 0.0)


finite = st.floats(allow_nan=False, allow_infinity=False)


class TestText:
    def test_round_trip(self):
        for pol in (PolicySpec.saa(), PolicySpec.delta_saa(-0.25), PolicySpec.capped(4.6)):
            assert PolicySpec.from_text(pol.to_text()) == pol

    @given(
        st.one_of(
            st.just(PolicySpec.saa()),
            finite.map(PolicySpec.delta_saa),
            finite.filter(lambda c: c > 0.0).map(PolicySpec.capped),
        )
    )
    def test_round_trip_any(self, pol):
        assert PolicySpec.from_text(pol.to_text()) == pol

    @pytest.mark.parametrize("text", ["cap:nan", "cap:inf", "cap:-inf", "cap:0", "cap:-1"])
    def test_cap_must_be_finite_and_positive(self, text):
        with pytest.raises(ValueError, match=f"cannot parse policy text '{text}'"):
            PolicySpec.from_text(text)

    def test_invalid(self):
        with pytest.raises(ValueError):
            PolicySpec.from_text("greedy")
