import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heterodro.measures import FiniteMeasure, make_finite_measure
from heterodro.metrics import (
    DistanceKind,
    MismatchedInterval,
    distance,
    distance_block,
    in_ball,
    location_columns,
    weights_on,
)

from conftest import distance_terms, empirical_from, mix, random_measure, reference_distance

ALL_KINDS = list(DistanceKind)
K, TV, W = DistanceKind.KOLMOGOROV, DistanceKind.TOTAL_VARIATION, DistanceKind.WASSERSTEIN


def delta(p, upper):
    return make_finite_measure([p], [1.0], upper)


# Reference implementations: merged-breakpoint walks over the two supports
# with running CDF sums.  The kernel must reproduce them bit for bit.


def _merged_breakpoints(a: FiniteMeasure, b: FiniteMeasure) -> list[float]:
    return sorted(set(a.support) | set(b.support))


def reference_kolmogorov(a: FiniteMeasure, b: FiniteMeasure) -> float:
    best = 0.0
    fa = fb = 0.0
    ia = ib = 0
    for t in _merged_breakpoints(a, b):
        while ia < len(a.support) and a.support[ia] <= t:
            fa += a.weights[ia]
            ia += 1
        while ib < len(b.support) and b.support[ib] <= t:
            fb += b.weights[ib]
            ib += 1
        best = max(best, abs(fa - fb))
    return best


def reference_total_variation(a: FiniteMeasure, b: FiniteMeasure) -> float:
    wa = dict(zip(a.support, a.weights))
    wb = dict(zip(b.support, b.weights))
    pts = set(wa) | set(wb)
    return 0.5 * math.fsum(abs(wa.get(p, 0.0) - wb.get(p, 0.0)) for p in pts)


def reference_wasserstein1(a: FiniteMeasure, b: FiniteMeasure) -> float:
    pts = _merged_breakpoints(a, b)
    fa = fb = 0.0
    ia = ib = 0
    pieces = []
    for j, t in enumerate(pts):
        while ia < len(a.support) and a.support[ia] <= t:
            fa += a.weights[ia]
            ia += 1
        while ib < len(b.support) and b.support[ib] <= t:
            fb += b.weights[ib]
            ib += 1
        nxt = pts[j + 1] if j + 1 < len(pts) else a.upper
        pieces.append(abs(fa - fb) * (nxt - t))
    return math.fsum(pieces)


@st.composite
def measure_pairs(draw):
    """(a, b) on one interval: 1-1000 atoms each, some shared, atoms at 0
    and at upper, or b = a."""
    upper = draw(st.sampled_from([1.0, 3.7, 250.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = st.one_of(st.integers(1, 5), st.integers(1, 1000))

    def points(k):
        pts = rng.uniform(0.0, upper, k)
        if draw(st.booleans()):
            pts[0] = 0.0
        if draw(st.booleans()):
            pts[-1] = upper
        return pts

    def weights(k):
        return rng.dirichlet(np.full(k, draw(st.sampled_from([0.1, 1.0, 10.0]))))

    ka = draw(sizes)
    a = make_finite_measure(points(ka).tolist(), weights(ka).tolist(), upper)
    if draw(st.integers(0, 9)) == 0:
        return a, a
    kb = draw(sizes)
    pts = points(kb)
    shared = rng.random(kb) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    pts[shared] = rng.choice(a.support, size=int(shared.sum()))
    return a, make_finite_measure(pts.tolist(), weights(kb).tolist(), upper)


class TestExamples:
    def test_disjoint_point_masses(self):
        a, b = delta(0, 1), delta(1, 1)
        assert distance(K, a, b) == 1.0
        assert distance(TV, a, b) == 1.0
        assert distance(W, a, b) == 1.0

    def test_two_point_shift(self):
        a = make_finite_measure([0, 1], [0.5, 0.5], 1)
        b = make_finite_measure([0, 1], [0.3, 0.7], 1)
        assert distance(K, a, b) == pytest.approx(0.2, abs=1e-15)
        assert distance(TV, a, b) == pytest.approx(0.2, abs=1e-15)
        assert distance(W, a, b) == pytest.approx(0.2, abs=1e-15)

    def test_identity(self, rng):
        for _ in range(20):
            m = random_measure(rng)
            for kind in ALL_KINDS:
                assert distance(kind, m, m) == 0.0

    def test_point_mass_transport(self):
        assert distance(W, delta(0.2, 1), delta(0.9, 1)) == pytest.approx(0.7, abs=1e-15)

    def test_two_point_mass_tv_is_eps(self):
        # B_M(p) puts mass p at M and 1-p at 0; shifting p by eps moves
        # exactly eps of mass.
        M, q, eps = 1.0, 0.5, 0.1
        center = make_finite_measure([0, M], [q, 1 - q], M)
        shifted = make_finite_measure([0, M], [q + eps, 1 - q - eps], M)
        assert distance(TV, center, shifted) == pytest.approx(eps, abs=1e-12)

    def test_point_mass_wasserstein_shift(self):
        M, eta, eps = 1.0, 0.01, 0.004
        a = delta(M - eta, M)
        b = delta(min(M, M - eta + eps), M)
        assert distance(W, a, b) <= eps + 1e-15

    def test_mismatched_interval(self):
        with pytest.raises(MismatchedInterval):
            distance(K, delta(0.5, 1), delta(0.5, 2))


class TestKernelMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(measure_pairs())
    def test_bit_identical(self, pair):
        a, b = pair
        for kind, ref in (
            (K, reference_kolmogorov),
            (TV, reference_total_variation),
            (W, reference_wasserstein1),
        ):
            for x, y in ((a, b), (b, a)):
                value = distance(kind, x, y)
                assert type(value) is float
                assert value.hex() == ref(x, y).hex()

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(ALL_KINDS),
        n=st.integers(1, 12),
        L=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_distance_block_matches_terms(self, kind, n, L, seed):
        # The scan's location-at-a-time block, against all columns and
        # against a contiguous slice of them, versus the terms reduced over
        # the location axis: bit-identical below 8 locations, where np.sum
        # adds left to right; from 8 on np.sum adds pairwise.
        rng = np.random.default_rng(seed)
        Wm = rng.dirichlet(np.ones(L), size=n) * (rng.random((n, L)) < 0.7)
        locs = np.sort(rng.random(L))
        gaps = np.append(locs[1:], 1.0) - locs
        rows = np.sort(rng.choice(n, size=rng.integers(1, n + 1), replace=False))
        terms = distance_terms(kind, Wm[rows, None, :], Wm[None, :, :], gaps)
        expected = {
            DistanceKind.KOLMOGOROV: lambda: terms.max(axis=2),
            DistanceKind.TOTAL_VARIATION: lambda: 0.5 * terms.sum(axis=2),
            DistanceKind.WASSERSTEIN: lambda: terms.sum(axis=2),
        }[kind]()
        cols = location_columns(kind, Wm)
        lo, hi = np.sort(rng.integers(0, n + 1, size=2))
        for got, want in (
            (distance_block(kind, cols[:, rows], cols, gaps), expected),
            (distance_block(kind, cols[:, rows], cols[:, lo:hi], gaps), expected[:, lo:hi]),
        ):
            assert got.shape == want.shape
            if L < 8:
                assert got.tobytes() == want.tobytes()
            else:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(measure_pairs(), st.sampled_from(ALL_KINDS))
    def test_pair_terms_match_reference(self, pair, kind):
        a, b = pair
        for x, y in ((a, b), (b, a)):
            got = distance(kind, x, y)
            assert got.hex() == reference_distance(kind, x, y).hex()

    def test_pair_terms_signed_zero(self):
        a = make_finite_measure([-0.0, 0.5], [0.5, 0.5], 1.0)
        b = make_finite_measure([0.0, 0.7], [0.25, 0.75], 1.0)
        assert a.support[0].hex() == "-0x0.0p+0"
        for kind in ALL_KINDS:
            for x, y in ((a, b), (b, a)):
                got = distance(kind, x, y)
                assert got.hex() == reference_distance(kind, x, y).hex()

    def test_atom_off_locations_raises(self):
        m = make_finite_measure([0.2, 0.7], [0.5, 0.5], 1.0)
        with pytest.raises(ValueError, match="off the given locations"):
            weights_on([m], np.array([0.2, 0.5]))
        with pytest.raises(ValueError, match="off the given locations"):
            weights_on([m], np.array([0.1, 0.2]))

    def test_weights_on_rows(self):
        a = make_finite_measure([0.2, 0.7], [0.25, 0.75], 1.0)
        b = delta(0.5, 1.0)
        W = weights_on([a, b, a], np.array([0.0, 0.2, 0.5, 0.7]))
        assert W.tolist() == [[0, 0.25, 0, 0.75], [0, 0, 1, 0], [0, 0.25, 0, 0.75]]


class TestBall:
    def test_center_in_own_ball(self, rng):
        m = random_measure(rng)
        for kind in ALL_KINDS:
            assert in_ball(m, m, kind, 0.0)

    def test_far_measure_outside(self):
        assert not in_ball(delta(0, 1), delta(1, 1), DistanceKind.WASSERSTEIN, 0.5)

    def test_boundary_case(self):
        a = make_finite_measure([0, 1], [0.5, 0.5], 1)
        b = make_finite_measure([0, 1], [0.3, 0.7], 1)
        assert in_ball(a, b, DistanceKind.KOLMOGOROV, 0.2)

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            in_ball(delta(0, 1), delta(0, 1), DistanceKind.KOLMOGOROV, -1.0)


class TestMetricAxioms:
    def test_axioms_on_random_triples(self, rng):
        for _ in range(1000):
            a, b, c = (random_measure(rng) for _ in range(3))
            for kind in ALL_KINDS:
                dab, dba = distance(kind, a, b), distance(kind, b, a)
                assert dab == dba
                assert dab <= distance(kind, a, c) + distance(kind, c, b) + 1e-9
                assert distance(kind, a, a) == 0.0

    def test_domination_chain(self, rng):
        # d_W <= M * d_K <= M * d_TV
        for _ in range(1000):
            a, b = random_measure(rng), random_measure(rng)
            M = a.upper
            dw, dk, dtv = distance(W, a, b), distance(K, a, b), distance(TV, a, b)
            assert dw <= M * dk + 1e-9
            assert M * dk <= M * dtv + 1e-9

    def test_convexity_in_first_argument(self, rng):
        for _ in range(300):
            a, a2, b = (random_measure(rng) for _ in range(3))
            lam = float(rng.uniform())
            blend = mix(a, a2, lam)
            for kind in ALL_KINDS:
                lhs = distance(kind, blend, b)
                rhs = lam * distance(kind, a, b) + (1 - lam) * distance(kind, a2, b)
                assert lhs <= rhs + 1e-9


class TestEmpiricalTriangularConvergence:
    @pytest.mark.parametrize("n", [1000, 10_000])
    def test_triangular_rows_converge(self, n):
        # Rows drawn from n distinct two-point measures inside a Kolmogorov
        # eps-ball; the empirical measure of one draw per row must approach
        # the row-average measure at the DKW rate.
        eps = 0.05
        bound = 2 * 1.63 / math.sqrt(n)
        base = 0.4
        offsets = np.linspace(-eps, eps, n)
        ps = base + offsets  # row i draws mass ps[i] at 1, rest at 0
        p_bar = float(np.mean(ps))
        row_average = make_finite_measure([0.0, 1.0], [1 - p_bar, p_bar], 1.0)
        failures = 0
        for seed in range(100):
            u = np.random.default_rng(seed).random(n)
            draws = (u < ps).astype(float)
            emp = empirical_from(draws.tolist(), 1.0)
            if distance(K, emp, row_average) > bound:
                failures += 1
        assert failures <= 3
