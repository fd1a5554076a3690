import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from heterodro.approx import ObjectiveStats, objective_stats, saa_diagnostic
from heterodro.metrics import DistanceKind
from heterodro.problems import ProblemKind, ProblemSpec

from conftest import (
    DegreeZero,
    bernstein_error_check,
    bernstein_eval,
    objective_stats_numeric,
)

K, TV, W = DistanceKind.KOLMOGOROV, DistanceKind.TOTAL_VARIATION, DistanceKind.WASSERSTEIN


class TestClosedFormStats:
    def test_newsvendor_at_zero(self):
        s = objective_stats(ProblemSpec.newsvendor(2, 1, 1), 0.0)
        assert s.total_variation == pytest.approx(2.0)
        assert s.lipschitz == 2.0
        assert s.span == pytest.approx(2.0)

    def test_pricing_jump(self):
        s = objective_stats(ProblemSpec.pricing(1), 0.7)
        assert s.total_variation == pytest.approx(0.7)
        assert s.span == pytest.approx(0.7)
        assert math.isinf(s.lipschitz)

    def test_pricing_zero_price_is_constant(self):
        s = objective_stats(ProblemSpec.pricing(1), 0.0)
        assert s == ObjectiveStats(0.0, 0.0, 0.0)

    def test_ski_rise_plus_jump(self):
        s = objective_stats(ProblemSpec.ski_rental(3, 10), 2.0)
        assert s.total_variation == pytest.approx(5.0)
        assert s.span == pytest.approx(5.0)
        assert math.isinf(s.lipschitz)

    def test_span_below_total_variation(self, rng):
        for _ in range(200):
            p = ProblemSpec.newsvendor(rng.uniform(0.5, 3), rng.uniform(0.5, 3), 1)
            s = objective_stats(p, float(rng.uniform(0, 1)))
            assert s.span <= s.total_variation + 1e-12


class TestNumericStats:
    def test_matches_newsvendor_closed_form(self):
        p = ProblemSpec.newsvendor(1, 1, 1)
        s = objective_stats_numeric(p, 0.5, 10_000)
        assert s.total_variation == pytest.approx(1.0, abs=1e-3)

    def test_detects_infinite_lipschitz(self):
        s = objective_stats_numeric(ProblemSpec.pricing(1), 0.7, 10_000)
        assert s.lipschitz >= 0.7 * 1_000

    def test_constant_function(self):
        s = objective_stats_numeric(ProblemSpec.pricing(1), 0.0, 1000)
        assert s == ObjectiveStats(0.0, 0.0, 0.0)

    def test_numeric_lower_bounds_closed_form(self, rng):
        for _ in range(50):
            c_u, c_o = rng.uniform(0.5, 2, size=2)
            p = ProblemSpec.newsvendor(c_u, c_o, 1)
            x = float(rng.uniform(0, 1))
            closed = objective_stats(p, x)
            numeric = objective_stats_numeric(p, x, 2000)
            assert numeric.total_variation <= closed.total_variation + 1e-12
            assert numeric.span <= closed.span + 1e-12
            # convergence: within 2/grid_n times the slope bound
            slack = 2.0 / 2000 * max(c_u, c_o) * 2
            assert closed.total_variation - numeric.total_variation <= slack
            assert closed.span - numeric.span <= slack

    def test_ski_numeric_agrees_except_lipschitz(self):
        p = ProblemSpec.ski_rental(3, 10)
        closed = objective_stats(p, 2.0)
        numeric = objective_stats_numeric(p, 2.0, 20_000)
        assert numeric.total_variation <= closed.total_variation + 1e-12
        assert numeric.total_variation == pytest.approx(closed.total_variation, abs=1e-2)
        assert numeric.span == pytest.approx(closed.span, abs=1e-2)


class TestSaaDiagnostic:
    def test_newsvendor_wasserstein(self):
        p = ProblemSpec.newsvendor(2, 1, 1)
        assert saa_diagnostic(p, W) == pytest.approx(4.0)

    def test_pricing_wasserstein_infinite(self):
        assert math.isinf(saa_diagnostic(ProblemSpec.pricing(1), W))

    def test_ski_kolmogorov(self):
        p = ProblemSpec.ski_rental(3, 10)
        assert saa_diagnostic(p, K) == pytest.approx(2 * (10 + 3))

    def test_infinite_cells_are_exactly_wasserstein_discontinuous(self):
        problems = {
            ProblemKind.NEWSVENDOR: ProblemSpec.newsvendor(1, 1, 1),
            ProblemKind.PRICING: ProblemSpec.pricing(1),
            ProblemKind.SKI_RENTAL: ProblemSpec.ski_rental(1, 4),
        }
        infinite = {
            (pk, kind)
            for pk, p in problems.items()
            for kind in DistanceKind
            if math.isinf(saa_diagnostic(p, kind))
        }
        assert infinite == {
            (ProblemKind.PRICING, W),
            (ProblemKind.SKI_RENTAL, W),
        }


class TestBernstein:
    def test_reproduces_affine(self):
        for q in (1, 5, 40):
            for y in (0.0, 0.25, 0.5, 1.0):
                assert bernstein_eval(lambda t: t, q, y) == pytest.approx(y, abs=1e-12)

    def test_square_identity(self):
        # B_q(t^2)(y) = y^2 + y(1-y)/q
        got = bernstein_eval(lambda t: t * t, 10, 0.5)
        assert got == pytest.approx(0.275, abs=1e-12)

    def test_constant(self):
        assert bernstein_eval(lambda t: 3.25, 7, 0.3) == pytest.approx(3.25, abs=1e-12)

    def test_degree_zero(self):
        with pytest.raises(DegreeZero):
            bernstein_eval(lambda t: t, 0, 0.5)

    def test_point_out_of_unit_interval(self):
        with pytest.raises(ValueError):
            bernstein_eval(lambda t: t, 3, 1.5)

    def test_error_check_sqrt(self):
        assert bernstein_error_check(math.sqrt, math.sqrt, 100)

    def test_error_check_affine_exact(self):
        assert bernstein_error_check(lambda t: t, lambda t: t, 4)

    def test_error_check_square(self):
        # exact max error is 1/(4q) = 0.01, far below (5/4) * 2/sqrt(25)
        assert bernstein_error_check(lambda t: t * t, lambda t: 2 * t, 25)

    def test_square_value_unchanged(self):
        # the value of the binomial-pmf evaluation, to the last bit
        assert bernstein_eval(lambda t: t * t, 10, 0.5) == 0.27499999999999997

    def test_sqrt_error_magnitude(self):
        q = 100
        ys = np.linspace(0, 1, 2001)
        errs = [abs(bernstein_eval(math.sqrt, q, y) - math.sqrt(y)) for y in ys]
        assert max(errs) <= 1.25 * (q ** -0.25)  # (5/4) * omega(1/sqrt(q)), omega = sqrt
        assert max(errs) <= 0.125


def test_cold_start_does_not_import_scipy():
    # no library module imports scipy; a fresh interpreter is needed because
    # the Bernstein helpers in tests/conftest.py may already have loaded it
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = "import heterodro, heterodro.cli, sys; assert 'scipy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
