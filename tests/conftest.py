import math
from bisect import bisect_left, bisect_right

import numpy as np
import pytest

from heterodro.measures import MeasureError, make_finite_measure


def random_measure(rng, upper=1.0, max_atoms=5):
    """Random finite measure with 1..max_atoms atoms on [0, upper]."""
    k = int(rng.integers(1, max_atoms + 1))
    pts = rng.uniform(0.0, upper, size=k)
    wts = rng.dirichlet(np.ones(k))
    return make_finite_measure(pts.tolist(), wts.tolist(), upper)


def cdf(m, t):
    """P(xi <= t); right-continuous step function with cdf(m, upper) == 1."""
    k = bisect_right(m.support, t)
    if k == 0:
        return 0.0
    if k == len(m.support):
        return 1.0
    return math.fsum(m.weights[:k])


def tail(m, t):
    """P(xi >= t)."""
    k = bisect_left(m.support, t)
    if k == 0:
        return 1.0
    return math.fsum(m.weights[k:])


def mean(m):
    return math.fsum(p * w for p, w in zip(m.support, m.weights))


def sample(m, seed, n):
    """n i.i.d. inverse-CDF draws from a stream fully determined by seed:
    a reference sampler, independent of ``monte_carlo_regret``'s counting."""
    if n < 1:
        raise MeasureError(f"sample size must be >= 1, got {n}")
    u = np.random.default_rng(seed).random(n)
    cw = np.cumsum(m.weights)
    idx = np.minimum(np.searchsorted(cw, u, side="right"), len(m.support) - 1)
    return [m.support[i] for i in idx]


def empirical_from(samples, upper):
    """Empirical measure: one atom per distinct value with weight count/n."""
    xs = list(samples)
    if not xs:
        raise MeasureError("empirical measure needs at least one sample")
    return make_finite_measure(xs, [1.0 / len(xs)] * len(xs), upper)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
