import itertools
import math
from bisect import bisect_left, bisect_right

import numpy as np
import pytest

from heterodro.measures import (
    MERGE_TOL,
    WEIGHT_SUM_TOL,
    FiniteMeasure,
    MeasureError,
    NegativeWeight,
    PointOutOfRange,
    WeightsNotNormalized,
    make_finite_measure,
)
from heterodro.metrics import (
    BALL_SLACK,
    DistanceKind,
    _check_same_interval,
    distance_terms,
    weights_on,
)
from heterodro.policies import policy_action
from heterodro.problems import objective, oracle


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


def mix(a, b, lam):
    """Convex combination lam*a + (1-lam)*b (same interval)."""
    if a.upper != b.upper:
        raise MeasureError("cannot mix measures on different intervals")
    if not (0.0 <= lam <= 1.0):
        raise MeasureError(f"mixture coefficient {lam} outside [0, 1]")
    pts = list(a.support) + list(b.support)
    wts = [lam * w for w in a.weights] + [(1.0 - lam) * w for w in b.weights]
    return make_finite_measure(pts, wts, a.upper)


# Reference forms of measure construction, parsing and the scalar distance
# terms: one Python step per atom.  The library's builtin and numpy forms
# must give the same fields, bit for bit, and the same errors.


def reference_renormalized(weights):
    """The reference for ``measures._renormalized``."""
    total = math.fsum(weights)
    if total != 1.0:
        weights = [w / total for w in weights]
    for _ in range(5):
        resid = 1.0 - math.fsum(weights)
        if resid == 0.0:
            break
        j = max(range(len(weights)), key=lambda i: weights[i])
        weights[j] += resid
    return weights


def reference_make_finite_measure(points, weights, upper):
    """The reference for ``measures.make_finite_measure``."""
    if not math.isfinite(upper) or upper <= 0.0:
        raise MeasureError(f"upper must be a finite positive real, got {upper}")
    if len(points) != len(weights) or not points:
        raise MeasureError("points and weights must be nonempty and the same length")
    for w in weights:
        if not math.isfinite(w):
            raise MeasureError(f"non-finite weight {w}")
        if w < 0.0:
            raise NegativeWeight(f"weight {w} is negative")
    total = math.fsum(weights)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise WeightsNotNormalized(f"weights sum to {total}, expected 1")
    for p in points:
        if not math.isfinite(p):
            raise MeasureError(f"non-finite point {p}")
        if p < 0.0 or p > upper:
            raise PointOutOfRange(f"point {p} outside [0, {upper}]")

    pairs = sorted(
        ((float(p), float(w)) for p, w in zip(points, weights) if w != 0.0),
        key=lambda pw: pw[0],
    )
    if not pairs:
        raise WeightsNotNormalized("all weights are zero")

    merged_pts: list[float] = []
    merged_wts: list[list[float]] = []
    for p, w in pairs:
        if merged_pts and p - merged_pts[-1] <= MERGE_TOL:
            merged_wts[-1].append(w)
        else:
            merged_pts.append(p)
            merged_wts.append([w])
    wts = reference_renormalized([math.fsum(ws) for ws in merged_wts])
    return FiniteMeasure(tuple(merged_pts), tuple(wts), float(upper))


def reference_from_text(text):
    """The reference for ``measures.from_text``: one ``split(":")`` per atom."""
    try:
        body, upper_s = text.rsplit("@", 1)
        pts, wts = [], []
        for atom in body.split(","):
            p_s, w_s = atom.split(":")
            pts.append(float(p_s))
            wts.append(float(w_s))
        upper = float(upper_s)
    except (ValueError, IndexError) as exc:
        raise MeasureError(f"cannot parse measure text {text!r}") from exc
    return reference_make_finite_measure(pts, wts, upper)


def reference_pair_terms(kind, a, b):
    """The reference for ``metrics._pair_terms``: ``np.unique``, then
    ``weights_on``."""
    _check_same_interval(a, b)
    locs = np.unique(np.array(a.support + b.support))
    wa, wb = weights_on((a, b), locs)
    return distance_terms(kind, wa, wb, np.append(locs[1:], a.upper) - locs)


def outcome(build, *args):
    """What a measure constructor does with args: the fields as
    ``float.hex`` strings, or the error's type and message."""
    try:
        m = build(*args)
    except Exception as exc:
        return type(exc), str(exc)
    fields = (*m.support, *m.weights, m.upper)
    assert all(type(x) is float for x in fields)
    return [x.hex() for x in m.support], [w.hex() for w in m.weights], m.upper.hex()


def enumerate_grid_measures(grid, upper):
    """All grid measures on [0, upper], in a fixed deterministic order: the
    reference for ``regret.grid_weight_rows``, one ``make_finite_measure``
    per measure."""
    locs = grid.locations
    if locs[0] < 0.0 or locs[-1] > upper:
        raise ValueError(f"grid locations must lie in [0, {upper}]")
    res = grid.weight_resolution
    out = []
    for a in range(1, min(grid.max_atoms, len(locs)) + 1):
        for subset in itertools.combinations(range(len(locs)), a):
            for cuts in itertools.combinations(range(1, res), a - 1):
                bounds = (0,) + cuts + (res,)
                counts = [bounds[i + 1] - bounds[i] for i in range(a)]
                out.append(
                    make_finite_measure(
                        [locs[j] for j in subset], [c / res for c in counts], upper
                    )
                )
    return out


def reference_dro_regret_scan(p, pol, kind, eps, grid):
    """The scan's pair loop with 3-D blocks: 128 mu rows x n x L terms from
    ``distance_terms``, reduced over the locations by ``max``/``np.sum``.
    The reference for ``dro_regret_scan``; returns (estimate, (mu, nu) or
    None)."""
    n = grid.measure_count
    measures = enumerate_grid_measures(grid, p.M)

    locs = np.asarray(grid.locations)
    W = weights_on(measures, locs)
    gaps = np.append(locs[1:], p.M) - locs

    oracle_actions = [oracle(p, m) for m in measures]
    actions = [policy_action(pol, p, a) for a in oracle_actions]
    distinct = sorted(set(actions) | set(oracle_actions))
    col = {a: j for j, a in enumerate(distinct)}
    a_idx = np.asarray([col[a] for a in actions])
    GA = W @ objective(p, np.asarray(distinct)[:, None], locs).T
    opts = GA[np.arange(n), [col[a] for a in oracle_actions]]

    reduce_terms = {
        DistanceKind.KOLMOGOROV: lambda terms: terms.max(axis=2),
        DistanceKind.TOTAL_VARIATION: lambda terms: 0.5 * terms.sum(axis=2),
        DistanceKind.WASSERSTEIN: lambda terms: terms.sum(axis=2),
    }[kind]
    best = 0.0
    best_pair = None
    for start in range(0, n, 128):
        stop = min(start + 128, n)
        D = reduce_terms(distance_terms(kind, W[start:stop, None, :], W[None, :, :], gaps))
        R = np.abs(opts[start:stop, None] - GA[start:stop][:, a_idx])
        R[D > eps + BALL_SLACK] = -1.0
        j = np.unravel_index(np.argmax(R), R.shape)
        if R[j] > best:
            best = float(R[j])
            best_pair = (start + int(j[0]), int(j[1]))
    if best_pair is None:
        return best, None
    i, j = best_pair
    return best, (measures[i], measures[j])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
