import itertools
import math
from bisect import bisect_left, bisect_right
from typing import Callable

import numpy as np
import pytest

from heterodro.approx import ObjectiveStats
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
from heterodro.metrics import BALL_SLACK, DistanceKind, MismatchedInterval, weights_on
from heterodro.policies import apply_policy, policy_action
from heterodro.problems import (
    ProblemKind,
    ProblemSpec,
    expected_objective,
    objective,
    opt_value,
    oracle,
)
from heterodro.regret import Z95, EpsTooLarge, NoAnalyticBound, RegretReport


def random_measure(rng, upper=1.0, max_atoms=5):
    """Random finite measure with 1..max_atoms atoms on [0, upper]."""
    k = int(rng.integers(1, max_atoms + 1))
    pts = rng.uniform(0.0, upper, size=k)
    wts = rng.dirichlet(np.ones(k))
    return make_finite_measure(pts.tolist(), wts.tolist(), upper)


def sense(p):
    """'min' for cost problems, 'max' for pricing."""
    return "max" if p.kind is ProblemKind.PRICING else "min"


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


def distance_terms(
    kind: DistanceKind, wa: np.ndarray, wb: np.ndarray, gaps: np.ndarray | None
) -> np.ndarray:
    """Per-location terms of d(a, b) from aligned weight rows (see the metrics
    docstring); rows broadcast, so one pair and a block of pairs share them.
    ``gaps`` (each location's distance to the next, or to ``upper``) is
    read for W1 only."""
    if kind is DistanceKind.TOTAL_VARIATION:
        return np.abs(wa - wb)
    dF = np.abs(np.cumsum(wa, axis=-1) - np.cumsum(wb, axis=-1))
    return dF * gaps if kind is DistanceKind.WASSERSTEIN else dF


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


# Tuple-based references for the readers of ``FiniteMeasure.arrays``: each
# converts the measure's tuples afresh on every call, as the library did
# before the cached view.  The library must match them bit for bit.


def reference_weights_on(measures, locs):
    """The reference for ``metrics.weights_on``."""
    atoms = np.fromiter(itertools.chain.from_iterable(m.support for m in measures), float)
    cols = np.searchsorted(locs, atoms)
    if (locs.take(cols, mode="clip") != atoms).any():
        raise ValueError("a measure has an atom off the given locations")
    rows = np.repeat(np.arange(len(measures)), [len(m.support) for m in measures])
    W = np.zeros((len(measures), len(locs)))
    W[rows, cols] = np.fromiter(itertools.chain.from_iterable(m.weights for m in measures), float)
    return W


def reference_pair_terms(kind, a, b):
    """The per-location terms that ``metrics.distance`` reduces: ``np.unique``,
    then ``reference_weights_on`` and ``distance_terms``."""
    if a.upper != b.upper:
        raise MismatchedInterval(f"measures live on [0,{a.upper}] vs [0,{b.upper}]")
    locs = np.unique(np.array(a.support + b.support))
    wa, wb = reference_weights_on((a, b), locs)
    return distance_terms(kind, wa, wb, np.append(locs[1:], a.upper) - locs)


def reference_distance(kind, a, b) -> float:
    """The reference for ``metrics.distance``: ``reference_pair_terms``
    reduced by their max for K, their ``fsum`` for W1, half their ``fsum``
    for TV."""
    terms = reference_pair_terms(kind, a, b)
    if kind is DistanceKind.KOLMOGOROV:
        return float(terms.max())
    total = math.fsum(terms.tolist())
    return 0.5 * total if kind is DistanceKind.TOTAL_VARIATION else total


def reference_expected_objective(p, x, m) -> float:
    """The reference for ``problems.expected_objective``."""
    g = objective(p, x, np.asarray(m.support, dtype=float))
    return math.fsum((np.asarray(m.weights) * g).tolist())


def reference_monte_carlo_regret(p, pol, mu, nus, trials, seed):
    """Monte-Carlo regret with the columns grouped by a per-element dict of
    ids, then merged by content, each group mapped by its own searchsorted:
    the reference for ``monte_carlo_regret``, which groups by object with
    one ``np.unique`` and counts through shared tables.  Sampling and RNG
    streams are the same; mu is costed by ``reference_expected_objective``."""
    n = len(nus)
    opt_mu = reference_expected_objective(p, oracle(p, mu), mu)
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
        m_hat = make_finite_measure(union_arr[nz].tolist(), (counts[nz] / n).tolist(), mu.upper)
        action = apply_policy(pol, p, m_hat)
        regrets[t] = abs(opt_mu - reference_expected_objective(p, action, mu))
    ci = float(Z95 * regrets.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return RegretReport(
        estimate=float(regrets.mean()), ci_half_width=ci, n=n, trials=trials, seed=seed
    )


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


def exact_fixed_action_minimax(p, measures):
    """min over the fixed actions {0, M} union the atoms of the average
    regret against a uniform prior over ``measures``, from exact (fsum)
    expectations, ties toward the smallest action; returns (value, action).
    Between atoms the averaged regret is convex (newsvendor), decreasing up
    to the next atom (pricing) or increasing after each atom (ski rental),
    so this is its minimum over all of [0, M]."""
    opts = [opt_value(p, m) for m in measures]
    best = (math.inf, 0.0)
    for x in sorted({0.0, p.M}.union(*(m.support for m in measures))):
        terms = [abs(o - expected_objective(p, x, m)) for o, m in zip(opts, measures)]
        value = math.fsum(terms) / len(measures)
        if value < best[0]:
            best = (value, x)
    return best


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def objective_stats_numeric(p: ProblemSpec, x: float, grid_n: int) -> ObjectiveStats:
    """Grid estimates: V-hat = sum |f(xi_{i+1}) - f(xi_i)|, Lip-hat the max
    slope, span-hat = max - min.  All are lower bounds on the closed forms
    and converge as grid_n grows."""
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    xi = np.linspace(0.0, p.M, grid_n)
    f = objective(p, x, xi)
    steps = np.abs(np.diff(f))
    h = xi[1] - xi[0]
    return ObjectiveStats(
        total_variation=float(steps.sum()),
        lipschitz=float(steps.max() / h) if grid_n > 1 else 0.0,
        span=float(f.max() - f.min()),
    )


def _integer_saa_action(
    p: ProblemSpec, samples: tuple[float, ...], xs: list[float], prefer_largest: bool
) -> float:
    """Empirical-cost argmin over an explicit action grid.

    The three-point ski variant resolves oracle ties by renting as long as
    possible, so its comparison sweep uses prefer_largest=True.
    """
    best_x, best_c = xs[0], math.inf
    for x, costs in zip(xs, objective(p, np.asarray(xs)[:, None], samples).tolist()):
        c = math.fsum(costs) / len(samples)
        if c < best_c or (prefer_largest and c == best_c):
            best_x, best_c = x, c
    return best_x


def hetero_helps_homogeneous_max(k: int, resolution: int = 50) -> float:
    """Best two-sample SAA regret achievable with a single historical
    distribution on the three-point ski variant, against mu = point mass at
    k+1 (the worst out-of-sample measure of the heterogeneous construction).

    Sweeps all weight vectors of the given resolution on {k, k+1, 3k+2}.
    The heterogeneous pair (delta_k, delta_{3k+2}) forces the uniquely bad
    action k with probability one; no single distribution can, so this max
    stays strictly below 2k.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    M = 3 * k + 2
    p = ProblemSpec.ski_rental(2 * k + 1, M)
    atoms = [float(k), float(k + 1), float(M)]
    xs = [float(x) for x in range(M + 1)]

    action_of = {}
    for i, j in itertools.combinations_with_replacement(range(3), 2):
        action_of[(i, j)] = _integer_saa_action(p, (atoms[i], atoms[j]), xs, prefer_largest=True)

    mu_atom = atoms[1]  # k + 1
    g_mu = dict(zip(xs, objective(p, xs, mu_atom).tolist()))
    opt_mu = min(g_mu.values())

    best = 0.0
    r = resolution
    for i in range(r + 1):
        for j in range(r + 1 - i):
            w = (i / r, j / r, (r - i - j) / r)
            value = 0.0
            for (ia, ja), act in action_of.items():
                prob = w[ia] * w[ja] * (1.0 if ia == ja else 2.0)
                value += prob * (g_mu[act] - opt_mu)
            best = max(best, value)
    return best


# The SAA coefficients and the bound table with their constants listed per
# problem, as they were before approx.saa_diagnostic derived them from
# objective_stats: the derived forms must match these bit for bit.
def reference_saa_diagnostic(p: ProblemSpec, kind: DistanceKind) -> float:
    """SAA regret coefficient: the regret is bounded by coefficient * eps.

    Returns 2*sup_x V (Kolmogorov), 2*sup_x Lip (Wasserstein), or
    2*sup_x span (total variation); math.inf signals that SAA can fail
    outright for this (problem, distance) combination.
    """
    if p.kind is ProblemKind.NEWSVENDOR:
        sup_v = max(p.c_u, p.c_o) * p.M
        sup_lip = max(p.c_u, p.c_o)
        sup_span = max(p.c_u, p.c_o) * p.M
    elif p.kind is ProblemKind.PRICING:
        sup_v, sup_lip, sup_span = p.M, math.inf, p.M
    else:
        sup_v, sup_lip, sup_span = p.M + p.b, math.inf, p.M + p.b
    if kind is DistanceKind.KOLMOGOROV:
        return 2.0 * sup_v
    if kind is DistanceKind.WASSERSTEIN:
        return 2.0 * sup_lip
    return 2.0 * sup_span


def reference_analytic_bounds(
    p: ProblemSpec, kind: DistanceKind, pol_kind: str, eps: float
) -> tuple[float, float]:
    """Closed-form (lower, upper) asymptotic worst-case regret for the cell.

    pol_kind is 'saa' or 'best'.  Total-variation upper bounds reuse the
    Kolmogorov ones (regret under TV is dominated by regret under K at the
    same radius).  Raises EpsTooLarge outside the validity range of the
    underlying statement and NoAnalyticBound for an unknown cell.
    """
    if pol_kind not in ("saa", "best"):
        raise NoAnalyticBound(f"unknown policy kind {pol_kind!r}")
    if eps <= 0.0:
        raise EpsTooLarge(f"bounds need eps > 0, got {eps}")
    kv = kind.value
    if p.kind is ProblemKind.NEWSVENDOR:
        q = p.critical_fractile
        cap = min(q, 1 - q) if kind is not DistanceKind.WASSERSTEIN else p.M * min(q, 1 - q)
        if eps > cap:
            raise EpsTooLarge(f"newsvendor/{kv} bounds need eps <= {cap}")
        scale = 1.0 if kind is DistanceKind.WASSERSTEIN else p.M
        return (
            0.5 * (p.c_u + p.c_o) * scale * eps,
            2.0 * max(p.c_u, p.c_o) * scale * eps,
        )
    if p.kind is ProblemKind.PRICING:
        if kind is not DistanceKind.WASSERSTEIN:
            if eps > 0.5:
                raise EpsTooLarge(f"pricing/{kv} bounds need eps <= 1/2")
            return 0.5 * p.M * eps, 2.0 * p.M * eps
        if pol_kind == "saa":
            return p.M, p.M
        if eps > p.M / 4.0:
            raise EpsTooLarge(f"pricing/wasserstein best bounds need eps <= M/4")
        return math.sqrt(p.M * eps) / 4.0, 4.0 * math.sqrt(p.M * eps)
    # ski rental
    if kind is not DistanceKind.WASSERSTEIN:
        if eps > 0.5:
            raise EpsTooLarge(f"ski/{kv} bounds need eps <= 1/2")
        if pol_kind == "saa":
            return p.M * eps, 2.0 * (p.M + p.b) * eps
        if p.b < 1.0:
            raise NoAnalyticBound("ski capped-policy bounds assume b >= 1")
        if p.b * math.log(1.0 / eps) > p.M:
            raise EpsTooLarge("capped-policy bound needs b*ln(1/eps) <= M")
        return eps * p.b / 8.0, p.b * (math.log(1.0 / eps) + 2.0) * eps
    if pol_kind == "saa":
        if p.M <= 2.0 * p.b or eps >= p.b / 4.0:
            raise EpsTooLarge("ski/wasserstein SAA bounds need M > 2b and eps < b/4")
        return p.b / 2.0, 2.0 * (p.b + eps)
    if p.b < 1.0 or eps > p.b / 4.0 or p.M < 2.0 * p.b:
        raise EpsTooLarge("ski/wasserstein best bounds need b >= 1, eps <= b/4, M >= 2b")
    return math.sqrt(p.b * eps) / 4.0, 4.0 * math.sqrt(p.b * eps) + 2.0 * eps


# The Bernstein-polynomial checks for objectives that are only Hoelder
# continuous (acceptance criterion 11).  No library code calls them, so
# they and their scipy dependency live here.
class DegreeZero(ValueError):
    pass


def bernstein_eval(f: Callable[[float], float], q: int, y: float) -> float:
    """Degree-q Bernstein approximation sum_p f(p/q) * C(q,p) y^p (1-y)^(q-p),
    evaluated through the binomial pmf for numerical stability."""
    from scipy import stats  # deferred: scipy.stats costs ~1 s and ~70 MB to import

    if q < 1:
        raise DegreeZero(f"Bernstein degree must be >= 1, got {q}")
    if not (0.0 <= y <= 1.0):
        raise ValueError(f"evaluation point {y} outside [0, 1]")
    ps = np.arange(q + 1)
    vals = np.asarray([f(pp / q) for pp in ps])
    return float(vals @ stats.binom.pmf(ps, q, y))


def bernstein_error_check(
    f: Callable[[float], float],
    omega: Callable[[float], float],
    q: int,
    grid_n: int = 10_000,
) -> bool:
    """True iff max_y |B_q(f)(y) - f(y)| over a grid is within the
    (5/4) * omega(1/sqrt(q)) modulus-of-continuity bound (plus 1e-9)."""
    from scipy import stats  # deferred, as in bernstein_eval

    if q < 1:
        raise DegreeZero(f"Bernstein degree must be >= 1, got {q}")
    ps = np.arange(q + 1)
    vals = np.asarray([f(pp / q) for pp in ps])
    ys = np.linspace(0.0, 1.0, grid_n)
    pmf = stats.binom.pmf(ps[None, :], q, ys[:, None])
    approx = pmf @ vals
    exact = np.asarray([f(y) for y in ys])
    err = float(np.abs(approx - exact).max())
    return err <= 1.25 * omega(q ** -0.5) + 1e-9
