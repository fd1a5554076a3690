"""Exact, Monte-Carlo, and brute-force worst-case regret machinery.

The regret of a policy pi against an out-of-sample measure mu, given that
its input was generated under nu, is |opt(mu) - G(pi(nu) | mu)|.  This
module evaluates it exactly on finite measures, estimates it by seeded
Monte-Carlo over heterogeneous sample draws, scans small measure grids for
a certified lower bound on the worst case, and builds the named adversarial
instances whose regret admits closed-form targets, together with the
matching analytic lower/upper bound pairs.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .approx import saa_diagnostic
from .measures import MERGE_TOL, FiniteMeasure, _from_canonical, _renormalized, make_finite_measure
from .metrics import BALL_SLACK, DistanceKind, distance_block, in_ball, location_columns, weights_on
from .policies import (
    EpsNonPositive,
    EpsTooLarge,
    PolicyKind,
    PolicySpec,
    apply_policy,
    policy_action,
    recommended_parameter,
)
from .problems import (
    ProblemKind,
    ProblemSpec,
    _row_measure,
    expected_objective,
    expected_objective_grid,
    objective,
    opt_value,
    oracle_rows,
)

Z95 = 1.959963984540054  # two-sided 95% normal quantile
# dro_regret_scan scores blocks of at most _SCAN_ROWS sorted mu rows against
# the union of their ball windows, with rows x window at most _SCAN_ENTRIES
# floats per array.  A block's union is its rows' windows plus about one
# column per row, so n / rows blocks cost n * (window + rows) entries (about
# 13 ns each at 5 locations) plus about 25 us of calls each: rows near
# sqrt(25 us / 13 ns) balance the two (timeit, shared 2-CPU host).
_SCAN_ENTRIES = 1 << 17
_SCAN_ROWS = 64
# monte_carlo_regret counts a history's draws by one compare per atom
# boundary (about 1.5 us + 0.2 ns per column) while it has this many columns
# per atom, else by bincount(searchsorted) (10-40 ns per column): the
# measured crossing over 250-40 000 columns and 2-64 atoms (timeit).
_COLUMNS_PER_COMPARE = 128
# It maps all columns at once through one padded table when the table's
# n x widest entries (about 2 ns each) cost less than one Python iteration
# per distinct history object (about 5 us, or 2500 entries).
_ENTRIES_PER_GROUP = 2500
# Resource caps, checked before anything is allocated and far above every
# shipped default (n = 10**4 histories, 2000 trials, family M <= 15):
# * MAX_HISTORIES: `rates --mode monte-carlo` builds an n-long history list
#   and monte_carlo_regret a few n-long arrays: 42 bytes per history at
#   n = 10**5 (tracemalloc peak), about 42 MB at the cap.
# * MAX_TRIALS: one 8-byte regret per trial, 8 MB at the cap.
# * MAX_INDIFFERENCE_M: ski_indifference_measure holds up to M - 1 atoms in
#   a dict, two lists and the measure, 100-170 bytes each (tracemalloc peak
#   at M = 10**3-10**5): at most 17 MB.
MAX_HISTORIES = 10**6
MAX_TRIALS = 10**6
MAX_INDIFFERENCE_M = 10**5


class UnknownName(ValueError):
    pass


class InvalidBRange(ValueError):
    pass


class TooLarge(ValueError):
    """An input size above one of the resource caps."""


class NoAnalyticBound(ValueError):
    pass


class FamilyMismatch(ValueError):
    pass


class MissingParameter(ValueError):
    pass


@dataclass(frozen=True)
class AdversarialPair:
    """A named (mu, nu_1..nu_n) construction with its analytic target.

    ``mu`` is the out-of-sample measure, ``nus`` the historical ones (length
    one unless the construction needs per-sample heterogeneity).  Every nu is
    verified to lie in the eps-ball around mu at construction time.  For
    policy-failure instances ``cited_policy`` is the policy whose exact
    regret equals ``target``; for two-point-prior lower bounds it is None
    and ``target`` is the exact fixed-action minimax value over {mu, nus[0]},
    a minimum over {0, M} union the atoms; :func:`evaluate_pair` reports
    :func:`fixed_action_minimax`'s grid value, which can lie above it.
    """

    name: str
    problem: ProblemSpec
    mu: FiniteMeasure
    nus: tuple[FiniteMeasure, ...]
    kind: DistanceKind
    eps: float
    target: float | None = None
    cited_policy: PolicySpec | None = None

    def __post_init__(self) -> None:
        for nu in self.nus:
            if not in_ball(self.mu, nu, self.kind, self.eps):
                raise ValueError(
                    f"{self.name}: historical measure leaves the {self.kind.value} "
                    f"ball of radius {self.eps}"
                )


@dataclass(frozen=True)
class RegretReport:
    estimate: float
    ci_half_width: float = 0.0
    analytic_lower: float | None = None
    analytic_upper: float | None = None
    witness: AdversarialPair | None = None
    n: int = 0
    trials: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.estimate < -self.ci_half_width:
            raise ValueError("regret estimate below -ci_half_width")
        if (
            self.analytic_lower is not None
            and self.analytic_upper is not None
            and self.analytic_lower > self.analytic_upper + 1e-12
        ):
            raise ValueError("analytic lower bound exceeds upper bound")


# ---------------------------------------------------------------------------
# regret evaluation


def exact_regret(
    p: ProblemSpec, pol: PolicySpec, mu: FiniteMeasure, nu: FiniteMeasure
) -> float:
    """|opt(mu) - G(pi(nu) | mu)| computed exactly on the atoms."""
    action = apply_policy(pol, p, nu)
    return abs(opt_value(p, mu) - expected_objective(p, action, mu))


def exhaustive_regret_n2(
    p: ProblemSpec,
    pol: PolicySpec,
    mu: FiniteMeasure,
    nu1: FiniteMeasure,
    nu2: FiniteMeasure,
) -> float:
    """Exact two-sample regret: the product-measure expectation over

    (xi_1, xi_2) ~ nu1 x nu2 of |opt(mu) - G(pi(empirical) | mu)|.
    """
    opt_mu = opt_value(p, mu)
    total = []
    for x1, w1 in zip(nu1.support, nu1.weights):
        for x2, w2 in zip(nu2.support, nu2.weights):
            m_hat = make_finite_measure([x1, x2], [0.5, 0.5], mu.upper)
            action = apply_policy(pol, p, m_hat)
            total.append(w1 * w2 * abs(opt_mu - expected_objective(p, action, mu)))
    return math.fsum(total)


def monte_carlo_regret(
    p: ProblemSpec,
    pol: PolicySpec,
    mu: FiniteMeasure,
    nus: list[FiniteMeasure] | tuple[FiniteMeasure, ...],
    trials: int,
    seed: int,
) -> RegretReport:
    """Average |opt(mu) - G(pi(mu_hat) | mu)| over seeded draws.

    Each trial draws one sample from every nu_i, forms the empirical measure,
    and applies the policy.  Trial t uses the generator seeded by (seed, t),
    so results are independent of how trials are scheduled.  Every nu_i must
    live on mu's interval.

    Draws are counted per atom, never placed: column i's uniform u picks
    atom #{j < k-1 : cum_j <= u} of nu_i (cum the cumsum of its k weights),
    so the last atom takes the rest even where cum rounds below 1.  A
    history counts #(u < cum_j) per boundary and differences neighbours,
    or bincounts a searchsorted over cum[:-1].  Many distinct histories
    (up to one per column) share one table instead: each history's
    cum[:-1] padded with +inf, which no uniform reaches, so summing
    ``row <= u`` over all n columns gives the same clamped index, then the
    union index, then one bincount per trial.  The tables hold histories x
    widest entries; a trial holds O(n) more.  Histories are grouped by
    object (one ``np.unique`` of their ids) and their atoms indexed into
    the union by one ``np.unique`` of all supports.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if trials > MAX_TRIALS:
        raise TooLarge(f"trials = {trials} exceeds the cap {MAX_TRIALS}")
    n = len(nus)
    if n < 1:
        raise ValueError("need at least one historical measure")
    opt_mu = opt_value(p, mu)

    # One group per distinct object, in the order of one np.unique of the
    # ids.  Each column maps its own uniform through its group's table, so
    # neither the grouping nor its order changes a count.
    ids = np.fromiter(map(id, nus), np.uintp, n)
    uniq_ids, firsts = np.unique(ids, return_index=True)
    objects = [nus[i] for i in firsts.tolist()]
    off = [i for i in firsts.tolist() if nus[i].upper != mu.upper]
    if off:
        nu = nus[min(off)]  # the first off-interval history in column order
        raise ValueError(f"historical measure on [0, {nu.upper}] but mu on [0, {mu.upper}]")
    supports, weights = zip(*(nu.arrays for nu in objects))
    sizes = np.array([len(s) for s in supports])
    union_arr, point_idx = np.unique(np.concatenate(supports), return_inverse=True)
    # Atoms of two histories within MERGE_TOL merge (one history's are apart).
    merge = len(objects) > 1 and (np.diff(union_arr) <= MERGE_TOL).any()
    empirical = make_finite_measure if merge else _from_canonical
    # Row g of the padded tables: group g's cumulative weights and union
    # indices.  cumsum adds along each row in order, so a row's leading
    # entries are the group's own np.cumsum, bit for bit.
    width = int(sizes.max())
    held = np.arange(width) < sizes[:, None]
    cum = np.zeros(held.shape)
    cum[held] = np.concatenate(weights)
    cum = np.cumsum(cum, axis=1)
    union_idx = np.zeros(held.shape, np.intp)
    union_idx[held] = point_idx
    table = width * n < _ENTRIES_PER_GROUP * len(objects)
    if table or len(objects) > 1:
        # each column's group: the np.unique inverse, found only where read
        group_of = np.searchsorted(uniq_ids, ids)
    if table:
        # one row per boundary; row g of the union table at g * width
        edge_rows = np.ascontiguousarray(np.where(held[:, 1:], cum[:, :-1], np.inf).T)
        union_rows = union_idx.ravel()
        row_start = group_of * width
    else:
        if len(objects) == 1:
            columns = [slice(None)]  # u[:] is a view: no gather
        else:
            by_group = np.argsort(group_of, kind="stable")
            ends = np.cumsum(np.bincount(group_of)).tolist()
            columns = [by_group[a:z] for a, z in itertools.pairwise([0, *ends])]
        plans = [
            (edges[: k - 1], idx_map[:k], cols)
            for k, edges, idx_map, cols in zip(sizes.tolist(), cum, union_idx, columns)
        ]

    regrets = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(t,)))
        u = rng.random(n)
        if table:
            pos = row_start.copy()
            for row in edge_rows:
                pos += row[group_of] <= u
            counts = np.bincount(union_rows[pos], minlength=len(union_arr))
        else:
            counts = np.zeros(len(union_arr), np.int64)
            for edges, idx_map, cols in plans:
                uc = u[cols]
                if len(idx_map) * _COLUMNS_PER_COMPARE <= len(uc):
                    below = [np.count_nonzero(uc < c) for c in edges.tolist()]
                    counts[idx_map] += np.diff([0, *below, len(uc)])
                else:
                    k = np.searchsorted(edges, uc, side="right")
                    counts[idx_map] += np.bincount(k, minlength=len(idx_map))
        nz = counts > 0
        m_hat = empirical(union_arr[nz].tolist(), (counts[nz] / n).tolist(), mu.upper)
        action = apply_policy(pol, p, m_hat)
        regrets[t] = abs(opt_mu - expected_objective(p, action, mu))

    estimate = float(regrets.mean())
    ci = 0.0
    if trials > 1:
        ci = float(Z95 * regrets.std(ddof=1) / math.sqrt(trials))
    return RegretReport(estimate=estimate, ci_half_width=ci, n=n, trials=trials, seed=seed)


def fixed_action_minimax(
    p: ProblemSpec, measures: list[FiniteMeasure] | tuple[FiniteMeasure, ...]
) -> tuple[float, float]:
    """min over the actions ``np.linspace(0, M, 1001)`` of the average regret
    against a uniform prior over ``measures``; returns (value, minimizing
    action).

    The two-point-prior lower bound (no data-driven policy beats the best
    fixed action against the prior) is the exact minimum, which lies on
    {0, M} union the atoms, where the averaged regret's pieces meet.  The
    grid can only overstate it (beyond rounding), so this value is not a
    certified bound.
    """
    xs = np.linspace(0.0, p.M, 1001)
    total = np.zeros(len(xs))
    for m in measures:
        total += np.abs(opt_value(p, m) - expected_objective_grid(p, xs, m))
    total /= len(measures)
    j = int(np.argmin(total))
    return float(total[j]), float(xs[j])


# ---------------------------------------------------------------------------
# named constructions


def ski_indifference_measure(M: int, b: int) -> FiniteMeasure:
    """The integer-support measure making every rental duration cost-equal.

    Tails satisfy P(xi >= k) = (b/(b-1)) * P(xi >= k+1) for k = 1..M-b-1 with
    boundary P(xi >= M-b) = (b/(b-1)) * nu(M), no mass at 0 or in
    {M-b+1..M-1}, so actions {0..M-b-1} and M all cost exactly b and the mean
    is b.
    """
    if M != int(M) or b != int(b):
        raise InvalidBRange("M and b must be integers")
    M, b = int(M), int(b)
    if not (2 <= b <= M - 1):
        raise InvalidBRange(f"need 2 <= b <= M-1, got b={b}, M={M}")
    if M > MAX_INDIFFERENCE_M:
        raise TooLarge(f"M = {M} exceeds the cap {MAX_INDIFFERENCE_M}")
    r = (b - 1) / b
    tails = {k: r ** (k - 1) for k in range(1, M - b + 1)}
    tail_M = r ** (M - b)  # = nu(M); constant tail across the gap
    pts, wts = [], []
    for k in range(1, M - b):
        pts.append(float(k))
        wts.append(tails[k] - tails[k + 1])
    pts.append(float(M - b))
    wts.append(tails[M - b] - tail_M)
    pts.append(float(M))
    wts.append(tail_M)
    return make_finite_measure(pts, wts, float(M))


def _two_point(p0: float, w0: float, p1: float, w1: float, upper: float) -> FiniteMeasure:
    return make_finite_measure([p0, p1], [w0, w1], upper)


def _check_apart(lo: float, hi: float, tol: float, values: str, eps: float) -> None:
    """EpsTooLarge unless eps keeps the construction's values lo < hi more
    than tol apart: two atoms, or one weight before and after the eps move,
    which a move that rounds away leaves equal (mu == nu, regret 0)."""
    if not hi - lo > tol:
        raise EpsTooLarge(f"need {values} more than {tol} apart, got eps={eps}")


def _integer(name: str, value: float) -> int:
    """An integer-valued (finite) family parameter; a fractional value is an
    error, never truncated into a different instance."""
    if value != int(value):
        raise ValueError(f"parameter {name} must be an integer, got {value}")
    return int(value)


# name -> (builder, the parameters of its signature, read once at import)
_FAMILIES: dict[str, tuple] = {}
_K, _TV = DistanceKind.KOLMOGOROV, DistanceKind.TOTAL_VARIATION


def _family(build):
    """Register ``_build_<name>`` as the family ``<name>``."""
    _FAMILIES[build.__name__.removeprefix("_build_")] = (build, inspect.signature(build).parameters)
    return build


@_family
def _build_nv_tv_pair(
    eps: float, c_u: float = 1.0, c_o: float = 1.0, M: float = 1.0, kind: DistanceKind = _TV
) -> AdversarialPair:
    problem = ProblemSpec.newsvendor(c_u, c_o, M)
    q = problem.critical_fractile
    # eps is the ball radius in the requested distance; for two-point
    # measures on {0, M} the Wasserstein distance is M times the mass shift.
    shift = eps / M if kind is DistanceKind.WASSERSTEIN else eps
    if not (0.0 < shift <= min(q, 1.0 - q)):
        raise EpsTooLarge(
            f"need mass shift in (0, min(q, 1-q) = {min(q, 1 - q)}], got {shift}"
        )
    _check_apart(q - shift, q, 0.0, "mu's weight q - shift at 0 and nu's q", eps)
    _check_apart(1.0 - q, 1.0 - q + shift, 0.0, "nu's weight 1 - q at M and mu's", eps)
    center = _two_point(0.0, q, M, 1.0 - q, M)
    mu_plus = _two_point(0.0, q - shift, M, 1.0 - q + shift, M)
    return AdversarialPair(
        name="nv_tv_pair",
        problem=problem,
        mu=mu_plus,
        nus=(center,),
        kind=kind,
        eps=eps,
        target=(c_u + c_o) * M * shift,
        cited_policy=PolicySpec.saa(),
    )


@_family
def _build_pr_k_pair(eps: float, M: float = 1.0, kind: DistanceKind = _K) -> AdversarialPair:
    if kind is DistanceKind.WASSERSTEIN:
        raise ValueError("pr_k_pair is a Kolmogorov/total-variation construction")
    if not (0.0 < eps <= 0.5):
        raise EpsTooLarge(f"need 0 < eps <= 1/2, got {eps}")
    _check_apart(0.5 - eps, 0.5, 0.0, "mu's weight 1/2 - eps at M/2 and nu's 1/2", eps)
    _check_apart(0.5, 0.5 + eps, 0.0, "nu's weight 1/2 at M and mu's 1/2 + eps", eps)
    center = _two_point(M / 2, 0.5, M, 0.5, M)
    mu_plus = _two_point(M / 2, 0.5 - eps, M, 0.5 + eps, M)
    return AdversarialPair(
        name="pr_k_pair",
        problem=ProblemSpec.pricing(M),
        mu=mu_plus,
        nus=(center,),
        kind=kind,
        eps=eps,
        target=M * eps,
        cited_policy=PolicySpec.saa(),
    )


@_family
def _build_pr_w_saa_fail(eps: float, M: float = 1.0, eta: float = 1e-3) -> AdversarialPair:
    if not 0.0 < eta < M:
        raise ValueError(f"need 0 < eta < M, got eta={eta}")
    if eps <= 0.0:
        raise EpsTooLarge(f"need eps > 0, got {eps}")
    nu_atom = min(M, M - eta + eps)
    _check_apart(M - eta, nu_atom, 0.0, "mu's atom M - eta and nu's atom M - eta + eps", eps)
    mu = make_finite_measure([M - eta], [1.0], M)
    nu = make_finite_measure([nu_atom], [1.0], M)
    return AdversarialPair(
        name="pr_w_saa_fail",
        problem=ProblemSpec.pricing(M),
        mu=mu,
        nus=(nu,),
        kind=DistanceKind.WASSERSTEIN,
        eps=eps,
        target=M - eta,
        cited_policy=PolicySpec.saa(),
    )


@_family
def _build_pr_w_lower(eps: float, M: float = 1.0) -> AdversarialPair:
    if not (0.0 < eps <= M / 4.0):
        raise EpsTooLarge(f"need 0 < eps <= M/4 = {M / 4}, got {eps}")
    w = 2.0 * math.sqrt(eps / M)
    shift = math.sqrt(M * eps) / 2.0
    _check_apart(M / 2 - shift, M / 2, MERGE_TOL, "mu's atoms M/2 - sqrt(M*eps)/2 and M/2", eps)
    nu = make_finite_measure([M / 2], [1.0], M)
    mu = make_finite_measure([M / 2 - shift, M / 2], [w, 1.0 - w], M)
    return AdversarialPair(
        name="pr_w_lower",
        problem=ProblemSpec.pricing(M),
        mu=mu,
        nus=(nu,),
        kind=DistanceKind.WASSERSTEIN,
        eps=eps,
        target=math.sqrt(M * eps) / 4.0,
        cited_policy=None,
    )


@_family
def _build_ski_k_saa_fail(
    eps: float, M: float = 10, b: float = 3, alpha: float | None = None, kind: DistanceKind = _TV
) -> AdversarialPair:
    M, b = _integer("M", M), _integer("b", b)
    alpha = eps / 2.0 if alpha is None else alpha
    nu = ski_indifference_measure(M, b)
    nu_weight = dict(zip(nu.support, nu.weights))
    if not (0.0 < eps <= nu_weight[1.0]):
        raise EpsTooLarge(f"need 0 < eps <= nu(1) = {nu_weight[1.0]}, got {eps}")
    if not (0.0 <= alpha <= eps):
        raise EpsTooLarge(f"need 0 <= alpha <= eps, got alpha={alpha}")
    if alpha > nu_weight[float(M)]:
        raise EpsTooLarge(f"need alpha <= nu(M) = {nu_weight[float(M)]}")
    w1, wM = nu_weight[1.0], nu_weight[float(M)]
    _check_apart(w1 - eps, w1, 0.0, "mu's weight nu(1) - eps at 1 and nu's nu(1)", eps)
    _check_apart(wM - alpha, wM + (-alpha + eps), 0.0, "nu_alpha's and mu's weights at M", eps)

    # nu_alpha: move alpha mass from M down to 0, so renting one more day is
    # strictly preferred at every step and SAA never buys.
    def shifted(extra: dict[float, float]) -> FiniteMeasure:
        wts = dict(nu_weight)
        for pt, dw in extra.items():
            wts[pt] = wts.get(pt, 0.0) + dw
        pts = sorted(wts)
        return make_finite_measure(pts, [wts[pt] for pt in pts], float(M))

    nu_alpha = shifted({0.0: alpha, float(M): -alpha})
    # mu: additionally move eps mass from day 1 to M, so never buying loses
    # roughly eps * M against buying immediately.
    mu = shifted({0.0: alpha, float(M): -alpha + eps, 1.0: -eps})
    target = eps * (M - 1) - alpha * (M - b)
    return AdversarialPair(
        name="ski_k_saa_fail",
        problem=ProblemSpec.ski_rental(b, M),
        mu=mu,
        nus=(nu_alpha,),
        kind=kind,
        eps=eps,
        target=target,
        cited_policy=PolicySpec.saa(),
    )


@_family
def _build_ski_k_lower(
    eps: float, b: float = 1.0, M: float | None = None, kind: DistanceKind = _TV
) -> AdversarialPair:
    M = 2.0 * b if M is None else M
    if b < 1.0:
        raise InvalidBRange(f"need b >= 1, got {b}")
    if not (0.0 < eps <= 0.5):
        raise EpsTooLarge(f"need 0 < eps <= 1/2, got {eps}")
    if M < 1.25 * b:
        raise ValueError(f"need M >= 5b/4, got M={M}")
    # mu's weights are nu's swapped: at both atoms they differ iff these do
    _check_apart(0.5 - eps / 2, 0.5 + eps / 2, 0.0, "the weights 1/2 -/+ eps/2", eps)
    nu = _two_point(0.75 * b, 0.5 + eps / 2, 1.25 * b, 0.5 - eps / 2, M)
    mu = _two_point(0.75 * b, 0.5 - eps / 2, 1.25 * b, 0.5 + eps / 2, M)
    return AdversarialPair(
        name="ski_k_lower",
        problem=ProblemSpec.ski_rental(b, M),
        mu=mu,
        nus=(nu,),
        kind=kind,
        eps=eps,
        target=eps * b / 8.0,
        cited_policy=None,
    )


@_family
def _build_ski_w_saa_fail(eps: float, b: float = 2.0, M: float = 10.0) -> AdversarialPair:
    if M <= 2.0 * b:
        raise ValueError(f"need M > 2b, got M={M}, b={b}")
    if not (0.0 < eps < b / 4.0):
        raise EpsTooLarge(f"need 0 < eps < b/4 = {b / 4}, got {eps}")
    _check_apart(b / 2, b / 2 + eps, 0.0, "nu's atom b/2 and mu's atom b/2 + eps", eps)
    nu = _two_point(b / 2, 0.75, M, 0.25, M)
    mu = _two_point(b / 2 + eps, 0.75, M, 0.25, M)
    return AdversarialPair(
        name="ski_w_saa_fail",
        problem=ProblemSpec.ski_rental(b, M),
        mu=mu,
        nus=(nu,),
        kind=DistanceKind.WASSERSTEIN,
        eps=eps,
        target=0.75 * b - eps,
        cited_policy=PolicySpec.saa(),
    )


@_family
def _build_ski_w_lower(eps: float, b: float = 1.0, M: float | None = None) -> AdversarialPair:
    M = 4.0 * b if M is None else M
    if b < 1.0:
        raise InvalidBRange(f"need b >= 1, got {b}")
    if not (0.0 < eps <= b / 4.0):
        raise EpsTooLarge(f"need 0 < eps <= b/4 = {b / 4}, got {eps}")
    if M < 2.0 * b:
        raise ValueError(f"need M >= 2b, got M={M}")
    s = math.sqrt(b * eps)
    t = math.sqrt(eps / b)
    _check_apart(b / 2 - s / 2, b / 2 + s / 2, MERGE_TOL, "mu's atoms b/2 -/+ sqrt(b*eps)/2", eps)
    nu = _two_point(b / 2 - s / 2, 0.5, M, 0.5, M)
    mu = make_finite_measure(
        [b / 2 - s / 2, b / 2 + s / 2, M], [0.5 - t, t, 0.5], M
    )
    return AdversarialPair(
        name="ski_w_lower",
        problem=ProblemSpec.ski_rental(b, M),
        mu=mu,
        nus=(nu,),
        kind=DistanceKind.WASSERSTEIN,
        eps=eps,
        target=s / 4.0,
        cited_policy=None,
    )


@_family
def _build_hetero_helps(k: float) -> AdversarialPair:
    k = _integer("k", k)
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    b = 2 * k + 1
    M = 3 * k + 2
    delta = lambda pt: make_finite_measure([float(pt)], [1.0], float(M))
    return AdversarialPair(
        name="hetero_helps",
        problem=ProblemSpec.ski_rental(b, M),
        mu=delta(k + 1),
        nus=(delta(k), delta(3 * k + 2)),
        kind=DistanceKind.TOTAL_VARIATION,
        eps=1.0,
        target=2.0 * k,
        cited_policy=PolicySpec.saa(),
    )


# What every pair carries: a given value of one of these keys is checked
# against the built pair, whether or not the family reads it.
_PROBLEM_KEYS = ("M", "c_u", "c_o", "b")
_CARRIED = frozenset({"eps", "kind", *_PROBLEM_KEYS})
# Every parameter name some family reads or checks; any other key is a
# typo, never silently ignored.
_FAMILY_PARAMS = _CARRIED.union(*(reads for _, reads in _FAMILIES.values()))


def adversarial_instance(name: str, params: dict) -> AdversarialPair:
    """Build a named adversarial construction; see _FAMILIES for the list.

    Raises UnknownName, ValueError for an unknown or a non-finite numeric
    parameter or one the family neither reads nor carries (MissingParameter
    for a missing one), EpsTooLarge when eps violates the construction's
    validity condition (outside it the measures would not be measures or
    the target formula would not hold), or FamilyMismatch when the built
    pair's eps, kind, M, c_u, c_o or b differs from a given one (a family
    ignores or fixes some of them).  Numbers reach the builder as floats.
    """
    if name not in _FAMILIES:
        raise UnknownName(f"unknown adversarial family {name!r}")
    build, reads = _FAMILIES[name]
    kwargs = {}
    for key, value in params.items():
        if key not in _FAMILY_PARAMS:
            raise ValueError(f"unknown parameter {key!r}")
        if key not in reads and key not in _CARRIED:
            raise ValueError(f"family {name!r} does not read parameter {key!r}")
        if key != "kind":
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"parameter {key} must be finite, got {value}")
        if key in reads:
            kwargs[key] = value
    for key, param in reads.items():
        if param.default is param.empty and key not in kwargs:
            raise MissingParameter(f"family {name!r} requires parameter {key!r}")
    pair = build(**kwargs)
    built = {"eps": pair.eps, "kind": pair.kind}
    built.update((key, getattr(pair.problem, key)) for key in _PROBLEM_KEYS)
    for key, value in params.items():
        if key in built and built[key] != value:
            shown = [getattr(v, "value", v) for v in (built[key], value)]
            raise FamilyMismatch(
                f"family {name!r} builds {key}={shown[0]}, not the given {key}={shown[1]}"
            )
    return pair


def evaluate_pair(pair: AdversarialPair, pol: PolicySpec | None = None) -> float:
    """The quantity the pair certifies.

    Policy-failure pairs: exact regret of the cited (or given) policy, with
    the exact two-sample expectation when the history is heterogeneous.
    Minimax pairs: the fixed-action minimax value over {mu, nu}.
    """
    if pair.cited_policy is None and pol is None:
        value, _ = fixed_action_minimax(pair.problem, (pair.mu,) + pair.nus)
        return value
    policy = pol if pol is not None else pair.cited_policy
    if len(pair.nus) == 2:
        return exhaustive_regret_n2(pair.problem, policy, pair.mu, pair.nus[0], pair.nus[1])
    return exact_regret(pair.problem, policy, pair.mu, pair.nus[0])


# ---------------------------------------------------------------------------
# brute-force DRO scan
#
# The scan never builds the grid's measures one by one.  grid_weight_rows
# writes them as weight rows over the grid's locations, problems.oracle_rows
# gives every row's oracle action at once (bit-identical to oracle), and the
# policy is applied once per distinct oracle action.  A FiniteMeasure is
# built from its row only for a TV or W1 pair that in_ball certifies and for
# the witness.  The pair loop (metrics.location_columns, metrics.distance_block)
# scores each measure only against the window of the sorted grid that can
# hold its ball (_ball_windows): O(n * (window + _SCAN_ROWS) * L), and
# O(n^2 L) only when every window spans the grid.


@dataclass(frozen=True)
class ScanGrid:
    """Measure grid for worst-case scans: all measures whose atoms sit on
    ``locations`` with at most ``max_atoms`` of them carrying weight, and
    weights that are multiples of 1/weight_resolution."""

    locations: tuple[float, ...]
    weight_resolution: int
    max_atoms: int = 4
    max_pairs: int = 10_000_000

    def __post_init__(self) -> None:
        if not (1 <= self.max_atoms <= 4):
            raise ValueError("max_atoms must be between 1 and 4")
        if self.weight_resolution < 1:
            raise ValueError("weight_resolution must be >= 1")
        for v in self.locations:
            if not math.isfinite(v):
                raise ValueError(f"scan location {v} is not finite")
        if len(self.locations) < 1 or list(self.locations) != sorted(set(self.locations)):
            raise ValueError("locations must be sorted and distinct")

    @property
    def measure_count(self) -> int:
        """Number of grid measures (rows of :func:`grid_weight_rows`): for
        each atom count a, C(L, a) location subsets times C(res - 1, a - 1)
        compositions of the resolution into a positive parts."""
        L, res = len(self.locations), self.weight_resolution
        return sum(
            math.comb(L, a) * math.comb(res - 1, a - 1)
            for a in range(1, min(self.max_atoms, L) + 1)
        )


@functools.cache
def _compositions(a: int, res: int) -> tuple[tuple[tuple[float, ...], ...], np.ndarray]:
    """The compositions of res into a positive parts: raw and canonical weights."""
    raw = tuple(
        tuple((hi - lo) / res for lo, hi in itertools.pairwise((0, *cuts, res)))
        for cuts in itertools.combinations(range(1, res), a - 1)
    )
    comps = np.array([_renormalized(list(w)) for w in raw])
    comps.flags.writeable = False
    return raw, comps


def grid_weight_rows(grid: ScanGrid, upper: float) -> np.ndarray:
    """The grid's measures on [0, upper] as weight rows over its locations,
    ordered by atom count, then location subset, then composition.

    Row i is ``weights_on`` of the canonical measure that
    :func:`make_finite_measure` builds from subset and composition i, bit
    for bit: a composition's weights are canonicalised once, as it would
    canonicalise them, and scattered into the rows of every subset.  A
    subset holding two locations within ``MERGE_TOL`` of each other merges
    them, so its rows are built through :func:`make_finite_measure`.
    """
    locs = grid.locations
    if locs[0] < 0.0 or locs[-1] > upper:
        raise ValueError(f"grid locations must lie in [0, {upper}]")
    res = grid.weight_resolution
    arr = np.asarray(locs, dtype=float)
    W = np.zeros((grid.measure_count, len(locs)))
    start = 0
    # A positive composition of res has at most res parts.
    for a in range(1, min(grid.max_atoms, len(locs), res) + 1):
        raw, comps = _compositions(a, res)
        subsets = np.array(list(itertools.combinations(range(len(locs)), a)))
        rows = start + np.arange(len(subsets) * len(raw)).reshape(len(subsets), len(raw))
        W[rows[:, :, None], subsets[:, None, :]] = comps
        for s in np.flatnonzero((np.diff(arr[subsets], axis=1) <= MERGE_TOL).any(axis=1)):
            pts = [locs[j] for j in subsets[s]]
            W[rows[s]] = weights_on([make_finite_measure(pts, w, upper) for w in raw], arr)
        start += rows.size
    return W


def _ball_windows(
    kind: DistanceKind, cols: np.ndarray, gaps: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The scan's rows, the columns they are scored against, and each row's
    window of columns: row p is measure mus[p], and positions [lo[p], hi[p])
    of nus hold every measure whose :func:`distance_block` distance to it
    is at most eps + BALL_SLACK.

    Each location's term alone bounds that distance, since float sums of
    non-negative terms never shrink: |dF| <= D for K, |dw| <= D + ulps for TV,
    gap * |dF| <= D for W1 (each as rounded).  So sorting on one location's
    column puts the ball's measures in one contiguous window; the location
    with the smallest total window is taken (with none, the grid's own order
    and full windows), and mus and nus are both its sort order.  Where those
    windows hold more than ``_SCAN_ENTRIES`` entries and giving each measure
    the location of its own narrowest window at least halves that total, the
    measures are grouped by that location instead: nus concatenates the
    groups' sort orders (n positions each), and mus holds each group's
    measures in its order, group by group.  Either way mus is a permutation
    of the measures, and lo and hi never decrease from row to row.

    The radius is widened by 2^-48 (more than the two roundings of |dF| and
    gap * |dF|), and rounding ``x -+ radius`` to the sorted values keeps
    every in-ball value inside.  A location whose radius is 1 or more
    narrows next to nothing (CDFs and weights lie in [0, 1]) and is skipped,
    W1 locations with a gap <= eps + BALL_SLACK (the one at ``upper``
    included) among them.

    TV rows must fsum to exactly 1, as grid rows do (and a location left out
    of ``cols`` must agree in all rows).  The ulps: two rows' exact sums
    differ by at most 3 * 2^-54, so |dw_l| <= sum |dw| / 2 + 2^-53.  The m
    rounded terms and m - 1 additions lose at most a factor 1 - 2^-53 each,
    so sum |dw| <= 2 D (1 + m * 2^-52): D <= e gives |dw_l| <= e + m * e *
    2^-52 + 2^-53, below the radius e + (m * e + 1) * 2^-50 by more than
    its own roundings.
    """
    n = cols.shape[1]
    e = eps + BALL_SLACK
    best = n * n, None, np.zeros(n, np.intp), np.full(n, n)
    narrowing = []  # (location, lo, hi) in that location's sort order
    for loc, gap in enumerate(gaps.tolist()):
        if kind is DistanceKind.WASSERSTEIN:
            if gap <= e:
                continue
            radius = e / gap
        elif kind is DistanceKind.TOTAL_VARIATION:
            radius = e + (len(gaps) * e + 1.0) * 2.0**-50
        else:
            radius = e
        radius *= 1.0 + 2.0**-48
        if radius >= 1.0:
            continue
        s = np.sort(cols[loc])
        lo = np.searchsorted(s, s - radius)
        hi = np.searchsorted(s, s + radius, side="right")
        narrowing.append((loc, lo, hi))
        total = int((hi - lo).sum())
        if total < best[0]:
            best = total, loc, lo, hi
    total, loc, lo, hi = best
    # Each group costs a sort and a copy of the columns, so grouping waits
    # for a large saving: the 1 055-measure K grid would save 28-36 % of
    # its entries and gained nothing measurable from it.
    if narrowing and total > _SCAN_ENTRIES:
        sorts = [np.argsort(cols[l], kind="stable") for l, _, _ in narrowing]
        width = np.empty((len(narrowing), n), np.intp)
        for w, o, (_, l_lo, l_hi) in zip(width, sorts, narrowing):
            w[o] = l_hi - l_lo
        if 2 * int(width.min(axis=0).sum()) <= total:
            own = width.argmin(axis=0)
            parts = []
            for k, g in enumerate(np.unique(own).tolist()):
                o, (_, g_lo, g_hi) = sorts[g], narrowing[g]
                mine = np.flatnonzero(own[o] == g)
                parts.append((o[mine], o, k * n + g_lo[mine], k * n + g_hi[mine]))
            return tuple(np.concatenate(a) for a in zip(*parts))
    order = np.arange(n) if loc is None else np.argsort(cols[loc], kind="stable")
    return order, order, lo, hi


def _window_bound(V: np.ndarray, a_idx: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Row p's largest score V[p, a_idx[q]] over q in [lo[p], hi[p]), from a
    count of each action over the positions (V >= 0; p's window holds p)."""
    seen = np.zeros((len(a_idx) + 1, V.shape[1]), np.intp)
    np.cumsum(a_idx[:, None] == np.arange(V.shape[1]), axis=0, out=seen[1:])
    return np.where(seen[hi] > seen[lo], V, 0.0).max(axis=1)


def dro_regret_scan(
    p: ProblemSpec,
    pol: PolicySpec,
    kind: DistanceKind,
    eps: float,
    grid: ScanGrid,
) -> RegretReport:
    """Maximize the exact regret over all grid pairs (mu, nu) with nu in the
    eps-ball of mu.  The result is a certified lower bound on the worst-case
    regret; paired with the analytic upper bound it forms a sandwich.

    Only pairs that can lie in the ball are scored: the measures are sorted
    on one location, or grouped by their own narrowest one and each group
    sorted on it (:func:`_ball_windows`), and cut into blocks of at most
    ``_SCAN_ROWS`` sorted rows of one group, each scored against the union
    of its rows' windows, with rows x window at most ``_SCAN_ENTRIES`` (or
    one row).
    Blocks are scored from the largest row bound (:func:`_window_bound`)
    down, until no row left can beat the best.  The estimate is the largest
    regret of a pair that the block distance puts in the ball and, for TV
    and W1, :func:`in_ball` certifies, and the witness the first such pair
    in (mu index, nu index) order, as a row-major scan of all pairs finds
    it, whichever order the blocks are scored in.
    """
    if eps < 0.0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    n = grid.measure_count
    if n * n > grid.max_pairs:
        raise TooLarge(f"{n * n} pairs exceed the cap {grid.max_pairs}")
    W = grid_weight_rows(grid, p.M)
    locs = np.asarray(grid.locations, dtype=float)
    gaps = np.append(locs[1:], p.M) - locs
    measure = functools.cache(lambda i: _row_measure(W[i], locs, p.M))

    # Evaluate both the policy actions and the oracle actions through the
    # same vectorized arithmetic, so SAA on the truth is exactly zero.  The
    # policies are functions of the oracle action, which is a location or 0:
    # one policy_action call per distinct oracle action.
    found, inverse = np.unique(oracle_rows(p, W, locs), return_inverse=True)
    found = found.tolist()
    chosen = [policy_action(pol, p, a) for a in found]
    distinct = sorted(set(chosen) | set(found))
    col = {a: j for j, a in enumerate(distinct)}
    a_idx = np.asarray([col[a] for a in chosen])[inverse]
    # GA[i, j]: expected objective of action distinct[j] under measure i
    GA = W @ objective(p, np.asarray(distinct)[:, None], locs).T
    opts = GA[np.arange(n), np.asarray([col[a] for a in found])[inverse]]
    # V[i, a]: regret of action distinct[a] under measure i; the pair
    # (mu_i, nu_j) scores V[i, a_idx[j]].
    V = np.abs(opts[:, None] - GA)
    cols = location_columns(kind, W)
    # Where every row agrees, or a W1 gap is 0, each term is +0.0, which
    # leaves D bit for bit: drop those locations (if none is left, keep one).
    live = (np.ptp(cols, axis=1) > 0.0) & ((gaps > 0.0) | (kind is not DistanceKind.WASSERSTEIN))
    live[live.argmax()] = True
    cols, gaps = cols[live], gaps[live]
    # From here on rows are positions in mus and columns positions in nus,
    # which map back to measures.
    mus, nus, lo, hi = _ball_windows(kind, cols, gaps, eps)
    mu_cols, nu_cols, a_idx, V = cols[:, mus], cols[:, nus], a_idx[nus], V[mus]
    bound = _window_bound(V, a_idx, lo, hi)
    # Blocks hold consecutive rows of one group, whose windows lie in its
    # n positions of nus.
    group_end = np.searchsorted(lo, (lo // n + 1) * n)
    starts = [0]
    while starts[-1] < n:
        ends = hi[starts[-1] : min(starts[-1] + _SCAN_ROWS, group_end[starts[-1]])]
        sizes = np.arange(1, len(ends) + 1) * (ends - lo[starts[-1]])
        starts.append(starts[-1] + max(1, int(np.searchsorted(sizes, _SCAN_ENTRIES, "right"))))
    block_bound = np.maximum.reduceat(bound, starts[:-1])

    # Pairs outside the ball score <= 0 (eps + BALL_SLACK - D has the exact
    # sign), and best >= 0.  A pair moves best_pair if it scores above best,
    # or ties it and comes before it, so rows whose bound is below best, or
    # at most ties it after best_pair's mu, are skipped.  So each block only
    # merges its best pair into (best, best_pair) by a rule no block order
    # changes, and blocks whose bound is below best hold no such pair.  D may
    # differ from the scalar distance in the last bit, so a pair on the
    # ball's edge can pass here and fail in_ball: each new best is certified,
    # except for K, whose D on grid rows is distance's bit for bit (both
    # cumsum the same weights in the same order; the grid's zeros add +0.0).
    def certified(q: tuple[int, int]) -> bool:
        return kind is DistanceKind.KOLMOGOROV or in_ball(measure(q[0]), measure(q[1]), kind, eps)

    best = 0.0
    best_pair: tuple[int, int] | None = None
    for b in np.argsort(-block_bound, kind="stable").tolist():
        if block_bound[b] < best:
            break
        block = slice(starts[b], starts[b + 1])
        last_mu = -1 if best_pair is None else best_pair[0]
        tied = (bound[block] == best) & (mus[block] <= last_mu)
        rows = block.start + np.flatnonzero((bound[block] > best) | tied)
        if not rows.size:
            continue
        window = slice(lo[rows[0]], hi[rows[-1]])
        D = distance_block(kind, mu_cols[:, rows], nu_cols[:, window], gaps)
        R = np.copysign(
            V[rows][:, a_idx[window]], np.subtract(eps + BALL_SLACK, D, out=D), out=D
        )
        while True:
            tops = R.max(axis=1)
            top = float(tops.max())
            if top < best or (top == best and best_pair is None):
                break
            r = np.flatnonzero(tops == top)
            at, c = np.nonzero(R[r] == top)
            r = r[at]
            pairs = sorted(zip(mus[rows[r]].tolist(), nus[window.start + c].tolist()))
            if top == best:  # only a tie before best_pair moves it
                pairs = [pair for pair in pairs if pair < best_pair]
            pair = next(filter(certified, pairs), None)
            if pair is not None:
                best, best_pair = top, pair
            elif top > best:  # nothing certified at top: try the next score
                R[r, c] = -1.0
                continue
            break

    witness = None
    if best_pair is not None:
        i, j = best_pair
        witness = AdversarialPair(
            name="scan_witness",
            problem=p,
            mu=measure(i),
            nus=(measure(j),),
            kind=kind,
            eps=eps,
            target=None,
            cited_policy=pol,
        )
    lo, hi = bounds_for_policy(p, kind, pol, eps)
    return RegretReport(
        estimate=best,
        ci_half_width=0.0,
        analytic_lower=lo,
        analytic_upper=hi,
        witness=witness,
    )


# ---------------------------------------------------------------------------
# analytic bounds


def analytic_bounds(
    p: ProblemSpec, kind: DistanceKind, pol_kind: str, eps: float
) -> tuple[float, float]:
    """Closed-form (lower, upper) asymptotic worst-case regret for the cell.

    pol_kind is 'saa' or 'best'.  The SAA upper bound under Kolmogorov or
    TV, and for newsvendor under W1, is saa_diagnostic(p, kind) * eps; the
    'best' cell shares it wherever SAA is the recommended policy.  Raises
    EpsTooLarge outside the validity range of the underlying statement and
    NoAnalyticBound for an unknown cell.
    """
    if pol_kind not in ("saa", "best"):
        raise NoAnalyticBound(f"unknown policy kind {pol_kind!r}")
    if eps <= 0.0:
        raise EpsTooLarge(f"bounds need eps > 0, got {eps}")
    kv = kind.value
    saa_upper = saa_diagnostic(p, kind) * eps
    if p.kind is ProblemKind.NEWSVENDOR:
        q = p.critical_fractile
        cap = min(q, 1 - q) if kind is not DistanceKind.WASSERSTEIN else p.M * min(q, 1 - q)
        if eps > cap:
            raise EpsTooLarge(f"newsvendor/{kv} bounds need eps <= {cap}")
        scale = 1.0 if kind is DistanceKind.WASSERSTEIN else p.M
        return 0.5 * (p.c_u + p.c_o) * scale * eps, saa_upper
    if p.kind is ProblemKind.PRICING:
        if kind is not DistanceKind.WASSERSTEIN:
            if eps > 0.5:
                raise EpsTooLarge(f"pricing/{kv} bounds need eps <= 1/2")
            return 0.5 * p.M * eps, saa_upper
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
            return p.M * eps, saa_upper
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


def bounds_for_policy(
    p: ProblemSpec, kind: DistanceKind, pol: PolicySpec, eps: float
) -> tuple[float | None, float | None]:
    """Bounds cell matching a concrete policy, or (None, None).

    SAA maps to the 'saa' cell; a policy equal to the recommended
    robustification for (problem, kind, eps) maps to 'best'; anything else
    has no cited bound.
    """
    try:
        if pol.kind is PolicyKind.SAA:
            return analytic_bounds(p, kind, "saa", eps)
        rec = recommended_parameter(p, kind, eps)
        if rec.kind is pol.kind and (
            (pol.kind is PolicyKind.DELTA_SAA and abs(pol.delta - rec.delta) <= 1e-12)
            or (pol.kind is PolicyKind.CAPPED and abs(pol.cap - rec.cap) <= 1e-12)
        ):
            return analytic_bounds(p, kind, "best", eps)
    except (EpsTooLarge, EpsNonPositive, NoAnalyticBound):
        return None, None
    return None, None
