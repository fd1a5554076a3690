"""The three objective functions, exact expected objectives, and oracles.

Problems share the interval [0, M] as both action and outcome space:

* newsvendor(c_u, c_o, M): cost  c_u*(xi-x)^+ + c_o*(x-xi)^+  (minimize);
* pricing(M): revenue  x * 1{xi >= x}  with ties counting as a sale
  (maximize);
* ski_rental(b, M): cost  xi*1{xi <= x} + (b+x)*1{xi > x}  where x is the
  rental duration before buying at price b (minimize).

Oracles use closed-form candidate reductions (critical-fractile quantile,
support-point maximum, {0} union support) whose optimality over the full
continuum is re-certified against a dense action grid in the test suite.
Ties break toward the smallest action.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .measures import FiniteMeasure, cdf, quantile, tail


class OutOfRange(ValueError):
    pass


class NonIntegerSupport(ValueError):
    pass


class ProblemKind(enum.Enum):
    NEWSVENDOR = "newsvendor"
    PRICING = "pricing"
    SKI_RENTAL = "ski_rental"


@dataclass(frozen=True)
class ProblemSpec:
    kind: ProblemKind
    M: float
    c_u: float | None = None
    c_o: float | None = None
    b: float | None = None

    def __post_init__(self) -> None:
        if not (self.M > 0.0 and math.isfinite(self.M)):
            raise ValueError(f"M must be a finite positive real, got {self.M}")
        if self.kind is ProblemKind.NEWSVENDOR:
            for name, value in (("c_u", self.c_u), ("c_o", self.c_o)):
                if value is None or not (value > 0.0 and math.isfinite(value)):
                    raise ValueError(f"newsvendor needs a finite {name} > 0, got {value}")
        elif self.kind is ProblemKind.SKI_RENTAL:
            if self.b is None or not (0.0 < self.b < self.M):
                raise ValueError("ski rental needs 0 < b < M")

    @classmethod
    def newsvendor(cls, c_u: float, c_o: float, M: float) -> "ProblemSpec":
        return cls(ProblemKind.NEWSVENDOR, float(M), c_u=float(c_u), c_o=float(c_o))

    @classmethod
    def pricing(cls, M: float) -> "ProblemSpec":
        return cls(ProblemKind.PRICING, float(M))

    @classmethod
    def ski_rental(cls, b: float, M: float) -> "ProblemSpec":
        return cls(ProblemKind.SKI_RENTAL, float(M), b=float(b))

    @property
    def sense(self) -> str:
        """'min' for cost problems, 'max' for pricing."""
        return "max" if self.kind is ProblemKind.PRICING else "min"

    @property
    def critical_fractile(self) -> float:
        if self.kind is not ProblemKind.NEWSVENDOR:
            raise ValueError("critical fractile is a newsvendor quantity")
        return self.c_u / (self.c_u + self.c_o)

    def to_text(self) -> str:
        if self.kind is ProblemKind.NEWSVENDOR:
            return f"newsvendor:{self.c_u!r},{self.c_o!r},{self.M!r}"
        if self.kind is ProblemKind.PRICING:
            return f"pricing:{self.M!r}"
        return f"ski:{self.b!r},{self.M!r}"

    @classmethod
    def from_text(cls, text: str) -> "ProblemSpec":
        try:
            name, _, rest = text.partition(":")
            args = [float(v) for v in rest.split(",")] if rest else []
            name = name.strip().lower()
            if name == "newsvendor":
                c_u, c_o, M = args
                return cls.newsvendor(c_u, c_o, M)
            if name == "pricing":
                (M,) = args
                return cls.pricing(M)
            if name in ("ski", "ski_rental", "ski-rental"):
                b, M = args
                return cls.ski_rental(b, M)
        except (ValueError, TypeError) as exc:
            raise ValueError(f"cannot parse problem text {text!r}: {exc}") from exc
        raise ValueError(f"unknown problem {name!r}")


def _check_in_interval(p: ProblemSpec, value: float, what: str) -> None:
    if not (0.0 <= value <= p.M):
        raise OutOfRange(f"{what} {value} outside [0, {p.M}]")


def objective(p: ProblemSpec, x: float, xi: float) -> float:
    """Pointwise objective g(x, xi); nonnegative on [0,M]^2."""
    _check_in_interval(p, x, "action")
    _check_in_interval(p, xi, "realization")
    if p.kind is ProblemKind.NEWSVENDOR:
        return p.c_u * max(xi - x, 0.0) + p.c_o * max(x - xi, 0.0)
    if p.kind is ProblemKind.PRICING:
        return x if xi >= x else 0.0
    return xi if xi <= x else p.b + x


def expected_objective(p: ProblemSpec, x: float, m: FiniteMeasure) -> float:
    """Exact atom-weighted expectation of g(x, .) under m."""
    _check_in_interval(p, x, "action")
    if m.upper > p.M:
        raise OutOfRange(f"measure interval [0,{m.upper}] exceeds [0,{p.M}]")
    return math.fsum(w * objective(p, x, xi) for xi, w in zip(m.support, m.weights))


def expected_objective_grid(p: ProblemSpec, xs: np.ndarray, m: FiniteMeasure) -> np.ndarray:
    """Vectorized expected objective over an array of actions."""
    xs = np.asarray(xs, dtype=float)
    pts = np.asarray(m.support)
    wts = np.asarray(m.weights)
    if p.kind is ProblemKind.NEWSVENDOR:
        diff = pts[None, :] - xs[:, None]
        cost = p.c_u * np.maximum(diff, 0.0) + p.c_o * np.maximum(-diff, 0.0)
        return cost @ wts
    suffix = np.concatenate([np.cumsum(wts[::-1])[::-1], [0.0]])
    prefix_mass = np.concatenate([[0.0], np.cumsum(wts)])
    prefix_first_moment = np.concatenate([[0.0], np.cumsum(wts * pts)])
    if p.kind is ProblemKind.PRICING:
        k = np.searchsorted(pts, xs, side="left")
        return xs * suffix[k]
    # ski rental: E[xi; xi <= x] + (b + x) * P(xi > x)
    k = np.searchsorted(pts, xs, side="right")
    return prefix_first_moment[k] + (p.b + xs) * (1.0 - prefix_mass[k])


def ski_cost_from_cdf(p: ProblemSpec, x: float, m: FiniteMeasure) -> float:
    """Ski-rental cost in CDF form: b*(1-F(x)) + x - int_0^x F.

    Equivalent to the atom-weighted expectation (cross-asserted in tests);
    the integral form is what the tail and Lipschitz arguments rest on.
    """
    if p.kind is not ProblemKind.SKI_RENTAL:
        raise ValueError("CDF cost form is specific to ski rental")
    _check_in_interval(p, x, "action")
    integral = 0.0
    f_prev = 0.0
    prev = 0.0
    for pt, w in zip(m.support, m.weights):
        if pt >= x:
            break
        integral += f_prev * (pt - prev)
        f_prev += w
        prev = pt
    integral += f_prev * (x - prev)
    return p.b * (1.0 - cdf(m, x)) + x - integral


def ski_discrete_cost(k: int, m: FiniteMeasure, b: float) -> float:
    """Integer-day rental cost: sum_{i=1}^k P(xi >= i) + b * P(xi >= k+1)."""
    if abs(k - round(k)) > 1e-9:
        raise NonIntegerSupport(f"action {k} is not an integer day count")
    for pt in m.support:
        if abs(pt - round(pt)) > 1e-9:
            raise NonIntegerSupport(f"support point {pt} is not an integer")
    k = int(round(k))
    rent = math.fsum(tail(m, i - 0.5) for i in range(1, k + 1))
    return rent + b * tail(m, k + 0.5)


def oracle(p: ProblemSpec, m: FiniteMeasure) -> float:
    """Optimal action for m, ties broken toward the smallest action.

    newsvendor: the critical-fractile quantile.  pricing: the support point
    with maximal revenue s * P(xi >= s).  ski rental: the cheapest of
    {0} union support(m); the expected cost is nondecreasing between atoms,
    so this candidate set contains a global minimizer.  One O(k) pass of
    running sums screens the candidates' costs; only those within a proven
    rounding bound of the screened minimum are re-costed exactly with
    :func:`expected_objective`, so the action is the one an exact argmin
    over all candidates returns, ties included.
    """
    if m.upper > p.M:
        raise OutOfRange(f"measure interval [0,{m.upper}] exceeds [0,{p.M}]")
    if p.kind is ProblemKind.NEWSVENDOR:
        return quantile(m, p.critical_fractile)
    if p.kind is ProblemKind.PRICING:
        best_s, best_rev = m.support[0], -math.inf
        remaining = 1.0
        for s, w in zip(m.support, m.weights):
            rev = s * remaining
            if rev > best_rev:
                best_s, best_rev = s, rev
            remaining -= w
        return best_s
    # Screen: the cost of x is E[xi; xi <= x] + (b + x) * P(xi > x), from
    # running sums.  An atom at 0 lies in the prefix of x = 0.
    b = p.b
    moment = 0.0
    mass = m.weights[0] if m.support[0] <= 0.0 else 0.0
    candidates = [0.0]
    screened = [b * (1.0 - mass)]
    for s, w in zip(m.support, m.weights):
        if s > 0.0:
            moment += w * s
            mass += w
            candidates.append(s)
            screened.append(moment + (b + s) * (1.0 - mass))
    # Rounding bound, u = 2**-53, n atoms, every atom and x in [0, M].  Let
    # C be a candidate's cost with the rounded b + x (<= (b + M)(1 + u)).
    # The exact path's value F (fsum of rounded products) has |F - C| <=
    # 3u(b + M).  The screen's running sums err by at most n*u*M (moment)
    # and n*u (mass); the weights sum to 1 within 2u (renormalisation); the
    # subtraction, product and final sum add 3u(b + M).  So |S - C| <=
    # (n + 6)u(2M + b) and |F - S| <= E = (n + 9)u(2M + b), up to factors
    # 1 + O(n*u).  A candidate whose S exceeds min(S) + 2E costs strictly
    # more than the screened minimum's F, so it is neither the minimum nor
    # a tie of it; the cut below is 4 * 2E, which also absorbs its own
    # rounding.  When every candidate ties (ski_indifference_measure) all
    # are kept and the exact loop is the plain argmin.
    cut = min(screened) + 8.0 * (len(m.support) + 9) * 2.0**-53 * (2.0 * p.M + b)
    best_x, best_cost = 0.0, math.inf
    for x, s in zip(candidates, screened):
        if s <= cut:
            c = expected_objective(p, x, m)
            if c < best_cost:
                best_x, best_cost = x, c
    return best_x


def opt_value(p: ProblemSpec, m: FiniteMeasure) -> float:
    """Expected objective of the oracle action."""
    return expected_objective(p, oracle(p, m), m)
