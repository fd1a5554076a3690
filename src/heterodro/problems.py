"""The three objective functions, exact expected objectives, and oracles.

Problems share the interval [0, M] as both action and outcome space:

* newsvendor(c_u, c_o, M): cost  c_u*(xi-x)^+ + c_o*(x-xi)^+  (minimize);
* pricing(M): revenue  x * 1{xi >= x}  with ties counting as a sale
  (maximize);
* ski_rental(b, M): cost  xi*1{xi <= x} + (b+x)*1{xi > x}  where x is the
  rental duration before buying at price b (minimize).

:func:`objective` is the only statement of g(x, xi); it broadcasts over
arrays of actions and realizations.  Everything else reduces its values
against a measure's weights in one of two ways:

* ``fsum`` (:func:`expected_objective`): correctly rounded, so exact ties
  between actions survive; the oracles, the regrets and every test that
  asserts ``==`` use it;
* ``@``: a matrix product over many actions at once, exact to rounding
  only.

:func:`oracle` is the only statement of each oracle: closed-form candidate
reductions (critical-fractile quantile, support-point maximum, {0} union
support) whose optimality over the full continuum is re-certified against a
dense action grid in the test suite.  Ties break toward the smallest action.
:func:`oracle_rows` screens many measures with one product and hands every
near-tie to :func:`oracle`.  :func:`opt_value` is the ``fsum`` cost of the
oracle's action; for ski rental it is the cost the oracle's exact recost
already found (:func:`_ski_optimum`), so no action is costed twice.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .measures import FiniteMeasure, quantile


class OutOfRange(ValueError):
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


def _in_interval(p: ProblemSpec, value, what: str) -> np.ndarray:
    """``value`` as a float array, raising OutOfRange unless every entry
    lies in [0, M] (NaN included)."""
    a = np.asarray(value, dtype=float)
    ok = (a >= 0.0) & (a <= p.M)
    if not ok.all():
        raise OutOfRange(f"{what} {a[~ok].flat[0]} outside [0, {p.M}]")
    return a


def objective(p: ProblemSpec, x, xi) -> np.ndarray:
    """Pointwise objective g(x, xi), nonnegative on [0,M]^2.

    ``x`` (actions) and ``xi`` (realizations) are scalars or arrays and
    broadcast against each other; the result is a float array of their
    broadcast shape, 0-d for scalar inputs.
    """
    return _g(p, _in_interval(p, x, "action"), _in_interval(p, xi, "realization"))


def _g(p: ProblemSpec, x: float | np.ndarray, xi: np.ndarray) -> np.ndarray:
    """:func:`objective` on floats or float arrays already known to lie in
    [0, M]."""
    if p.kind is ProblemKind.NEWSVENDOR:
        return p.c_u * np.maximum(xi - x, 0.0) + p.c_o * np.maximum(x - xi, 0.0)
    if p.kind is ProblemKind.PRICING:
        return np.where(xi >= x, x, 0.0)
    return np.where(xi <= x, xi, p.b + x)


def expected_objective(p: ProblemSpec, x: float, m: FiniteMeasure) -> float:
    """Exact atom-weighted expectation of g(x, .) under m.

    The sum is correctly rounded, so two actions whose expectations agree
    in exact arithmetic on the rounded terms compare equal: the oracles
    break ties on this value.
    """
    _check_measure(p, m)
    # The atoms lie in [0, m.upper] (FiniteMeasure), so only x is checked:
    # one comparison, which NaN fails, and x goes to _g as it is.
    if not 0.0 <= x <= p.M:
        raise OutOfRange(f"action {float(x)} outside [0, {p.M}]")
    support, weights = m.arrays
    return math.fsum((weights * _g(p, x, support)).tolist())


def expected_objective_grid(p: ProblemSpec, xs: np.ndarray, m: FiniteMeasure) -> np.ndarray:
    """Expected objective at every action of the 1-d array ``xs``, by one
    matrix product (rounded differently from :func:`expected_objective`)."""
    support, weights = m.arrays
    return objective(p, np.asarray(xs, dtype=float)[:, None], support) @ weights


def _check_measure(p: ProblemSpec, m: FiniteMeasure) -> None:
    if m.upper > p.M:
        raise OutOfRange(f"measure interval [0,{m.upper}] exceeds [0,{p.M}]")


def oracle(p: ProblemSpec, m: FiniteMeasure) -> float:
    """Optimal action for m, ties broken toward the smallest action.

    newsvendor: the critical-fractile quantile.  pricing: the support point
    with maximal revenue s * P(xi >= s).  ski rental: the cheapest of
    {0} union support(m); the expected cost is nondecreasing between atoms,
    so this candidate set contains a global minimizer.  One O(k) pass of
    running sums screens the candidates' costs; only those within a proven
    rounding bound of the screened minimum are re-costed exactly with
    :func:`expected_objective`, so the action is the one an exact argmin
    over all candidates returns, ties included (:func:`_ski_optimum`).
    """
    _check_measure(p, m)
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
    return _ski_optimum(p, m)[0]


def _ski_optimum(p: ProblemSpec, m: FiniteMeasure) -> tuple[float, float]:
    """The ski oracle's (action, exact cost): the cost is the
    :func:`expected_objective` of the action, which the recost computed."""
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
    return best_x, best_cost


def oracle_rows(p: ProblemSpec, W: np.ndarray, locs: np.ndarray) -> np.ndarray:
    """:func:`oracle` of every row of ``W``, bit for bit; row i holds the
    weights of a canonical measure on [0, M] at the sorted ``locs`` (0.0
    off its atoms).

    One matrix product scores every row's candidates (the atoms it holds,
    and x = 0 for ski rental) through the objective table.  A row with a
    single candidate under a proven rounding cut of its best score takes
    that candidate; every other row goes to :func:`oracle` itself, whose
    rule breaks its near-ties.
    """
    ski = p.kind is ProblemKind.SKI_RENTAL
    actions = np.concatenate(([0.0], locs)) if ski else locs
    g = _g(p, actions[:, None], locs)
    g = -g if p.kind is ProblemKind.PRICING else g
    held = W > 0.0
    # A ski atom at 0 is the candidate x = 0, which every row has.
    allowed = np.hstack((np.ones((len(W), 1), bool), held & (locs > 0.0))) if ski else held
    screened = np.where(allowed, W @ g.T, math.inf)
    # Why a lone survivor is oracle's action.  Let u = 2**-53, L = len(locs),
    # G = max|g| and E_c a row's exact weighted sum of the table's g at
    # candidate c (a canonical row sums to 1 within u).  The product errs
    # from E_c by at most gamma_L*G, about L*u*G, in any summation order.
    # oracle's action a has E_a within D of the row's smallest E:
    # * ski rental: a is the argmin of fsum, within 2u*G of E: D = 4u*G;
    # * newsvendor: the quantile's float running mass errs by at most L*u and
    #   q by 3u, so between a and the exact argmin every atom's exact running
    #   mass F lies within (L + 3)u of q.  From atom s to the next atom s' the
    #   cost moves by (c_u + c_o)(s' - s)(F - q), and (c_u + c_o)(s' - s) <=
    #   g(s, s') + g(s', s) <= 2G.  With g's own 2u rounding, D = 2(L + 5)u*G;
    # * pricing: the float remaining mass errs by at most L*u, each revenue
    #   by (L + 1)u*G: D = 2(L + 1)u*G.
    # So a's score exceeds the row's minimum by at most 2L*u*G + D <=
    # (4L + 10)u*G, up to a factor 1 + O(L*u).  The cut, 8(L + 4)u*G, is over
    # twice that, which absorbs its own rounding: a survives.
    cut = screened.min(axis=1) + 8.0 * (len(locs) + 4) * 2.0**-53 * np.abs(g).max()
    survivors = screened <= cut[:, None]
    chosen = actions[np.argmax(survivors, axis=1)]
    for i in np.flatnonzero(survivors.sum(axis=1) > 1):
        chosen[i] = oracle(p, _row_measure(W[i], locs, p.M))
    return chosen


def _row_measure(row: np.ndarray, locs: np.ndarray, upper: float) -> FiniteMeasure:
    """The canonical measure whose weights at ``locs`` are ``row``."""
    held = row > 0.0
    return FiniteMeasure(tuple(locs[held].tolist()), tuple(row[held].tolist()), float(upper))


def opt_value(p: ProblemSpec, m: FiniteMeasure) -> float:
    """Expected objective of the oracle action, bit for bit.  For ski rental
    it is the exact cost that the oracle's recost already computed
    (:func:`_ski_optimum`); newsvendor and pricing cost their action once
    with :func:`expected_objective`."""
    if p.kind is ProblemKind.SKI_RENTAL:
        _check_measure(p, m)
        return _ski_optimum(p, m)[1]
    return expected_objective(p, oracle(p, m), m)
