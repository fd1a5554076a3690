"""Objective-structure diagnostics for SAA under the three distances.

Whether SAA's worst-case regret vanishes with the heterogeneity radius is
governed by how well g(x, .) can be approximated inside the distance's
maximal generator: bounded-variation functions for Kolmogorov, 1-Lipschitz
for Wasserstein, bounded-span for total variation.  This module exposes the
closed-form total variation / Lipschitz constant / span of each objective,
the resulting finite-or-infinite SAA coefficient, and the
Bernstein-polynomial machinery used for objectives that are only Hoelder
continuous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .metrics import DistanceKind
from .problems import ProblemKind, ProblemSpec


class DegreeZero(ValueError):
    pass


@dataclass(frozen=True)
class ObjectiveStats:
    """Total variation, Lipschitz constant, and span of xi -> g(x, xi)."""

    total_variation: float
    lipschitz: float
    span: float


def objective_stats(p: ProblemSpec, x: float) -> ObjectiveStats:
    """Closed-form stats of g(x, .) on [0, M].

    newsvendor: piecewise linear, falling c_o*x then rising c_u*(M-x).
    pricing: a single jump of height x at xi = x.
    ski rental: a rise of slope 1 on [0, x] and a jump of height b, plus
    (for x = 0) the jump from g(0,0) = 0 straight to b.
    """
    if not (0.0 <= x <= p.M):
        raise ValueError(f"action {x} outside [0, {p.M}]")
    if p.kind is ProblemKind.NEWSVENDOR:
        return ObjectiveStats(
            total_variation=p.c_o * x + p.c_u * (p.M - x),
            lipschitz=max(p.c_u, p.c_o),
            span=max(p.c_o * x, p.c_u * (p.M - x)),
        )
    if p.kind is ProblemKind.PRICING:
        if x == 0.0:
            return ObjectiveStats(0.0, 0.0, 0.0)
        return ObjectiveStats(total_variation=x, lipschitz=math.inf, span=x)
    span = p.b + x if x > 0.0 else p.b
    return ObjectiveStats(total_variation=x + p.b, lipschitz=math.inf, span=span)


def saa_diagnostic(p: ProblemSpec, kind: DistanceKind) -> float:
    """SAA regret coefficient: the regret is bounded by coefficient * eps.

    Returns 2*sup_x V (Kolmogorov), 2*sup_x Lip (Wasserstein), or
    2*sup_x span (total variation); math.inf signals that SAA can fail
    outright for this (problem, distance) combination.  Every field of
    objective_stats is affine, convex or constant in x on [0, M], so the
    supremum sits at x = 0 or x = M.
    """
    name = {
        DistanceKind.KOLMOGOROV: "total_variation",
        DistanceKind.WASSERSTEIN: "lipschitz",
        DistanceKind.TOTAL_VARIATION: "span",
    }[kind]
    return 2.0 * max(getattr(objective_stats(p, x), name) for x in (0.0, p.M))


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
