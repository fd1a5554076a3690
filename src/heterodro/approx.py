"""Objective-structure diagnostics for SAA under the three distances.

Whether SAA's worst-case regret vanishes with the heterogeneity radius is
governed by how well g(x, .) can be approximated inside the distance's
maximal generator: bounded-variation functions for Kolmogorov, 1-Lipschitz
for Wasserstein, bounded-span for total variation.  This module exposes the
closed-form total variation / Lipschitz constant / span of each objective,
and the resulting finite-or-infinite SAA coefficient.  It needs no
numerical library: the Bernstein-polynomial checks for objectives that are
only Hoelder continuous live with the tests that use them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .metrics import DistanceKind
from .problems import ProblemKind, ProblemSpec


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
