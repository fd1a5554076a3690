"""Exact Kolmogorov, total-variation, and Wasserstein-1 distances.

All three have closed forms for step CDFs, so they are computed exactly
from the atom representation; no sampling noise enters ball-membership
checks or bound sandwiches.  Atom positions are compared exactly: canonical
measures produced by the same arithmetic share bit-identical coordinates.

One kernel serves every caller.  Measures are weight rows over shared
sorted locations (:func:`weights_on`; one ``np.unique`` for a pair), and
:func:`distance_terms` turns two rows into per-location terms: |F_a - F_b|
(CDFs by ``np.cumsum``, constant up to the next location) for K,
|w_a - w_b| for TV, and |F_a - F_b| times the gap to the next location (or
``upper``) for W1.  K is their max, TV half their sum, W1 their sum.  The
scalar distances sum with ``math.fsum``, correctly rounded whatever the
order.  The DRO scan takes the same terms one location at a time
(:func:`location_columns`, :func:`distance_block`) on blocks of (mu, nu)
pairs and keeps a running max or a running sum in location order, fast but
possibly off from ``fsum`` in the last bits, so its witness is re-checked
with the scalar :func:`in_ball`.
"""

from __future__ import annotations

import enum
import itertools
import math
from typing import Sequence

import numpy as np

from .measures import FiniteMeasure

# Additive slack for ball membership: adversarial constructions sit exactly
# on the boundary (e.g. total variation exactly eps), so a few ulp of float
# noise must not eject them.
BALL_SLACK = 1e-12


class MismatchedInterval(ValueError):
    pass


class DistanceKind(enum.Enum):
    KOLMOGOROV = "kolmogorov"
    TOTAL_VARIATION = "total_variation"
    WASSERSTEIN = "wasserstein"

    @classmethod
    def from_text(cls, text: str) -> "DistanceKind":
        key = text.strip().lower().replace("-", "_")
        aliases = {
            "kolmogorov": cls.KOLMOGOROV,
            "k": cls.KOLMOGOROV,
            "total_variation": cls.TOTAL_VARIATION,
            "tv": cls.TOTAL_VARIATION,
            "wasserstein": cls.WASSERSTEIN,
            "w": cls.WASSERSTEIN,
        }
        if key not in aliases:
            raise ValueError(f"unknown distance kind {text!r}")
        return aliases[key]

    def short(self) -> str:
        return {"kolmogorov": "kolmogorov", "total_variation": "tv", "wasserstein": "wasserstein"}[
            self.value
        ]


def _check_same_interval(a: FiniteMeasure, b: FiniteMeasure) -> None:
    if a.upper != b.upper:
        raise MismatchedInterval(f"measures live on [0,{a.upper}] vs [0,{b.upper}]")


def weights_on(measures: Sequence[FiniteMeasure], locs: np.ndarray) -> np.ndarray:
    """Row i holds measures[i]'s weight at each of the sorted ``locs`` (0.0
    where it has no atom); every atom must sit exactly on a location."""
    atoms = np.fromiter(itertools.chain.from_iterable(m.support for m in measures), float)
    cols = np.searchsorted(locs, atoms)
    if (locs.take(cols, mode="clip") != atoms).any():
        raise ValueError("a measure has an atom off the given locations")
    rows = np.repeat(np.arange(len(measures)), [len(m.support) for m in measures])
    W = np.zeros((len(measures), len(locs)))
    W[rows, cols] = np.fromiter(itertools.chain.from_iterable(m.weights for m in measures), float)
    return W


def distance_terms(
    kind: DistanceKind, wa: np.ndarray, wb: np.ndarray, gaps: np.ndarray | None
) -> np.ndarray:
    """Per-location terms of d(a, b) from aligned weight rows (see the module
    docstring); rows broadcast, so one pair and a block of pairs share them.
    ``gaps`` (each location's distance to the next, or to ``upper``) is
    read for W1 only."""
    if kind is DistanceKind.TOTAL_VARIATION:
        return np.abs(wa - wb)
    dF = np.abs(np.cumsum(wa, axis=-1) - np.cumsum(wb, axis=-1))
    return dF * gaps if kind is DistanceKind.WASSERSTEIN else dF


def location_columns(kind: DistanceKind, W: np.ndarray) -> np.ndarray:
    """Row l: every measure's CDF (K, W1) or weight (TV) at location l."""
    F = W if kind is DistanceKind.TOTAL_VARIATION else np.cumsum(W, axis=1)
    return np.ascontiguousarray(F.T)


def distance_block(
    kind: DistanceKind, a: np.ndarray, b: np.ndarray, gaps: np.ndarray
) -> np.ndarray:
    """D[r, j] = d(measure r of ``a``, measure j of ``b``), where ``a`` and
    ``b`` are :func:`location_columns` (or column subsets and slices of
    them): the terms of :func:`distance_terms` taken one location at a time
    on (r x j) arrays.  TV and W1 add them left to right, which is
    ``np.sum``'s order below 8 locations.  Each entry is the same arithmetic
    on its own pair, whichever other columns the block holds."""
    D = t = None
    for gap, ca, cb in zip(gaps, a, b):
        t = np.abs(np.subtract(ca[:, None], cb, out=t), out=t)
        if kind is DistanceKind.WASSERSTEIN:
            t *= gap
        if D is None:
            D, t = t, None
        elif kind is DistanceKind.KOLMOGOROV:
            np.maximum(D, t, out=D)
        else:
            D += t
    if kind is DistanceKind.TOTAL_VARIATION:
        D *= 0.5
    return D


def _pair_terms(kind: DistanceKind, a: FiniteMeasure, b: FiniteMeasure) -> np.ndarray:
    _check_same_interval(a, b)
    # the rows and locations weights_on would give, from one unique
    locs, col = np.unique(np.array(a.support + b.support), return_inverse=True)
    n = len(a.support)
    W = np.zeros((2, len(locs)))
    W[0, col[:n]] = a.weights
    W[1, col[n:]] = b.weights
    return distance_terms(kind, W[0], W[1], np.append(locs[1:], a.upper) - locs)


def kolmogorov(a: FiniteMeasure, b: FiniteMeasure) -> float:
    """sup_t |F_a(t) - F_b(t)|; for step CDFs it is attained at an atom."""
    return float(_pair_terms(DistanceKind.KOLMOGOROV, a, b).max())


def total_variation(a: FiniteMeasure, b: FiniteMeasure) -> float:
    """sup_A |a(A) - b(A)| = half the L1 distance between the atom weights.

    For finite-support measures the power-set sigma-algebra is the only
    sensible convention, and the supremum is attained by the set of atoms
    where a outweighs b.
    """
    return 0.5 * math.fsum(_pair_terms(DistanceKind.TOTAL_VARIATION, a, b).tolist())


def wasserstein1(a: FiniteMeasure, b: FiniteMeasure) -> float:
    """Exact integral of |F_a - F_b| over [0, upper]: both CDFs are constant
    between merged atoms, so it is a finite sum of rectangle areas."""
    return math.fsum(_pair_terms(DistanceKind.WASSERSTEIN, a, b).tolist())


def distance(kind: DistanceKind, a: FiniteMeasure, b: FiniteMeasure) -> float:
    if kind is DistanceKind.KOLMOGOROV:
        return kolmogorov(a, b)
    if kind is DistanceKind.TOTAL_VARIATION:
        return total_variation(a, b)
    if kind is DistanceKind.WASSERSTEIN:
        return wasserstein1(a, b)
    raise ValueError(f"unknown distance kind {kind!r}")


def in_ball(center: FiniteMeasure, m: FiniteMeasure, kind: DistanceKind, eps: float) -> bool:
    """d(center, m) <= eps + BALL_SLACK."""
    if eps < 0.0:
        raise ValueError(f"ball radius must be >= 0, got {eps}")
    return distance(kind, center, m) <= eps + BALL_SLACK
