"""Exact Kolmogorov, total-variation, and Wasserstein-1 distances.

All three have closed forms for step CDFs, so they are computed exactly
from the atom representation; no sampling noise enters ball-membership
checks or bound sandwiches.  Atom positions are compared exactly: canonical
measures produced by the same arithmetic share bit-identical coordinates.

Measures are weight rows over shared sorted locations.  The scalar
:func:`distance` writes a pair's rows over the union of its atoms and reduces
the per-location terms: |F_a - F_b| (CDFs by ``np.cumsum``, constant up to
the next location) for K, |w_a - w_b| for TV, and |F_a - F_b| times the gap
to the next location (or ``upper``) for W1.  K is their max, TV half their
sum, W1 their sum; the sums use ``math.fsum``, correctly rounded whatever
the order.  The DRO scan takes the same terms one location at a time
(:func:`weights_on`, :func:`location_columns`, :func:`distance_block`) on
blocks of (mu, nu) pairs and keeps a running max or a running sum in
location order.  On a grid's rows its K is the scalar one bit for bit; its
TV and W1 sums are fast but possibly off from ``fsum`` in the last bits, so
their witnesses are re-checked with the scalar :func:`in_ball`.
"""

from __future__ import annotations

import enum
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


def weights_on(measures: Sequence[FiniteMeasure], locs: np.ndarray) -> np.ndarray:
    """Row i holds measures[i]'s weight at each of the sorted ``locs`` (0.0
    where it has no atom); every atom must sit exactly on a location."""
    supports, weights = zip(*(m.arrays for m in measures))
    atoms = np.concatenate(supports)
    cols = np.searchsorted(locs, atoms)
    if (locs.take(cols, mode="clip") != atoms).any():
        raise ValueError("a measure has an atom off the given locations")
    rows = np.repeat(np.arange(len(measures)), [len(s) for s in supports])
    W = np.zeros((len(measures), len(locs)))
    W[rows, cols] = np.concatenate(weights)
    return W


def location_columns(kind: DistanceKind, W: np.ndarray) -> np.ndarray:
    """Row l: every measure's CDF (K, W1) or weight (TV) at location l."""
    F = W if kind is DistanceKind.TOTAL_VARIATION else np.cumsum(W, axis=1)
    return np.ascontiguousarray(F.T)


def distance_block(
    kind: DistanceKind, a: np.ndarray, b: np.ndarray, gaps: np.ndarray
) -> np.ndarray:
    """D[r, j] = d(measure r of ``a``, measure j of ``b``), where ``a`` and
    ``b`` are :func:`location_columns` (or column subsets and slices of
    them): the terms of :func:`distance` taken one location at a time
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


def distance(kind: DistanceKind, a: FiniteMeasure, b: FiniteMeasure) -> float:
    """d(a, b) for two measures on the same [0, upper].

    K is sup_t |F_a(t) - F_b(t)|, attained at an atom of a step CDF.  TV is
    sup_A |a(A) - b(A)| over the power set, attained by the atoms where a
    outweighs b: half the L1 distance between the weights.  W1 is the
    integral of |F_a - F_b| over [0, upper], a finite sum of rectangles
    since both CDFs are constant between merged atoms.
    """
    if a.upper != b.upper:
        raise MismatchedInterval(f"measures live on [0,{a.upper}] vs [0,{b.upper}]")
    (a_support, a_weights), (b_support, b_weights) = a.arrays, b.arrays
    # The rows and locations weights_on would give: the sorted distinct atoms
    # and each atom's column, by np.unique(..., return_inverse=True)'s own
    # steps without its wrapper, which took half of a small call.
    atoms = np.concatenate((a_support, b_support))
    order = atoms.argsort()
    atoms = atoms[order]
    first = np.empty(len(atoms), bool)
    first[0] = True
    np.not_equal(atoms[1:], atoms[:-1], out=first[1:])
    locs = atoms[first]
    col = np.empty(len(atoms), np.intp)
    col[order] = np.cumsum(first) - 1
    n = len(a_support)
    W = np.zeros((2, len(locs)))
    W[0, col[:n]] = a_weights
    W[1, col[n:]] = b_weights
    if kind is DistanceKind.TOTAL_VARIATION:
        return 0.5 * math.fsum(np.abs(W[0] - W[1]).tolist())
    F = np.cumsum(W, axis=1)
    dF = np.abs(F[0] - F[1])
    if kind is DistanceKind.KOLMOGOROV:
        return float(dF.max())
    if kind is DistanceKind.WASSERSTEIN:
        return math.fsum((dF * (np.append(locs[1:], a.upper) - locs)).tolist())
    raise ValueError(f"unknown distance kind {kind!r}")


def in_ball(center: FiniteMeasure, m: FiniteMeasure, kind: DistanceKind, eps: float) -> bool:
    """d(center, m) <= eps + BALL_SLACK."""
    if eps < 0.0:
        raise ValueError(f"ball radius must be >= 0, got {eps}")
    return distance(kind, center, m) <= eps + BALL_SLACK
