"""Finite-support probability measures on a closed interval [0, upper].

The representation is exact: a sorted tuple of atoms with strictly positive
weights summing to 1.0.  Every construction this package needs (two-point
masses, tail perturbations, empirical measures of finite samples) is
finite-support, which makes expected objectives and distances between
measures exact rather than sampled.

Canonical form: atoms sorted strictly increasing, positions closer than
``MERGE_TOL`` merged (weights added), zero-weight atoms dropped, and weights
renormalized so that ``math.fsum(weights) == 1.0`` exactly.  Two canonical
measures are equal iff their fields compare equal bitwise.

The tuples are the measure.  Numeric code reads them through
:attr:`FiniteMeasure.arrays`, read-only float64 copies built on first access
and kept on the instance, so a measure is converted to numpy at most once
however many expectations, distances or Monte-Carlo trials read it.  This
module is the only place that converts a measure's tuples.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, compress
from operator import itemgetter
from typing import Sequence

import numpy as np

# Atoms closer than this are considered the same point; absorbs float noise
# from arithmetic like M/2 - sqrt(M*eps)/2 on adversarial constructions.
MERGE_TOL = 1e-12
# Accepted deviation of sum(weights) from 1 on *input*; after validation the
# weights are renormalized exactly.
WEIGHT_SUM_TOL = 1e-9
# Every byte but the separators ':' and ',' of a measure text.
_NOT_SEPARATOR = bytes(sorted(set(range(256)) - set(b":,")))
# Sort key of a (point, weight) pair.
_point = itemgetter(0)


class MeasureError(ValueError):
    """Invalid finite-measure construction or query."""


class NegativeWeight(MeasureError):
    pass


class WeightsNotNormalized(MeasureError):
    pass


class PointOutOfRange(MeasureError):
    pass


class QOutOfRange(MeasureError):
    pass


class _FirstRead:
    """A method's value, computed on an instance's first read of it and kept
    in the instance ``__dict__``, where later reads find it before this
    descriptor: ``functools.cached_property`` without the lock that it takes
    on Python 3.11, about 0.4 us on every first read (timeit, shared 2-CPU
    host).  Two threads that read at once may both compute the value; it
    depends only on the frozen instance, so either result is the same."""

    def __init__(self, method):
        self.method = method

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.method.__name__] = self.method(instance)
        return value


@dataclass(frozen=True)
class FiniteMeasure:
    """Canonical finite-support probability measure on [0, upper].

    Instances are immutable and hashable; construct through
    :func:`make_finite_measure`, which owns validation and
    canonicalization.
    """

    support: tuple[float, ...]
    weights: tuple[float, ...]
    upper: float

    def __post_init__(self) -> None:
        if not self.support or len(self.support) != len(self.weights):
            raise MeasureError("support and weights must be nonempty and aligned")

    @_FirstRead
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(support, weights) as read-only float64 arrays, equal to the
        tuples entry for entry (signed zeros included).

        Built on first access and stored in the instance ``__dict__``, which
        the frozen dataclass leaves writable; not a field, so ``==``,
        ``hash`` and ``repr`` never see it.
        """
        return _read_only(self.support), _read_only(self.weights)


def _read_only(values: tuple[float, ...]) -> np.ndarray:
    """``values`` as a new float64 array that refuses writes."""
    a = np.array(values, dtype=float)
    a.setflags(write=False)
    return a


def _renormalized(weights: list[float], total: float | None = None) -> list[float]:
    """Scale weights so that math.fsum(weights) == 1.0 exactly; ``total``
    is their fsum when the caller has it already.

    After the division the correctly-rounded sum can still be off by a few
    ulp; the residual is folded into the first largest weight until the fsum
    is exactly 1.0, which makes canonicalization idempotent bit-for-bit.
    """
    if total is None:
        total = math.fsum(weights)
    if total == 1.0:
        return weights
    weights = [w / total for w in weights]
    for _ in range(5):
        resid = 1.0 - math.fsum(weights)
        if resid == 0.0:
            break
        weights[weights.index(max(weights))] += resid
    return weights


def make_finite_measure(
    points: Sequence[float], weights: Sequence[float], upper: float
) -> FiniteMeasure:
    """Build the canonical measure with the given atoms (any sequences,
    numpy arrays included).

    Raises NegativeWeight, WeightsNotNormalized (|sum - 1| > 1e-9), or
    PointOutOfRange.  Duplicate points (within ``MERGE_TOL``) are merged and
    zero-weight atoms dropped before the exact renormalization.
    """
    if not math.isfinite(upper) or upper <= 0.0:
        raise MeasureError(f"upper must be a finite positive real, got {upper}")
    if len(points) != len(weights) or not len(points):
        raise MeasureError("points and weights must be nonempty and the same length")
    for w in weights:
        if not math.isfinite(w):
            raise MeasureError(f"non-finite weight {w}")
        if w < 0.0:
            raise NegativeWeight(f"weight {w} is negative")
    total = math.fsum(weights)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise WeightsNotNormalized(f"weights sum to {total}, expected 1")
    # apart: every point lies more than MERGE_TOL above the one before it.
    apart, prev = True, -math.inf
    for p in points:
        if not math.isfinite(p):
            raise MeasureError(f"non-finite point {p}")
        if p < 0.0 or p > upper:
            raise PointOutOfRange(f"point {p} outside [0, {upper}]")
        q = float(p)
        if q - prev <= MERGE_TOL:
            apart = False
        prev = q

    if apart and 0.0 not in weights:  # already canonical: no sort, no merge
        wts = _renormalized(list(map(float, weights)), total)
        return FiniteMeasure(tuple(map(float, points)), tuple(wts), float(upper))
    pairs = sorted(compress(zip(map(float, points), map(float, weights)), weights), key=_point)
    if not pairs:
        raise WeightsNotNormalized("all weights are zero")
    # A cluster is anchored at its first point; fsum([w]) == w, so only a
    # cluster with a run of merged weights is summed.
    merged_pts: list[float] = []
    merged_wts: list[float] = []
    run: list[float] = []
    for p, w in pairs:
        if merged_pts and p - merged_pts[-1] <= MERGE_TOL:
            run.append(w)
            continue
        if run:
            merged_wts[-1] = math.fsum([merged_wts[-1], *run])
            run = []
        merged_pts.append(p)
        merged_wts.append(w)
    if run:
        merged_wts[-1] = math.fsum([merged_wts[-1], *run])
    return FiniteMeasure(tuple(merged_pts), tuple(_renormalized(merged_wts)), float(upper))


def _from_canonical(
    support: Sequence[float], weights: Sequence[float], upper: float
) -> FiniteMeasure:
    """Fast constructor for already-sorted positive atoms (internal use)."""
    return FiniteMeasure(tuple(support), tuple(_renormalized(list(weights))), float(upper))


def quantile(m: FiniteMeasure, q: float) -> float:
    """Generalized inverse inf{x : F(x) >= q}; q = 0 gives the smallest atom."""
    if not (0.0 <= q <= 1.0):
        raise QOutOfRange(f"quantile level {q} outside [0, 1]")
    if q == 0.0:
        return m.support[0]
    cw = list(accumulate(m.weights))
    i = bisect_left(cw, q)
    return m.support[min(i, len(m.support) - 1)]


def to_text(m: FiniteMeasure) -> str:
    """Serialize as ``p1:w1,p2:w2,...@upper`` (round-trip exact)."""
    body = ",".join(f"{p!r}:{w!r}" for p, w in zip(m.support, m.weights))
    return f"{body}@{m.upper!r}"


def from_text(text: str) -> FiniteMeasure:
    """Parse the ``p1:w1,...@upper`` form produced by :func:`to_text`."""
    try:
        body, upper_s = text.rsplit("@", 1)
        # Every atom must be one ``p:w``: the separators alternate.
        seps = body.encode().translate(None, _NOT_SEPARATOR)
        if seps != b":," * seps.count(b",") + b":":
            raise ValueError("atoms are not p:w pairs")
        parts = body.replace(",", ":").split(":")
        pts = list(map(float, parts[0::2]))
        wts = list(map(float, parts[1::2]))
        upper = float(upper_s)
    except (ValueError, IndexError) as exc:
        raise MeasureError(f"cannot parse measure text {text!r}") from exc
    return make_finite_measure(pts, wts, upper)
