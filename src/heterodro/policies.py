"""Sample-size-agnostic policies and their recommended robustification.

A policy maps an (empirical) measure to an action; it never sees the sample
count, so its output depends only on the measure.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .measures import FiniteMeasure
from .metrics import DistanceKind
from .problems import ProblemKind, ProblemSpec, oracle


class CappedOnNonSki(ValueError):
    pass


class EpsNonPositive(ValueError):
    pass


class EpsTooLarge(ValueError):
    """eps lies outside the range where a policy, a construction or a bound
    is defined; a `rates` sweep skips that eps."""


class PolicyKind(enum.Enum):
    SAA = "saa"
    DELTA_SAA = "delta_saa"
    CAPPED = "capped"


@dataclass(frozen=True)
class PolicySpec:
    kind: PolicyKind
    delta: float = 0.0
    cap: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.delta):
            raise ValueError("delta must be finite")
        if self.kind is PolicyKind.CAPPED and not 0.0 < self.cap < math.inf:
            raise ValueError("cap must be finite and positive")

    @classmethod
    def saa(cls) -> "PolicySpec":
        return cls(PolicyKind.SAA)

    @classmethod
    def delta_saa(cls, delta: float) -> "PolicySpec":
        return cls(PolicyKind.DELTA_SAA, delta=float(delta))

    @classmethod
    def capped(cls, cap: float) -> "PolicySpec":
        return cls(PolicyKind.CAPPED, cap=float(cap))

    def to_text(self) -> str:
        if self.kind is PolicyKind.SAA:
            return "saa"
        if self.kind is PolicyKind.DELTA_SAA:
            return f"dsaa:{self.delta!r}"
        return f"cap:{self.cap!r}"

    @classmethod
    def from_text(cls, text: str) -> "PolicySpec":
        t = text.strip().lower()
        if t == "saa":
            return cls.saa()
        name, _, value = t.partition(":")
        try:
            if name == "dsaa":
                return cls.delta_saa(float(value))
            if name == "cap":
                return cls.capped(float(value))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"cannot parse policy text {text!r}") from exc
        raise ValueError(f"unknown policy {text!r}")


def policy_action(pol: PolicySpec, p: ProblemSpec, target: float) -> float:
    """Action of the policy given the oracle action ``target`` of its input.

    Every policy here is a function of that action alone: SAA returns it,
    delta-SAA deviates it by delta and then projects onto [0, M] (for an
    interval action space the projection is a clamp), and the capped rental
    takes the smaller of it and the cap.
    """
    if pol.kind is PolicyKind.SAA:
        return target
    if pol.kind is PolicyKind.DELTA_SAA:
        return min(max(target + pol.delta, 0.0), p.M)
    if p.kind is not ProblemKind.SKI_RENTAL:
        raise CappedOnNonSki("the capped rental policy is only defined for ski rental")
    return min(pol.cap, target)


def apply_policy(pol: PolicySpec, p: ProblemSpec, m_hat: FiniteMeasure) -> float:
    """Action of the policy given the (empirical) measure m_hat."""
    return policy_action(pol, p, oracle(p, m_hat))


def recommended_parameter(p: ProblemSpec, kind: DistanceKind, eps: float) -> PolicySpec:
    """The robustification achieving the best known rate for (problem, kind).

    pricing + Wasserstein deflates by sqrt(M*eps); ski rental + Wasserstein
    inflates by sqrt(b*eps); ski rental + Kolmogorov/TV caps the rental at
    b*ln(1/eps) (natural log, forced by the e^{-C/b} tail bound), so only
    where that cap is finite and positive (EpsTooLarge otherwise).
    Everywhere else SAA is already rate-optimal.
    """
    if eps <= 0.0:
        raise EpsNonPositive(f"heterogeneity radius must be > 0, got {eps}")
    if p.kind is ProblemKind.PRICING and kind is DistanceKind.WASSERSTEIN:
        return PolicySpec.delta_saa(-math.sqrt(p.M * eps))
    if p.kind is ProblemKind.SKI_RENTAL:
        if kind is DistanceKind.WASSERSTEIN:
            return PolicySpec.delta_saa(math.sqrt(p.b * eps))
        cap = p.b * math.log(1.0 / eps)
        if not 0.0 < cap < math.inf:
            raise EpsTooLarge(f"the cap b*ln(1/eps) needs eps < 1 and 1/eps finite, got {eps}")
        return PolicySpec.capped(cap)
    return PolicySpec.saa()
