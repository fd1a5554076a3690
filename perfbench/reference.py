"""Independent NumPy recomputation of distances, oracles and regrets.

Used by the correctness checker of the ``exact_queries`` workload.  It
parses the text forms itself and shares no code with ``heterodro``; ties
break toward the smallest action, as the program's oracles do.
"""

from __future__ import annotations

import math

import numpy as np


class Measure:
    def __init__(self, text: str) -> None:
        body, upper = text.rsplit("@", 1)
        atoms = sorted(
            (float(p), float(w)) for p, w in (a.split(":") for a in body.split(","))
        )
        self.pts = np.asarray([p for p, _ in atoms])
        wts = np.asarray([w for _, w in atoms])
        self.wts = wts / wts.sum()
        self.upper = float(upper)


class Problem:
    def __init__(self, text: str) -> None:
        name, _, rest = text.partition(":")
        args = [float(v) for v in rest.split(",")]
        self.kind = name
        if name == "newsvendor":
            self.c_u, self.c_o, self.M = args
        elif name == "pricing":
            (self.M,) = args
        elif name == "ski":
            self.b, self.M = args
        else:
            raise ValueError(f"unknown problem {text!r}")

    @property
    def span(self) -> float:
        """sup over actions of max - min of the objective on [0, M]."""
        if self.kind == "newsvendor":
            return max(self.c_u, self.c_o) * self.M
        if self.kind == "pricing":
            return self.M
        return self.M + self.b

    def g(self, xs: np.ndarray, xis: np.ndarray) -> np.ndarray:
        """Objective table g(x, xi), actions along rows."""
        x = np.asarray(xs, dtype=float)[:, None]
        xi = np.asarray(xis, dtype=float)[None, :]
        if self.kind == "newsvendor":
            return self.c_u * np.maximum(xi - x, 0.0) + self.c_o * np.maximum(x - xi, 0.0)
        if self.kind == "pricing":
            return np.where(xi >= x, x, 0.0)
        return np.where(xi <= x, xi, self.b + x)

    def expected(self, xs, m: Measure) -> np.ndarray:
        return self.g(np.atleast_1d(xs), m.pts) @ m.wts

    def oracle(self, m: Measure) -> float:
        if self.kind == "newsvendor":
            q = self.c_u / (self.c_u + self.c_o)
            i = int(np.searchsorted(np.cumsum(m.wts), q, side="left"))
            return float(m.pts[min(i, len(m.pts) - 1)])
        if self.kind == "pricing":
            tail = 1.0 - np.concatenate([[0.0], np.cumsum(m.wts)[:-1]])
            return float(m.pts[int(np.argmax(m.pts * tail))])
        cands = np.concatenate([[0.0], m.pts[m.pts > 0.0]])
        return float(cands[int(np.argmin(self.expected(cands, m)))])

    def opt(self, m: Measure) -> float:
        return float(self.expected(self.oracle(m), m)[0])


def policy_action(policy: str, p: Problem, m: Measure) -> float:
    x = p.oracle(m)
    name, _, value = policy.partition(":")
    if name == "saa":
        return x
    if name == "dsaa":
        return min(max(x + float(value), 0.0), p.M)
    return min(float(value), x)  # cap


def recommended(p: Problem, kind: str, eps: float) -> str:
    if p.kind == "pricing" and kind == "wasserstein":
        return f"dsaa:{-math.sqrt(p.M * eps)!r}"
    if p.kind == "ski":
        if kind == "wasserstein":
            return f"dsaa:{math.sqrt(p.b * eps)!r}"
        return f"cap:{p.b * math.log(1.0 / eps)!r}"
    return "saa"


def exact_regret(p: Problem, policy: str, mu: Measure, nu: Measure) -> float:
    return abs(p.opt(mu) - float(p.expected(policy_action(policy, p, nu), mu)[0]))


def two_sample_regret(p: Problem, policy: str, mu: Measure, nu1: Measure, nu2: Measure) -> float:
    opt_mu = p.opt(mu)
    total = 0.0
    for x1, w1 in zip(nu1.pts, nu1.wts):
        for x2, w2 in zip(nu2.pts, nu2.wts):
            pts = sorted({float(x1), float(x2)})
            wts = [0.5, 0.5] if len(pts) == 2 else [1.0]
            m_hat = Measure(",".join(f"{a!r}:{w!r}" for a, w in zip(pts, wts)) + f"@{mu.upper!r}")
            act = policy_action(policy, p, m_hat)
            total += w1 * w2 * abs(opt_mu - float(p.expected(act, mu)[0]))
    return total


def minimax(p: Problem, measures: list[Measure], n_grid: int = 1001) -> float:
    xs = np.linspace(0.0, p.M, n_grid)
    total = sum(np.abs(p.opt(m) - p.expected(xs, m)) for m in measures) / len(measures)
    return float(total.min())


def distance(kind: str, a: Measure, b: Measure) -> float:
    t = np.union1d(a.pts, b.pts)

    def cdf(m: Measure) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(m.wts)])[np.searchsorted(m.pts, t, "right")]

    fa, fb = cdf(a), cdf(b)
    if kind in ("kolmogorov", "k"):
        return float(np.abs(fa - fb).max())
    if kind in ("tv", "total_variation"):
        return 0.5 * float(np.abs(np.diff(fa, prepend=0.0) - np.diff(fb, prepend=0.0)).sum())
    gaps = np.diff(np.append(t, a.upper))
    return float((np.abs(fa - fb) * gaps).sum())


def close(printed: str, ref: float, tol: float = 1e-12) -> bool:
    """printed (a %.12g rendering) equals ref within tol beyond its rounding."""
    value = float(printed)
    rounding = 0.0 if ref == 0.0 else 0.5 * 10.0 ** (math.floor(math.log10(abs(ref))) - 11)
    return abs(value - ref) <= tol + rounding
