"""Experiment runner and `hetero-dro` command line interface.

Subcommands: distance, oracle, regret, dro-scan, adversarial, diagnose,
rates.  The row-producing subcommands emit a single CSV schema so sweeps
can be concatenated; runs are deterministic in --seed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .measures import from_text, to_text
from .metrics import DistanceKind, distance
from .policies import EpsTooLarge, PolicyKind, PolicySpec, recommended_parameter
from .problems import ProblemKind, ProblemSpec, expected_objective, oracle
from .regret import (
    _FAMILY_PARAMS,
    AdversarialPair,
    RegretReport,
    ScanGrid,
    adversarial_instance,
    bounds_for_policy,
    dro_regret_scan,
    evaluate_pair,
    exact_regret,
    monte_carlo_regret,
)
from .approx import saa_diagnostic

CSV_HEADER = [
    "mode",
    "problem",
    "distance",
    "policy",
    "eps",
    "M",
    "param1",
    "param2",
    "n",
    "trials",
    "seed",
    "regret_est",
    "ci_half",
    "analytic_lo",
    "analytic_hi",
    "witness",
    "slope_note",
]


class ConfigInvalid(ValueError):
    pass


class NoPositivePoints(ValueError):
    pass


class DegeneratePoints(ValueError):
    pass


@dataclass(frozen=True)
class RateFit:
    """Log-log OLS fit of regret against eps; slope is the empirical rate."""

    slope: float
    intercept: float
    r_squared: float


def fit_rate(points: list[tuple[float, float]]) -> RateFit:
    """OLS on (ln eps, ln regret) over the points with regret > 0."""
    kept = [(e, r) for e, r in points if r > 0.0]
    if len(kept) < 3:
        raise NoPositivePoints(f"need >= 3 points with positive regret, got {len(kept)}")
    xs = np.log([e for e, _ in kept])
    ys = np.log([r for _, r in kept])
    if np.ptp(xs) == 0.0:
        raise DegeneratePoints("all eps values are equal")
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    ss_res = float(resid @ resid)
    centered = ys - ys.mean()
    ss_tot = float(centered @ centered)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(float(slope), float(intercept), r2)


MODES = ("adversarial-named", "dro-scan", "monte-carlo")


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSpec
    kind: DistanceKind
    policy: PolicySpec | None  # None means "recommended for (problem, kind, eps)"
    eps_grid: tuple[float, ...]
    n: int = 10_000
    trials: int = 2000
    seed: int = 42
    mode: str = "adversarial-named"
    family: str | None = None
    family_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigInvalid(f"unknown mode {self.mode!r}")
        if not self.eps_grid:
            raise ConfigInvalid("eps_grid must be nonempty")
        for e in self.eps_grid:
            if not 0.0 < e < math.inf:
                raise ConfigInvalid(f"eps_grid values must be finite and positive, got {e}")
        if list(self.eps_grid) != sorted(self.eps_grid):
            raise ConfigInvalid("eps_grid must be sorted ascending")
        if self.n < 1 or self.trials < 1:
            raise ConfigInvalid("n and trials must be >= 1")
        for key in self.family_params:
            if key not in _FAMILY_PARAMS:
                raise ConfigInvalid(f"unknown parameter {key!r}")
        if self.mode == "dro-scan" and (self.family is not None or self.family_params):
            raise ConfigInvalid("dro-scan mode scans a grid and takes no --family or --params")
        # The witness inherits these from the problem; the bounds and the
        # CSV always use the problem's, so a differing value is refused.
        for key in ("M", "c_u", "c_o", "b"):
            own, given = getattr(self.problem, key), self.family_params.get(key)
            if own is not None and given is not None and given != own:
                raise ConfigInvalid(
                    f"parameter {key}={given:g} contradicts the problem's {key}={own:g}"
                )
        if "eps" in self.family_params:
            raise ConfigInvalid("parameter eps is set by --eps-grid")


def default_family(p: ProblemSpec, kind: DistanceKind, pol: PolicySpec) -> str:
    """Named construction conventionally used to witness the cell."""
    if p.kind is ProblemKind.NEWSVENDOR:
        return "nv_tv_pair"
    wasserstein = kind is DistanceKind.WASSERSTEIN
    if p.kind is ProblemKind.PRICING:
        if not wasserstein:
            return "pr_k_pair"
        return "pr_w_lower" if pol.kind is PolicyKind.DELTA_SAA else "pr_w_saa_fail"
    if not wasserstein:
        return "ski_k_lower" if pol.kind is PolicyKind.CAPPED else "ski_k_saa_fail"
    return "ski_w_lower" if pol.kind is PolicyKind.DELTA_SAA else "ski_w_saa_fail"


def _family_params(p: ProblemSpec, kind: DistanceKind, eps: float, extra: dict) -> dict:
    params: dict = {"eps": eps, "M": p.M, "kind": kind}
    if p.kind is ProblemKind.NEWSVENDOR:
        params.update(c_u=p.c_u, c_o=p.c_o)
    elif p.kind is ProblemKind.SKI_RENTAL:
        params.update(b=p.b)
    params.update(extra)
    return params


def default_scan_grid(p: ProblemSpec, kind: DistanceKind, pol: PolicySpec, eps: float) -> ScanGrid:
    """Small per-cell grid containing the known worst-case atom positions."""
    M = p.M
    if p.kind is ProblemKind.NEWSVENDOR:
        locs, res = [0.0, M / 2, M], 100
    elif p.kind is ProblemKind.PRICING:
        if kind is not DistanceKind.WASSERSTEIN:
            locs, res = [M / 2, M], 100
        elif pol.kind is PolicyKind.DELTA_SAA:
            root = math.sqrt(M * eps)
            locs, res = [M / 2 - root, M / 2 - root / 2, M / 2, M], 20
        else:
            locs, res = [M / 2, M - eps, M], 20
    else:
        b = p.b
        if kind is not DistanceKind.WASSERSTEIN:
            locs, res = [0.75 * b, 1.25 * b, M], 200
        else:
            root = math.sqrt(b * eps)
            locs, res = [b / 2 - root / 2, b / 2, b / 2 + root / 2, b / 2 + eps, M], 20
    locs = sorted({min(max(v, 0.0), M) for v in locs})
    return ScanGrid(tuple(locs), weight_resolution=res, max_atoms=2)


def _named_report(
    pair: AdversarialPair, pol: PolicySpec | None, bounds: tuple | None, seed: int
) -> RegretReport:
    """The value ``pair`` certifies under ``pol``, bracketed by the upper bound
    of ``bounds_for_policy(*bounds)`` and by the pair's target: the value of
    the policy the pair certifies, so an upper bound for that policy alone,
    and a lower bound for it and, on a minimax family, for every policy."""
    estimate = evaluate_pair(pair, pol)
    _, hi = bounds_for_policy(*bounds) if bounds is not None else (None, None)
    certified = pol == pair.cited_policy
    return RegretReport(
        estimate=estimate,
        analytic_lower=pair.target if certified or pair.cited_policy is None else None,
        analytic_upper=pair.target if hi is None and certified else hi,
        witness=pair,
        seed=seed,
    )


def run_experiment(cfg: ExperimentConfig) -> list[tuple[float, RegretReport | None, str]]:
    """One report per eps (ordered).  An eps outside the validity range of
    the policy, the construction or the bounds (EpsTooLarge) yields
    (eps, None, warning); every other error aborts the sweep."""
    results: list[tuple[float, RegretReport | None, str]] = []
    for eps in cfg.eps_grid:
        try:
            pol = cfg.policy or recommended_parameter(cfg.problem, cfg.kind, eps)
            if cfg.mode == "dro-scan":
                grid = default_scan_grid(cfg.problem, cfg.kind, pol, eps)
                report = dro_regret_scan(cfg.problem, pol, cfg.kind, eps, grid)
            else:
                name = cfg.family or default_family(cfg.problem, cfg.kind, pol)
                pair = adversarial_instance(
                    name, _family_params(cfg.problem, cfg.kind, eps, cfg.family_params)
                )
                if pair.problem != cfg.problem:
                    raise ConfigInvalid(
                        f"family {name!r} builds {pair.problem.to_text()}, "
                        f"not the given {cfg.problem.to_text()}"
                    )
                if cfg.mode == "adversarial-named":
                    eval_pol = None if pair.cited_policy is None else pol
                    bounds = (cfg.problem, cfg.kind, pol, eps)
                    report = _named_report(pair, eval_pol, bounds, cfg.seed)
                else:  # monte-carlo
                    reps = (cfg.n + len(pair.nus) - 1) // len(pair.nus)
                    nus = (pair.nus * reps)[: cfg.n]
                    report = monte_carlo_regret(
                        cfg.problem, pol, pair.mu, nus, cfg.trials, cfg.seed
                    )
                    lo, hi = bounds_for_policy(cfg.problem, cfg.kind, pol, eps)
                    report = dataclasses.replace(
                        report, analytic_lower=lo, analytic_upper=hi, witness=pair
                    )
            results.append((eps, report, ""))
        except EpsTooLarge as exc:
            results.append((eps, None, f"skipped: {exc}"))
    return results


# ---------------------------------------------------------------------------
# CSV schema


def _fmt(v) -> str:
    if v is None or v == "":
        return ""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _witness_text(pair: AdversarialPair | None) -> str:
    if pair is None:
        return ""
    nus = "|".join(to_text(nu) for nu in pair.nus)
    return f"{pair.name};mu={to_text(pair.mu)};nus={nus}"


def make_row(
    mode: str,
    problem: ProblemSpec,
    kind: DistanceKind | None,
    policy_text: str,
    eps: float | None,
    report: RegretReport | None,
    slope_note: str = "",
) -> list[str]:
    if problem.kind is ProblemKind.NEWSVENDOR:
        p1, p2 = problem.c_u, problem.c_o
    elif problem.kind is ProblemKind.SKI_RENTAL:
        p1, p2 = problem.b, None
    else:
        p1, p2 = None, None
    r = report
    return [
        mode,
        problem.kind.value,
        kind.short() if kind is not None else "",
        policy_text,
        _fmt(eps),
        _fmt(problem.M),
        _fmt(p1),
        _fmt(p2),
        _fmt(r.n) if r else "",
        _fmt(r.trials) if r else "",
        _fmt(r.seed) if r else "",
        _fmt(r.estimate) if r else "",
        _fmt(r.ci_half_width) if r else "",
        _fmt(r.analytic_lower) if r else "",
        _fmt(r.analytic_upper) if r else "",
        _witness_text(r.witness) if r else "",
        slope_note,
    ]


def rows_to_csv(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# command line


def _parse_params(specs: list[str]) -> dict:
    out: dict = {}
    for spec in specs:
        for item in spec.split(","):
            if not item:
                continue
            key, _, value = item.partition("=")
            if not value:
                raise ConfigInvalid(f"bad --params entry {item!r}, expected key=value")
            key = key.strip()
            try:
                number = float(value)
            except ValueError:
                raise ConfigInvalid(
                    f"parameter {key} must be a number, got {value!r}"
                ) from None
            _check_finite(f"parameter {key}", number)
            out[key] = number
    return out


def _numbers(option: str, text: str) -> list[float]:
    """The comma-separated values of ``option``; each must be a number."""
    out = []
    for item in text.split(","):
        try:
            out.append(float(item))
        except ValueError:
            raise ConfigInvalid(f"{option} item {item!r} is not a number") from None
    return out


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ConfigInvalid(f"{name} must be finite, got {value}")


def _violation(mode: str, report: RegretReport | None) -> bool:
    """Sandwich violation for --strict.

    Scan estimates are lower bounds, so only the upper side binds there;
    exact and Monte-Carlo rows must respect both sides (within 3 CI).
    """
    if report is None:
        return False
    slack = 3.0 * report.ci_half_width + 1e-9
    if report.analytic_upper is not None and report.estimate - slack > report.analytic_upper:
        return True
    if mode != "dro-scan" and report.analytic_lower is not None:
        if report.estimate + slack < report.analytic_lower:
            return True
    return False


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=42)
    sub.add_argument("--trials", type=int, default=2000)
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--strict", action="store_true", help="exit 3 on sandwich violation")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged
    (argparse copies ``append`` defaults before appending)."""
    parser = argparse.ArgumentParser(prog="hetero-dro")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("distance", help="distance between two measures")
    sp.add_argument("--kind", required=True)
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    _add_common(sp)

    sp = subs.add_parser("oracle", help="optimal action and value for a measure")
    sp.add_argument("--problem", required=True)
    sp.add_argument("--measure", required=True)
    _add_common(sp)

    sp = subs.add_parser("regret", help="exact regret of one (mu, nu) instance")
    sp.add_argument("--problem", required=True)
    sp.add_argument("--policy", required=True)
    sp.add_argument("--mu", required=True)
    sp.add_argument("--nu", required=True)
    sp.add_argument("--kind", default=None)
    sp.add_argument("--eps", type=float, default=None)
    _add_common(sp)

    sp = subs.add_parser("dro-scan", help="grid scan of the worst-case regret")
    sp.add_argument("--problem", required=True)
    sp.add_argument("--policy", required=True)
    sp.add_argument("--kind", required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--locations", default=None, help="comma-separated atom positions")
    sp.add_argument("--weight-res", type=int, default=None)
    sp.add_argument("--max-atoms", type=int, default=2)
    sp.add_argument("--max-pairs", type=int, default=10_000_000)
    _add_common(sp)

    sp = subs.add_parser("adversarial", help="evaluate a named adversarial instance")
    sp.add_argument("--name", required=True)
    sp.add_argument("--params", action="append", default=[], help="k=v[,k=v...]")
    sp.add_argument("--kind", default=None)
    sp.add_argument("--policy", default=None)
    _add_common(sp)

    sp = subs.add_parser("diagnose", help="finite/infinite SAA coefficient")
    sp.add_argument("--problem", required=True)
    sp.add_argument("--kind", required=True)
    _add_common(sp)

    sp = subs.add_parser("rates", help="eps sweep with a log-log rate fit")
    sp.add_argument("--problem", required=True)
    sp.add_argument("--kind", required=True)
    sp.add_argument("--policy", default="recommended")
    sp.add_argument("--eps-grid", required=True, help="comma-separated eps values")
    sp.add_argument("--mode", choices=MODES, default="adversarial-named")
    sp.add_argument("--n", type=int, default=10_000)
    sp.add_argument("--family", default=None)
    sp.add_argument("--params", action="append", default=[])
    _add_common(sp)

    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


def _reject_lone_dashes(args: argparse.Namespace) -> None:
    """argparse before Python 3.12 drops a lone ``--`` given as an option's
    value (``--policy=--``) and hands on ``[]`` in place of the string."""
    for key, value in vars(args).items():
        items = value if key == "params" else [value]
        if any(isinstance(item, list) for item in items):
            raise ConfigInvalid(f"argument --{key.replace('_', '-')}: expected a value, got '--'")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _reject_lone_dashes(args)
        return _dispatch(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    cmd = args.command

    if cmd == "distance":
        kind = DistanceKind.from_text(args.kind)
        value = distance(kind, from_text(args.a), from_text(args.b))
        _emit(f"{value:.12g}\n", args.out)
        return 0

    if cmd == "oracle":
        p = ProblemSpec.from_text(args.problem)
        m = from_text(args.measure)
        x = oracle(p, m)
        _emit(f"action {x:.12g} value {expected_objective(p, x, m):.12g}\n", args.out)
        return 0

    if cmd == "diagnose":
        p = ProblemSpec.from_text(args.problem)
        coef = saa_diagnostic(p, DistanceKind.from_text(args.kind))
        _emit("infinite\n" if math.isinf(coef) else f"finite {coef:.12g}\n", args.out)
        return 0

    if cmd == "regret":
        if args.eps is not None:
            _check_finite("--eps", args.eps)
        p = ProblemSpec.from_text(args.problem)
        pol = PolicySpec.from_text(args.policy)
        mu, nu = from_text(args.mu), from_text(args.nu)
        estimate = exact_regret(p, pol, mu, nu)
        kind = DistanceKind.from_text(args.kind) if args.kind else None
        lo = hi = None
        if kind is not None and args.eps is not None:
            lo, hi = bounds_for_policy(p, kind, pol, args.eps)
        report = RegretReport(
            estimate=estimate, analytic_lower=lo, analytic_upper=hi, seed=args.seed
        )
        mode, pol_text, results = "regret", pol.to_text(), [(args.eps, report, "")]

    elif cmd == "dro-scan":
        _check_finite("--eps", args.eps)
        p = ProblemSpec.from_text(args.problem)
        pol = PolicySpec.from_text(args.policy)
        kind = DistanceKind.from_text(args.kind)
        if args.locations is not None:
            locs, res = tuple(sorted(_numbers("--locations", args.locations))), 100
        else:
            default = default_scan_grid(p, kind, pol, args.eps)
            locs, res = default.locations, default.weight_resolution
        res = res if args.weight_res is None else args.weight_res
        grid = ScanGrid(locs, res, args.max_atoms, args.max_pairs)
        report = dro_regret_scan(p, pol, kind, args.eps, grid)
        mode, pol_text, results = "dro-scan", pol.to_text(), [(args.eps, report, "")]

    elif cmd == "adversarial":
        params = _parse_params(args.params)
        if args.kind:
            params["kind"] = DistanceKind.from_text(args.kind)
        pair = adversarial_instance(args.name, params)
        pol = PolicySpec.from_text(args.policy) if args.policy else pair.cited_policy
        bounds = (pair.problem, pair.kind, pol, pair.eps) if pol is not None else None
        report = _named_report(pair, pol, bounds, args.seed)
        mode, p, kind = "adversarial-named", pair.problem, pair.kind
        pol_text = pol.to_text() if pol is not None else "minimax"
        results = [(pair.eps, report, "")]

    elif cmd == "rates":
        p = ProblemSpec.from_text(args.problem)
        kind = DistanceKind.from_text(args.kind)
        pol = None if args.policy == "recommended" else PolicySpec.from_text(args.policy)
        eps_grid = tuple(_numbers("--eps-grid", args.eps_grid))
        cfg = ExperimentConfig(
            problem=p,
            kind=kind,
            policy=pol,
            eps_grid=eps_grid,
            n=args.n,
            trials=args.trials,
            seed=args.seed,
            mode=args.mode,
            family=args.family,
            family_params=_parse_params(args.params),
        )
        results = run_experiment(cfg)
        points = [(eps, r.estimate) for eps, r, _ in results if r is not None]
        try:
            fit = fit_rate(points)
            fit_note = f"slope={fit.slope:.12g};r2={fit.r_squared:.12g}"
        except (NoPositivePoints, DegeneratePoints) as exc:
            fit_note = f"rate-fit failed: {exc}"
        eps, report, note = results[-1]
        results[-1] = (eps, report, f"{note}; {fit_note}" if note else fit_note)
        mode, pol_text = cfg.mode, args.policy if pol is None else pol.to_text()

    else:
        raise ConfigInvalid(f"unknown command {cmd!r}")

    rows = [make_row(mode, p, kind, pol_text, eps, r, note) for eps, r, note in results]
    _emit(rows_to_csv(rows), args.out)
    return 3 if args.strict and any(_violation(mode, r) for _, r, _ in results) else 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
