"""Seeded task lists for the four benchmark workloads.

A task is one call of a workload's entry point: ``heterodro.cli.main`` with
an argument list, or ``regret.monte_carlo_regret`` for the wide histories
the command line cannot express.  The structure of each list (cells, atom
counts, grid shapes, trial counts) is fixed, so every seed costs about the
same; the seed only draws the values (eps grids, atom positions, weights,
problem parameters, Monte-Carlo seeds).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

# The 11 (problem, distance, policy) cells of scripts/run_rate_table.py.
RATE_CELLS = [
    ("newsvendor:1,1,1", "kolmogorov", "saa"),
    ("newsvendor:1,1,1", "tv", "saa"),
    ("newsvendor:1,1,1", "wasserstein", "saa"),
    ("pricing:1", "kolmogorov", "saa"),
    ("pricing:1", "tv", "saa"),
    ("pricing:1", "wasserstein", "saa"),
    ("pricing:1", "wasserstein", "recommended"),
    ("ski:3,10", "kolmogorov", "saa"),
    ("ski:1,10", "kolmogorov", "recommended"),
    ("ski:2,10", "wasserstein", "saa"),
    ("ski:1,10", "wasserstein", "recommended"),
]
KINDS = ("kolmogorov", "tv", "wasserstein")

# Every task list holds at least 100 tasks, so that the 90th percentile of
# the per-task times has at least 10 tasks beyond it; variants repeat a
# list's structure with fresh values.
MC_RATES_VARIANTS = 9
# The slowest cell is ski:3,10 under Kolmogorov (its witness has 8 atoms).
# Four more variants of it put the 90th percentile inside its group rather
# than at the top of the 2-3-atom cells, where a single task that never ran
# while the host was idle would set it.
MC_RATES_TAIL_VARIANTS = 4
# Trials per task (and n for mc_wide) are kept small so that one pass over a
# Monte-Carlo list takes 2 s or less: a run then holds a dozen or more
# passes, and each task's best time over them stays steady on a shared host.
MC_RATES_N = 10_000
MC_RATES_TRIALS = 3
MC_WIDE_VARIANTS = 2
MC_WIDE_N = 250
MC_WIDE_TRIALS = 1
MC_WIDE_ATOMS = (50, 100, 150, 200)
MC_WIDE_HISTORIES = (1, 4)
# (locations, weight resolution, max atoms) of the explicit scan grids;
# all have locations drawn per seed but a seed-independent size.
SCAN_EXPLICIT = [(5, 15, 3), (5, 20, 3)]
# dro-scan calls per (problem, distance) cell on the default per-cell grid.
SCAN_DEFAULT_EPS = 10
# 18 246 measures, 3.3e8 pairs: 33 times the default --max-pairs cap of
# 10**7, so it must exit 2.  Large enough that enumerating it before the
# cap check shows.
SCAN_OVERSIZED = (6, 20, 4)
# Weighted toward 1000 atoms: at fewer atoms a query's cost is mostly the
# command line's argument parsing, not measure parsing and distances.
EXACT_DISTANCE_ATOMS = (10, 100) + (1000,) * 10
EXACT_ORACLE_ATOMS = {"newsvendor": (10, 100, 1000), "pricing": (10, 100, 1000), "ski": (10, 30)}
# The ski-rental oracle is quadratic in the atoms: 30 atoms keep it scalar.
EXACT_REGRET_ATOMS = {"newsvendor": (1000,), "pricing": (1000,), "ski": (10, 30)}
# One rate-table cell per problem.
EXACT_RATE_CELLS = [RATE_CELLS[0], RATE_CELLS[6], RATE_CELLS[7]]
EXACT_VARIANTS = 2

# Run before task 1 in the benchmark process and in every set-up probe.
WARMUP_ARGV = ["distance", "--kind", "w", "--a", "0.0:0.5,1.0:0.5@1.0", "--b", "0.5:1.0@1.0"]


@dataclass
class Task:
    label: str
    argv: list[str] | None = None
    mc: tuple | None = None  # (problem, policy, mu, nus, trials, seed)
    expect_rc: int = 0
    info: dict = field(default_factory=dict)
    group: str = ""  # the workload it belongs to, which selects its check


@dataclass
class Workload:
    name: str
    tasks: list[Task]
    inputs: dict  # input properties a gain may depend on

    def __post_init__(self) -> None:
        for task in self.tasks:
            task.group = self.name


def grid_size(locations: int, resolution: int, max_atoms: int) -> int:
    """Number of measures enumerate_grid_measures yields for a grid shape."""
    return sum(
        math.comb(locations, a) * math.comb(resolution - 1, a - 1)
        for a in range(1, min(max_atoms, locations) + 1)
    )


def _eps_grid(rng: random.Random, k: int, lo: float, hi: float) -> list[float]:
    """k distinct eps, one log-uniform draw in each of k equal log-strata of [lo, hi].

    Stratified, so that every seed spreads its eps (and the eps-dependent
    cost of a scan) over the whole range alike.
    """
    a, width = math.log(lo), (math.log(hi) - math.log(lo)) / k
    while True:
        out = [float(f"{math.exp(rng.uniform(a + j * width, a + (j + 1) * width)):.4g}")
               for j in range(k)]
        if len(set(out)) == k:
            return out


def _csv(values) -> str:
    return ",".join(repr(v) for v in values)


def measure_text(points, weights, upper: float) -> str:
    body = ",".join(f"{float(p)!r}:{float(w)!r}" for p, w in zip(points, weights))
    return f"{body}@{float(upper)!r}"


# ---------------------------------------------------------------------------
# mc_rates


def mc_rates(seed: int) -> Workload:
    rng = random.Random(seed)
    tasks = []
    cells = RATE_CELLS * MC_RATES_VARIANTS + [RATE_CELLS[7]] * MC_RATES_TAIL_VARIANTS
    for problem, kind, policy in cells:
        eps = _eps_grid(rng, 3, 0.005, 0.1)
        argv = [
            "rates", "--problem", problem, "--kind", kind, "--policy", policy,
            "--eps-grid", _csv(eps), "--mode", "monte-carlo",
            "--n", str(MC_RATES_N), "--trials", str(MC_RATES_TRIALS),
            "--seed", str(rng.randrange(2**31)),
        ]
        tasks.append(Task(f"rates-mc/{problem}/{kind}/{policy}", argv,
                          info={"problem": problem, "eps": eps, "trials": MC_RATES_TRIALS}))
    inputs = {
        "tasks": len(tasks), "atoms_per_measure": "1-8 (named witnesses)",
        "distinct_histories_per_call": 1, "n": MC_RATES_N,
        "trials_per_task": MC_RATES_TRIALS * 3, "eps_per_task": 3,
    }
    return Workload("mc_rates", tasks, inputs)


# ---------------------------------------------------------------------------
# mc_wide


def mc_wide(seed: int) -> Workload:
    from heterodro.measures import make_finite_measure
    from heterodro.policies import PolicySpec
    from heterodro.problems import ProblemSpec

    rng = np.random.default_rng(seed)
    tasks = []
    for family in ("newsvendor", "pricing", "ski") * MC_WIDE_VARIANTS:
        for k in MC_WIDE_ATOMS:
            for h in MC_WIDE_HISTORIES:
                if family == "newsvendor":
                    c_u, c_o = (float(v) for v in np.round(rng.uniform(0.5, 2.0, 2), 3))
                    p = ProblemSpec.newsvendor(c_u, c_o, 10.0)
                    text = f"newsvendor:{c_u!r},{c_o!r},10.0"
                elif family == "pricing":
                    p = ProblemSpec.pricing(10.0)
                    text = "pricing:10.0"
                else:
                    b = float(rng.integers(60, 160))
                    p = ProblemSpec.ski_rental(b, 250.0)
                    text = f"ski:{b!r},250.0"
                if family == "ski":  # integer days
                    pts = np.sort(rng.choice(np.arange(1, 251), k, replace=False)).astype(float)
                else:
                    pts = np.unique(np.round(rng.uniform(0.0, p.M, k), 6))
                mu_w = rng.dirichlet(np.ones(len(pts)))
                mu = make_finite_measure(pts.tolist(), mu_w.tolist(), p.M)
                nus = []
                for _ in range(h):
                    w = 0.5 * mu_w + 0.5 * rng.dirichlet(np.ones(len(pts)))
                    nus.append(make_finite_measure(pts.tolist(), (w / w.sum()).tolist(), p.M))
                history = [nus[i % h] for i in range(MC_WIDE_N)]
                delta = round(float(rng.uniform(0.02, 0.1)) * p.M, 4)
                policies = {
                    "newsvendor": [PolicySpec.saa(), PolicySpec.delta_saa(delta)],
                    "pricing": [PolicySpec.saa(), PolicySpec.delta_saa(-delta)],
                    "ski": [PolicySpec.saa(), PolicySpec.delta_saa(delta),
                            PolicySpec.capped(round(float(rng.uniform(0.2, 0.6)) * p.M, 2))],
                }[family]
                for pol in policies:
                    mc_seed = int(rng.integers(2**31))
                    tasks.append(Task(
                        f"mc-wide/{family}/{pol.kind.value}/k{k}/h{h}",
                        mc=(p, pol, mu, history, MC_WIDE_TRIALS, mc_seed),
                        info={"problem": text, "trials": MC_WIDE_TRIALS},
                    ))
    inputs = {
        "tasks": len(tasks), "atoms_per_measure": list(MC_WIDE_ATOMS),
        "distinct_histories_per_call": list(MC_WIDE_HISTORIES), "n": MC_WIDE_N,
        "trials_per_task": MC_WIDE_TRIALS,
        "policies": "saa, dsaa (all problems), cap (ski)",
        "support": "integer days 1..250 for ski, reals on [0, 10] otherwise",
    }
    return Workload("mc_wide", tasks, inputs)


# ---------------------------------------------------------------------------
# scan_grid

SCAN_PROBLEMS_REC = ("newsvendor:1,1,1", "pricing:1", "ski:1,10")
SCAN_PROBLEMS_SAA = ("newsvendor:1,1,1", "pricing:1", "ski:3,10")


def _locations(rng: random.Random, count: int, upper: float) -> list[float]:
    out: set[float] = set()
    while len(out) < count:
        out.add(round(rng.uniform(0.0, upper), 3))
    return sorted(out)


def scan_grid(seed: int) -> Workload:
    rng = random.Random(seed)
    tasks = []
    for problem in SCAN_PROBLEMS_REC:
        for kind in KINDS:
            eps = _eps_grid(rng, 3, 0.005, 0.1)
            argv = ["rates", "--problem", problem, "--kind", kind, "--policy", "recommended",
                    "--eps-grid", _csv(eps), "--mode", "dro-scan"]
            tasks.append(Task(f"rates-scan/{problem}/{kind}", argv,
                              info={"problem": problem, "kind": kind, "eps": eps}))
    for problem in SCAN_PROBLEMS_SAA:
        for kind in KINDS:
            for eps in _eps_grid(rng, SCAN_DEFAULT_EPS, 0.005, 0.1):
                argv = ["dro-scan", "--problem", problem, "--policy", "saa", "--kind", kind,
                        "--eps", repr(eps)]
                tasks.append(Task(f"scan-default/{problem}/{kind}", argv,
                                  info={"problem": problem, "kind": kind, "eps": [eps]}))
    shapes = SCAN_EXPLICIT + [SCAN_OVERSIZED]
    for i, (n_locs, res, atoms) in enumerate(shapes):
        problem = SCAN_PROBLEMS_SAA[i % 3]
        kind = KINDS[(i + i // 3) % 3]
        upper = 10.0 if problem.startswith("ski") else 1.0
        eps = float(f"{rng.uniform(0.05, 0.2):.4g}")
        argv = ["dro-scan", "--problem", problem, "--policy", "saa", "--kind", kind,
                "--eps", repr(eps), "--locations", _csv(_locations(rng, n_locs, upper)),
                "--weight-res", str(res), "--max-atoms", str(atoms)]
        size = grid_size(n_locs, res, atoms)
        oversized = (n_locs, res, atoms) == SCAN_OVERSIZED
        if not oversized:
            argv += ["--max-pairs", str(10**8)]
        tasks.append(Task(
            f"scan-{'oversized' if oversized else 'explicit'}/{size}",
            argv,
            expect_rc=2 if oversized else 0,
            info={"problem": problem, "kind": kind, "eps": [eps], "grid_measures": size},
        ))
    inputs = {
        "tasks": len(tasks), "atoms_per_measure": "1-4 grid atoms",
        "rates_dro_scan_tasks": 9, "default_grid_scans": 9 * SCAN_DEFAULT_EPS,
        "explicit_grid_measures": [grid_size(*s) for s in SCAN_EXPLICIT],
        "oversized_grid_measures": grid_size(*SCAN_OVERSIZED),
        "oversized_expected_exit": 2,
    }
    return Workload("scan_grid", tasks, inputs)


# ---------------------------------------------------------------------------
# exact_queries


EXACT_UPPER = 10.0


def _random_problem(rng: np.random.Generator, family: str) -> str:
    if family == "newsvendor":
        c_u, c_o = (float(v) for v in np.round(rng.uniform(0.5, 2.0, 2), 3))
        return f"newsvendor:{c_u!r},{c_o!r},{EXACT_UPPER!r}"
    if family == "pricing":
        return f"pricing:{EXACT_UPPER!r}"
    return f"ski:{float(np.round(rng.uniform(2.0, 8.0), 3))!r},{EXACT_UPPER!r}"


def _random_pair(rng: np.random.Generator, k: int, upper: float) -> tuple[str, str]:
    """Two k-atom measures sharing about half their atoms."""
    a = np.unique(np.round(rng.uniform(0.0, upper, k), 9))
    shared = a[: len(a) // 2]
    b = np.unique(np.concatenate([shared, np.round(rng.uniform(0.0, upper, k - len(shared)), 9)]))
    return (
        measure_text(a, rng.dirichlet(np.ones(len(a))), upper),
        measure_text(b, rng.dirichlet(np.ones(len(b))), upper),
    )


def _adversarial_params(rng: np.random.Generator, name: str) -> tuple[dict, str | None]:
    def u(lo: float, hi: float) -> float:
        return float(f"{rng.uniform(lo, hi):.4g}")

    if name == "nv_tv_pair":
        c_u, c_o, M = u(0.5, 2.0), u(0.5, 2.0), u(1.0, 10.0)
        q = c_u / (c_u + c_o)
        kind = str(rng.choice(KINDS))
        eps = u(0.05, 0.9) * min(q, 1 - q) * (M if kind == "wasserstein" else 1.0)
        return {"c_u": c_u, "c_o": c_o, "M": M, "eps": eps}, kind
    if name == "pr_k_pair":
        return {"M": u(1.0, 10.0), "eps": u(0.01, 0.5)}, str(rng.choice(KINDS[:2]))
    if name == "pr_w_saa_fail":
        M = u(1.0, 10.0)
        return {"M": M, "eps": u(0.001, 0.1) * M, "eta": u(0.0005, 0.01) * M}, None
    if name == "pr_w_lower":
        M = u(1.0, 10.0)
        return {"M": M, "eps": u(0.01, 0.25) * M}, None
    if name == "ski_k_saa_fail":
        M = int(rng.integers(8, 15))
        b = int(rng.integers(2, M - 2))
        r = (b - 1) / b
        cap = min(1.0 / b, 2.0 * r ** (M - b))
        return {"M": M, "b": b, "eps": u(0.2, 0.9) * cap}, str(rng.choice(KINDS[:2]))
    if name == "ski_k_lower":
        b = u(1.0, 5.0)
        return {"b": b, "M": u(1.25, 4.0) * b, "eps": u(0.01, 0.5)}, str(rng.choice(KINDS[:2]))
    if name == "ski_w_saa_fail":
        b = u(1.0, 5.0)
        return {"b": b, "M": u(2.1, 5.0) * b, "eps": u(0.01, 0.9) * b / 4}, None
    if name == "ski_w_lower":
        b = u(1.0, 5.0)
        return {"b": b, "M": u(2.0, 5.0) * b, "eps": u(0.01, 1.0) * b / 4}, None
    return {"k": int(rng.integers(1, 7))}, None  # hetero_helps


FAMILIES = ("nv_tv_pair", "pr_k_pair", "pr_w_saa_fail", "pr_w_lower", "ski_k_saa_fail",
            "ski_k_lower", "ski_w_saa_fail", "ski_w_lower", "hetero_helps")


def _exact_tasks(rng: np.random.Generator) -> list[Task]:
    tasks = []
    for kind in KINDS:
        for k in EXACT_DISTANCE_ATOMS:
            a, b = _random_pair(rng, k, EXACT_UPPER)
            tasks.append(Task(f"distance/{kind}/k{k}",
                              ["distance", "--kind", kind, "--a", a, "--b", b],
                              info={"kind": kind, "a": a, "b": b}))
    for family, sizes in EXACT_ORACLE_ATOMS.items():
        for k in sizes:
            problem = _random_problem(rng, family)
            m, _ = _random_pair(rng, k, EXACT_UPPER)
            tasks.append(Task(f"oracle/{family}/k{k}",
                              ["oracle", "--problem", problem, "--measure", m],
                              info={"problem": problem, "measure": m}))
    for family, sizes in EXACT_REGRET_ATOMS.items():
        policies = ["saa", f"dsaa:{float(np.round(rng.uniform(0.1, 1.0), 3))!r}"]
        if family == "ski":
            policies.append(f"cap:{float(np.round(rng.uniform(1.0, 6.0), 3))!r}")
        for k in sizes:
            for pol in policies:
                problem = _random_problem(rng, family)
                mu, nu = _random_pair(rng, k, EXACT_UPPER)
                kind = str(rng.choice(KINDS))
                eps = float(f"{rng.uniform(0.01, 0.2):.4g}")
                argv = ["regret", "--problem", problem, "--policy", pol, "--mu", mu,
                        "--nu", nu, "--kind", kind, "--eps", repr(eps)]
                tasks.append(Task(f"regret/{family}/k{k}", argv,
                                  info={"problem": problem, "policy": pol, "mu": mu, "nu": nu}))
    for name in FAMILIES:
        params, kind = _adversarial_params(rng, name)
        argv = ["adversarial", "--name", name,
                "--params", ",".join(f"{key}={val!r}" for key, val in params.items())]
        if kind is not None:
            argv += ["--kind", kind]
        tasks.append(Task(f"adversarial/{name}", argv))
    for problem, kind, policy in EXACT_RATE_CELLS:
        eps = _eps_grid(random.Random(int(rng.integers(2**31))), 4, 0.005, 0.1)
        argv = ["rates", "--problem", problem, "--kind", kind, "--policy", policy,
                "--eps-grid", _csv(eps), "--mode", "adversarial-named"]
        tasks.append(Task(f"rates-named/{problem}/{kind}/{policy}", argv,
                          info={"problem": problem, "eps": eps}))
    return tasks


def exact_queries(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    tasks = [task for _ in range(EXACT_VARIANTS) for task in _exact_tasks(rng)]
    inputs = {
        "tasks": len(tasks), "distance_atoms": list(EXACT_DISTANCE_ATOMS),
        "oracle_atoms": EXACT_ORACLE_ATOMS, "regret_atoms": EXACT_REGRET_ATOMS,
        "adversarial_families": len(FAMILIES), "rates_named_cells": len(EXACT_RATE_CELLS),
    }
    return Workload("exact_queries", tasks, inputs)


WORKLOADS = {
    "mc_rates": mc_rates,
    "mc_wide": mc_wide,
    "scan_grid": scan_grid,
    "exact_queries": exact_queries,
}
