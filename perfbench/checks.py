"""Correctness checks on task outputs, run outside the timed region.

A task's output is ``(exit code, stdout, stderr)``.  Each checker returns
the list of problems it found; an empty list means the output is correct.

* scan rows: the CSV witness is re-parsed, must lie in the eps-ball, its
  exact regret printed as ``%.12g`` must equal ``regret_est``, and
  ``regret_est`` must not exceed ``analytic_hi``;
* exact queries: every distance, oracle value and regret must match the
  independent NumPy recomputation in ``reference.py`` within 1e-12;
* Monte-Carlo rows: estimates lie in ``[0, objective span]``; the byte
  digest of the whole pass is compared with ``digests.json`` when the seed
  has a recorded digest;
* expected rejections: exit 2 with a named error and no traceback.
"""

from __future__ import annotations

import csv
import hashlib
import io
import re

import reference as ref

REJECTION = re.compile(r"^error: .*(GridTooLarge|exceed the cap)", re.S)


def digest(output: tuple[int, str, str]) -> str:
    """Short digest of one task's exit code, stdout and stderr."""
    rc, out, err = output
    return hashlib.sha256(f"{rc}\0{out}\0{err}\0".encode()).hexdigest()[:16]


def rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def parse_witness(text: str) -> tuple[str, str, list[str]]:
    name, mu, nus = text.split(";")
    return name, mu.removeprefix("mu="), nus.removeprefix("nus=").split("|")


def _in_span(problem: ref.Problem, value: str) -> list[str]:
    v = float(value)
    return [] if 0.0 <= v <= problem.span else [f"estimate {v} outside [0, {problem.span}]"]


def check_rejection(task, output) -> list[str]:
    rc, out, err = output
    if out or "Traceback" in err or not REJECTION.match(err):
        return [f"rejection not reported as a named error: {err.strip()[:200]!r}"]
    return []


# ---------------------------------------------------------------------------
# Monte-Carlo


def check_mc_rates(task, output) -> list[str]:
    found = rows(output[1])
    if len(found) != len(task.info["eps"]):
        return [f"expected {len(task.info['eps'])} rows, got {len(found)}"]
    problems = []
    for row in found:
        if row["regret_est"] == "":
            problems.append(f"eps {row['eps']} skipped: {row['slope_note']}")
            continue
        if row["trials"] != str(task.info["trials"]):
            problems.append(f"trials {row['trials']} != {task.info['trials']}")
        problems += _in_span(ref.Problem(task.info["problem"]), row["regret_est"])
    return problems


def format_mc(report) -> str:
    return f"{report.estimate:.12g},{report.ci_half_width:.12g},{report.n},{report.trials}\n"


def check_mc_wide(task, output) -> list[str]:
    est, _, n, trials = output[1].strip().split(",")
    problems = _in_span(ref.Problem(task.info["problem"]), est)
    if int(trials) != task.info["trials"] or int(n) != len(task.mc[3]):
        problems.append(f"report n={n}, trials={trials} do not match the request")
    return problems


# ---------------------------------------------------------------------------
# scans


def check_scan(task, output) -> list[str]:
    """Certify every scan row with the program's own ball and regret."""
    from heterodro.measures import from_text
    from heterodro.metrics import DistanceKind, in_ball
    from heterodro.policies import PolicySpec, recommended_parameter
    from heterodro.problems import ProblemSpec
    from heterodro.regret import exact_regret

    p = ProblemSpec.from_text(task.info["problem"])
    kind = DistanceKind.from_text(task.info["kind"])
    found = rows(output[1])
    if len(found) != len(task.info["eps"]):
        return [f"expected {len(task.info['eps'])} rows, got {len(found)}"]
    problems = []
    for eps, row in zip(task.info["eps"], found):
        est = row["regret_est"]
        if est == "":
            problems.append(f"eps {eps} skipped: {row['slope_note']}")
            continue
        if row["analytic_hi"] and float(est) > float(row["analytic_hi"]):
            problems.append(f"eps {eps}: scan value {est} above the upper bound")
        if not row["witness"]:
            if float(est) != 0.0:
                problems.append(f"eps {eps}: value {est} without a witness")
            continue
        _, mu_t, nus_t = parse_witness(row["witness"])
        mu, nu = from_text(mu_t), from_text(nus_t[0])
        if row["policy"] == "recommended":
            pol = recommended_parameter(p, kind, eps)
        else:
            pol = PolicySpec.from_text(row["policy"])
        if not in_ball(mu, nu, kind, eps):
            problems.append(f"eps {eps}: witness outside the ball")
        if f"{exact_regret(p, pol, mu, nu):.12g}" != est:
            problems.append(f"eps {eps}: witness regret differs from {est}")
    return problems


def scan_bound_ratio(outputs: list[tuple[int, str, str]]) -> float:
    """Mean regret_est / analytic_hi over scan rows with an upper bound."""
    ratios = [
        float(row["regret_est"]) / float(row["analytic_hi"])
        for _, out, _ in outputs
        for row in rows(out)
        if row["analytic_hi"] and row["regret_est"] and float(row["analytic_hi"]) > 0.0
    ]
    return sum(ratios) / len(ratios) if ratios else 0.0


# ---------------------------------------------------------------------------
# exact queries


def _pair_regret(row: dict[str, str], policy: str) -> float:
    """Reference value of an adversarial row: what the pair certifies."""
    name, mu_t, nus_t = parse_witness(row["witness"])
    problem = _row_problem(row)
    mu = ref.Measure(mu_t)
    nus = [ref.Measure(t) for t in nus_t]
    if policy == "minimax":
        return ref.minimax(problem, [mu] + nus)
    if len(nus) == 2:
        return ref.two_sample_regret(problem, policy, mu, nus[0], nus[1])
    return ref.exact_regret(problem, policy, mu, nus[0])


def _row_problem(row: dict[str, str]) -> ref.Problem:
    kind, M, p1, p2 = row["problem"], row["M"], row["param1"], row["param2"]
    if kind == "newsvendor":
        return ref.Problem(f"newsvendor:{p1},{p2},{M}")
    if kind == "pricing":
        return ref.Problem(f"pricing:{M}")
    return ref.Problem(f"ski:{p1},{M}")


MINIMAX_FAMILIES = {"pr_w_lower", "ski_k_lower", "ski_w_lower"}


def check_exact(task, output) -> list[str]:
    cmd = task.argv[0]
    out = output[1]
    info = task.info
    if cmd == "distance":
        want = ref.distance(info["kind"], ref.Measure(info["a"]), ref.Measure(info["b"]))
        return [] if ref.close(out.strip(), want) else [f"distance {out.strip()} != {want!r}"]
    if cmd == "oracle":
        p, m = ref.Problem(info["problem"]), ref.Measure(info["measure"])
        _, action, _, value = out.split()
        if ref.close(action, p.oracle(m)) and ref.close(value, p.opt(m)):
            return []
        return [f"oracle {out.strip()} != action {p.oracle(m)!r} value {p.opt(m)!r}"]
    if cmd == "regret":
        (row,) = rows(out)
        want = ref.exact_regret(
            ref.Problem(info["problem"]), info["policy"],
            ref.Measure(info["mu"]), ref.Measure(info["nu"]),
        )
        return [] if ref.close(row["regret_est"], want) else [f"regret {row['regret_est']} != {want!r}"]
    problems = []
    found = rows(out)
    if cmd == "rates" and len(found) != len(info["eps"]):
        return [f"expected {len(info['eps'])} rows, got {len(found)}"]
    for row in found:
        if row["regret_est"] == "":
            problems.append(f"eps {row['eps']} skipped: {row['slope_note']}")
            continue
        name = row["witness"].split(";", 1)[0]
        policy = row["policy"]
        if cmd == "rates" and name in MINIMAX_FAMILIES:
            policy = "minimax"
        elif policy == "recommended":
            policy = ref.recommended(_row_problem(row), row["distance"], float(row["eps"]))
        want = _pair_regret(row, policy)
        if not ref.close(row["regret_est"], want):
            problems.append(f"{name} eps {row['eps']}: {row['regret_est']} != {want!r}")
        problems += _in_span(_row_problem(row), row["regret_est"])
    return problems


CHECKERS = {
    "mc_rates": check_mc_rates,
    "mc_wide": check_mc_wide,
    "scan_grid": check_scan,
    "exact_queries": check_exact,
}
# Workloads whose outputs must be byte-identical to the recorded digest.
DIGESTED = ("mc_rates", "mc_wide", "exact_queries")
