#!/usr/bin/env python3
"""Seeded workload benchmark for heterodro.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports ``heterodro`` from its
``src`` directory.  One client issues the workload's tasks back to back
(closed loop), in whole passes over the seeded task list, for about S
seconds.  With ``--trace 0`` the last line of stdout is a JSON object with
the end-to-end metrics; with ``--trace 1`` the same timed loop is followed
by passes with every heterodro function wrapped, and the JSON carries the
per-layer metrics.  Outputs are checked outside the timed region.  See
README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 3
IMPORT_PROBES = 3
# The traced run repeats whole passes until its tasks took this long, so a
# short pass (exact_queries) still gives steady self times.
TRACE_MIN_S = 2.0

def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", metavar="FIRST-LAST", default=None,
                    help="record the output digests of one pass per seed and exit")
    return ap.parse_args()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


# ---------------------------------------------------------------------------
# set-up


def probe_setup(argv: list[str]) -> list[float]:
    """Wall seconds of fresh interpreters importing heterodro.cli and warming up."""
    cmd = [sys.executable, "-s", str(HERE / "probe.py"), str(SRC), *argv]
    out = []
    for _ in range(SETUP_PROBES):
        t = time.perf_counter()
        subprocess.run(cmd, env=child_env(), check=True, stdout=subprocess.DEVNULL)
        out.append(time.perf_counter() - t)
    return out


IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s+heterodro\.(\w+)\s*$")


def probe_imports(argv: list[str], layers) -> dict[str, float]:
    """Median cumulative import seconds per heterodro module (-X importtime)."""
    cmd = [sys.executable, "-s", "-X", "importtime", str(HERE / "probe.py"), str(SRC), *argv]
    samples: dict[str, list[float]] = {layer: [] for layer in layers}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(cmd, env=child_env(), check=True, capture_output=True, text=True)
        seen = {layer: 0.0 for layer in layers}
        for line in proc.stderr.splitlines():
            m = IMPORT_LINE.match(line)
            if m and m.group(2) in seen:
                seen[m.group(2)] += int(m.group(1)) / 1e6
        for layer, sec in seen.items():
            samples[layer].append(sec)
    return {layer: statistics.median(v) for layer, v in samples.items()}


# ---------------------------------------------------------------------------
# timed loop


def execute(task) -> tuple[int | None, str, str]:
    """Run one task through the program's public entry point."""
    import heterodro.cli as cli
    import heterodro.regret as regret
    from checks import format_mc

    if task.mc is not None:
        return 0, format_mc(regret.monte_carlo_regret(*task.mc)), ""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(task.argv)
        except SystemExit as exc:  # argparse rejections
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue(), err.getvalue()


def run_pass(tasks, times: list[float], tr=None) -> list[tuple]:
    outputs = []
    for i, task in enumerate(tasks):
        if tr is not None:
            tr.task = i
        t = time.perf_counter()
        try:
            output = execute(task)
        except Exception:  # a task that raises is a failed task, not a crash
            output = (None, "", traceback.format_exc())
        times.append(time.perf_counter() - t)
        outputs.append(output)
    return outputs


def run_traced(tasks, tr) -> tuple[list[float], list[list[tuple]]]:
    """Whole passes with tracing on, covering at least TRACE_MIN_S of task time."""
    times: list[float] = []
    passes: list[list[tuple]] = []
    tr.install()
    try:
        while not passes or sum(times) < TRACE_MIN_S:
            passes.append(run_pass(tasks, times, tr))
    finally:
        tr.uninstall()
    return times, passes


def run_for(tasks, seconds: float) -> tuple[list[float], list[list[tuple]]]:
    """Whole passes until about `seconds` have elapsed (at least one)."""
    times: list[float] = []
    passes: list[list[tuple]] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(tasks, times))
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(passes) >= seconds:
            return times, passes


def best_times(times: list[float], n_tasks: int) -> list[float]:
    """Each task's fastest time over the passes.

    Other processes on the machine only ever add time, and on a shared host
    they change its speed by tens of percent over minutes; a task's best
    time over passes spread across the run moves far less than its median.
    """
    return [min(times[i::n_tasks]) for i in range(n_tasks)]


# ---------------------------------------------------------------------------
# correctness


def evaluate(wl, passes, seed: int, notes: list[str]) -> tuple[int, int]:
    """(failed, wrong) executions over all passes; problems go to notes."""
    import checks

    recorded = None
    if DIGESTS.is_file():
        recorded = json.loads(DIGESTS.read_text()).get(wl.name, {}).get(str(seed))
    if recorded is None:
        notes.append(f"byte check skipped: no digest recorded for seed {seed}")
    first = passes[0]
    bad_first = []
    for i, (task, output) in enumerate(zip(wl.tasks, first)):
        problems = []
        if output[0] == task.expect_rc:
            check = checks.check_rejection if task.expect_rc else checks.CHECKERS[task.group]
            try:
                problems = check(task, output)
            except Exception as exc:  # output in a shape the checker cannot read
                problems = [f"unreadable output ({exc!r}): {output[1][:200]!r}"]
            if (
                recorded is not None
                and task.group in checks.DIGESTED
                and recorded[i:i + 1] != [checks.digest(output)]
            ):
                problems.append("output bytes differ from the recorded digest")
        for p in problems:
            notes.append(f"task {i} {task.label}: {p}")
        bad_first.append(bool(problems))
    failed = wrong = 0
    for n, outputs in enumerate(passes):
        for i, (task, output) in enumerate(zip(wl.tasks, outputs)):
            if output[0] != task.expect_rc:
                failed += 1
                if n == 0:
                    notes.append(f"task {i} {task.label}: exit {output[0]}: {output[2][-300:]!r}")
            elif bad_first[i] or output != first[i]:
                wrong += 1
    return failed, wrong


def expected_measures(wl) -> dict[int, int]:
    """Grid measures each scan task should enumerate, by task index."""
    from heterodro.cli import default_scan_grid
    from heterodro.metrics import DistanceKind
    from heterodro.policies import PolicySpec, recommended_parameter
    from heterodro.problems import ProblemSpec
    from workloads import grid_size

    out = {}
    for i, task in enumerate(wl.tasks):
        if task.group != "scan_grid":
            continue
        if "grid_measures" in task.info:
            out[i] = task.info["grid_measures"]
            continue
        p = ProblemSpec.from_text(task.info["problem"])
        kind = DistanceKind.from_text(task.info["kind"])
        total = 0
        for eps in task.info["eps"]:
            pol = recommended_parameter(p, kind, eps) if task.argv[0] == "rates" else PolicySpec.saa()
            g = default_scan_grid(p, kind, pol, eps)
            total += grid_size(len(g.locations), g.weight_resolution, g.max_atoms)
        out[i] = total
    return out


def coverage(wl, tr, n_passes: int) -> list[str]:
    """Problems showing that a wrapped binding was missed in the traced passes."""
    problems = []
    trials = n_passes * sum(
        t.info.get("trials", 0) * len(t.info.get("eps", [0])) for t in wl.tasks
    )
    got = tr.counters.get("regret.monte_carlo_regret.trials", 0)
    if got != trials:
        problems.append(f"coverage: monte_carlo_regret saw {got} trials, {trials} requested")
    if tr.calls.get("policies.apply_policy", 0) < trials:
        problems.append(f"coverage: apply_policy ran {tr.calls.get('policies.apply_policy')} "
                        f"times for {trials} trials")
    if "regret.enumerate_grid_measures" in tr.calls:
        for i, want in expected_measures(wl).items():
            got = tr.task_measures.get(i, 0)
            if got != n_passes * want and not (wl.tasks[i].expect_rc and got == 0):
                problems.append(f"coverage: task {i} enumerated {got} grid measures over "
                                f"{n_passes} passes, expected {want} per pass")
    return problems


# ---------------------------------------------------------------------------
# reporting


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def traced_metrics(tr, traced_times, n_passes: int, untraced_rate: float, import_s) -> dict:
    """Per-layer metrics; counts and seconds are per pass over the task list."""
    from tracer import SPANNED

    m = {}
    for key in SPANNED:
        m[f"{key}.calls"] = metric(tr.calls.get(key, 0) / n_passes, "count")
        m[f"{key}.self_s"] = metric(tr.self_s.get(key, 0.0) / n_passes, "s")
    oracle_calls = tr.calls.get("problems.oracle", 0)
    atoms = tr.counters.get("problems.oracle.atoms", 0.0)
    m["problems.oracle.atoms_mean"] = metric(atoms / oracle_calls if oracle_calls else 0.0, "atoms")
    m["problems.objective.calls"] = metric(tr.calls.get("problems.objective", 0) / n_passes, "count")
    for counter in ("regret.monte_carlo_regret.trials", "regret.enumerate_grid_measures.measures"):
        m[counter] = metric(tr.counters.get(counter, 0) / n_passes, "count")
    for layer, sec in import_s.items():
        m[f"{layer}.import_s"] = metric(sec, "s")
    for layer, sec in tr.layer_self_s().items():
        m[f"layer.{layer}.self_s"] = metric(sec / n_passes, "s")
    traced_best = best_times(traced_times, len(traced_times) // n_passes)
    traced_rate = len(traced_best) / sum(traced_best)
    m["trace.task_s"] = metric(sum(traced_times) / n_passes, "s")
    m["trace.tasks_per_s"] = metric(traced_rate, "1/s")
    m["trace.untraced_tasks_per_s"] = metric(untraced_rate, "1/s")
    m["trace.overhead"] = metric(untraced_rate / traced_rate, "ratio")
    return m


def group_shares(wl, tr, task_wall: list[float]) -> dict[str, dict[str, float]]:
    """Self-time share per function within each task group (label prefix)."""
    group_of = ["/".join(t.label.split("/")[:2]) for t in wl.tasks]
    groups: dict[str, dict[str, float]] = {}
    wall: dict[str, float] = {}
    for i, per in tr.self_by_task().items():
        g = groups.setdefault(group_of[i], {})
        for name, sec in per.items():
            g[name] = g.get(name, 0.0) + sec
    for group, sec in zip(group_of, task_wall):
        wall[group] = wall.get(group, 0.0) + sec
    return {
        group: dict(sorted(((k, v / wall[group]) for k, v in g.items()), key=lambda kv: -kv[1]))
        for group, g in groups.items()
    }


def write_trace(wl, seed, tr, task_wall: list[float], shares) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{wl.name}-{seed}.json"
    path.write_text(json.dumps({
        "workload": wl.name,
        "seed": seed,
        "tasks": [{"label": t.label, "wall_s": s} for t, s in zip(wl.tasks, task_wall)],
        "self_share_by_group": shares,
        "span_fields": ["name", "start", "end", "parent", "task"],
        "spans": tr.spans_json(),
    }))
    return path


# ---------------------------------------------------------------------------


def record_digests(wl_factory, name: str, seeds: str) -> int:
    import checks

    first, _, last = seeds.partition("-")
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    for seed in range(int(first), int(last or first) + 1):
        wl = wl_factory(seed)
        outputs = run_pass(wl.tasks, [])
        notes: list[str] = []
        failed, wrong = evaluate(wl, [outputs], -1, notes)
        if failed or wrong:
            print("\n".join(notes), file=sys.stderr)
            return 1
        table.setdefault(name, {})[str(seed)] = [
            checks.digest(o) if t.group in checks.DIGESTED else "" for t, o in zip(wl.tasks, outputs)
        ]
    DIGESTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    return 0


def main() -> int:
    args = parse_args()
    if not (SRC / "heterodro" / "cli.py").is_file():
        print(f"perfbench: no heterodro sources at {SRC}", file=sys.stderr)
        return 1
    os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy loads
    sys.path.insert(0, str(SRC))
    import heterodro
    import heterodro.cli

    if not Path(heterodro.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported heterodro from {heterodro.__file__}", file=sys.stderr)
        return 1
    import checks
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    factory = workloads.WORKLOADS[args.workload]
    if args.record_digests:
        return record_digests(factory, args.workload, args.record_digests)

    wl = factory(args.seed)
    with contextlib.redirect_stdout(io.StringIO()):
        heterodro.cli.main(workloads.WARMUP_ARGV)
    notes: list[str] = []
    trace_problems: list[str] = []

    if args.trace == 0:
        setup = probe_setup(workloads.WARMUP_ARGV)
        times, passes = run_for(wl.tasks, args.seconds)
        all_passes = passes
    else:
        import_s = probe_imports(workloads.WARMUP_ARGV, tracer.LAYERS)
        times, passes = run_for(wl.tasks, args.seconds)
        tr = tracer.Tracer()
        traced_times, traced = run_traced(wl.tasks, tr)
        if any(p != passes[0] for p in traced):
            trace_problems.append("traced outputs differ from the untraced run")
        trace_problems += coverage(wl, tr, len(traced))
        all_passes = passes + traced
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    notes += trace_problems
    failed, wrong = evaluate(wl, all_passes, args.seed, notes)
    attempted = len(wl.tasks) * len(all_passes)
    best = best_times(times, len(wl.tasks))
    rate = len(best) / sum(best)
    if args.trace == 0:
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "tasks_per_s": metric(rate, "1/s"),
            "task_s_p50": metric(statistics.median(best), "s"),
            "task_s_p90": metric(statistics.quantiles(best, n=10)[8], "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    else:
        metrics = traced_metrics(tr, traced_times, len(traced), rate, import_s)
        metrics["failed_frac"] = metric(failed / attempted, "fraction")
        metrics["wrong_frac"] = metric(wrong / attempted, "fraction")
        scans = [o for t, o in zip(wl.tasks, passes[0]) if t.group == "scan_grid"]
        metrics["scan_bound_ratio"] = metric(checks.scan_bound_ratio(scans), "ratio")
        n = len(wl.tasks)
        task_wall = [sum(traced_times[i::n]) for i in range(n)]
        shares = group_shares(wl, tr, task_wall)
        path = write_trace(wl, args.seed, tr, task_wall, shares)
        for group, share in shares.items():
            top = ", ".join(f"{k} {v:.1%}" for k, v in list(share.items())[:3])
            print(f"self-time share {group}: {top}", file=sys.stderr)
        print(f"trace written to {path.relative_to(ROOT)}", file=sys.stderr)

    for note in notes:
        print(note, file=sys.stderr)
    print(f"{wl.name} seed {args.seed}: {len(wl.tasks)} tasks x {len(passes)} timed passes; "
          f"inputs {json.dumps(wl.inputs)}", file=sys.stderr)
    correct = failed == 0 and wrong == 0 and not trace_problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
