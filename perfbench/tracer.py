"""Span tracer that wraps heterodro's module functions from outside the package.

Every public function of the traced modules (and the Monte-Carlo loop's
``measures._from_canonical``) is wrapped in every module namespace that
binds it (``from .problems import oracle`` binds ``oracle`` in
``policies``, ``regret``, ``cli`` and the package too), so no call path
escapes the counters.  Calls of the functions in ``SPANNED`` also record a
span (name, start, end, parent span, task id), kept in memory; the other
public functions are only counted, so their time stays in the caller's
self time (``cli.main`` keeps argument parsing, CSV formatting and the rate
fit).  Self time is a span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("measures", "metrics", "problems", "policies", "regret", "approx", "cli")

# Wrapped besides the public functions: the Monte-Carlo loop's per-trial
# measure constructor.
PRIVATE_TRACED = {"measures._from_canonical"}
# Functions whose calls open a span and report self time.
SPANNED = (
    "problems.oracle", "problems.expected_objective", "problems.expected_objective_grid",
    "regret.monte_carlo_regret", "measures._from_canonical", "policies.apply_policy",
    "regret.dro_regret_scan", "regret.enumerate_grid_measures", "measures.make_finite_measure",
    "metrics.kolmogorov", "metrics.total_variation", "metrics.wasserstein1", "metrics.in_ball",
    "measures.from_text", "regret.exact_regret", "regret.evaluate_pair",
    "regret.adversarial_instance", "cli.main", "cli.run_experiment",
)
# Callee -> callers inside which it is only counted: the ski-rental oracle
# evaluates the expected objective once per candidate, and that loop is
# the oracle's own cost.
FOLDED = {"problems.expected_objective": {"problems.oracle"}}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.names: list[str] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.task = -1
        # per task id: grid measures enumerated (coverage check)
        self.task_measures: dict[int, int] = {}
        self._stack: list[list] = []  # [span index, child seconds, name]
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # installation

    def install(self) -> None:
        """Replace every binding of every traced function by its wrapper."""
        pkg = importlib.import_module("heterodro")
        modules = {name: importlib.import_module(f"heterodro.{name}") for name in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                key = f"{layer}.{attr}"
                if attr.startswith("_") and key not in PRIVATE_TRACED:
                    continue
                wrappers[id(fn)] = self._wrap(fn, key)
        for mod in (pkg, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    # wrappers

    def _wrap(self, fn, key: str):
        self.calls[key] = 0
        if key not in SPANNED:
            calls = self.calls

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return counted

        self.self_s[key] = 0.0
        name_id = len(self.names)
        self.names.append(key)
        post = _POST_HOOKS.get(key)
        folded_in = FOLDED.get(key, set())
        spans, stack, calls, self_s = self.spans, self._stack, self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][2] in folded_in:
                calls[key] += 1
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0.0, key]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                spans[idx] = (name_id, start, end, parent, self.task)
                calls[key] += 1
                self_s[key] += dur - frame[1]
            if post is not None:
                post(self, args, kwargs, result)
            return result

        return traced

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + value

    # ------------------------------------------------------------------
    # summaries

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for key, sec in self.self_s.items():
            out[key.split(".", 1)[0]] += sec
        return out

    def self_by_task(self) -> dict[int, dict[str, float]]:
        """Self seconds per (task id, function), rebuilt from the spans."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out: dict[int, dict[str, float]] = {}
        for i, span in enumerate(self.spans):
            if span is None:
                continue
            name = self.names[span[0]]
            per = out.setdefault(span[4], {})
            per[name] = per.get(name, 0.0) + (span[2] - span[1] - child[i])
        return out

    def spans_json(self) -> list[list]:
        return [
            [self.names[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans if s is not None
        ]


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _post_oracle(tr: Tracer, args, kwargs, result) -> None:
    tr.add("problems.oracle.atoms", len(_arg(args, kwargs, 1, "m").support))


def _post_monte_carlo(tr: Tracer, args, kwargs, result) -> None:
    tr.add("regret.monte_carlo_regret.trials", _arg(args, kwargs, 4, "trials"))


def _post_enumerate(tr: Tracer, args, kwargs, result) -> None:
    tr.add("regret.enumerate_grid_measures.measures", len(result))
    tr.task_measures[tr.task] = tr.task_measures.get(tr.task, 0) + len(result)


_POST_HOOKS = {
    "problems.oracle": _post_oracle,
    "regret.monte_carlo_regret": _post_monte_carlo,
    "regret.enumerate_grid_measures": _post_enumerate,
}
