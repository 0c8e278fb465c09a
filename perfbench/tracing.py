"""Spans at the module boundaries of cechcircle, recorded from outside the package.

Each wrapper is installed on the name where the caller looks the function up
(``montecarlo.classify``, not ``classify.classify``), records one span
``[name, start, end, parent]`` in memory, and is removed again by
``Tracer.remove``.  A boundary whose name no longer exists is listed in
``Tracer.absent`` and its metrics read 0; it never stops the run.
"""
from __future__ import annotations

import importlib
import inspect
import math
from time import perf_counter

# (module, attribute path, span name).  The first two are the montecarlo
# layer's entry points as the CLI sees them; the rest are per-trial stages.
BOUNDARIES = [
    ("cechcircle.cli", "run_census", "montecarlo"),
    ("cechcircle.cli", "verify_theorem_a1", "montecarlo"),
    ("cechcircle.montecarlo", "trial_rng", "montecarlo.rng"),
    ("cechcircle.montecarlo", "_sorted_sample", "montecarlo.sample"),
    ("cechcircle.montecarlo", "classify", "classify"),
    ("cechcircle.montecarlo", "_euler_from_sorted", "circle.euler_dp"),
    ("cechcircle.montecarlo", "expected_euler_char", "exact.closed_form"),
    ("cechcircle.classify", "allowed_types", "exact.allowed_types"),
    ("cechcircle.classify", "betti_gf2", "homology.oracle"),
    ("cechcircle.circle", "PointConfig.from_points", "circle.config"),
]

# Direct children of a montecarlo span that belong to one trial.
TRIAL_STEPS = {"montecarlo.rng", "montecarlo.sample", "circle.config", "classify", "circle.euler_dp"}

PATHS = ("full_simplex", "split", "arc", "covering")

NAME, START, END, PARENT = range(4)


def decision_path(positions, t) -> str:
    """How Cech(config, t) is decided, from the cyclic gaps of the sorted positions.

    split: more than one gap exceeds 2t (several components); full_simplex:
    the largest gap is >= 1 - 2t (one simplex); arc: exactly one gap exceeds
    2t; covering: no gap does, the arcs cover the circle.  These are gap
    categories, not branches of the classifier: for t < 1/4 a gap >= 1 - 2t
    also exceeds 2t, so a full_simplex config there takes classify's arc
    branch, and only t >= 1/4 reaches its covering full-simplex branch on
    the input config (dismantle can still reach it after deletions).
    """
    xs = positions
    gaps = [b - a for a, b in zip(xs, xs[1:])] + [1 - xs[-1] + xs[0]]
    breaks = sum(g > 2 * t for g in gaps)
    if breaks > 1:
        return "split"
    if max(gaps) >= 1 - 2 * t:
        return "full_simplex"
    return "arc" if breaks else "covering"


def resolve(module_name: str, path: str) -> tuple[object, str, object]:
    """(owner, attribute, raw attribute) of a boundary; AttributeError if the name is gone."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, inspect.getattr_static(owner, attr)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tracer:
    """Installs span-recording wrappers, and summarises the spans per layer."""

    def __init__(self):
        self.spans: list[list] = []
        self.classify_inputs: list[tuple] = []  # (positions, t) of each classify call
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (owner, attribute, original raw attribute)

    def _traced(self, name: str, fn):
        spans, stack = self.spans, self._stack
        record_input = self.classify_inputs.append if name == "classify" else None

        def traced(*args, **kwargs):
            if record_input is not None:
                record_input((args[0].positions, args[1]))
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][END] = perf_counter()
                stack.pop()

        return traced

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span of its own (the benchmark's root span)."""
        return self._traced(name, fn)(*args)

    def install(self):
        for module_name, path, name in BOUNDARIES:
            try:
                owner, attr, raw = resolve(module_name, path)
            except AttributeError:
                self.absent.append(f"{module_name}.{path}")
                continue
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._traced(name, raw.__func__))
            else:
                wrapped = self._traced(name, raw)
            setattr(owner, attr, wrapped)
            self._patched.append((owner, attr, raw))

    def remove(self):
        """Put every original back, and check that each one is in place."""
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        for owner, attr, raw in self._patched:
            if inspect.getattr_static(owner, attr) is not raw:
                raise RuntimeError(f"{attr} was not restored")
        self._patched.clear()

    def summary(self, calls: int, trials: int, scale: float) -> dict:
        """Per-layer metrics over `calls` traced CLI calls of `trials` trials in all.

        ``*_us`` is µs per trial (``*_ms`` per CLI call), ``.calls`` and
        ``classify.path.*`` are counts per CLI call, and ``.p50``/``.p99``
        are percentiles over single calls of that boundary.  Every time is
        multiplied by `scale`.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        count: dict[str, int] = {}
        durations: dict[str, list] = {}
        for i, s in enumerate(spans):
            d = (s[END] - s[START]) * scale
            total[s[NAME]] = total.get(s[NAME], 0.0) + d
            own[s[NAME]] = own.get(s[NAME], 0.0) + d - child_time[i] * scale
            count[s[NAME]] = count.get(s[NAME], 0) + 1
            durations.setdefault(s[NAME], []).append(d * 1e6)

        def per_trial_us(table, name):
            return table.get(name, 0.0) / trials * 1e6

        def per_call(name, n=None):
            n = count.get(name, 0) if n is None else n
            if n % calls:
                raise RuntimeError(f"{name}: {n} do not split evenly over {calls} identical runs")
            return n // calls

        trial_us = self._trial_us()
        paths = dict.fromkeys(PATHS, 0)
        for positions, t in self.classify_inputs:
            paths[decision_path(positions, t)] += 1

        return {
            "classify.classify_us.p50": percentile(durations.get("classify", []), 0.50),
            "classify.classify_us.p99": percentile(durations.get("classify", []), 0.99),
            "classify.self_us": per_trial_us(own, "classify"),
            "classify.calls": per_call("classify"),
            **{f"classify.path.{p}": per_call(p, c) for p, c in paths.items()},
            "circle.euler_dp_us": per_trial_us(total, "circle.euler_dp"),
            "circle.euler_dp.calls": per_call("circle.euler_dp"),
            "circle.config_us": per_trial_us(total, "circle.config"),
            "montecarlo.rng_us": per_trial_us(total, "montecarlo.rng"),
            "montecarlo.sample_us": per_trial_us(total, "montecarlo.sample"),
            "montecarlo.self_us": per_trial_us(own, "montecarlo"),
            "montecarlo.trial_us.p50": percentile(trial_us, 0.50) * scale,
            "montecarlo.trial_us.p99": percentile(trial_us, 0.99) * scale,
            "exact.allowed_types_us": per_trial_us(total, "exact.allowed_types"),
            "exact.allowed_types.calls": per_call("exact.allowed_types"),
            "exact.closed_form_ms": total.get("exact.closed_form", 0.0) / calls * 1e3,
            "homology.oracle.calls": per_call("homology.oracle"),
            "homology.oracle_us": per_trial_us(total, "homology.oracle"),
            "cli.self_ms": own.get("cli", 0.0) / calls * 1e3,
        }

    def _trial_us(self) -> list[float]:
        """A trial runs from one trial_rng call to the next; the last one of a
        montecarlo span ends with its last per-trial step."""
        children: dict[int, list] = {}
        for s in self.spans:
            if s[NAME] in TRIAL_STEPS and s[PARENT] >= 0:
                children.setdefault(s[PARENT], []).append(s)
        out = []
        for steps in children.values():
            starts = [s[START] for s in steps if s[NAME] == "montecarlo.rng"]
            if not starts:
                continue
            ends = starts[1:] + [max(s[END] for s in steps)]
            out.extend((e - b) * 1e6 for b, e in zip(starts, ends))
        return out
