"""Per-layer spans around calls into qhsing, recorded from outside the program.

``install`` replaces every public function of each qhsing module, in the
module that binds it, by a wrapper that records a span (name, start, end,
parent span, job id); ``uninstall`` puts the originals back.  Spans carry
the name of the function's home module, so ``morse.gradient`` (bound by
``from .wpoly import gradient``) is recorded as ``wpoly.gradient``.

The per-point evaluators in ``HOT`` run about a million times per soliton
count.  Their calls are counted and timed like any other, and attributed
to the nearest enclosing span, but not stored as spans of their own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("wpoly", "symmetry", "graphcalc", "morse", "soliton", "lefschetz", "cli")

HOT = frozenset({"wpoly.value", "wpoly.gradient", "wpoly.hessian",
                 "morse.perturbed_value", "morse.perturbed_gradient",
                 "soliton.flow_field"})

# Private functions wrapped as well, to tell Newton's evaluations apart.
PRIVATE = frozenset({"morse._newton"})

GROUPS = {
    "graphcalc.surgery": ("graphcalc.cut_edge", "graphcalc.glue_tails",
                          "graphcalc.forget_tail"),
    "graphcalc.text": ("graphcalc.graph_to_text", "graphcalc.graph_from_text"),
    "lefschetz.moves": ("lefschetz.monodromy_apply", "lefschetz.braid_move",
                        "lefschetz.braid_move_inverse", "lefschetz.gabrielov_move",
                        "lefschetz.orientation_flip"),
    "lefschetz.tensor": ("lefschetz.casimir", "lefschetz.contract_pm"),
}

# Names the per-layer metrics read.  One that no longer exists is
# reported as missing and its metrics read 0.
EXPECTED = frozenset({
    "wpoly.parse_polynomial", "wpoly.gradient", "wpoly.hessian", "wpoly.value",
    "symmetry.enumerate_group", "symmetry.sector_data",
    "graphcalc.virtual_degree", "graphcalc.line_bundle_degrees",
    "morse.find_critical_points", "morse.detect_wall_crossings",
    "morse.perturbed_gradient", "morse._newton",
    "soliton.count_bps_solitons", "soliton.integrate_flow",
    "soliton.witten_vanishing_check", "soliton.fourier_bounded_solution",
    "lefschetz.wall_cross", "cli.main",
}.union(*GROUPS.values()))

SPAN_CAP = 200_000


class Tracer:
    """Open-span stack, per-name totals and the stored spans of one run."""

    def __init__(self):
        # Open frames: [child seconds, nearest span name, its index, next-outer span name].
        self.stack = []
        self.totals = defaultdict(lambda: [0, 0.0, 0.0, 0])  # calls, busy_s, self_s, failures
        self.under = Counter()  # (name, nearest span, next-outer span) -> calls
        self.spans = []      # (name, start, end, parent span index, job id)
        self.dropped = 0
        self.job = -1
        self.counts = Counter()
        self.targets = []    # j of each open count_bps_solitons call
        self.wrapped = set()
        self._patched = []

    def wrap(self, name, fn):
        tracer = self
        hot = name in HOT
        observe = OBSERVERS.get(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            if stack:
                _, near, near_idx, outer = stack[-1]
            else:
                near, near_idx, outer = "harness", -1, "harness"
            tracer.under[name, near, outer] += 1
            if hot:
                frame = [0.0, near, near_idx, outer]
            else:
                idx = len(tracer.spans)
                if idx < SPAN_CAP:
                    tracer.spans.append(None)
                else:
                    idx = -1
                    tracer.dropped += 1
                frame = [0.0, name, idx, near]
            if observe:
                observe.enter(tracer, args)
            stack.append(frame)
            ok = False
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                tot = tracer.totals[name]
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - frame[0]
                if not ok:
                    tot[3] += 1
                if not hot and frame[2] >= 0:
                    tracer.spans[frame[2]] = (name, t0, t1, near_idx, tracer.job)
                if observe:
                    observe.leave(tracer, near, result if ok else None)
            return result

        traced.__bench_traced__ = True
        return traced

    def install(self) -> None:
        for layer in LAYERS:
            mod = importlib.import_module(f"qhsing.{layer}")
            for attr, obj in list(vars(mod).items()):
                if (not inspect.isfunction(obj) or getattr(obj, "__bench_traced__", False)
                        or not obj.__module__.startswith("qhsing.")):
                    continue
                name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                if attr.startswith("_") and name not in PRIVATE:
                    continue
                setattr(mod, attr, self.wrap(name, obj))
                self._patched.append((mod, attr, obj))
                self.wrapped.add(name)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    @property
    def missing(self) -> list[str]:
        return sorted(EXPECTED - self.wrapped)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\tjob\n")
            for k, span in enumerate(self.spans):
                if span is not None:
                    name, t0, t1, parent, job = span
                    fh.write(f"{k}\t{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{job}\n")


class _Observer:
    def enter(self, tracer, args):
        pass

    def leave(self, tracer, near, result):
        pass


class _Count(_Observer):
    def enter(self, tracer, args):
        tracer.targets.append(args[3] if len(args) > 3 else None)

    def leave(self, tracer, near, result):
        tracer.targets.pop()


class _Flow(_Observer):
    def leave(self, tracer, near, result):
        if result is None:
            return
        tracer.counts["rk_samples"] += result.n_steps
        if near == "soliton.count_bps_solitons":
            tracer.counts["shots"] += 1
            if not result.escaped and result.endpoints[1] == tracer.targets[-1]:
                tracer.counts["captures"] += 1


class _Length(_Observer):
    def __init__(self, key, size=len):
        self.key, self.size = key, size

    def leave(self, tracer, near, result):
        if result is not None:
            tracer.counts[self.key] += self.size(result)


OBSERVERS = {
    "soliton.count_bps_solitons": _Count(),
    "soliton.integrate_flow": _Flow(),
    "morse.detect_wall_crossings": _Length("walls_found"),
    "morse.find_critical_points": _Length("roots_found", lambda m: m.mu),
    "symmetry.enumerate_group": _Length("group_elements"),
}


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tr: Tracer, check_s: float, overhead_ratio: float) -> dict[str, float]:
    """Every per-layer metric of the benchmark from one traced run."""
    zero = [0, 0.0, 0.0, 0]
    totals = {k: list(v) for k, v in tr.totals.items()}
    for group, members in GROUPS.items():
        totals[group] = [sum(col) for col in zip(*(totals.get(m, zero) for m in members))]

    def t(name):
        return totals.get(name, zero)

    def under(name, near, outer=None):
        return sum(c for (n, a, o), c in tr.under.items()
                   if n == name and a == near and (outer is None or o == outer))

    out: dict[str, float] = {}
    fields = {"calls": 0, "busy_s": 1, "self_s": 2, "failures": 3}
    wanted = {
        "wpoly.parse_polynomial": ("calls", "busy_s"),
        "wpoly.gradient": ("calls", "busy_s", "us_per_call"),
        "wpoly.hessian": ("calls", "busy_s"),
        "wpoly.value": ("calls", "busy_s"),
        "symmetry.enumerate_group": ("calls", "busy_s"),
        "symmetry.sector_data": ("calls", "busy_s", "us_per_call"),
        "graphcalc.virtual_degree": ("calls", "busy_s", "self_s"),
        "graphcalc.line_bundle_degrees": ("calls", "busy_s"),
        "graphcalc.surgery": ("calls", "busy_s"),
        "graphcalc.text": ("calls", "busy_s"),
        "morse.find_critical_points": ("calls", "busy_s", "self_s", "failures"),
        "morse.detect_wall_crossings": ("calls", "busy_s", "self_s", "failures"),
        "soliton.count_bps_solitons": ("calls", "busy_s", "self_s"),
        "soliton.integrate_flow": ("calls", "busy_s", "self_s", "failures"),
        "soliton.witten_vanishing_check": ("calls", "busy_s"),
        "soliton.fourier_bounded_solution": ("calls", "busy_s"),
        "lefschetz.moves": ("calls", "busy_s"),
        "lefschetz.wall_cross": ("calls", "busy_s"),
        "lefschetz.tensor": ("calls", "busy_s"),
        "cli.main": ("calls", "busy_s", "self_s"),
    }
    for name, keys in wanted.items():
        row = t(name)
        for key in keys:
            if key == "us_per_call":
                out[f"{name}.{key}"] = 1e6 * _ratio(row[1], row[0])
            else:
                out[f"{name}.{key}"] = row[fields[key]]
    out["symmetry.enumerate_group.elements"] = tr.counts["group_elements"]

    out["morse.newton_grad_evals"] = under("wpoly.gradient", "morse._newton")
    out["morse.newton_hess_evals"] = under("wpoly.hessian", "morse._newton")
    out["morse.grad_evals_per_root"] = _ratio(
        under("wpoly.gradient", "morse._newton", "morse.find_critical_points"),
        tr.counts["roots_found"])
    out["morse.walls_found"] = tr.counts["walls_found"]

    flow = t("soliton.integrate_flow")
    rhs = under("morse.perturbed_gradient", "soliton.integrate_flow")
    shots = tr.counts["shots"]
    out["soliton.rk_samples"] = tr.counts["rk_samples"]
    out["soliton.rhs_evals"] = rhs
    out["soliton.rhs_evals_per_shot"] = _ratio(rhs, flow[0])
    out["soliton.us_per_rhs"] = 1e6 * _ratio(flow[1], rhs)
    out["soliton.shots_per_count"] = _ratio(shots, t("soliton.count_bps_solitons")[0])
    out["soliton.capture_ratio"] = _ratio(tr.counts["captures"], shots)

    out["harness.check_s"] = check_s
    out["trace.overhead_ratio"] = overhead_ratio
    out["trace.missing"] = len(tr.missing)
    out["trace.spans"] = len(tr.spans) + tr.dropped
    return out
