"""Outside-in tracing of wkbspec: wrappers installed on the library's names.

The library itself carries no instrumentation, so the benchmark replaces
the module attributes that callers look up with timing wrappers.  A
function imported by name into several modules has one binding per module,
and every binding is patched, otherwise calls made through the unpatched
one would go unseen.

Three kinds of hooks:

* span hooks record (name, op id, parent span, start, end) for layer entry
  points; spans stay in memory and are written out when the run ends;
* timed hooks are leaves called thousands of times per op (fixed
  Dormand-Prince steps, the split quadrature); they add a count and a time
  and charge that time to the enclosing span, without a span record each;
* count hooks only count calls (Muller updates, phase hops, F evaluations,
  right-hand-side evaluations).

A binding that no longer exists is recorded as absent, so a later change
that deletes a kernel makes its metrics read "absent" instead of crashing
the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import warnings
from collections import Counter

# name -> bindings ("module:attribute") to patch
SPAN_HOOKS = {
    "cli.main": ["wkbspec.cli:main"],
    "spectrum.real_spectrum": ["wkbspec.spectrum:real_spectrum", "wkbspec:real_spectrum"],
    "spectrum.complex_spectrum": [
        "wkbspec.spectrum:complex_spectrum", "wkbspec.cli:complex_spectrum", "wkbspec:complex_spectrum",
    ],
    "spectrum.s_numbers": ["wkbspec.spectrum:s_numbers", "wkbspec.cli:s_numbers", "wkbspec:s_numbers"],
    "spectrum._shoot_many": ["wkbspec.spectrum:_shoot_many"],
    "spectrum.apply_inverse": [
        "wkbspec.spectrum:apply_inverse", "wkbspec.cli:apply_inverse", "wkbspec:apply_inverse",
    ],
    "spectrum.homogeneous_pair": ["wkbspec.spectrum:homogeneous_pair", "wkbspec:homogeneous_pair"],
    "numerics.integrate_ode_contour": [
        "wkbspec.numerics:integrate_ode_contour", "wkbspec.spectrum:integrate_ode_contour",
        "wkbspec:integrate_ode_contour",
    ],
    "numerics.refine_brackets": ["wkbspec.numerics:refine_brackets", "wkbspec.spectrum:refine_brackets"],
    "actions.action": ["wkbspec.stokes:action"],
    "actions.action_with_phase": ["wkbspec.threshold:action_with_phase"],
    "stokes.trace_stokes_curve": ["wkbspec.stokes:trace_stokes_curve", "wkbspec:trace_stokes_curve"],
    "stokes.build_stokes_graph": [
        "wkbspec.stokes:build_stokes_graph", "wkbspec.cli:build_stokes_graph", "wkbspec:build_stokes_graph",
    ],
    "stokes.numerical_ray_extremum": [
        "wkbspec.stokes:numerical_ray_extremum", "wkbspec.cli:numerical_ray_extremum",
        "wkbspec:numerical_ray_extremum",
    ],
    "threshold.solve_theta0": [
        "wkbspec.threshold:solve_theta0", "wkbspec.cli:solve_theta0", "wkbspec:solve_theta0",
    ],
    "svgplot.render_stokes_svg": ["wkbspec.svgplot:render_stokes_svg", "wkbspec.cli:render_stokes_svg"],
}

TIMED_HOOKS = {
    # only the direct calls from spectrum: the Holder stretch and node marching
    "numerics._dp_step": ["wkbspec.spectrum:_dp_step"],
    "actions.half_line_integral_split": [
        "wkbspec.threshold:half_line_integral_split", "wkbspec.actions:half_line_integral_split",
        "wkbspec:half_line_integral_split",
    ],
}

COUNT_HOOKS = {
    "numerics._muller_update": ["wkbspec.spectrum:_muller_update", "wkbspec.numerics:_muller_update"],
    # the recursion inside actions looks the name up in its module, so it is counted too
    "actions._track_phase_between": ["wkbspec.actions:_track_phase_between", "wkbspec.stokes:_track_phase_between"],
    "threshold.f_theta": ["wkbspec.threshold:f_theta", "wkbspec.cli:f_theta", "wkbspec:f_theta"],
}

# span record fields; COVERED is the time taken by the span's direct children
NAME, OP, PARENT, START, END, COVERED = range(6)


class Tracer:
    """Span and counter store for one traced run (one process, one thread)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.timed_s = Counter()
        self.raised = Counter()
        self.absent = []
        self.seen = {"real_spectrum": set(), "homogeneous_pair": set()}
        self.reused = Counter()
        self.op = "setup"

    # -- recording ---------------------------------------------------------
    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        rec = [name, self.op, parent, time.perf_counter(), None, 0.0]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self.stack.pop()
        if rec[PARENT] >= 0:
            self.spans[rec[PARENT]][COVERED] += rec[END] - rec[START]

    def span(self, name, fn, args, kwargs):
        rec = self._open(name)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            parent = self.spans[rec[PARENT]][NAME] if rec[PARENT] >= 0 else ""
            if name.startswith("spectrum.") and not parent.startswith("spectrum."):
                self.raised[type(exc).__name__] += 1
            raise
        finally:
            self._close(rec)

    def timed(self, name, fn, args, kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self.counts[name] += 1
            self.timed_s[name] += dt
            if self.stack:
                self.spans[self.stack[-1]][COVERED] += dt

    # -- wrappers ------------------------------------------------------------
    def _wrap(self, kind, name, fn):
        special = _SPECIAL.get(name)
        if special is not None:
            return special(self, name, fn)
        if kind == "span":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.span(name, fn, args, kwargs)
        elif kind == "timed":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.timed(name, fn, args, kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Patch every binding; one wrapper per original function object."""
        for kind, table in (("span", SPAN_HOOKS), ("timed", TIMED_HOOKS), ("count", COUNT_HOOKS)):
            for name, bindings in table.items():
                wrapped = {}
                for binding in bindings:
                    mod_name, attr = binding.split(":")
                    mod = importlib.import_module(mod_name)
                    fn = getattr(mod, attr, None)
                    if fn is None:
                        self.absent.append(binding)
                        continue
                    if id(fn) not in wrapped:
                        wrapped[id(fn)] = self._wrap(kind, name, fn)
                    setattr(mod, attr, wrapped[id(fn)])

    def dump(self):
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "timed_s": dict(self.timed_s),
            "raised": dict(self.raised),
            "reused": dict(self.reused),
            "absent": self.absent,
        }


# ---------------------------------------------------------------------------
# hooks that need more than a span
# ---------------------------------------------------------------------------

def _reuse_span(key_fn):
    def make(tracer, name, fn):
        short = name.split(".")[1]
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = key_fn(sig.bind(*args, **kwargs))
            if key in tracer.seen[short]:
                tracer.reused[short] += 1
            tracer.seen[short].add(key)
            return tracer.span(name, fn, args, kwargs)
        return wrapper
    return make


def _real_spectrum_key(bound):
    bound.apply_defaults()
    a = bound.arguments
    return (float(a["alpha"]), int(a["n_max"]), a["X"], float(a["tol"]))


def _pair_key(bound):
    return bound.arguments["spec"]


def _shoot_many(tracer, name, fn):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        lams = sig.bind(*args, **kwargs).arguments["lams"]
        tracer.counts["spectrum.shoot_lanes"] += int(getattr(lams, "size", len(lams)))
        return tracer.span(name, fn, args, kwargs)
    return wrapper


def _integrate_ode_contour(tracer, name, fn):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        field = bound.arguments["field"]
        shape = getattr(bound.arguments["start"], "shape", ())
        width = shape[-1] if len(shape) == 2 else 1

        def counted_field(z, state):
            tracer.counts["numerics.rhs_evals"] += 1
            tracer.counts["numerics.rhs_lane_evals"] += width
            return field(z, state)

        bound.arguments["field"] = counted_field
        return tracer.span(name, fn, bound.args, bound.kwargs)
    return wrapper


def _refine_brackets(tracer, name, fn):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        f_many = bound.arguments["f_many"]

        def counted(x):
            tracer.counts["numerics.refine_rounds"] += 1
            return f_many(x)

        bound.arguments["f_many"] = counted
        return tracer.span(name, fn, bound.args, bound.kwargs)
    return wrapper


def _trace_stokes_curve(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        curve = tracer.span(name, fn, args, kwargs)
        tracer.counts["stokes.trace_points"] += len(curve.points)
        return curve
    return wrapper


def _build_stokes_graph(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            graph = tracer.span(name, fn, args, kwargs)
        for w in caught:
            if issubclass(w.category, RuntimeWarning):
                tracer.counts["stokes.compound_warnings"] += 1
            # hand the warning on, so behaviour outside the trace is unchanged
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return graph
    return wrapper


_SPECIAL = {
    "spectrum.real_spectrum": _reuse_span(_real_spectrum_key),
    "spectrum.homogeneous_pair": _reuse_span(_pair_key),
    "spectrum._shoot_many": _shoot_many,
    "numerics.integrate_ode_contour": _integrate_ode_contour,
    "numerics.refine_brackets": _refine_brackets,
    "stokes.trace_stokes_curve": _trace_stokes_curve,
    "stokes.build_stokes_graph": _build_stokes_graph,
}


# ---------------------------------------------------------------------------
# per-layer metrics from one run's dump
# ---------------------------------------------------------------------------

LAYERS = ("cli", "spectrum", "numerics", "actions", "stokes", "threshold", "svgplot")

# metric -> (unit, hook it is measured at)
PER_LAYER = {
    "spectrum.reference_s": ("s", "spectrum.real_spectrum"),
    "spectrum.reference_reuse": ("ratio", "spectrum.real_spectrum"),
    "spectrum.polish_s": ("s", "spectrum.complex_spectrum"),
    "spectrum.shoot_calls": ("count", "spectrum._shoot_many"),
    "spectrum.shoot_s": ("s", "spectrum._shoot_many"),
    "spectrum.shoot_lanes": ("count", "spectrum._shoot_many"),
    "spectrum.march_s": ("s", "spectrum.homogeneous_pair"),
    "spectrum.pair_reuse": ("ratio", "spectrum.homogeneous_pair"),
    "spectrum.green_s": ("s", "spectrum.apply_inverse"),
    "spectrum.raised": ("count", None),
    "numerics.ode_calls": ("count", "numerics.integrate_ode_contour"),
    "numerics.ode_s": ("s", "numerics.integrate_ode_contour"),
    "numerics.rhs_evals": ("count", "numerics.integrate_ode_contour"),
    "numerics.rhs_lane_evals": ("count", "numerics.integrate_ode_contour"),
    "numerics.rhs_us": ("us", "numerics.integrate_ode_contour"),
    "numerics.fixed_steps": ("count", "numerics._dp_step"),
    "numerics.fixed_step_s": ("s", "numerics._dp_step"),
    "numerics.refine_rounds": ("count", "numerics.refine_brackets"),
    "numerics.refine_s": ("s", "numerics.refine_brackets"),
    "numerics.muller_updates": ("count", "numerics._muller_update"),
    "actions.action_calls": ("count", "actions.action"),
    "actions.action_s": ("s", "actions.action"),
    "actions.phase_hops": ("count", "actions._track_phase_between"),
    "actions.split_s": ("s", "actions.half_line_integral_split"),
    "stokes.trace_calls": ("count", "stokes.trace_stokes_curve"),
    "stokes.trace_points": ("count", "stokes.trace_stokes_curve"),
    "stokes.trace_s": ("s", "stokes.trace_stokes_curve"),
    "stokes.extremum_s": ("s", "stokes.numerical_ray_extremum"),
    "stokes.compound_warnings": ("count", "stokes.build_stokes_graph"),
    "threshold.f_evals": ("count", "threshold.f_theta"),
    "threshold.solve_s": ("s", "threshold.solve_theta0"),
    "svgplot.render_s": ("s", "svgplot.render_stokes_svg"),
    **{f"{layer}.self_s": ("s", None) for layer in LAYERS},
    "cli.bytes_out": ("bytes", None),
    "trace.wall_s": ("s", None),
    "trace.overhead_s": ("s", None),
}


def absent_hooks(dump) -> set:
    """Hooks none of whose bindings exist any more."""
    gone = set(dump["absent"])
    return {
        name
        for table in (SPAN_HOOKS, TIMED_HOOKS, COUNT_HOOKS)
        for name, bindings in table.items()
        if all(b in gone for b in bindings)
    }


def layer_metrics(dump) -> dict:
    """Per-layer values of one traced run (all but cli.bytes_out and trace.*)."""
    spans, counts, timed = dump["spans"], Counter(dump["counts"]), Counter(dump["timed_s"])
    dur = [s[END] - s[START] for s in spans]
    idx = {}
    for i, s in enumerate(spans):
        idx.setdefault(s[NAME], []).append(i)

    def total(name):
        return sum(dur[i] for i in idx.get(name, ()))

    def calls(name):
        return len(idx.get(name, ()))

    def nested_total(child, ancestor):
        """Time in `child` spans that run inside an `ancestor` span."""
        out = 0.0
        for i in idx.get(child, ()):
            p = spans[i][PARENT]
            while p >= 0 and spans[p][NAME] != ancestor:
                p = spans[p][PARENT]
            out += dur[i] if p >= 0 else 0.0
        return out

    def share(reused, n):
        return reused / n if n else 0.0

    self_s = Counter()
    for i, s in enumerate(spans):
        self_s[s[NAME].split(".")[0]] += dur[i] - s[COVERED]
    for name, t in timed.items():
        self_s[name.split(".")[0]] += t
    reused = dump["reused"]
    ode_s, rhs = total("numerics.integrate_ode_contour"), counts["numerics.rhs_evals"]
    out = {
        "spectrum.reference_s": total("spectrum.real_spectrum"),
        "spectrum.reference_reuse": share(reused.get("real_spectrum", 0), calls("spectrum.real_spectrum")),
        "spectrum.polish_s": total("spectrum.complex_spectrum")
        - nested_total("spectrum.real_spectrum", "spectrum.complex_spectrum"),
        "spectrum.shoot_calls": calls("spectrum._shoot_many"),
        "spectrum.shoot_s": total("spectrum._shoot_many"),
        "spectrum.shoot_lanes": counts["spectrum.shoot_lanes"],
        "spectrum.march_s": total("spectrum.homogeneous_pair"),
        "spectrum.pair_reuse": share(reused.get("homogeneous_pair", 0), calls("spectrum.homogeneous_pair")),
        "spectrum.green_s": total("spectrum.apply_inverse")
        - nested_total("spectrum.homogeneous_pair", "spectrum.apply_inverse"),
        "spectrum.raised": sum(dump["raised"].values()),
        "numerics.ode_calls": calls("numerics.integrate_ode_contour"),
        "numerics.ode_s": ode_s,
        "numerics.rhs_evals": rhs,
        "numerics.rhs_lane_evals": counts["numerics.rhs_lane_evals"],
        "numerics.rhs_us": 1e6 * ode_s / rhs if rhs else 0.0,
        "numerics.fixed_steps": counts["numerics._dp_step"],
        "numerics.fixed_step_s": timed["numerics._dp_step"],
        "numerics.refine_rounds": counts["numerics.refine_rounds"],
        "numerics.refine_s": total("numerics.refine_brackets"),
        "numerics.muller_updates": counts["numerics._muller_update"],
        "actions.action_calls": calls("actions.action") + calls("actions.action_with_phase"),
        "actions.action_s": total("actions.action") + total("actions.action_with_phase"),
        "actions.phase_hops": counts["actions._track_phase_between"],
        "actions.split_s": timed["actions.half_line_integral_split"],
        "stokes.trace_calls": calls("stokes.trace_stokes_curve"),
        "stokes.trace_points": counts["stokes.trace_points"],
        "stokes.trace_s": total("stokes.trace_stokes_curve"),
        "stokes.extremum_s": total("stokes.numerical_ray_extremum"),
        "stokes.compound_warnings": counts["stokes.compound_warnings"],
        "threshold.f_evals": counts["threshold.f_theta"],
        "threshold.solve_s": total("threshold.solve_theta0"),
        "svgplot.render_s": total("svgplot.render_stokes_svg"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    return out
