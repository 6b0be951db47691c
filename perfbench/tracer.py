"""Per-layer spans for the traced benchmark run.

The tracer replaces selected public functions of the cubicount modules
with timing wrappers, from the outside: every module-level binding of the
same function object is patched (``bridge`` holds its own ``picard_group``
from ``from .quad import ...``), and methods are patched on their class.
A function that does not exist reads as absent and its metrics as 0, so
the benchmark keeps working when a later version deletes a layer.

Self time is a span's duration minus the time of the wrapped calls made
inside it; all times are integer nanoseconds until they are reported.
Hot leaves such as ``quad.order`` and ``forms.act`` are not wrapped: at
hundreds of thousands to millions of calls per run the wrapper would cost
more than the work it measures.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
from time import perf_counter_ns

# (module, function or Class.method) pairs that get a span.  Every one
# reports <module>.<name>.calls and <module>.<name>.self_s.
SPANS = (
    ("counting", "orbit_table"),
    ("counting", "class_numbers"),
    ("counting", "h_value"),
    ("counting", "s_sequence"),
    ("forms", "orbit_closure"),
    ("forms", "reduce_form"),
    ("forms", "canonicalize"),
    ("rings", "ring_from_form"),
    ("rings", "is_maximal"),
    ("rings", "is_maximal_at_p"),
    ("rings", "splitting_type"),
    ("rings", "subrings_of_index"),
    ("quad", "picard_group"),
    ("quad", "is_principal"),
    ("quad", "elements_of_norm"),
    ("quad", "ideals_of_norm"),
    ("quad", "PicGroup.class_of"),
    ("quad", "fundamental_unit"),
    ("quad", "mu3_characters"),
    ("bridge", "check_scholz"),
    ("bridge", "rhs_count"),
    ("bridge", "lhs_count"),
    ("bridge", "check_fields_pic"),
    ("bridge", "check_prop_3notdiv"),
    ("bridge", "extract_triple"),
    ("bridge", "triple_to_J"),
)

# per-call latency distribution is kept for these spans only
LATENCY = ("bridge.check_scholz", "bridge.rhs_count")

# metrics beyond calls/self_s, with their units
EXTRA = (
    ("counting.orbit_table.repeat_calls", "count"),
    ("counting.orbit_table.repeat_s", "s"),
    ("counting.orbits_enumerated", "count"),
    ("forms.orbit_closure.forms", "count"),
    ("rings.subrings_of_index.found", "count"),
    ("quad.picard_group.builds", "count"),
    ("quad.picard_group.total_s", "s"),
    ("quad.picard_group.max_s", "s"),
    ("quad.picard_group.classes", "count"),
    ("quad.is_principal.hits", "count"),
    ("quad.is_principal.hit_ratio", "ratio"),
    ("quad.elements_of_norm.elements", "count"),
) + tuple(
    ("%s.%s" % (name, stat), "s") for name in LATENCY for stat in ("p50_s", "p90_s", "max_s")
)


def metric_units():
    """Every per-layer metric name the traced run reports, with its unit,
    in report order (``cli.*`` and ``trace_overhead_s`` are added by the
    runner)."""
    out = [("cli.self_s", "s"), ("cli.out_bytes", "bytes")]
    for module, name in SPANS:
        out.append(("%s.%s.calls" % (module, name), "count"))
        out.append(("%s.%s.self_s" % (module, name), "s"))
    out.extend(EXTRA)
    out.append(("trace_overhead_s", "s"))
    return out


class _Span:
    __slots__ = ("calls", "self_ns", "total_ns", "max_ns", "depth", "durations")

    def __init__(self, keep_durations):
        self.calls = 0
        self.self_ns = 0
        self.total_ns = 0  # outermost activations only, so recursion is not double counted
        self.max_ns = 0
        self.depth = 0
        self.durations = [] if keep_durations else None


class Tracer:
    """Spans and counters for one process.  Create, ``install()`` once
    cubicount is imported, run the workload, then read ``metrics()``."""

    def __init__(self):
        self.spans = {}
        self.absent = []
        self.top_ns = 0  # time inside outermost wrapped calls
        self._stack = []  # per open span: ns spent in its wrapped children
        self.counts = {name: 0 for name, unit in EXTRA if unit == "count"}
        self.repeat_ns = 0
        self._orbit_max_x = {}  # zmat flag -> largest X requested so far
        self._orbit_sizes = {}  # zmat flag -> largest table returned
        self._pic_keys = set()

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "cubicount" or n.startswith("cubicount."))
        ]
        hooks = {
            "counting.orbit_table": (self._orbit_pre, self._orbit_post),
            "forms.orbit_closure": (None, self._closure_post),
            "rings.subrings_of_index": (None, self._subrings_post),
            "quad.picard_group": (self._pic_pre, self._pic_post),
            "quad.is_principal": (None, self._principal_post),
            "quad.elements_of_norm": (None, self._elements_post),
        }
        for module, name in SPANS:
            full = "%s.%s" % (module, name)
            owner = sys.modules.get("cubicount." + module)
            *path, attr = name.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                self.absent.append(full)
                continue
            pre, post = hooks.get(full, (None, None))
            wrapper = self._wrap(full, fn, pre, post)
            if path:
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapper)

    def _wrap(self, full, fn, pre, post):
        span = self.spans[full] = _Span(full in LATENCY)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = pre(fn, args, kwargs) if pre is not None else None
            stack.append(0)
            span.depth += 1
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                span.depth -= 1
                inner = stack.pop()
                if stack:
                    stack[-1] += dt
                else:
                    self.top_ns += dt
                span.calls += 1
                span.self_ns += dt - inner
                if span.depth == 0:
                    span.total_ns += dt
                    span.max_ns = max(span.max_ns, dt)
                    if span.durations is not None:
                        span.durations.append(dt)
            if post is not None:
                post(state, result, dt)
            return result

        return wrapper

    # -- counters ----------------------------------------------------------

    @staticmethod
    def _leading_args(fn, args, kwargs, n):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        return list(bound.arguments.values())[:n]

    def _orbit_pre(self, fn, args, kwargs):
        X, zmat = self._leading_args(fn, args, kwargs, 2)
        zmat = bool(zmat)
        return X, zmat, X <= self._orbit_max_x.get(zmat, -1)

    def _orbit_post(self, state, table, dt):
        X, zmat, repeat = state
        if repeat:
            self.counts["counting.orbit_table.repeat_calls"] += 1
            self.repeat_ns += dt
            return
        self._orbit_max_x[zmat] = X
        size = sum(len(orbs) for orbs in table.values())
        self._orbit_sizes[zmat] = max(size, self._orbit_sizes.get(zmat, 0))

    def _closure_post(self, state, closure, dt):
        self.counts["forms.orbit_closure.forms"] += len(closure.forms)

    def _subrings_post(self, state, found, dt):
        self.counts["rings.subrings_of_index.found"] += len(found)

    def _pic_pre(self, fn, args, kwargs):
        key = (args, tuple(sorted(kwargs.items())))
        if key in self._pic_keys:
            return None
        self._pic_keys.add(key)
        return key

    def _pic_post(self, key, group, dt):
        if key is not None:
            self.counts["quad.picard_group.builds"] += 1
            self.counts["quad.picard_group.classes"] += len(group)

    def _principal_post(self, state, result, dt):
        if result[0]:
            self.counts["quad.is_principal.hits"] += 1

    def _elements_post(self, state, elements, dt):
        self.counts["quad.elements_of_norm.elements"] += len(elements)

    # -- report ------------------------------------------------------------

    def metrics(self):
        """dict name -> value for every span and counter (absent layers
        read 0).  ``cli.*`` and ``trace_overhead_s`` are not included."""
        out = {}
        for module, name in SPANS:
            span = self.spans.get("%s.%s" % (module, name))
            out["%s.%s.calls" % (module, name)] = span.calls if span else 0
            out["%s.%s.self_s" % (module, name)] = span.self_ns / 1e9 if span else 0.0
        out.update(self.counts)
        out["counting.orbit_table.repeat_s"] = self.repeat_ns / 1e9
        out["counting.orbits_enumerated"] = sum(self._orbit_sizes.values())
        pic = self.spans.get("quad.picard_group")
        out["quad.picard_group.total_s"] = pic.total_ns / 1e9 if pic else 0.0
        out["quad.picard_group.max_s"] = pic.max_ns / 1e9 if pic else 0.0
        tests = out["quad.is_principal.calls"]
        out["quad.is_principal.hit_ratio"] = out["quad.is_principal.hits"] / tests if tests else 0.0
        for name in LATENCY:
            span = self.spans.get(name)
            d = sorted(span.durations) if span else []
            out[name + ".p50_s"] = statistics.median(d) / 1e9 if d else 0.0
            out[name + ".p90_s"] = (statistics.quantiles(d, n=10)[8] if len(d) > 1 else sum(d)) / 1e9
            out[name + ".max_s"] = d[-1] / 1e9 if d else 0.0
        return out
