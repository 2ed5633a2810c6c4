"""Call timing for the traced benchmark run.

The program is not edited: ``install`` replaces each traced function or
method at every name a caller looks it up by (the defining module and
every ``convext`` module that imported it by name), and ``uninstall`` puts
the originals back.  A wrapper adds each call (a span) to per-name totals
of time and calls, plus the counters listed in ``TARGETS``, and does
nothing but forward the call while the tracer is paused.

``<name>.s`` is the time inside the outermost call of that name,
``<name>.self_s`` that time minus the time covered by child spans.

``jet.peak_mb`` is the peak ``tracemalloc`` allocation inside the jet
layer's array kernels (``MEMORY_SPANS``).  Tracing is switched on only
there: in the intrinsic route's per-pair Python loop it costs 30 times the
loop's own time, which would swamp every traced figure.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from collections import Counter, defaultdict


def _rows(X, dim):
    return int(getattr(X, "size", len(X)) // dim)


def _count_pairs(counts, args, result):
    n = args[0].size
    counts["jet.pairs"] += n * (n - 1)


def _count_samples(counts, args, model):
    if model.dimension == 1:
        counts["envelope.samples"] += len(model.sample_x)
        counts["envelope.hull_vertices"] += len(model.hull_x)
    else:
        counts["envelope.samples"] += len(model.grid_points)


def _queries(span):
    """Counter of the points passed to a query method, and its metric name."""
    metric = f"{span}.queries"

    def count(counts, args, result):
        counts[metric] += _rows(args[1], args[0].dimension)

    return count, (metric,)


# (module, class or None, attribute, span name, aggregates reported as
#  "<span name>.<aggregate>", (counter, the count metrics it adds to) or None)
TARGETS = [
    ("convext.cli", None, "main", "cli.main", ("s", "self_s"), None),
    ("convext.jet", None, "pair_defects", "jet.pair_defects", (), (_count_pairs, ("jet.pairs",))),
    ("convext.jet", None, "seminorm_A_intrinsic", "jet.seminorm_A_intrinsic", ("s",), None),
    ("convext.jet", None, "seminorm_A_extrinsic", "jet.seminorm_A_extrinsic", ("s",), None),
    ("convext.jet", None, "compute_A", "jet.compute_A", ("s",), None),
    ("convext.jet", None, "feasibility_report", "jet.feasibility_report", ("s",), None),
    ("convext.jet", None, "lip_omega_gradients", "jet.lip_omega_gradients", ("s",), None),
    ("convext.modulus", "Modulus", "phi", "modulus.phi", ("calls", "s"), None),
    ("convext.modulus", "Modulus", "phi_star", "modulus.phi_star", ("calls", "s"), None),
    ("convext.envelope", None, "build_envelope", "envelope.build_envelope", ("s",),
     (_count_samples, ("envelope.samples", "envelope.hull_vertices"))),
    ("convext.envelope", "EnvelopeModel", "value_many", "envelope.value_many", ("s",),
     _queries("envelope.value_many")),
    ("convext.envelope", "EnvelopeModel", "lipschitz_value_many", "envelope.lipschitz_value_many",
     ("s",), _queries("envelope.lipschitz_value_many")),
    ("convext.envelope", "EnvelopeModel", "lipschitz_values_grid", "envelope.lipschitz_values_grid",
     ("s",), _queries("envelope.lipschitz_values_grid")),
    ("convext.envelope", "EnvelopeModel", "grid_envelope_values", "envelope.grid_envelope_values",
     ("s",), None),
    ("convext.envelope", None, "write_samples_csv", "envelope.write_samples_csv", ("self_s",), None),
    ("convext.lp", None, "convex_combination_min", "lp.convex_combination_min", ("calls", "s"), None),
    ("convext.extension", None, "build_extension", "extension.build_extension", ("s",), None),
    ("convext.extension", None, "verify_extension", "extension.verify_extension",
     ("s", "self_s"), None),
    ("convext.extension", "ExtensionModel", "gradient_many", "extension.gradient_many", ("s",), None),
    ("convext.c1", None, "c1_extend", "c1.c1_extend", ("s",), None),
    ("convext.c1", None, "build_construction", "c1.build_construction", ("s", "self_s"), None),
    ("convext.c1", None, "delta1_value", "c1.delta1_value", ("calls", "s"), None),
    ("convext.c1", None, "delta_many", "c1.delta_many", ("s",), None),
]

# The CLI's own time is reported under the module name.
RENAMED = {"cli.main.self_s": "cli.self_s"}

MEMORY_SPANS = {"jet.pair_defects", "jet.seminorm_A_extrinsic", "jet.lip_omega_gradients"}


class Tracer:
    """Per-name aggregates of the traced calls; paused until ``active`` is set."""

    def __init__(self):
        self.enabled = False    # trace the jobs of this pass
        self.active = False     # inside a job (the benchmark's own checks are not traced)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.jet_peak_bytes = 0
        self._stack = []        # time covered by children, per open span
        self._depth = Counter()
        self._memory_depth = 0
        self._restore = []

    def call(self, name, fn, count, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        memory = name in MEMORY_SPANS
        memory_outer = memory and self._memory_depth == 0
        self._memory_depth += memory
        if memory_outer:
            tracemalloc.start()
        self._stack.append(0.0)
        self._depth[name] += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            children = self._stack.pop()
            self._depth[name] -= 1
            self.calls[name] += 1
            self.self_time[name] += duration - children
            if self._depth[name] == 0:
                self.inclusive[name] += duration
            if self._stack:
                self._stack[-1] += duration
            self._memory_depth -= memory
            if memory_outer:
                self.jet_peak_bytes = max(self.jet_peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        if count is not None:
            count(self.counts, args, result)
        return result

    def install(self):
        """Wrap every target at each name it is looked up by."""
        for mod_name, cls_name, attr, name, _, counter in TARGETS:
            count = counter[0] if counter else None
            module = importlib.import_module(mod_name)
            if cls_name is not None:
                cls = getattr(module, cls_name)
                orig = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(name, orig, count))
                self._restore.append((cls, attr, orig))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(name, orig, count)
            for mod in list(sys.modules.values()):
                if mod is None or not mod.__name__.startswith("convext"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, count, args, kwargs)

        return wrapper

    def layer_seconds(self):
        """Self time per module (the span name up to its first dot), summed over spans."""
        layers = defaultdict(float)
        for name, seconds in self.self_time.items():
            layers[name.split(".")[0]] += seconds
        return layers

    def layer_metrics(self, passes):
        """Per-pass averages of the aggregates each target reports, keyed by metric name."""
        aggregates = {"s": (self.inclusive, "s"), "self_s": (self.self_time, "s"),
                      "calls": (self.calls, "count")}
        out = {}
        for _, _, _, name, reported, counter in TARGETS:
            for kind in reported:
                totals, unit = aggregates[kind]
                key = f"{name}.{kind}"
                out[RENAMED.get(key, key)] = (totals[name] / passes, unit)
            for metric in counter[1] if counter else ():
                out[metric] = (self.counts[metric] / passes, "count")
        out["jet.peak_mb"] = (self.jet_peak_bytes / 2**20, "MB")
        return out
