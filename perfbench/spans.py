"""Timing spans for the traced run, installed on katolab from outside.

Nothing under ``src/`` knows about tracing. ``install`` replaces each layer
function listed in ``LAYERS`` with a wrapper that opens a span, calls the
original and closes the span. A function imported by name (``from .core
import idft``) is looked up by its callers in their own module, so the
wrapper is bound under every katolab module attribute that holds the
original object: ``core.idft``, ``propagator.idft`` and ``wavepackets.idft``
all become the same wrapper.

A span records its name, start, end, parent span and the work counts taken
at that boundary. Spans stay in memory; the worker writes them out when the
traced pass ends. A span's self time is its duration minus the part of it
that its child spans cover, so the self times of all spans, the root
included, add up to the root's duration.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts: dict | None = None

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "counts": self.counts or {}}


class Tracer:
    """Nested spans of one single-threaded pass; parent -1 marks a root."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), parent))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int, counts: dict | None = None) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx].name!r} closed out of order")
        self._stack.pop()
        span = self.spans[idx]
        span.end = self.clock()
        span.counts = counts


def self_times(spans) -> list:
    """Each span's duration minus the union of its children's intervals."""
    kids = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            kids[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted(kids[i]):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        out.append((s.end - s.start) - covered)
    return out


# ---------------------------------------------------------------------------
# The layers of katolab and the work counted at each boundary
# ---------------------------------------------------------------------------


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _file_bytes(pos: int):
    def count(args, kwargs, result):
        return {"bytes": os.path.getsize(_arg(args, kwargs, pos, "path"))}
    return count


LAYERS = (
    # span name, "module:attribute", time metric, counts taken at the boundary
    ("opnorm.kernel_apply", "katolab.opnorm:_FastKernel.apply",
     "opnorm.kernel_apply.s", None),
    ("opnorm.operator_norm_l2", "katolab.opnorm:operator_norm_l2",
     "opnorm.operator_norm_l2.s",
     lambda a, k, r: {"iterations": r.iterations, "modes": r.mode_count}),
    ("opnorm.dense_eig", "katolab.opnorm:operator_norm_dense_eig",
     "opnorm.dense_eig.s", None),
    ("opnorm.lower_bound_mixed", "katolab.opnorm:lower_bound_mixed",
     "opnorm.lower_bound_mixed.s",
     lambda a, k, r: {"evals": r.evaluations, "ascent_gain": r.ascent_gain}),
    ("opnorm.eval_mixed", "katolab.opnorm:_eval_mixed",
     "opnorm.eval_mixed.s", None),
    ("opnorm.quotient_gradient", "katolab.opnorm:_quotient_gradient",
     "opnorm.quotient_gradient.s", None),
    ("norms.mixed_norm", "katolab.norms:mixed_norm", "norms.mixed_norm.s",
     lambda a, k, r: {"samples": _arg(a, k, 0, "u").slices.size}),
    ("core.dft", "katolab.core:dft", "core.fft.s", None),
    ("core.idft", "katolab.core:idft", "core.fft.s", None),
    ("core.write_field", "katolab.core:write_field", "core.io.s", _file_bytes(1)),
    ("core.read_field", "katolab.core:read_field", "core.io.s", _file_bytes(0)),
    ("core.write_spacetime", "katolab.core:write_spacetime", "core.io.s",
     _file_bytes(1)),
    ("core.read_spacetime", "katolab.core:read_spacetime", "core.io.s",
     _file_bytes(0)),
    ("propagator.propagate", "katolab.propagator:propagate",
     "propagator.propagate.s",
     lambda a, k, r: {"slices": len(r.times)}),
    ("wavepackets.decompose", "katolab.wavepackets:decompose",
     "wavepackets.decompose.s",
     lambda a, k, r: {"packets": len(r.packets), "dropped": r.dropped_count}),
    ("wavepackets.reconstruct", "katolab.wavepackets:reconstruct",
     "wavepackets.reconstruct.s", None),
    ("wavepackets.almost_orthogonality", "katolab.wavepackets:almost_orthogonality",
     "wavepackets.almost_orthogonality.s", None),
    ("wavepackets.packet_kernel", "katolab.wavepackets:packet_kernel",
     "wavepackets.packet_kernel.s", None),
    ("wavepackets.max_overlap", "katolab.wavepackets:max_overlap",
     "wavepackets.max_overlap.s", None),
    ("sparse.sparse_decompose", "katolab.sparse:sparse_decompose",
     "sparse.sparse_decompose.s",
     lambda a, k, r: {"points": len(_arg(a, k, 0, "E")),
                      "families": sum(len(lv.families) for lv in r)}),
    ("sparse.audit_decomposition", "katolab.sparse:audit_decomposition",
     "sparse.audit_decomposition.s", None),
    ("sparse.decoupling_check", "katolab.sparse:decoupling_check",
     "sparse.decoupling_check.s", None),
    ("experiments.run", "katolab.experiments:run", "experiments.run.self_s", None),
)

ROOT = "workload"

# counts summed over every span of a layer: metric name -> (span, count key)
COUNT_METRICS = {
    "opnorm.operator_norm_l2.iterations": ("opnorm.operator_norm_l2", "iterations"),
    "opnorm.operator_norm_l2.modes": ("opnorm.operator_norm_l2", "modes"),
    "opnorm.lower_bound_mixed.evals": ("opnorm.lower_bound_mixed", "evals"),
    "norms.mixed_norm.samples": ("norms.mixed_norm", "samples"),
    "propagator.propagate.slices": ("propagator.propagate", "slices"),
    "wavepackets.decompose.packets": ("wavepackets.decompose", "packets"),
    "wavepackets.decompose.dropped": ("wavepackets.decompose", "dropped"),
    "sparse.sparse_decompose.points": ("sparse.sparse_decompose", "points"),
    "sparse.sparse_decompose.families": ("sparse.sparse_decompose", "families"),
}

# every per-layer metric with its unit, in output order
PER_LAYER_UNITS = {f"{name}.calls": "count" for name, *_ in LAYERS}
PER_LAYER_UNITS.update({metric: "s" for _, _, metric, _ in LAYERS})
PER_LAYER_UNITS.update({metric: "count" for metric in COUNT_METRICS})
PER_LAYER_UNITS.update({
    "core.io.bytes": "B",
    "opnorm.eval_mixed.samples_per_s": "1/s",
    "opnorm.lower_bound_mixed.ascent_gain": "ratio",
    "experiments.report.bytes": "B",
    "trace.wall_s": "s",
    "trace.remainder_s": "s",
    "trace.overhead_s": "s",
})


def _resolve(target: str):
    """(owner, attribute, original) for "module:attr" or "module:Class.attr"."""
    modname, _, path = target.partition(":")
    owner = sys.modules[modname]
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr, getattr(owner, attr)


def _wrap(tracer: Tracer, name: str, fn, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        counts = None
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                counts = count(args, kwargs, result)
            return result
        finally:
            tracer.close(idx, counts)
    return wrapper


def install(tracer: Tracer, layers=LAYERS, package: str = "katolab"):
    """Bind a span wrapper wherever a katolab module holds a layer function.

    Returns a function that puts every original back.
    """
    undo = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    for name, target, _, count in layers:
        owner, attr, orig = _resolve(target)
        wrapper = _wrap(tracer, name, orig, count)
        if isinstance(owner, type):
            owners = [(owner, attr)]
        else:
            owners = [(m, k) for m in modules for k, v in list(vars(m).items())
                      if v is orig]
        for obj, key in owners:
            undo.append((obj, key, getattr(obj, key)))
            setattr(obj, key, wrapper)

    def restore():
        for obj, key, orig in reversed(undo):
            setattr(obj, key, orig)
    return restore


def layer_metrics(spans, layers=LAYERS) -> dict:
    """Per-layer self times, call counts and work counts of one traced pass.

    ``spans[0]`` must be the root span that covers the whole pass; its self
    time is the remainder that no layer span covers.
    """
    if not spans or spans[0].name != ROOT:
        raise ValueError(f"first span must be the {ROOT!r} root")
    selfs = self_times(spans)
    time_metric = {name: metric for name, _, metric, _ in layers}
    out = {metric: 0.0 for metric in time_metric.values()}
    out.update({f"{name}.calls": 0 for name in time_metric})
    out.update({metric: 0 for metric in COUNT_METRICS})
    by_name = defaultdict(list)
    for s, t in zip(spans[1:], selfs[1:]):
        if s.name not in time_metric:
            raise ValueError(f"span {s.name!r} belongs to no layer")
        out[time_metric[s.name]] += t
        out[f"{s.name}.calls"] += 1
        by_name[s.name].append(s)

    def total(name, key):
        return sum((s.counts or {}).get(key, 0) for s in by_name[name])

    for metric, (name, key) in COUNT_METRICS.items():
        out[metric] = total(name, key)
    out["core.io.bytes"] = sum(total(n, "bytes") for n in
                               ("core.write_field", "core.read_field",
                                "core.write_spacetime", "core.read_spacetime"))
    calls = len(by_name["opnorm.lower_bound_mixed"])
    out["opnorm.lower_bound_mixed.ascent_gain"] = (
        total("opnorm.lower_bound_mixed", "ascent_gain") / calls if calls else 0.0)
    out["opnorm.eval_mixed.samples_per_s"] = _eval_throughput(spans)
    out["trace.wall_s"] = spans[0].end - spans[0].start
    out["trace.remainder_s"] = selfs[0]
    return out


def _eval_throughput(spans) -> float:
    """Space-time samples reduced inside ``_eval_mixed`` per second spent in
    the outermost ``_eval_mixed``/``_quotient_gradient`` spans."""
    kinds = ("opnorm.eval_mixed", "opnorm.quotient_gradient")
    samples = sum((s.counts or {}).get("samples", 0) for s in spans
                  if s.name == "norms.mixed_norm" and s.parent >= 0
                  and spans[s.parent].name == "opnorm.eval_mixed")
    busy = 0.0
    for s in spans:
        if s.name not in kinds:
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in kinds:
            p = spans[p].parent
        if p < 0:
            busy += s.end - s.start
    return samples / busy if busy > 0 else 0.0


def accounting_error(metrics: dict, layers=LAYERS) -> float:
    """|sum of layer self times + untraced remainder - traced wall|."""
    parts = sum(metrics[m] for m in {metric for _, _, metric, _ in layers})
    return abs(parts + metrics["trace.remainder_s"] - metrics["trace.wall_s"])
