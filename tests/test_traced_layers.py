"""The benchmark's traced pass wraps katolab functions by dotted name; a
rename under src/ would drop a layer from it without an error, and a renamed
result attribute would break the counts taken at a layer's boundary."""

import dataclasses
import importlib
import math

import numpy as np

from katolab import (core, norms, opnorm, propagator, sparse, symbols,
                     wavepackets)
from perfbench import spans


def test_every_traced_layer_resolves():
    for name, target, _, _ in spans.LAYERS:
        importlib.import_module(target.partition(":")[0])
        assert callable(spans._resolve(target)[2]), name


def test_traced_counts_read_every_counted_layer(tmp_path):
    tracer = spans.Tracer()
    root = tracer.open(spans.ROOT)
    restore = spans.install(tracer)
    try:
        sym = symbols.schrodinger(1)
        spec = opnorm.SmoothingOperatorSpec(sym=sym, alpha=-0.25, R=2.0)
        opnorm.operator_norm_l2(spec)
        opnorm.lower_bound_mixed(dataclasses.replace(spec, r=math.inf), 1)
        grid = core.Grid(1, 256, 32.0)
        f = core.make_field(grid, core.RandomBandlimited(core.Sector(), seed=1))
        core.write_field(f, str(tmp_path / "f.kslf"))
        f = core.read_field(str(tmp_path / "f.kslf"))
        u = propagator.propagate(f, sym, np.linspace(0.0, 1.0, 4))
        core.write_spacetime(u, str(tmp_path / "u.kslt"))
        u = core.read_spacetime(str(tmp_path / "u.kslt"))
        norms.mixed_norm(u, norms.MixedNormSpec(q=2.0, r=math.inf))
        wavepackets.decompose(f, wavepackets.build_partitions(2.0, grid))
        points = tuple((7 * i, i * i) for i in range(10))
        sparse.sparse_decompose(sparse.CubeSet(dim=2, points=points), K=2)
    finally:
        restore()
    tracer.close(root)
    metrics = spans.layer_metrics(tracer.spans)
    # perfbench/run.py adds these two from the traced pass as a whole
    assert set(spans.PER_LAYER_UNITS) - set(metrics) == {
        "experiments.report.bytes", "trace.overhead_s"}
    for name, _, _, count in spans.LAYERS:
        if count is not None:
            assert metrics[f"{name}.calls"] >= 1, name


def test_eval_throughput_counts_the_maximal_evaluations():
    # at r = inf too each evaluation reduces its slab through
    # norms.mixed_norm, inside the eval_mixed span, so the samples per second
    # of the maximal bound are measured
    tracer = spans.Tracer()
    root = tracer.open(spans.ROOT)
    restore = spans.install(tracer)
    try:
        spec = opnorm.SmoothingOperatorSpec(sym=symbols.schrodinger(1), alpha=-0.25, R=8.0,
                                            r=math.inf)
        opnorm.lower_bound_mixed(spec, 1)
    finally:
        restore()
    tracer.close(root)
    assert spans._eval_throughput(tracer.spans) > 0
