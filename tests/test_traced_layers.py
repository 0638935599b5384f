"""The benchmark's traced pass wraps katolab functions by dotted name; a
rename under src/ would drop a layer from it without an error."""

import importlib

from perfbench import spans


def test_every_traced_layer_resolves():
    for name, target, _, _ in spans.LAYERS:
        importlib.import_module(target.partition(":")[0])
        assert callable(spans._resolve(target)[2]), name
