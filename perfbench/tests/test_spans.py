import sys
import types

import pytest

from perfbench import spans


def _clock(*ticks):
    return iter(ticks).__next__


def test_self_time_of_nested_spans():
    # workload [0,10] > a [1,4] > b [2,3]; workload > c [5,9] > d [5,6], e [7,9]
    t = spans.Tracer(clock=_clock(0, 1, 2, 3, 4, 5, 5, 6, 7, 9, 9, 10))
    root = t.open("workload")
    a = t.open("a")
    t.close(t.open("b"))
    t.close(a)
    c = t.open("c")
    t.close(t.open("d"))
    t.close(t.open("e"))
    t.close(c)
    t.close(root)
    selfs = spans.self_times(t.spans)
    assert [s.name for s in t.spans] == ["workload", "a", "b", "c", "d", "e"]
    assert [s.parent for s in t.spans] == [-1, 0, 1, 0, 3, 3]
    assert selfs == [3, 2, 1, 1, 1, 2]
    assert sum(selfs) == 10


def test_self_time_counts_overlapping_children_once():
    parent = spans.Span("p", 0.0, -1)
    parent.end = 10.0
    kids = []
    for lo, hi in ((1.0, 5.0), (3.0, 8.0), (9.0, 12.0)):
        s = spans.Span("k", lo, 0)
        s.end = hi
        kids.append(s)
    # union of the children inside [0, 10] is [1, 8] and [9, 10]
    assert spans.self_times([parent] + kids)[0] == pytest.approx(2.0)


def test_close_out_of_order_raises():
    t = spans.Tracer()
    a = t.open("a")
    t.open("b")
    with pytest.raises(RuntimeError):
        t.close(a)


@pytest.fixture
def fakepkg(monkeypatch):
    """A package whose second module imports the first's function by name."""
    core = types.ModuleType("fakepkg.core")

    def idft(x):
        return x + 1

    class Kernel:
        def apply(self, x):
            return 2 * x

    core.idft, core.Kernel = idft, Kernel
    prop = types.ModuleType("fakepkg.prop")
    prop.idft = idft

    def propagate(x):
        return prop.idft(x) + core.Kernel().apply(x)

    prop.propagate = propagate
    pkg = types.ModuleType("fakepkg")
    pkg.idft = idft
    for name, mod in (("fakepkg", pkg), ("fakepkg.core", core), ("fakepkg.prop", prop)):
        monkeypatch.setitem(sys.modules, name, mod)
    layers = (
        ("core.idft", "fakepkg.core:idft", "core.fft.s", None),
        ("core.kernel_apply", "fakepkg.core:Kernel.apply", "core.kernel_apply.s", None),
        ("prop.propagate", "fakepkg.prop:propagate", "prop.propagate.s",
         lambda a, k, r: {"slices": r}),
    )
    return types.SimpleNamespace(core=core, prop=prop, pkg=pkg, layers=layers,
                                 idft=idft, apply=Kernel.apply)


def test_install_wraps_every_binding_and_restores(fakepkg):
    t = spans.Tracer()
    restore = spans.install(t, fakepkg.layers, package="fakepkg")
    assert fakepkg.prop.idft is fakepkg.core.idft is fakepkg.pkg.idft
    assert fakepkg.prop.idft is not fakepkg.idft
    root = t.open(spans.ROOT)
    assert fakepkg.prop.propagate(3) == 10
    t.close(root)
    restore()
    assert [(s.name, s.parent) for s in t.spans] == [
        ("workload", -1), ("prop.propagate", 0), ("core.idft", 1),
        ("core.kernel_apply", 1)]
    assert t.spans[1].counts == {"slices": 10}
    assert fakepkg.core.idft is fakepkg.prop.idft is fakepkg.pkg.idft is fakepkg.idft
    assert fakepkg.core.Kernel.apply is fakepkg.apply
    assert fakepkg.prop.propagate(3) == 10 and len(t.spans) == 4


def test_layer_self_times_account_for_the_traced_wall(fakepkg):
    t = spans.Tracer()
    restore = spans.install(t, fakepkg.layers, package="fakepkg")
    root = t.open(spans.ROOT)
    for x in range(50):
        fakepkg.prop.propagate(x)
        fakepkg.core.idft(x)
    t.close(root)
    restore()
    m = spans.layer_metrics(t.spans, fakepkg.layers)
    assert m["prop.propagate.calls"] == 50 and m["core.idft.calls"] == 100
    assert m["trace.wall_s"] == t.spans[0].end - t.spans[0].start
    assert spans.accounting_error(m, fakepkg.layers) < 1e-12


def test_layer_metrics_need_the_root_span_first():
    t = spans.Tracer()
    t.close(t.open("opnorm.eval_mixed"))
    with pytest.raises(ValueError):
        spans.layer_metrics(t.spans)
