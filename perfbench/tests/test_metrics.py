import io
import json
import os
from contextlib import redirect_stdout

from perfbench import run, spans, stats, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_names_every_emitted_metric_with_its_unit():
    b = _bench()
    assert {w["name"] for w in b["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in b["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in b["per_layer"]} == spans.PER_LAYER_UNITS
    for m in b["end_to_end"] + b["per_layer"] + b["workloads"]:
        assert stats.valid_name(m["name"]), m["name"]
    for m in b["end_to_end"] + b["per_layer"]:
        assert stats.valid_unit(m["unit"]), m["unit"]
    bounds = {m["name"]: m["bound"] for m in b["end_to_end"]}
    assert all(0 < v <= 0.25 for v in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def _result(line):
    out = json.loads(line)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out["metrics"]


def test_end_to_end_result_line_has_every_metric():
    passes = [{"wall_s": w, "rss_mb": 100.0 + w, "norm": 15.3} for w in (3.0, 1.0, 2.0)]
    metrics = _result(run.result_line(True, 3, 0, run.end_to_end(passes, [0.2, 0.3]),
                                      run.END_TO_END_UNITS))
    assert metrics == {
        "wall_s": {"value": 2.0, "unit": "s"},
        "setup_s": {"value": 0.25, "unit": "s"},
        "peak_rss_mb": {"value": 102.0, "unit": "MB"},
        "norm_rmax": {"value": 15.3, "unit": "1"},
    }


def test_per_layer_result_line_has_every_metric():
    t = spans.Tracer(clock=iter([0.0, 1.0, 2.0, 3.0, 4.0, 6.0]).__next__)
    root = t.open(spans.ROOT)
    ev = t.open("opnorm.eval_mixed")
    mn = t.open("norms.mixed_norm")
    t.close(mn, {"samples": 600})
    t.close(ev)
    t.close(root)
    traced = {"layers": spans.layer_metrics(t.spans), "report_bytes": 10, "wall_s": 6.0}
    values = run.per_layer(traced, [{"wall_s": 5.5}])
    metrics = _result(run.result_line(True, 1, 0, values, spans.PER_LAYER_UNITS))
    assert {k: v["unit"] for k, v in metrics.items()} == spans.PER_LAYER_UNITS
    assert metrics["opnorm.eval_mixed.samples_per_s"]["value"] == 200.0
    assert metrics["opnorm.eval_mixed.s"]["value"] == 2.0
    assert metrics["trace.remainder_s"]["value"] == 3.0
    assert metrics["trace.overhead_s"]["value"] == 0.5


def test_refuses_a_directory_without_katolab(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(["--workload", "transfer", "--seconds", "1"]) != 0
    assert out.getvalue() == ""
