import collections
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katolab import experiments as E
from katolab import symbols as S
from katolab import wavepackets as W
from katolab.core import Grid
from perfbench import workloads


GOOD_SCALING = """
# comment lines are ignored
kind = scaling
symbol = power:m=2,n=1
alpha = 0.5
q = 2
r = 2
R = 8,16,32
seed = 4
"""


def test_parse_config():
    cfg = E.parse_config(GOOD_SCALING)
    assert cfg.kind == "scaling"
    assert cfg.symbol.m == 2.0
    assert cfg.R == (8.0, 16.0, 32.0)
    assert cfg.seed == 4


def test_packet_scales_follow_one_rule_in_configs_and_files():
    # R = 128/49 divides L = 128 up to its own rounding (L / R reads
    # 49.00000000000001): the file pipeline's check_packet_scale takes it, so
    # a config takes it too; a scale that does not divide L is refused under L
    R = 128 / 49
    assert 128 / R != 49
    W.check_packet_scale(R, Grid(1, 1024, 128.0))
    text = "kind = wavepacket-audit\nsymbol = power:m=2,n=1\nN = 1024\nL = 128\nR = {}"
    assert E.parse_config(text.format(repr(R))).R == (R,)
    with pytest.raises(E.ConfigError) as exc:
        E.parse_config(text.format("5"))
    assert exc.value.field_name == "L"


def test_parse_config_errors_name_fields():
    with pytest.raises(E.ConfigError) as exc:
        E.parse_config("kind = scaling\nsymbol = power:m=2,n=1\nbogus = 1")
    assert exc.value.field_name == "bogus"
    with pytest.raises(E.ConfigError) as exc:
        E.parse_config("symbol = power:m=2,n=1")
    assert exc.value.field_name == "kind"
    with pytest.raises(E.ConfigError) as exc:
        E.parse_config("kind = scaling\nsymbol = power:m=2,n=1\nR = 8,16")
    assert exc.value.field_name == "R"
    with pytest.raises(E.ConfigError) as exc:
        E.parse_config("kind = transfer\nsymbol = power:m=2,n=1\n"
                       "r = 4\nr_tilde = 2\nR = 8,16,32")
    assert exc.value.field_name == "r_tilde"
    for text, field in [("kind = scaling\nsymbol = poly:n=2", "symbol"),
                        ("kind = scaling\nsymbol = power:m=abc", "symbol"),
                        ("kind = scaling\nsymbol = power:m=2,n=1\nR = 8,x,32", "R"),
                        ("kind = scaling\nsymbol = power:m=2,n=1\nseed = 1\nseed = 2",
                         "seed"),
                        ("kind = scaling\nsymbol = power:m=2,m=3,n=1", "symbol"),
                        # Phi = 0: no p-grid, no dispersion
                        ("kind = scaling\nsymbol = power:m=2,n=1,scale=0", "symbol"),
                        ("kind = scaling\nsymbol = poly:n=1,terms=1*2;-1*2", "symbol"),
                        ("kind = sparse-audit\nsymbol = power:m=2,n=1\nseed = abc", "seed"),
                        ("kind = scaling\nsymbol = power:m=2,n=1\nalpha = nan", "alpha"),
                        ("kind = scaling\nsymbol = power:m=2,n=1\nresidual_min = x",
                         "residual_min"),
                        ("kind = wavepacket-audit\nsymbol = power:m=2,n=1\nN = true", "N"),
                        ("kind = wavepacket-audit\nsymbol = power:m=2,n=1\nL = NaN", "L"),
                        ("kind = scaling\nsymbol = power:m=2,n=1\nR = 8,nan,32", "R"),
                        ("kind = maximal\nsymbol = power:m=2,n=1\nR = 8,16,inf", "R"),
                        ("kind = wavepacket-audit\nsymbol = power:m=2,n=1\nR = 0.5", "R"),
                        ("kind = wavepacket-audit\nsymbol = power:m=2,n=1\nfields = inf",
                         "fields"),
                        ("kind = wavepacket-audit\nsymbol = power:m=2,n=1\nfields = 2.5",
                         "fields"),
                        ("kind = wavepacket-audit\nsymbol = power:m=2,n=1\nfields = 0",
                         "fields"),
                        ("kind = wavepacket-audit\nsymbol = power:m=2,n=1\nN = inf", "N"),
                        ("kind = wavepacket-audit\nsymbol = power:m=2,n=1\nN = 1024.5", "N"),
                        ("kind = sparse-audit\nsymbol = power:m=2,n=1\ntrials = 0", "trials"),
                        ("kind = sparse-audit\nsymbol = power:m=2,n=1\nK = -1", "K"),
                        ("kind = sparse-audit\nsymbol = power:m=2,n=1\nseed = 1.5", "seed"),
                        ("kind = maximal\nsymbol = power:m=2,n=1\nrestarts = inf",
                         "restarts"),
                        ("kind = maximal\nsymbol = power:m=2,n=1\nrestarts = -2",
                         "restarts"),
                        ("kind = maximal\nsymbol = power:m=2,n=1\nascent_steps = -1",
                         "ascent_steps"),
                        ("kind = transfer\nsymbol = power:m=2,n=1\nr = 2\nr_tilde = 4\n"
                         "ascent_steps = -1\nrestarts = -2", "ascent_steps"),
                        ("kind = wavepacket-audit\nsymbol = power:m=2,n=1\nL = inf", "L"),
                        ("kind = wavepacket-audit\nsymbol = power:m=2,n=1\nL = 0", "L"),
                        ("kind = wavepacket-audit\nsymbol = power:m=2,n=1\nL = -128", "L"),
                        ("kind = wavepacket-audit\nsymbol = power:m=2,n=1\nL = 100", "L"),
                        # the packet windows' grid rules: N = 64 resolves no
                        # default scale, and the default L = 128 is under 4R
                        # at the default R = 64
                        ("kind = wavepacket-audit\nsymbol = power:m=2,n=1\nN = 64", "R"),
                        ("kind = wavepacket-audit\nsymbol = power:m=2,n=1", "R"),
                        ("kind = propagator-audit\nsymbol = power:m=2,n=1\nN = 6", "N"),
                        ("kind = propagator-audit\nsymbol = power:m=2,n=1\nN = 1023", "N"),
                        ("kind = scaling\nsymbol = power:m=2,n=1\ncross_check = maybe",
                         "cross_check"),
                        ("kind = scaling\nsymbol = power:m=2,n=1\ncross_check = 1",
                         "cross_check"),
                        ("kind = scaling\nsymbol = power:m=2,n=1\nq = 4", "q"),
                        ("kind = transfer\nsymbol = power:m=2,n=1\nr = 3", "r"),
                        ("kind = scaling\nsymbol = power:m=2,n=1\nR = 2,3,4", "R"),
                        ("kind = maximal\nsymbol = power:m=2,n=1\nR = 8,24,72", "R"),
                        ("kind = transfer\nsymbol = power:m=2,n=1\nR = 8,16,16", "R"),
                        # <xi>^alpha overflows or vanishes on the sector
                        ("kind = maximal\nsymbol = power:m=2,n=1\nalpha = inf", "alpha"),
                        ("kind = maximal\nsymbol = power:m=2,n=1\nalpha = 1e300", "alpha"),
                        ("kind = scaling\nsymbol = power:m=2,n=1\nalpha = 1e300", "alpha"),
                        ("kind = transfer\nsymbol = power:m=2,n=1\nalpha = -inf", "alpha"),
                        ("kind = scaling\nsymbol = power:m=2,n=1\nalpha = -1e300", "alpha"),
                        ("kind = maximal\nsymbol = power:m=2,n=1\nq = 0.5", "q"),
                        # 128 points reach the radius 2**210 > H_LIMIT at level 4
                        ("kind = sparse-audit\nsymbol = power:m=2,n=1\nK = 4", "K"),
                        ("kind = sparse-audit\nsymbol = power:m=2,n=1\nK = 1000000",
                         "K"),
                        # the explicit L2 kernel: a non-integer degree at every
                        # scale (M = 19182 at R = 32), the cross-check at its
                        # first (M = 9525 at R = 64)
                        ("kind = scaling\nsymbol = power:m=2.5,n=1\nR = 8,16,32", "R"),
                        ("kind = transfer\nsymbol = power:m=2.5,n=1\nR = 8,16,32", "R"),
                        ("kind = scaling\nsymbol = power:m=2,n=1\nR = 64,128,256\n"
                         "cross_check = true", "R"),
                        # a key that is not a config key, or that the kind does
                        # not read
                        ("kind = scaling\nsymbol = power:m=2,n=1\nR_list = 8,16,32",
                         "R_list"),
                        ("kind = scaling\nsymbol = power:m=2,n=1\nvalidate = 1", "validate"),
                        ("kind = tube-incidence\nsymbol = power:m=2,n=1\nr = 4", "r"),
                        ("kind = tube-incidence\nsymbol = power:m=2,n=1\ncross_check = true",
                         "cross_check"),
                        ("kind = maximal\nsymbol = power:m=2,n=1\nr = inf", "r"),
                        ("kind = decay-audit\nsymbol = power:m=2,n=1\nalpha = 1", "alpha"),
                        # ... even at its default value: maximal runs r = inf
                        ("kind = maximal\nsymbol = power:m=2,n=1\nr = 2", "r"),
                        ("kind = decay-audit\nsymbol = power:m=2,n=1\nalpha = 0.5",
                         "alpha"),
                        ("kind = scaling\nsymbol = power:m=2,n=1\nN = 512", "N")]:
        with pytest.raises(E.ConfigError) as exc:
            E.parse_config(text)
        assert exc.value.field_name == field, text
    for kind in ("scaling", "transfer", "maximal", "decay-audit", "decoupling-audit",
                 "tube-incidence"):
        with pytest.raises(E.ConfigError) as exc:
            E.parse_config(f"kind = {kind}\nsymbol = power:m=2,n=2")
        assert exc.value.field_name == "symbol", kind
    cfg = E.parse_config("kind = maximal\nsymbol = power:m=2,n=1\nq = inf")
    assert cfg.q == math.inf
    cfg = E.parse_config(GOOD_SCALING + "cross_check = TRUE")
    assert cfg.cross_check is True


# config key -> declared type of its ExperimentConfig field
KEY_TYPES = {f.name: f.type for f in dataclasses.fields(E.ExperimentConfig)}
# words from letters that spell no number, boolean, kind, symbol or expect value
WORDS = st.text(alphabet="abcxyz", min_size=1, max_size=6)
WRONG = {"int": st.sampled_from(["2.5", "inf", "true", "1e400", "8,16"]),
         "float": st.sampled_from(["true", "nan", "8,16", "1.5.2"]),
         "bool": st.sampled_from(["maybe", "1", "0", "yes", "2.5", "inf"]),
         "tuple": st.sampled_from(["8,x,32", "8,,16", "8;16", "true"]),
         "str": st.sampled_from(["1", "none"]),
         "symbols.SymbolSpec": st.sampled_from(["1", "power:m=x", "poly:n=2"])}


@st.composite
def bad_entry(draw):
    key = draw(st.sampled_from(sorted(KEY_TYPES)))
    blank = st.one_of(st.just(""), st.text(alphabet=" \t", min_size=1, max_size=4))
    kind = KEY_TYPES[key]
    # any text is a path, so an output directory can only be blank
    value = draw(blank if kind == "str | None" else st.one_of(blank, WORDS, WRONG[kind]))
    return key, value


@settings(max_examples=300, deadline=None)
@given(bad_entry())
def test_blank_or_mistyped_values_name_their_key(entry):
    key, value = entry
    lines = {"kind": "scaling", "symbol": "power:m=2,n=1", key: value}
    text = "\n".join(f"{k} = {v}" for k, v in lines.items())
    with pytest.raises(E.ConfigError) as exc:
        E.parse_config(text)
    assert exc.value.field_name == key, (text, exc.value)


def test_scaling_run_passes_and_sabotage_fails():
    cfg = E.parse_config(GOOD_SCALING)
    rep = E.run(cfg)
    assert rep.passed
    assert any(c["name"] == "slope-matches-prediction" for c in rep.criteria)

    # injecting a wrong regularity shifts the prediction and must fail
    bad = E.parse_config(GOOD_SCALING.replace("alpha = 0.5", "alpha = 1.0"))
    rep_bad = E.run(bad)
    assert not rep_bad.passed


# seeds as in the battery: transfer's Lanczos start reads one, no mixed-norm
# lower bound does
SMALL_MAXIMAL = ("kind = maximal\nsymbol = power:m=2,n=1\nalpha = -0.25\n"
                 "q = 2\nR = 2,4,8\nascent_steps = 2\nseed = 6")
SMALL_TRANSFER = ("kind = transfer\nsymbol = power:m=2,n=1\nalpha = 0.5\n"
                  "q = 2\nr = 2\nr_tilde = 4\nR = 2,4,8\nseed = 7")


@pytest.mark.parametrize("text", [GOOD_SCALING, SMALL_MAXIMAL, SMALL_TRANSFER],
                         ids=["scaling", "maximal", "transfer"])
def test_report_schema_and_reproducibility(tmp_path, text):
    cfg = E.parse_config(text)
    out = tmp_path / "runs"
    cfg.out = str(out)
    runs = []
    for _ in range(2):
        rep = E.run(cfg)
        d = rep.to_dict()
        assert E.validate_report(d) == []
        d.pop("environment")
        runs.append((json.dumps(d, sort_keys=True), (out / "measurements.csv").read_bytes()))
    assert runs[0] == runs[1]

    files = {p.name for p in out.iterdir()}
    assert {"report.json", "measurements.csv"} <= files
    assert rep.fits and {f"{fit['tag']}.dat" for fit in rep.fits} <= files
    loaded = json.loads((out / "report.json").read_text())
    assert E.validate_report(loaded) == []


def test_maximal_run_reports_every_diagnostic_as_a_number(tmp_path):
    # each scale is one lower bound whose error holds every field of its
    # result, and every row of measurements.csv parses with float(): the
    # value and each numeric error field, the candidate's name aside
    cfg = E.parse_config("kind = maximal\nsymbol = power:m=2,n=1\nalpha = -0.25\n"
                         "q = 2\nR = 2,4,8\nascent_steps = 2\nseed = 6")
    cfg.out = str(tmp_path)
    rep = E.run(cfg)
    assert [m["name"] for m in rep.measurements] == ["maximal_R2", "maximal_R4", "maximal_R8"]
    numeric = ("ascent_gain", "refinement_delta", "window_delta", "tail_fraction",
               "evaluations")
    for m in rep.measurements:
        assert m["kind"] == "lower" and m["operation"] == "lower_bound_mixed"
        assert set(m["error"]) == {"candidate", *numeric}
        assert isinstance(m["error"]["candidate"], str)
    rows = (tmp_path / "measurements.csv").read_text().splitlines()
    assert rows[0] == "name,value,operation,kind"
    assert [row.split(",")[0] for row in rows[1:]] == [
        name for R in (2, 4, 8) for name in
        [f"maximal_R{R}"] + [f"maximal_R{R}.{key}" for key in numeric]]
    for row in rows[1:]:
        name, value, operation, kind = row.split(",")
        assert math.isfinite(float(value)) and operation == "lower_bound_mixed", row
        assert kind == "lower", row


def test_invalid_report_detected():
    assert E.validate_report({}) != []
    assert E.validate_report({"schema": "wrong", "config": {}, "measurements": [],
                              "fits": [], "criteria": [], "environment": {}}) != []
    fit = {"tag": "scaling", "R": [8.0, 16.0, 32.0], "values": [1.0, 2.0, 4.0],
           "intercept": 0.0, "stderr": 0.0}
    problems = E.validate_report({"schema": E.SCHEMA, "config": {},
                                  "measurements": [], "fits": [fit],
                                  "criteria": [], "environment": {}})
    assert problems and "slope" in problems[0]

    def problems(*measurements):
        return E.validate_report({"schema": E.SCHEMA, "config": {},
                                  "measurements": list(measurements), "fits": [],
                                  "criteria": [], "environment": {}})

    error = {"candidate": "chirp-broad", "ascent_gain": 0.0, "refinement_delta": 0.0,
             "window_delta": 0.0, "tail_fraction": 0.0, "evaluations": 6}
    bound = {"name": "maximal_R8", "value": 9.85, "operation": "lower_bound_mixed",
             "kind": "lower", "error": error}
    assert problems(bound) == []
    # an estimate from the same routine needs no error
    assert problems({**bound, "kind": "estimate", "error": {}}) == []
    no_kind = {k: v for k, v in bound.items() if k != "kind"}
    assert problems(no_kind) == [f"measurement missing kind: {no_kind}"]
    assert "'bound' is not one of" in problems({**bound, "kind": "bound"})[0]
    for key in ("window_delta", "candidate"):
        partial = {k: v for k, v in error.items() if k != key}
        found = problems({**bound, "error": partial})
        assert len(found) == 1 and found[0].startswith(f"measurement error lacks ['{key}']")
    # an L2 norm without its residual, or without any error
    l2 = {"name": "norm_R8", "value": 23.5, "operation": "operator_norm_l2",
          "kind": "lower", "error": {"iterations": 16, "mode_count": 237,
                                     "method": "lanczos-fast"}}
    assert "['residual']" in problems(l2)[0]
    assert "['iterations', 'method', 'mode_count', 'residual']" in problems(
        {k: v for k, v in l2.items() if k != "error"})[0]


def test_propagator_audit_quick():
    cfg = E.parse_config("kind = propagator-audit\nsymbol = power:m=2,n=1\n"
                         "N = 512\nL = 64\nfields = 5\nseed = 1")
    rep = E.run(cfg)
    assert rep.passed
    names = {c["name"] for c in rep.criteria}
    assert {"energy-identity", "gaussian-oracle"} <= names


def test_gaussian_oracle_matches_the_per_row_sum():
    g, t = Grid(1, 2048, 64.0), 0.5
    xi = np.linspace(-16.0, 16.0, 1 << 13, endpoint=False)
    kernel = np.exp(1j * t * xi**2) * math.sqrt(2 * math.pi) * np.exp(-(xi**2) / 2.0)
    ref = np.array([np.sum(kernel * np.exp(1j * x * xi)) for x in g.x_axis()])
    ref *= (xi[1] - xi[0]) / (2 * math.pi)
    assert np.max(np.abs(E._gaussian_oracle(g, t) - ref)) <= 1e-14


def test_wavepacket_audit_quick(monkeypatch):
    monkeypatch.setattr(E, "SUBCOLLECTIONS", 10)
    cfg = E.parse_config("kind = wavepacket-audit\nsymbol = power:m=2,n=1\n"
                         "N = 512\nL = 64\nR = 4\nfields = 2\nseed = 2")
    rep = E.run(cfg)
    assert rep.passed
    spill = {m["name"]: m["value"] for m in rep.measurements}["spatial_spill_max"]
    assert spill > 0.0


def test_wavepacket_audit_builds_one_pair_per_scale(monkeypatch):
    monkeypatch.setattr(E, "SUBCOLLECTIONS", 2)
    calls = collections.Counter()

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapper

    for name in ("build_partitions", "_support_table"):
        monkeypatch.setattr(W, name, counted(getattr(W, name)))
    cfg = E.parse_config("kind = wavepacket-audit\nsymbol = power:m=2,n=1\n"
                         "N = 512\nL = 64\nR = 4,8\nfields = 3\nseed = 2")
    assert E.run(cfg).passed
    assert calls == {"build_partitions": 2, "_support_table": 2}


def test_wavepacket_audit_reports_null_spill_when_unmeasurable(monkeypatch):
    # B(l, 4R) at R = 8 covers the whole L = 64 torus
    monkeypatch.setattr(E, "SUBCOLLECTIONS", 2)
    cfg = E.parse_config("kind = wavepacket-audit\nsymbol = power:m=2,n=1\n"
                         "N = 512\nL = 64\nR = 8\nfields = 1\nseed = 2")
    rep = E.run(cfg)
    assert {m["name"]: m["value"] for m in rep.measurements}["spatial_spill_max"] is None


def test_sparse_audit_quick():
    cfg = E.parse_config("kind = sparse-audit\nsymbol = power:m=2,n=1\n"
                         "trials = 5\nK = 3\nseed = 3")
    rep = E.run(cfg)
    assert rep.passed


def test_tube_incidence_run():
    rep = E.run(E.parse_config("kind = tube-incidence\nsymbol = power:m=2,n=1"))
    assert rep.passed
    counts = {str(H): W.max_overlap(S.schrodinger(1), H)["count"] for H in E.TUBE_H}
    assert rep.measurements == [{"name": "counts", "value": counts,
                                 "operation": "max_overlap", "kind": "estimate"}]
    assert [c["name"] for c in rep.criteria] == ["overlap-stability"]
    # the echo holds the keys the kind reads
    assert set(rep.config) == {"kind", "symbol", "out"}


def test_every_kind_reads_its_keys_and_echoes_only_those():
    # a config of each kind that sets every key it reads parses, and its
    # echo holds exactly those keys
    values = {"alpha": "0.25", "q": "2", "r": "2", "r_tilde": "6", "R": "4,8,16",
              "expect": "residual", "residual_min": "0.3", "cross_check": "true",
              "ascent_steps": "3", "restarts": "1", "N": "512", "L": "64",
              "fields": "2", "trials": "3", "K": "2", "seed": "5"}
    for kind, keys in E.KIND_KEYS.items():
        text = "\n".join([f"kind = {kind}", "symbol = power:m=2,n=1"]
                         + [f"{k} = {values[k]}" for k in keys])
        cfg = E.parse_config(text)
        assert set(E._config_echo(cfg)) == {"kind", "symbol", "out"} | set(keys), kind


def test_cubic_symbol_scaling_run_takes_the_structured_apply(monkeypatch):
    # the Airy/KdV symbol xi^3 at alpha = 1: predicted slope 1/2
    # (Kenig-Ponce-Vega 1991)
    methods = []
    l2 = E.opnorm.operator_norm_l2

    def spy(spec, seed=0):
        res = l2(spec, seed)
        methods.append(res.method)
        return res

    monkeypatch.setattr(E.opnorm, "operator_norm_l2", spy)
    rep = E.run(E.parse_config("kind = scaling\nsymbol = power:m=3,n=1\nalpha = 1\n"
                               "R = 4,8,16\ncross_check = true\nseed = 4"))
    assert [c["name"] for c in rep.criteria if c["passed"]] == [
        "slope-matches-prediction", "dense-cross-check"]
    assert methods == ["lanczos-fast"] * 3


@pytest.mark.parametrize("offset", [0, 1])
def test_benchmark_workload_configs_parse(tmp_path, offset):
    # the benchmark writes and parses these configs before it times a run
    for name, workload in workloads.WORKLOADS.items():
        out = tmp_path / name
        out.mkdir()
        assert len(workloads.prepare(workload, offset, str(out))) == len(workload.runs)
