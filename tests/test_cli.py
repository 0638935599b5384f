import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katolab import cli, experiments, opnorm, symbols, wavepackets
from katolab.core import (Ball, GaussianRecipe, KnappRecipe, RandomBandlimited, Sector,
                          read_field, read_packets, read_spacetime)
from tests.packet_reference import packet_node, packet_values


def test_field_propagate_norm_roundtrip(tmp_path, capsys):
    f = tmp_path / "f.kslf"
    u = tmp_path / "u.kslt"
    assert cli.main(["field", "--make", "gaussian:center=0,width=1",
                     "--grid", "1,512,64", "--out", str(f)]) == 0
    assert cli.main(["propagate", "--symbol", "power:m=2,n=1", "--t0", "0",
                     "--t1", "1", "--steps", "8", "--in", str(f),
                     "--out", str(u)]) == 0
    ut = read_spacetime(str(u))
    assert ut.slices.shape == (8, 512)
    capsys.readouterr()
    assert cli.main(["norm", "--q", "2", "--r", "2", "--ball", "0,1",
                     "--t", "0,1", "--in", str(u)]) == 0
    out = capsys.readouterr().out.strip()
    val = float(out)
    # twelve significant digits printed
    assert len(out.replace(".", "").replace("-", "").lstrip("0")) >= 11
    assert 0.5 < val < 2.0


def test_norm_maximal_via_cli(tmp_path, capsys):
    f = tmp_path / "f.kslf"
    u = tmp_path / "u.kslt"
    cli.main(["field", "--make", "random:region=sector,seed=3",
              "--grid", "1,512,64", "--out", str(f)])
    cli.main(["propagate", "--symbol", "power:m=2,n=1", "--t0", "0",
              "--t1", "0.5", "--steps", "8", "--in", str(f), "--out", str(u)])
    capsys.readouterr()
    assert cli.main(["norm", "--q", "2", "--r", "inf", "--in", str(u)]) == 0
    assert float(capsys.readouterr().out.strip()) > 0


def test_wavepacket_decompose_cli(tmp_path, capsys):
    f = tmp_path / "f.kslf"
    out = tmp_path / "packets"
    cli.main(["field", "--make", "random:region=sector,seed=7",
              "--grid", "1,512,64", "--out", str(f)])
    capsys.readouterr()
    assert cli.main(["wavepacket", "decompose", "--R", "8", "--in", str(f),
                     "--out-dir", str(tmp_path / "coarse")]) == 0
    assert "spill n/a" in capsys.readouterr().out  # B(l, 32) covers the torus
    assert cli.main(["wavepacket", "decompose", "--R", "4", "--in", str(f),
                     "--out-dir", str(out)]) == 0
    manifest = (out / "manifest.csv").read_text().strip().splitlines()
    assert manifest[0] == "index,l,v,energy,file"
    assert len(manifest) > 10
    rows = [row.split(",") for row in manifest[1:]]
    # one stack: every row names it, index is the packet's row in it
    assert {row[4] for row in rows} == {"packets.kslp"}
    assert [int(row[0]) for row in rows] == list(range(len(rows)))
    grid, values = read_packets(str(out / "packets.kslp"))
    original = read_field(str(f))
    assert grid == original.grid and values.shape == (len(rows), 512)
    total_energy = sum(float(row[3]) for row in rows)
    assert total_energy == pytest.approx(original.l2() ** 2, rel=1e-9)
    # row i holds packet i's samples bit for bit, and the nodes and energies
    # are the decomposition's, as the per-packet files held them
    dec = wavepackets.decompose(original, wavepackets.build_partitions(4, original.grid))
    assert len(dec.packets) == len(rows)
    for i, (row, vals) in enumerate(zip(rows, values)):
        assert vals.tobytes() == packet_values(dec, i).tobytes()
        l, v, energy = packet_node(dec, i)
        assert row[1:4] == [f"{l[0]:g}", f"{v[0]:g}", f"{energy:.17g}"]
    # both files byte for byte as written one packet at a time
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("packets.kslp", "manifest.csv")}
    assert digests == {
        "packets.kslp": "7075aa512a25efe99979b3c662ca993f7eedfc5b50094135049e8cbd5f2cfc9d",
        "manifest.csv": "99de6d5a475938ff8daf1cb4ad96b2e34a744e736156a6380a510e4092b8fde7"}


def test_wavepacket_decompose_cli_without_packets(tmp_path, capsys):
    # a field with nothing in its band has no packets: the manifest is the
    # header alone and no stack is written
    f = tmp_path / "f.kslf"
    out = tmp_path / "packets"
    cli.main(["field", "--make", "random:region=annulus;100;200",
              "--grid", "1,512,64", "--out", str(f)])
    assert cli.main(["wavepacket", "decompose", "--R", "4", "--in", str(f),
                     "--out-dir", str(out)]) == 0
    assert "wrote 0 packets" in capsys.readouterr().out
    assert (out / "manifest.csv").read_text() == "index,l,v,energy,file\n"
    assert not (out / "packets.kslp").exists()


def test_opnorm_cli(capsys):
    assert cli.main(["opnorm", "--symbol", "power:m=2,n=1", "--alpha", "0.5",
                     "--R", "8,16,32", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("R,norm,iterations,residual\n")
    rows = [line.split(",") for line in out.splitlines()[1:4]]
    assert [row[0] for row in rows] == ["8", "16", "32"]
    assert all(0.0 <= float(row[3]) <= opnorm.LANCZOS_TOL for row in rows)
    assert '"slope"' in out


def test_opnorm_cli_seed_takes_effect_at_l2(capsys):
    # at R = 8 seeds 0 and 1 stop at different Lanczos steps and residuals
    spec = opnorm.SmoothingOperatorSpec(sym=symbols.schrodinger(1), alpha=0.5, R=8.0)
    steps = []
    for flags, seed in (([], 0), (["--seed", "1"], 1)):
        assert cli.main(["opnorm", "--symbol", "power:m=2,n=1", "--alpha", "0.5",
                         "--R", "8"] + flags) == 0
        res = opnorm.operator_norm_l2(spec, seed=seed)
        row = capsys.readouterr().out.splitlines()[1]
        assert row == f"8,{res.value:.10g},{res.iterations},{res.residual:.3g}"
        steps.append(res.iterations)
    assert steps[0] != steps[1]


@pytest.mark.parametrize("q, r", [("2", "inf"), ("4", "2")])
def test_opnorm_cli_refuses_a_seed_for_mixed_norms(capsys, q, r):
    # a mixed-norm lower bound reads no seed, so a given one is refused
    # before any scale runs
    assert cli.main(["opnorm", "--symbol", "power:m=2,n=1", "--alpha", "0.5",
                     "--q", q, "--r", r, "--R", "2", "--seed", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("kato opnorm: error: argument --seed: ")


def test_opnorm_cli_global_window_is_the_global_spec(capsys):
    assert cli.main(["opnorm", "--symbol", "power:m=2,n=1", "--alpha", "0.5",
                     "--window", "global", "--R", "2,8"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    for R, row in zip((2.0, 8.0), rows):
        spec = opnorm.SmoothingOperatorSpec(sym=symbols.schrodinger(1), alpha=0.5, R=R,
                                            window="global")
        assert spec.time_window() == (-opnorm.GLOBAL_T_FACTOR * R**2,
                                      opnorm.GLOBAL_T_FACTOR * R**2)
        res = opnorm.operator_norm_l2(spec, seed=0)
        assert row == f"{R:g},{res.value:.10g},{res.iterations},{res.residual:.3g}"


def test_opnorm_cli_cubic_symbol(capsys):
    # integer degrees take the structured apply at every scale
    assert cli.main(["opnorm", "--symbol", "power:m=3,n=1", "--alpha", "1",
                     "--R", "4,8,16"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split(",")[0] for row in rows[1:4]] == ["4", "8", "16"]


def test_opnorm_cli_refuses_a_scale_past_the_explicit_kernel(capsys):
    # m = 2.5 takes the explicit kernel, which R = 32 (19182 nodes) exceeds:
    # exit 2 before the first scale runs
    assert cli.main(["opnorm", "--symbol", "power:m=2.5,n=1", "--alpha", "0.5",
                     "--R", "8,16,32"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "argument --R: R = 32 needs 19182 L2 nodes" in err


# the case ids name the L^q_x L^r_t nesting of every mixed norm
@pytest.mark.parametrize("r", ["4", "inf"], ids=lambda r: f"{r}-xt")
def test_opnorm_cli_sup_over_x_runs_clean(capsys, r):
    # q = inf: the power iteration's subgradient must be finite, with no 0 * inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["opnorm", "--symbol", "power:m=2,n=1", "--alpha", "0.5",
                         "--q", "inf", "--r", r, "--R", "2"]) == 0
    header, row = capsys.readouterr().out.splitlines()[:2]
    assert header == "R,lower_bound,evaluations"
    row = row.split(",")
    assert len(row) == 3 and row[0] == "2" and float(row[1]) > 0 and int(row[2]) > 0


def test_duplicate_spec_keys_rejected_by_the_cli(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["opnorm", "--symbol", "power:m=2,m=3,n=1", "--alpha", "0.5",
                  "--R", "8,16,32"])
    assert exc.value.code == 2
    assert "argument --symbol: duplicate key 'm'" in capsys.readouterr().err
    out = tmp_path / "f.kslf"
    with pytest.raises(SystemExit) as exc:
        cli.main(["field", "--make", "random:seed=1,seed=2", "--grid", "1,512,64",
                  "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --make: duplicate key 'seed'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--ball", "0,0,1", "ball centre of dimension 2 on a grid of dimension 1"),
    ("--ball", "100,1", "the ball holds no grid cell"),
    ("--t", "5,6", "the time window holds no sample"),
], ids=["ball-dimension", "ball-off-grid", "window-after-samples"])
def test_norm_regions_that_miss_the_file_exit_naming_the_flag(tmp_path, capsys, flag, value,
                                                               message):
    # what only the file can refuse: a ball of another dimension or off the
    # grid, and a window after the last sample
    f, u = tmp_path / "f.kslf", tmp_path / "u.kslt"
    assert cli.main(["field", "--make", "gaussian:width=1", "--grid", "1,512,64",
                     "--out", str(f)]) == 0
    assert cli.main(["propagate", "--symbol", "power:m=2,n=1", "--t0", "0", "--t1", "1",
                     "--steps", "8", "--in", str(f), "--out", str(u)]) == 0
    capsys.readouterr()
    assert cli.main(["norm", "--q", "2", "--r", "2", flag, value, "--in", str(u)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"kato norm: error: argument {flag}: {message}\n"


@pytest.mark.parametrize("R, message", [
    ("5", "L must be an integer multiple of R"),
    ("64", "L >= 4R so the spatial windows fit the torus"),
], ids=["R-does-not-divide-L", "R-past-L-over-4"])
def test_packet_scales_the_file_cannot_resolve_exit_naming_the_flag(tmp_path, capsys, R,
                                                                    message):
    # only the file's grid (here N = 1024, L = 128) can refuse these scales
    f, out = tmp_path / "f.kslf", tmp_path / "packets"
    assert cli.main(["field", "--make", "random:region=sector,seed=7", "--grid", "1,1024,128",
                     "--out", str(f)]) == 0
    capsys.readouterr()
    assert cli.main(["wavepacket", "decompose", "--R", R, "--in", str(f),
                     "--out-dir", str(out)]) == 2
    assert capsys.readouterr() == ("", "kato wavepacket decompose: error: argument --R: "
                                       f"grid cannot resolve packet scales: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("make, grid, message", [
    ("gaussian:center=0;1", "1,256,32", "key 'center': a centre of dimension 2 on a grid of "
                                        "dimension 1"),
    ("gaussian:center=0", "2,64,32", "key 'center': a centre of dimension 1 on a grid of "
                                     "dimension 2"),
    ("random:region=ball;1.2;0.3", "2,64,32", "ball centre of dimension 1 on a grid of "
                                              "dimension 2"),
], ids=["gaussian-2-on-1", "gaussian-1-on-2", "ball-1-on-2"])
def test_field_recipes_the_grid_refuses_exit_naming_the_flag(tmp_path, capsys, make, grid,
                                                              message):
    out = tmp_path / "f.kslf"
    assert cli.main(["field", "--make", make, "--grid", grid, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"kato field: error: argument --make: {message}\n")
    assert not out.exists()


def test_propagate_refuses_a_symbol_of_another_dimension(tmp_path, capsys):
    f, u = tmp_path / "f.kslf", tmp_path / "u.kslt"
    assert cli.main(["field", "--make", "gaussian:width=1", "--grid", "1,256,32",
                     "--out", str(f)]) == 0
    capsys.readouterr()
    assert cli.main(["propagate", "--symbol", "power:m=2,n=2", "--t0", "0", "--t1", "1",
                     "--steps", "4", "--in", str(f), "--out", str(u)]) == 2
    assert capsys.readouterr() == ("", "kato propagate: error: argument --symbol: symbol "
                                       "dimension 2 on a file of dimension 1\n")
    assert not u.exists()


def test_run_cli(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("kind = scaling\nsymbol = power:m=2,n=1\nalpha = 0.5\n"
                   "q = 2\nr = 2\nR = 8,16,32\nseed = 4\n")
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert (tmp_path / "out" / "report.json").exists()


def test_run_cli_refuses_a_malformed_config_in_one_line(tmp_path, capsys):
    # the defaults R = 8,16,32,64 break the packet windows' L >= 4R at L = 128
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("kind = wavepacket-audit\nsymbol = power:m=2,n=1\n")
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr.startswith("kato run: error: config field 'R': ")
    assert stderr.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("content, message", [
    (None, "[Errno 2] No such file or directory: "),
    (b"\xffkind = scaling\n", "'utf-8' codec can't decode byte 0xff in position 0"),
], ids=["missing", "not-utf-8"])
def test_run_cli_refuses_an_unreadable_config_in_one_line(tmp_path, capsys, content,
                                                           message):
    cfg, out = tmp_path / "exp.cfg", tmp_path / "out"
    if content is not None:
        cfg.write_bytes(content)
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr.startswith(f"kato run: error: {message}")
    assert stderr.count("\n") == 1
    assert not out.exists()


def test_verify_cli_prefixes_and_fails_a_sabotaged_run(tmp_path, capsys, monkeypatch):
    scaling = "kind = scaling\nsymbol = power:m=2,n=1\nR = 8,16,32\nseed = 4\nalpha = "
    runs = [("good", experiments.parse_config(scaling + "0.5")),
            ("sabotaged", experiments.parse_config(scaling + "1.0"))]
    monkeypatch.setattr(experiments, "acceptance_runs", lambda: runs)
    assert cli.main(["verify", "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "[PASS] good/slope-matches-prediction: " in out
    assert "[FAIL] sabotaged/slope-matches-prediction: " in out
    report = json.loads((tmp_path / "verify.json").read_text())
    assert experiments.validate_report(report) == []
    names = [m["name"] for m in report["measurements"]]
    assert names and {n.split("/")[0] for n in names} == {"good", "sabotaged"}
    assert [c["name"] for c in report["criteria"]] == [
        "good/slope-matches-prediction", "sabotaged/slope-matches-prediction"]
    # both runs fit `scaling`: the prefix tells the two fits apart, and
    # without it the report is refused
    assert [f["tag"] for f in report["fits"]] == ["good/scaling", "sabotaged/scaling"]
    bare = {**report, "fits": [{**f, "tag": "scaling"} for f in report["fits"]]}
    assert experiments.validate_report(bare) == ["fits share the tag 'scaling'"]
    assert (tmp_path / "sabotaged" / "report.json").exists()


@pytest.mark.parametrize("command, flag, value", [
    ("field", "--grid", "1,abc"),
    ("field", "--grid", "1,1024,inf"),
    ("field", "--grid", "1,1024"),
    ("field", "--grid", "1,0,64"),
    ("propagate", "--steps", "0"),
    ("propagate", "--steps", "-3"),
    ("propagate", "--steps", "2.5"),
    ("propagate", "--t1", "nan"),
    ("propagate", "--t0", "inf"),
    ("norm", "--q", "abc"),
    ("norm", "--q", "0.5"),
    ("norm", "--r", "nan"),
    ("norm", "--ball", "1"),
    ("norm", "--ball", "0,-1"),
    ("norm", "--ball", "x,1"),
    ("norm", "--t", "0"),
    ("norm", "--t", "1,0"),
    ("norm", "--t", "0,inf"),
    ("norm", "--order", "xt"),
    ("opnorm", "--q", "abc"),
    ("opnorm", "--r", "0"),
    ("opnorm", "--alpha", "nan"),
    ("opnorm", "--alpha", "inf"),
    ("opnorm", "--alpha", "1e300"),
    ("opnorm", "--R", "8,x"),
    ("opnorm", "--R", "0.5,8"),
    ("opnorm", "--R", "8,inf"),
    ("opnorm", "--R", ""),
    ("opnorm", "--R", "2,3,4"),
    ("opnorm", "--R", "8,24,72"),
    ("opnorm", "--window", "foo"),
    ("opnorm", "--window", "global:x"),
    ("opnorm", "--window", "global:"),
    ("opnorm", "--window", "global:0"),
    ("opnorm", "--window", "global:inf"),
    ("opnorm", "--window", "local:2"),
    ("opnorm", "--seed", "-1"),
    ("opnorm", "--seed", "1.5"),
    ("opnorm", "--order", "tx"),
    ("opnorm", "--symbol", "bogus"),
    ("opnorm", "--symbol", "power:m=x,n=1"),
    ("opnorm", "--symbol", "power:m=2,m=3,n=1"),
    ("opnorm", "--symbol", "power:m=2,n=2"),
    ("propagate", "--symbol", "bogus"),
    ("propagate", "--symbol", "power:m=x,n=1"),
    ("propagate", "--symbol", "power:m=2,n=1,n=1"),
    ("field", "--make", "bogus"),
    ("field", "--make", "gaussian:width=x"),
    ("field", "--make", "gaussian:width=1,width=2"),
    ("field", "--make", "knapp"),
    ("wavepacket decompose", "--R", "nan"),
    ("wavepacket decompose", "--R", "0.5"),
    ("wavepacket decompose", "--R", "inf"),
    ("wavepacket decompose", "--R", "8,16"),
])
def test_bad_flags_exit_through_argparse(tmp_path, capsys, command, flag, value):
    out = tmp_path / "out"
    args = {"field": {"--make": "gaussian:width=1", "--grid": "1,512,64", "--out": str(out)},
            "propagate": {"--symbol": "power:m=2,n=1", "--t0": "0", "--t1": "1",
                          "--steps": "8", "--in": str(tmp_path / "f.kslf"), "--out": str(out)},
            "norm": {"--q": "2", "--r": "2", "--in": str(tmp_path / "u.kslt")},
            "opnorm": {"--symbol": "power:m=2,n=1", "--alpha": "0.5", "--R": "8"},
            "wavepacket decompose": {"--R": "8", "--in": str(tmp_path / "f.kslf"),
                                     "--out-dir": str(out)}}[command]
    args[flag] = value
    with pytest.raises(SystemExit) as exc:
        cli.main(command.split() + [x for kv in args.items() for x in kv])
    assert exc.value.code == 2
    # a flag the command does not take is named as unrecognized
    err = capsys.readouterr().err
    assert f"argument {flag}: " in err or f"unrecognized arguments: {flag} {value}" in err
    assert not out.exists()


# recipe kind -> a valid value of each of its keys
RECIPE_KEYS = {"gaussian": {"center": "0;1", "width": "1"},
               "random": {"region": "annulus;0.5;2", "seed": "7"},
               "knapp": {"R": "16", "center": "1.2"}}
RECIPE_WRONG = {"center": ["nan", "inf", "0;x", "1e400"], "width": ["nan", "-inf", "1;2"],
                "region": ["annulus;1", "ball;x;1", "annulus;nan;2", "sector;1", "disk;0;1"],
                "seed": ["2.5", "inf", "1e3"], "R": ["nan", "inf", "8;16"]}


@st.composite
def bad_recipe(draw):
    kind = draw(st.sampled_from(sorted(RECIPE_KEYS)))
    key = draw(st.sampled_from(sorted(RECIPE_KEYS[kind])))
    value = draw(st.one_of(st.just(""), st.text(alphabet=" \t", min_size=1, max_size=3),
                           st.text(alphabet="abcxyz", min_size=1, max_size=6),
                           st.sampled_from(RECIPE_WRONG[key])))
    kv = dict(RECIPE_KEYS[kind], **{key: value})
    return kind + ":" + ",".join(f"{k}={v}" for k, v in kv.items()), key


@settings(max_examples=200, deadline=None)
@given(bad_recipe())
def test_blank_or_mistyped_recipe_values_name_their_key(case):
    text, key = case
    with pytest.raises(ValueError, match=f"^key '{key}': "):
        cli._parse_recipe(text)


def test_recipes_parse():
    assert cli._parse_recipe("gaussian:center=0;1,width=2") == GaussianRecipe((0.0, 1.0), 2.0)
    assert cli._parse_recipe("random:region=ball;1.2;0.3,seed=4") == \
        RandomBandlimited(Ball((1.2,), 0.3), 4)
    assert cli._parse_recipe("random").region == Sector()
    assert cli._parse_recipe("knapp:R=16") == KnappRecipe(16.0, 1.2)
    with pytest.raises(ValueError, match="^key 'R': "):
        cli._parse_recipe("knapp:center=1.2")
    # a key the recipe does not read
    for text, key in (("gaussian:widht=2", "widht"), ("random:seed=1,center=0", "center"),
                      ("knapp:R=16,width=1", "width")):
        with pytest.raises(ValueError, match=f"^key '{key}': "):
            cli._parse_recipe(text)
    with pytest.raises(ValueError, match="unknown kind 'gauss'"):
        cli._parse_recipe("gauss:width=1")


def test_flag_values_reach_the_command():
    assert cli._exponent("inf") == math.inf and cli._exponent("4") == 4.0
    assert cli._scales("8,16,32") == [8.0, 16.0, 32.0]
    assert cli._scales("2,3") == [2.0, 3.0]  # no fit, so any two scales
    assert cli._ball("0,1.5,2") == ((0.0, 1.5), 2.0)
    assert cli._interval("0,1") == (0.0, 1.0)
