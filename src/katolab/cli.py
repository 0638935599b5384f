"""Command-line interface: field creation, propagation, norms, operator
norms, wave-packet decomposition, and the experiment runner."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import experiments, norms, opnorm, propagator, symbols, wavepackets
from .core import (Annulus, Ball, GaussianRecipe, Grid, KnappRecipe,
                   RandomBandlimited, Sector, make_field, read_field,
                   read_spacetime, write_field, write_packets, write_spacetime)


def _parse_recipe(text: str):
    """A field recipe from --make; a blank or non-numeric value raises
    ValueError naming its key."""
    kinds = {"gaussian": ("center", "width"), "random": ("region", "seed"), "knapp": ("R", "center")}
    kind, kv = symbols.split_spec(text, kinds)
    num = symbols.spec_number
    if kind == "gaussian":
        center = tuple(num(c, "center") for c in kv.get("center", "0").split(";"))
        return GaussianRecipe(center=center, width=num(kv.get("width", "1"), "width"))
    if kind == "random":
        region = kv.get("region", "sector")
        name, *vals = region.split(";")
        if name == "sector" and not vals:
            reg = Sector()
        elif name in ("annulus", "ball") and len(vals) == 2:
            a, b = (num(v, "region") for v in vals)
            reg = Annulus(a, b) if name == "annulus" else Ball(center=(a,), radius=b)
        else:
            raise ValueError("key 'region': expected sector, annulus;r0;r1 or "
                             f"ball;center;radius, got {region!r}")
        return RandomBandlimited(region=reg, seed=num(kv.get("seed", "0"), "seed", int))
    if "R" not in kv:
        raise ValueError("key 'R': required by the knapp recipe")
    return KnappRecipe(R=num(kv["R"], "R"), center_xi=num(kv.get("center", "1.2"), "center"))


def _line_symbol(text: str) -> symbols.SymbolSpec:
    """A symbol the one-dimensional operator norms take."""
    sym = symbols.from_config(text)
    if sym.n != 1:
        raise ValueError(f"operator norms are one-dimensional, got n = {sym.n}")
    return sym


def _grid(text: str) -> Grid:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected n,N,L, got {text!r}")
    return Grid(int(parts[0]), int(parts[1]), float(parts[2]))


def _spec_type(parse):
    """A flag type that shows parse's ValueError message after the flag's name."""
    def parse_flag(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return parse_flag


# Flag types raise ValueError on a bad value; argparse then exits 2 naming the flag.

def _positive_int(text: str) -> int:
    val = int(text)
    if val < 1:
        raise ValueError(text)
    return val


def _non_negative_int(text: str) -> int:
    val = int(text)
    if val < 0:
        raise ValueError(text)
    return val


def _finite_float(text: str) -> float:
    val = float(text)
    if not math.isfinite(val):
        raise ValueError(text)
    return val


def _alpha(text: str) -> float:
    val = float(text)
    opnorm.check_alpha(val)
    return val


def _exponent(text: str) -> float:
    """A Lebesgue exponent: a number >= 1, or inf."""
    val = float(text)
    if not val >= 1:
        raise ValueError(text)
    return val


def _scale(text: str) -> float:
    val = float(text)
    if not 1 <= val < math.inf:
        raise ValueError(text)
    return val


def _scales(text: str) -> list:
    scales = [_scale(x) for x in text.split(",")]
    if len(scales) >= 3:  # the scan fits an exponent to them
        opnorm.check_fit_scales(scales)
    return scales


def _ball(text: str) -> tuple:
    """(center, radius) from c1[,c2...],radius."""
    *center, radius = (float(x) for x in text.split(","))
    if not (center and radius > 0 and all(map(math.isfinite, center + [radius]))):
        raise ValueError(text)
    return tuple(center), radius


def _interval(text: str) -> tuple:
    a, b = (float(x) for x in text.split(","))
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise ValueError(text)
    return a, b


def _cmd_field(args):
    grid = args.grid
    try:  # a recipe the grid refuses is a bad flag value
        f = make_field(grid, args.make)
    except ValueError as exc:
        print(f"kato field: error: argument --make: {exc}", file=sys.stderr)
        return 2
    write_field(f, args.out)
    print(f"wrote {args.out} ({grid.n}d, N={grid.N}, L={grid.L})")


def _cmd_propagate(args):
    f = read_field(args.infile)
    if args.symbol.n != f.grid.n:
        print(f"kato propagate: error: argument --symbol: symbol dimension {args.symbol.n} "
              f"on a file of dimension {f.grid.n}", file=sys.stderr)
        return 2
    times = np.linspace(args.t0, args.t1, args.steps)
    u = propagator.propagate(f, args.symbol, times)
    write_spacetime(u, args.out)
    print(f"wrote {args.out} ({args.steps} slices on [{args.t0}, {args.t1}])")


def _cmd_norm(args):
    u = read_spacetime(args.infile)
    # a ball or window that misses the file's grid or samples is a bad flag value
    for flag, mask, region in (("--ball", norms.spatial_mask, args.ball),
                               ("--t", norms.time_mask, args.t)):
        try:
            mask(u, region)
        except ValueError as exc:
            print(f"kato norm: error: argument {flag}: {exc}", file=sys.stderr)
            return 2
    spec = norms.MixedNormSpec(q=args.q, r=args.r, ball=args.ball, window=args.t)
    print(f"{norms.mixed_norm(u, spec):.12g}")


def _cmd_opnorm(args):
    sym = args.symbol
    l2 = args.q == 2 and args.r == 2
    specs = [opnorm.SmoothingOperatorSpec(sym=sym, alpha=args.alpha, R=R, q=args.q, r=args.r,
                                          window=args.window)
             for R in args.R]
    if l2:
        try:
            for spec in specs:
                opnorm.check_l2_scale(spec)
        except ValueError as exc:
            print(f"kato opnorm: error: argument --R: {exc}", file=sys.stderr)
            return 2
    # a mixed-norm lower bound has no solver residual
    print("R,norm,iterations,residual" if l2 else "R,lower_bound,evaluations")
    samples = []
    for R, spec in zip(args.R, specs):
        if l2:
            res = opnorm.operator_norm_l2(spec, seed=args.seed)
            print(f"{R:g},{res.value:.10g},{res.iterations},{res.residual:.3g}")
        else:
            res = opnorm.lower_bound_mixed(spec)
            print(f"{R:g},{res.value:.10g},{res.evaluations}")
        samples.append((R, res.value))
    if len(samples) >= 3:
        predicted = opnorm.predicted_exponent(sym.n, sym.m, args.q, args.r, args.alpha)
        fit = opnorm.fit_exponent(samples, predicted=predicted)
        summary = {"slope": fit.slope, "intercept": fit.intercept,
                   "stderr": fit.stderr, "predicted": predicted}
        print(json.dumps(summary, sort_keys=True))


def _cmd_wavepacket(args):
    f = read_field(args.infile)
    try:  # a scale the file's grid cannot resolve is a bad flag value
        pair = wavepackets.build_partitions(args.R, f.grid)
    except ValueError as exc:
        print(f"kato wavepacket decompose: error: argument --R: {exc}", file=sys.stderr)
        return 2
    dec = wavepackets.decompose(f, pair)
    os.makedirs(args.out_dir, exist_ok=True)
    name = "packets.kslp"
    packets = dec.packets
    if len(packets):
        write_packets(f.grid, len(packets),
                      wavepackets.packet_values(packets, np.arange(len(packets))),
                      os.path.join(args.out_dir, name))
    ls = pair.lattice[packets.l].tolist()
    vs = pair.v_axis[packets.v].tolist()
    with open(os.path.join(args.out_dir, "manifest.csv"), "w") as fh:
        fh.write("index,l,v,energy,file\n")
        for i, (l, v, e) in enumerate(zip(ls, vs, packets.energy.tolist())):
            l_s = ";".join(f"{c:g}" for c in l)
            v_s = ";".join(f"{c:g}" for c in v)
            fh.write(f"{i},{l_s},{v_s},{e:.17g},{name}\n")
    spill = "n/a" if dec.spill_max is None else f"{dec.spill_max:.2e}"
    print(f"wrote {len(packets)} packets to {args.out_dir} "
          f"(dropped {dec.dropped_count}, spill {spill})")


def _print_criteria(report):
    for c in report.criteria:
        mark = "PASS" if c["passed"] else "FAIL"
        print(f"[{mark}] {c['name']}: {c['detail']}")


def _cmd_run(args):
    try:  # a config that is missing or malformed runs nothing and writes nothing
        with open(args.config) as fh:
            cfg = experiments.parse_config(fh.read())
    except (experiments.ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"kato run: error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        cfg.out = args.out
    report = experiments.run(cfg)
    _print_criteria(report)
    if not report.criteria:
        print("(no criteria declared; measurements only)")
    return 0 if report.passed else 1


def _cmd_verify(args):
    report = experiments.verify_all(out_dir=args.out)
    _print_criteria(report)
    print(f"total wall clock: {report.environment['wall_clock_s']}s")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="kato",
                                 description="smoothing-estimate laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="create a field file from a recipe")
    p.add_argument("--make", type=_spec_type(_parse_recipe), required=True,
                   help="gaussian:center=0,width=1 | random:region=sector,seed=7 "
                        "(region also annulus;r0;r1 or ball;center;radius) | knapp:R=16")
    p.add_argument("--grid", type=_spec_type(_grid), required=True, help="n,N,L")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_field)

    p = sub.add_parser("propagate", help="evolve a field file")
    p.add_argument("--symbol", type=_spec_type(symbols.from_config), required=True)
    p.add_argument("--t0", type=_finite_float, required=True)
    p.add_argument("--t1", type=_finite_float, required=True)
    p.add_argument("--steps", type=_positive_int, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_propagate)

    p = sub.add_parser("norm", help="mixed norm of an evolution file")
    p.add_argument("--q", type=_exponent, required=True)
    p.add_argument("--r", type=_exponent, required=True)
    p.add_argument("--ball", type=_ball, help="c1[,c2...],radius")
    p.add_argument("--t", type=_interval, help="a,b")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(fn=_cmd_norm)

    p = sub.add_parser("opnorm", help="operator norm scan over scales")
    p.add_argument("--symbol", type=_spec_type(_line_symbol), required=True)
    p.add_argument("--alpha", type=_alpha, required=True)
    p.add_argument("--q", type=_exponent, default="2")
    p.add_argument("--r", type=_exponent, default="2")
    p.add_argument("--window", choices=("local", "global"), default="local")
    p.add_argument("--R", type=_scales, required=True, help="comma-separated scales")
    p.add_argument("--seed", type=_non_negative_int, default=0,
                   help="seeds the Lanczos start (q = r = 2) only; "
                        "mixed-norm lower bounds do not read it")
    p.set_defaults(fn=_cmd_opnorm)

    p = sub.add_parser("wavepacket", help="wave-packet operations")
    wsub = p.add_subparsers(dest="wp_command", required=True)
    pd = wsub.add_parser("decompose", help="split a field into packets")
    pd.add_argument("--R", type=_scale, required=True)
    pd.add_argument("--in", dest="infile", required=True)
    pd.add_argument("--out-dir", dest="out_dir", required=True)
    pd.set_defaults(fn=_cmd_wavepacket)

    p = sub.add_parser("run", help="run an experiment config")
    p.add_argument("config")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("verify", help="run the full verification battery")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_verify)

    args = ap.parse_args(argv)
    rc = args.fn(args)
    return int(rc) if rc is not None else 0


if __name__ == "__main__":
    sys.exit(main())
