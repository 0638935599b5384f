"""Run one workload once per seed and print each metric's median and spread.

    python3 perfbench/repeat.py --workload maximal --seeds 0-9 --seconds 20

Run it from the root of a checkout. The spread is the distance between the
quartiles of the per-seed values (``statistics.quantiles(values, n=4)``) as a
share of their median, printed next to the metric's bound from
``BENCHMARK.json``. Every run's result line is appended to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(BENCH_DIR))

from perfbench import stats  # noqa: E402


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="0-9", help="first-last, inclusive")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append each result line to this file")
    args = ap.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    seconds = args.seconds or bench["run_seconds"]

    values: dict = {}
    bad = 0
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                "--seconds", str(seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        line = proc.stdout.strip().splitlines()[-1]
        result = json.loads(line)
        bad += not result["correct"]
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                     "result": result}) + "\n")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)

    print(f"{args.workload}: {len(next(iter(values.values())))} runs, {bad} not correct")
    for name, vals in values.items():
        med = stats.median(vals)
        q1, q3 = stats.quartiles(vals)
        sp = stats.spread(vals) if med else float("nan")
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            f" bound {bound} {'ok' if sp <= bound / 3 else 'WIDE' if sp > bound else 'over 1/3'}")
        print(f"  {name}: median {med:.6g} quartiles {q1:.6g}..{q3:.6g} "
              f"spread {sp:.4f}{verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
