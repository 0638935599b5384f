"""katolab benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload maximal --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout; katolab is imported from ``./src``.
Every sample is a fresh process (``worker.py``) with tracing off: set-up
probes first, then passes of the workload until ``--seconds`` would be
exceeded (at least one). ``--seed`` offsets every config seed; 0 gives the
acceptance battery's seeds. With ``--trace 1`` one more pass runs with spans
installed and the per-layer metrics are printed instead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
figure by name, the failure share, the environment and the load average.
Scratch files and the record of each run go under ``.bench_build/perfbench``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(BENCH_DIR))

from perfbench import spans, stats, workloads  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "norm_rmax": "1"}
SETUP_PROBES = 5
# every child is killed past this, so a run ends within 180 s
DEADLINE_S = 170.0
ACCOUNTING_TOL_S = 1e-6
STATE_DIR = os.path.join(".bench_build", "perfbench")


def _cpu() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = []
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for d in sorted(os.listdir(base)):
            if d.startswith("index"):
                vals = []
                for key in ("level", "type", "size"):
                    with open(os.path.join(base, d, key)) as fh:
                        vals.append(fh.read().strip())
                caches.append("L{} {} {}".format(*vals))
    except OSError:
        pass
    return {"cpu": model, "caches": caches}


def _child_env(root: str, threads: int) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def _child(mode: str, args, env: dict, deadline: float, spans_out=None) -> dict:
    """Launch one worker, wait for it and return its result."""
    # one relative path for every pass: reports echo their output directory
    work = os.path.join(STATE_DIR, "work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        argv = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), mode,
                "--workload", args.workload, "--offset", str(args.seed),
                "--work-dir", work]
        if spans_out:
            argv += ["--spans-out", spans_out]
        load = os.getloadavg()[0]
        launched = time.monotonic()
        subprocess.run(argv + ["--launched", repr(launched)], env=env,
                       stdout=subprocess.DEVNULL, check=True,
                       timeout=max(1.0, deadline - launched))
        with open(os.path.join(work, "result.json")) as fh:
            result = json.load(fh)
        result["load_before"], result["load_after"] = load, os.getloadavg()[0]
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _source_digest(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for d, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(x for x in dirs if x != "__pycache__")
        for f in sorted(files):
            path = os.path.join(d, f)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _check_digests(key: str, digests: list) -> list:
    """Problems if repeats of one source tree, workload, seed and thread count
    disagree.

    Digests are kept across runs in the checkout, so a later run of the same
    seed is compared with the first one.
    """
    problems = []
    if len(set(digests)) > 1:
        problems.append(f"report digests differ between passes: {sorted(set(digests))}")
    path = os.path.join(STATE_DIR, "digests.json")
    known = {}
    if os.path.exists(path):
        with open(path) as fh:
            known = json.load(fh)
    if key in known and known[key] != digests[0]:
        problems.append(f"report digest {digests[0]} differs from {known[key]} "
                        "recorded by an earlier run of this seed")
    elif key not in known:
        known[key] = digests[0]
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(known, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
    return problems


def end_to_end(passes: list, setup: list) -> dict:
    return {
        "wall_s": stats.median([p["wall_s"] for p in passes]),
        "setup_s": stats.median(setup),
        "peak_rss_mb": stats.median([p["rss_mb"] for p in passes]),
        "norm_rmax": passes[0]["norm"],
    }


def per_layer(traced: dict, passes: list) -> dict:
    out = dict(traced["layers"])
    out["experiments.report.bytes"] = traced["report_bytes"]
    out["trace.overhead_s"] = traced["wall_s"] - stats.median(
        [p["wall_s"] for p in passes])
    return out


def result_line(correct: bool, attempted: int, failed: int, values: dict,
                units: dict) -> str:
    missing = set(units) - set(values)
    if missing:
        raise ValueError(f"metrics not measured: {sorted(missing)}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def _summary(args, env_record, passes, setup, values, units, attempted, failed,
             problems, flags) -> list:
    lines = [f"perfbench workload={args.workload} seed={args.seed} "
             f"trace={args.trace} seconds={args.seconds:g} passes={len(passes)} "
             f"setup_samples={len(setup)}",
             "environment " + json.dumps(env_record, sort_keys=True)]
    walls = [p["wall_s"] for p in passes]
    q1, q3 = stats.quartiles(walls)
    lines.append(f"passes wall_s {[round(w, 3) for w in walls]} quartiles "
                 f"{q1:.3f}..{q3:.3f}")
    for name, unit in units.items():
        lines.append(f"{name} = {values[name]!r} {unit}")
    lines.append(f"fail_frac = {failed / attempted!r} ({failed} failed of "
                 f"{attempted} attempted operations)")
    lines.append(f"load average {passes[0]['load_before']:.2f} before the first pass, "
                 f"{passes[-1]['load_after']:.2f} after the last")
    lines += [f"problem: {p}" for p in problems]
    lines += [f"flag: {f}" for f in flags]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="offset added to every config seed (default 0: the battery's)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "katolab", "__init__.py")):
        print("perfbench: ./src/katolab not found; run from the root of a "
              "katolab checkout", file=sys.stderr)
        return 2
    os.makedirs(STATE_DIR, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    threads = nproc  # BLAS threads: one per usable core, never more
    env = _child_env(root, threads)
    try:
        # the first launch also compiles katolab's bytecode, so it is not timed
        probe = _child("probe", args, env, deadline)
        setup = [_child("probe", args, env, deadline)["setup_s"]
                 for _ in range(SETUP_PROBES)]
        passes = []
        start = time.monotonic()
        while True:
            t = time.monotonic()
            passes.append(_child("pass", args, env, deadline))
            setup.append(passes[-1]["setup_s"])
            now = time.monotonic()
            last = now - t
            if (now - start + last > args.seconds
                    or now + last * (1 + 1.5 * args.trace) > deadline):
                break
        traced = None
        if args.trace:
            spans_out = os.path.join(STATE_DIR, f"spans-{args.workload}-seed{args.seed}.json")
            traced = _child("pass", args, env, deadline, spans_out=spans_out)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: a worker failed: {exc}", file=sys.stderr)
        return 1

    everything = passes + ([traced] if traced else [])
    attempted = sum(p["attempted"] for p in everything)
    failed = sum(p["failed"] for p in everything)
    problems = [q for p in everything for q in p["problems"]]
    # the BLAS thread count changes results in the last bits, so it is part of the key
    key = f"{_source_digest(root)}:{args.workload}:{args.seed}:{threads}"
    problems += _check_digests(key, [p["digest"] for p in everything])
    if traced:
        err = spans.accounting_error(traced["layers"])
        if err > ACCOUNTING_TOL_S:
            problems.append(f"layer self times miss the traced wall by {err:.3g} s")
        values, units = per_layer(traced, passes), spans.PER_LAYER_UNITS
    else:
        values, units = end_to_end(passes, setup), END_TO_END_UNITS
        if values["norm_rmax"] is None:
            problems.append(f"{workloads.WORKLOADS[args.workload].norm} was not reported")
            values["norm_rmax"] = 0.0
    correct = failed == 0 and not problems

    flags = [f"load average {p['load_before']:.2f} above nproc {nproc} at the "
             "start of a sample: it measures the scheduler, not katolab"
             for p in [probe] + everything if p["load_before"] > nproc]
    env_record = {"nproc": nproc, **_cpu(), "python": platform.python_version(),
                  "numpy": probe["numpy"], "blas": probe["blas"],
                  "blas_threads": threads}
    record = {"args": vars(args), "environment": env_record, "setup_s": setup,
              "passes": passes, "traced": traced, "problems": problems,
              "flags": flags}
    with open(os.path.join(STATE_DIR, f"run-{args.workload}-seed{args.seed}"
                                      f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for line in _summary(args, env_record, passes, setup, values, units,
                         attempted, failed, problems, flags):
        print(line)
    print(result_line(correct, attempted, failed, values, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
