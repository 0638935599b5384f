"""The benchmark's workloads: slices of katolab's acceptance battery.

Each workload is a fixed list of ``kato run`` configs, driven in-process
through ``katolab.cli.main(["run", cfg, "--out", dir])``, plus, for
``audits``, the tube-incidence check and a CLI file pipeline. The configs
copy the battery's (``experiments.acceptance_runs()``) except where noted;
every config seed is the battery's seed plus the benchmark's seed offset,
so offset 0 reproduces the battery.

The slices are cut so that one pass takes 10-30 s on a 2-core machine:

* ``maximal`` is criterion 08 at R=8,16,32 with the ascent cut from 2
  restarts x 12 steps to 1 x 4. The slope only meets its tolerance once
  R=32 is in the fit, and R=32 with the battery's ascent alone takes 45 s.
* ``transfer`` is criterion 09 at R=2,4,8 instead of 8,16,32.
* ``audits`` runs 6 wave-packet fields instead of 20. It keeps the 50
  sparse trials: their point counts are random, and fewer trials make the
  pass length depend on the seed.

Only this module and the worker import katolab; ``run.py`` needs names.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import time
import traceback
from dataclasses import dataclass

import numpy as np

SCHR = "power:m=2,n=1"


@dataclass(frozen=True)
class KatoRun:
    """One ``kato run`` config and the criteria its report must declare."""

    name: str
    config: str
    seed: int
    criteria: tuple

    def text(self, offset: int) -> str:
        return f"{self.config}\nseed = {self.seed + offset}\n"


@dataclass(frozen=True)
class Workload:
    name: str
    runs: tuple
    # "<run>/<measurement>" reported as norm_rmax. audits computes no operator
    # norm; it reports the pipeline's L2_t L2_x norm over ||f||_2, which does
    # not depend on the random field the seed picks.
    norm: str
    audit_extras: bool = False  # tube incidence and the CLI file pipeline


MAXIMAL = KatoRun(
    "maximal-exponent",
    f"kind = maximal\nsymbol = {SCHR}\nalpha = -0.25\nq = 2\nR = 8,16,32\n"
    "ascent_steps = 4\nrestarts = 1", 6, ("maximal-slope",))
TRANSFER = KatoRun(
    "window-transfer",
    f"kind = transfer\nsymbol = {SCHR}\nalpha = 0.5\nq = 2\nr = 2\nr_tilde = 4\n"
    "R = 2,4,8", 7, ("window-transfer-slope",))
L2_SCALING = KatoRun(
    "l2-scaling",
    f"kind = scaling\nsymbol = {SCHR}\nalpha = 0.5\nq = 2\nr = 2\nR = 8,16,32,64\n"
    "cross_check = true", 4, ("slope-matches-prediction", "dense-cross-check"))
SHARPNESS = KatoRun(
    "sharpness-direction",
    f"kind = scaling\nsymbol = {SCHR}\nalpha = 0.75\nq = 2\nr = 2\nR = 8,16,32,64\n"
    "expect = residual\nresidual_min = 0.2", 5, ("residual-slope-grows",))
AUDIT_RUNS = (
    KatoRun("energy-and-gaussian",
            f"kind = propagator-audit\nsymbol = {SCHR}\nN = 1024\nL = 64\nfields = 100",
            1, ("energy-identity", "gaussian-oracle")),
    KatoRun("wavepacket-identities",
            f"kind = wavepacket-audit\nsymbol = {SCHR}\nN = 1024\nL = 128\nR = 4,8\n"
            "fields = 6", 2,
            ("packet-reconstruction", "packet-energy-identity", "almost-orthogonality")),
    KatoRun("kernel-and-surface-decay",
            f"kind = decay-audit\nsymbol = {SCHR}\nR = 16,32", 3,
            ("kernel-decay", "surface-measure-decay")),
    KatoRun("sparse-decomposition",
            f"kind = sparse-audit\nsymbol = {SCHR}\ntrials = 50\nK = 3", 8,
            ("sparse-decomposition-audit",)),
    KatoRun("sparse-decoupling", f"kind = decoupling-audit\nsymbol = {SCHR}", 9,
            ("sparse-decoupling",)),
)

# why each workload was chosen is in BENCHMARK.json
WORKLOADS = {w.name: w for w in (
    Workload("maximal", (MAXIMAL,), "maximal-exponent/maximal_R32"),
    Workload("transfer", (TRANSFER,), "window-transfer/global_R8"),
    Workload("l2-scan", (L2_SCALING, SHARPNESS), "l2-scaling/norm_R64"),
    Workload("audits", AUDIT_RUNS, "cli-pipeline/norm_per_data_norm",
             audit_extras=True),
)}

# seed of the CLI pipeline's random field; not one of the battery's seeds
PIPELINE_SEED = 10
PIPELINE_GRID = (1, 1024, 128.0)
PIPELINE_STEPS = 64
PIPELINE_T1 = 4.0
TUBE_H = (16.0, 32.0, 64.0)


def prepare(workload: Workload, offset: int, work_dir: str) -> list:
    """Set-up: write the generated configs and parse each. Returns paths."""
    from katolab import experiments
    paths = []
    for run in workload.runs:
        path = os.path.join(work_dir, f"{run.name}.cfg")
        text = run.text(offset)
        with open(path, "w") as fh:
            fh.write(text)
        experiments.parse_config(text)
        paths.append(path)
    return paths


def _kato(argv) -> tuple:
    """Run one CLI command in-process; (return code or None, stdout)."""
    from katolab import cli
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    except (Exception, SystemExit):
        traceback.print_exc()
        rc = None
    return rc, out.getvalue()


def execute(workload: Workload, offset: int, work_dir: str, paths: list) -> dict:
    """The timed body of a pass. Checks that need no timing come later."""
    raw = {"runs": [], "tube": None, "pipeline": None}
    for run, path in zip(workload.runs, paths):
        rc, _ = _kato(["run", path, "--out", os.path.join(work_dir, run.name)])
        raw["runs"].append(rc)
    if workload.audit_extras:
        raw["tube"] = _tube_incidence()
        raw["pipeline"] = _pipeline(offset, work_dir)
    return raw


def _tube_incidence():
    from katolab import symbols, wavepackets
    try:
        return [wavepackets.max_overlap(symbols.schrodinger(1), H)["count"]
                for H in TUBE_H]
    except Exception:
        traceback.print_exc()
        return None


def _pipeline(offset: int, work_dir: str) -> list:
    """field -> propagate (KSLT write) -> norm (KSLT read) -> decompose."""
    d = os.path.join(work_dir, "pipeline")
    os.makedirs(d)
    f, u, packets = (os.path.join(d, n) for n in ("f.kslf", "u.kslt", "packets"))
    n, N, L = PIPELINE_GRID
    return [
        _kato(["field", "--make", f"random:region=sector,seed={PIPELINE_SEED + offset}",
               "--grid", f"{n},{N},{L:g}", "--out", f]),
        _kato(["propagate", "--symbol", SCHR, "--t0", "0", "--t1", f"{PIPELINE_T1:g}",
               "--steps", str(PIPELINE_STEPS), "--in", f, "--out", u]),
        _kato(["norm", "--q", "2", "--r", "2", "--in", u]),
        _kato(["wavepacket", "decompose", "--R", "8", "--in", f,
               "--out-dir", packets]),
    ]


def _canonical(report: dict) -> bytes:
    rest = {k: v for k, v in report.items() if k != "environment"}
    return json.dumps(rest, sort_keys=True).encode()


def check(workload: Workload, work_dir: str, raw: dict) -> dict:
    """Validate every report and output; count operations; hash results.

    One operation is one declared criterion of a ``kato run``, the tube
    incidence check, or one CLI pipeline step. A run that raises, or whose
    report fails ``experiments.validate_report``, fails all its operations.
    """
    from katolab import experiments
    digest = hashlib.sha256()
    out = {"attempted": 0, "failed": 0, "problems": [], "values": {},
           "report_bytes": 0}

    def fail(count: int, problem: str):
        out["failed"] += count
        out["problems"].append(problem)

    for run, rc in zip(workload.runs, raw["runs"]):
        out["attempted"] += len(run.criteria)
        path = os.path.join(work_dir, run.name, "report.json")
        if rc is None or not os.path.exists(path):
            fail(len(run.criteria), f"{run.name}: raised or wrote no report")
            continue
        with open(path, "rb") as fh:
            blob = fh.read()
        out["report_bytes"] += len(blob)
        report = json.loads(blob)
        bad = experiments.validate_report(report)
        if bad:
            fail(len(run.criteria), f"{run.name}: invalid report: {bad[:3]}")
            continue
        digest.update(_canonical(report))
        passed = {c["name"]: c["passed"] for c in report["criteria"]}
        for name in run.criteria:
            if passed.get(name) is not True:
                fail(1, f"{run.name}/{name}: not passed")
        for m in report["measurements"]:
            out["values"][f"{run.name}/{m['name']}"] = m["value"]

    if workload.audit_extras:
        out["attempted"] += 1
        counts = raw["tube"]
        if counts is None or max(counts) > 2.0 * min(counts):
            fail(1, f"tube-incidence: overlap counts {counts} vary more than 2x")
        digest.update(json.dumps(counts).encode())
        _check_pipeline(work_dir, raw["pipeline"], out, fail, digest)
        shutil.rmtree(os.path.join(work_dir, "pipeline"), ignore_errors=True)
    out["digest"] = digest.hexdigest()
    return out


def _field_energy(path: str) -> float:
    """||f||_2^2 read straight from the KSLF bytes, independent of katolab."""
    n, N, L = PIPELINE_GRID
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) != 32 + 16 * N**n:
        raise ValueError(f"{path}: {len(raw)} bytes, expected {32 + 16 * N**n}")
    vals = np.frombuffer(raw, dtype="<f8", offset=32)
    return float(np.sum(vals**2)) * (L / N) ** n


def _check_pipeline(work_dir, steps, out, fail, digest):
    d = os.path.join(work_dir, "pipeline")
    (rc_f, _), (rc_p, _), (rc_n, norm_text), (rc_d, _) = steps
    out["attempted"] += 4
    energy = None
    if rc_f != 0:
        fail(1, "cli-pipeline/field: failed")
    else:
        try:
            energy = _field_energy(os.path.join(d, "f.kslf"))
        except (OSError, ValueError) as exc:
            fail(1, f"cli-pipeline/field: {exc}")
    if rc_p != 0 or not os.path.exists(os.path.join(d, "u.kslt")):
        fail(1, "cli-pipeline/propagate: failed")
    # the evolution is unitary, so the L2_t L2_x norm over S uniform samples
    # with weight dt is ||f|| sqrt(S dt)
    dt = PIPELINE_T1 / (PIPELINE_STEPS - 1)
    try:
        norm = float(norm_text.strip())
    except ValueError:
        norm = math.nan
    want = math.sqrt(energy * PIPELINE_STEPS * dt) if energy else math.nan
    if rc_n != 0 or not abs(norm - want) <= 1e-9 * want:
        fail(1, f"cli-pipeline/norm: printed {norm_text.strip()!r}, expected {want!r}")
    else:
        out["values"]["cli-pipeline/norm_per_data_norm"] = norm / math.sqrt(energy)
    digest.update(norm_text.encode())
    manifest = os.path.join(d, "packets", "manifest.csv")
    if rc_d != 0 or not os.path.exists(manifest):
        fail(1, "cli-pipeline/decompose: failed")
        return
    with open(manifest, "rb") as fh:
        blob = fh.read()
    digest.update(blob)
    rows = blob.decode().splitlines()[1:]
    files = [r.rsplit(",", 1)[1] for r in rows]
    missing = [f for f in files if not os.path.exists(os.path.join(d, "packets", f))]
    # packet energies plus the dropped ones (below 1e-18 ||f||^2) make ||f||^2
    total = sum(float(r.split(",")[3]) for r in rows)
    if not rows or missing or energy is None or abs(total - energy) > 1e-10 * energy:
        fail(1, f"cli-pipeline/decompose: {len(rows)} packets, {len(missing)} "
                f"missing, energy {total!r} vs {energy!r}")


def run_pass(workload: Workload, offset: int, work_dir: str, paths: list,
             tracer=None) -> dict:
    """Execute one pass, timed, then check it; optionally traced."""
    if tracer is not None:
        from perfbench.spans import ROOT, install
        restore = install(tracer)
        root = tracer.open(ROOT)
    t0 = time.perf_counter()
    raw = execute(workload, offset, work_dir, paths)
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(root)
        restore()
    result = check(workload, work_dir, raw)
    result["wall_s"] = wall
    result["norm"] = result["values"].get(workload.norm)
    del result["values"]
    return result
