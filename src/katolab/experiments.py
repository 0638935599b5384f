"""Config-driven experiment runner binding all modules, with reports.

Configs are line-oriented key=value text. Reports carry a config echo,
per-step measurements (each tagged with the operation that produced it and
its kind; a bound carries its solver facts as its error), fits, and pass/fail
entries; timestamps and wall-clock live in a separate environment block so
reports are byte-reproducible given config and seeds.
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
from dataclasses import dataclass, field as dc_field, fields

import numpy as np

from . import opnorm, propagator, sparse, symbols, wavepackets
from .core import (Annulus, Field, GaussianRecipe, Grid, RandomBandlimited,
                   Sector, make_field)

SCHEMA = "katolab-report-v2"
# What a measured value is: a bound, an estimate, an identity's defect, or an
# echoed setting (label)
KINDS = ("lower", "upper", "estimate", "defect", "label")

# Settings that no run varies; no config can change them, so none can loosen
# its own criterion: the fits' slope tolerance, the tube-incidence scales, the
# random subcollections of the almost-orthogonality audit, the sparse audit's
# largest draw and its grid [0, SPARSE_BOX)^2, and the decoupling audit's centre
# range [-DECOUPLING_BOX, DECOUPLING_BOX)^2, ball scale H and family size N.
SLOPE_TOL = 0.1
TUBE_H = (16.0, 32.0, 64.0)
SUBCOLLECTIONS = 100
SPARSE_POINTS = 128
SPARSE_BOX = 10**6
DECOUPLING_BOX = 10**6
DECOUPLING_H = 8
DECOUPLING_N = 4

# The config keys each kind reads besides kind and symbol. Every kind also
# accepts seed and out, read or not; parse_config refuses any other key.
KIND_KEYS = {
    "scaling": ("alpha", "q", "r", "R", "expect", "residual_min", "cross_check", "seed"),
    "transfer": ("alpha", "q", "r", "r_tilde", "R", "ascent_steps", "restarts", "seed"),
    "maximal": ("alpha", "q", "R", "ascent_steps", "restarts"),
    "wavepacket-audit": ("N", "L", "R", "fields", "seed"),
    "sparse-audit": ("trials", "K", "seed"),
    "decay-audit": ("R",),
    "propagator-audit": ("N", "L", "fields", "seed"),
    "decoupling-audit": ("seed",),
    "tube-incidence": (),
}


class ConfigError(ValueError):
    """Invalid experiment configuration; names the offending field."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"config field '{field_name}': {message}")
        self.field_name = field_name


@dataclass
class ExperimentConfig:
    kind: str
    symbol: symbols.SymbolSpec
    alpha: float = 0.5
    q: float = 2.0
    r: float = 2.0
    r_tilde: float = 4.0
    R: tuple = (8.0, 16.0, 32.0, 64.0)
    seed: int = 0
    residual_min: float = 0.2
    expect: str = "match"  # 'match' or 'residual'
    cross_check: bool = False
    ascent_steps: int = opnorm.ASCENT_STEPS
    restarts: int = opnorm.ASCENT_RESTARTS
    trials: int = 50
    K: int = 3
    N: int = 1024
    L: float = 128.0
    fields: int = 20
    out: str | None = None

    def validate(self):
        if not all(1 <= x < math.inf for x in self.R):
            raise ConfigError("R", f"scales must be finite and >= 1, got {self.R}")
        # every other kind's machinery is one-dimensional
        if self.symbol.n != 1 and self.kind not in ("propagator-audit", "wavepacket-audit",
                                                    "sparse-audit"):
            raise ConfigError("symbol", f"kind {self.kind} is implemented for n = 1")
        if self.kind == "maximal" and not self.q >= 1:
            raise ConfigError("q", f"must be >= 1, got {self.q}")
        if self.kind == "transfer" and not self.r_tilde > self.r:
            raise ConfigError("r_tilde", f"must exceed r = {self.r}")
        if self.kind in ("scaling", "transfer"):
            # both take L2 operator norms (transfer on its local side)
            for key in ("q", "r"):
                if getattr(self, key) != 2:
                    raise ConfigError(key, f"kind {self.kind} needs q = r = 2, "
                                           f"got {getattr(self, key)}")
        if self.expect not in ("match", "residual"):
            raise ConfigError("expect", "must be 'match' or 'residual'")
        for name in ("fields", "trials", "K"):
            if getattr(self, name) < 1:
                raise ConfigError(name, "must be >= 1")
        for name in ("ascent_steps", "restarts"):
            if getattr(self, name) < 0:
                raise ConfigError(name, "must be >= 0")
        if self.kind == "sparse-audit":
            # the level radii of the largest draw; a huge K stops early
            H = 1
            for k in range(1, self.K + 1):
                H = (SPARSE_POINTS * H) ** 2
                if H > sparse.H_LIMIT:
                    raise ConfigError("K", f"the level-{k} radius of {SPARSE_POINTS} "
                                           "points exceeds sparse.H_LIMIT")
        # other modules' rules, each under its key (Grid's for N and L apart)
        checks = [("N", Grid, (1, self.N, 1.0)), ("L", Grid, (1, 8, self.L))]
        if self.kind in ("scaling", "transfer", "maximal"):
            checks += [("R", opnorm.check_fit_scales, (self.R,)),
                       ("alpha", opnorm.check_alpha, (self.alpha,))]
        for key, check, args in checks:
            try:
                check(*args)
            except ValueError as exc:
                raise ConfigError(key, str(exc)) from exc
        if self.kind == "wavepacket-audit":
            grid = Grid(1, self.N, self.L)  # the rules are per axis
            for R in self.R:
                if self.L / R != round(self.L / R):
                    raise ConfigError("L", f"must be a multiple of R={R}")
                try:
                    wavepackets.check_packet_scale(R, grid)
                except ValueError as exc:
                    raise ConfigError("R", str(exc)) from exc
        if self.kind in ("scaling", "transfer"):
            # the cross-check takes the dense eigensolve at the first scale
            for i, R in enumerate(self.R):
                try:
                    spec = opnorm.SmoothingOperatorSpec(sym=self.symbol, alpha=self.alpha, R=R)
                    opnorm.check_l2_scale(spec, dense=self.cross_check and i == 0)
                except ValueError as exc:
                    raise ConfigError("R", str(exc)) from exc
        return self


_KEYS = {f.name for f in fields(ExperimentConfig)}
_NUMERIC = {f.name for f in fields(ExperimentConfig)
            if f.type in ("int", "float")}
_INTEGER = {f.name for f in fields(ExperimentConfig) if f.type == "int"}
_BOOLEAN = {f.name for f in fields(ExperimentConfig) if f.type == "bool"}


def _parse_scalar(v: str):
    v = v.strip()
    if v.lower() in ("inf", "infinity"):
        return math.inf
    if v.lower() in ("true", "false"):
        return v.lower() == "true"
    try:
        return int(v)
    except ValueError:
        pass
    try:
        return float(v)
    except ValueError:
        return v


def parse_config(text: str) -> ExperimentConfig:
    kv = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected key=value, got {raw!r}")
        k, _, v = line.partition("=")
        k = k.strip()
        if k in kv:
            raise ConfigError(k, f"duplicate key on line {lineno}")
        kv[k] = v.strip()
    if "kind" not in kv:
        raise ConfigError("kind", "missing")
    if "symbol" not in kv:
        raise ConfigError("symbol", "missing")
    try:
        sym = symbols.from_config(kv.pop("symbol"))
    except ValueError as exc:
        raise ConfigError("symbol", str(exc)) from exc
    cfg = ExperimentConfig(kind=kv.pop("kind"), symbol=sym)
    if cfg.kind not in RUNNERS:
        raise ConfigError("kind", f"unknown kind {cfg.kind!r}")
    for k, v in kv.items():
        if k in _KEYS and k not in ("seed", "out") + KIND_KEYS[cfg.kind]:
            raise ConfigError(k, f"kind {cfg.kind} does not read it")
        if k == "R":
            try:
                cfg.R = tuple(float(x) for x in v.split(","))
            except ValueError as exc:
                raise ConfigError(k, f"expected comma-separated numbers: {exc}") from exc
        elif k in _KEYS:
            val = v if k == "out" else _parse_scalar(v)
            if val == "":
                raise ConfigError(k, "empty value")
            if k in _NUMERIC and (isinstance(val, (bool, str)) or math.isnan(val)):
                raise ConfigError(k, f"expected a number, got {v!r}")
            if k in _INTEGER and not isinstance(val, int):
                raise ConfigError(k, f"expected an integer, got {v!r}")
            if k in _BOOLEAN and not isinstance(val, bool):
                raise ConfigError(k, f"expected true or false, got {v!r}")
            setattr(cfg, k, val)
        else:
            raise ConfigError(k, "unknown key")
    return cfg.validate()


@dataclass
class Report:
    config: dict
    measurements: list = dc_field(default_factory=list)
    fits: list = dc_field(default_factory=list)
    criteria: list = dc_field(default_factory=list)
    environment: dict = dc_field(default_factory=dict)
    schema: str = SCHEMA

    def measure(self, name: str, value, operation: str, kind: str, error=None):
        m = {"name": name, "value": value, "operation": operation, "kind": kind}
        if error is not None:
            m["error"] = error
        self.measurements.append(m)

    def criterion(self, name: str, passed: bool, detail: str):
        self.criteria.append({"name": name, "passed": bool(passed),
                              "detail": detail})

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.criteria)

    def to_dict(self) -> dict:
        return {"schema": self.schema, "config": self.config,
                "measurements": self.measurements, "fits": self.fits,
                "criteria": self.criteria, "environment": self.environment}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


# the routines whose bounds must carry their result's other fields as error
_RESULTS = {"operator_norm_l2": opnorm.OperatorNormResult,
            "lower_bound_mixed": opnorm.LowerBoundResult}


def validate_report(d: dict) -> list:
    """Hand-rolled schema check; returns a list of problems (empty = valid)."""
    problems = []
    for key in ("schema", "config", "measurements", "fits", "criteria",
                "environment"):
        if key not in d:
            problems.append(f"missing key {key}")
    if d.get("schema") != SCHEMA:
        problems.append(f"schema is {d.get('schema')!r}, expected {SCHEMA!r}")
    for m in d.get("measurements", []):
        for k in ("name", "value", "operation", "kind"):
            if k not in m:
                problems.append(f"measurement missing {k}: {m}")
        if "kind" in m and m["kind"] not in KINDS:
            problems.append(f"measurement kind {m['kind']!r} is not one of {KINDS}: {m}")
        # a bound from an operator-norm routine carries its result's facts
        result = _RESULTS.get(m.get("operation"))
        if result and m.get("kind") in ("lower", "upper"):
            missing = {f.name for f in fields(result)} - {"value"} - set(m.get("error") or {})
            if missing:
                problems.append(f"measurement error lacks {sorted(missing)}: {m}")
    for c in d.get("criteria", []):
        for k in ("name", "passed", "detail"):
            if k not in c:
                problems.append(f"criterion missing {k}: {c}")
    for f in d.get("fits", []):
        for k in ("tag", "R", "values", "slope", "intercept", "stderr"):
            if k not in f:
                problems.append(f"fit missing {k}: {f}")
    tags = [f["tag"] for f in d.get("fits", []) if isinstance(f.get("tag"), str)]
    for tag in sorted({t for t in tags if tags.count(t) > 1}):
        problems.append(f"fits share the tag {tag!r}")
    return problems


def _environment() -> dict:
    return {"platform": platform.platform(), "python": platform.python_version(),
            "numpy": np.__version__, "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "wall_clock_s": None}


def _config_echo(cfg: ExperimentConfig) -> dict:
    """The keys the kind reads, and out."""
    d = {}
    for k, v in vars(cfg).items():
        if k not in ("kind", "symbol", "out") + KIND_KEYS[cfg.kind]:
            continue
        if isinstance(v, symbols.SymbolSpec):
            d[k] = {"kind": v.kind, "m": v.m, "n": v.n, "scale": v.scale,
                    "terms": list(map(list, v.terms))}
        elif isinstance(v, tuple):
            d[k] = list(v)
        elif isinstance(v, float) and math.isinf(v):
            d[k] = "inf"
        else:
            d[k] = v
    return d


def _write_artifacts(report: Report, cfg: ExperimentConfig):
    if not cfg.out:
        return
    os.makedirs(cfg.out, exist_ok=True)
    with open(os.path.join(cfg.out, "report.json"), "w") as fh:
        fh.write(report.to_json())
    with open(os.path.join(cfg.out, "measurements.csv"), "w") as fh:
        fh.write("name,value,operation,kind\n")
        for m in report.measurements:
            rows = [(m["name"], m["value"])]
            rows += [(f"{m['name']}.{k}", v) for k, v in m.get("error", {}).items()]
            for name, value in rows:
                if isinstance(value, (int, float)):
                    fh.write(f"{name},{value!r},{m['operation']},{m['kind']}\n")
    for fit in report.fits:
        tag = fit.get("tag", "fit")
        with open(os.path.join(cfg.out, f"{tag}.dat"), "w") as fh:
            fh.write("# R value\n")
            for R, v in zip(fit["R"], fit["values"]):
                fh.write(f"{R} {v}\n")


def run(config: ExperimentConfig) -> Report:
    config.validate()
    start = time.time()
    report = Report(config=_config_echo(config))
    RUNNERS[config.kind](config, report)
    report.environment = _environment()
    report.environment["wall_clock_s"] = round(time.time() - start, 3)
    _write_artifacts(report, config)
    return report


# ---------------------------------------------------------------------------
# Individual experiment kinds
# ---------------------------------------------------------------------------


def _fit_entry(tag: str, fit: opnorm.ScalingFit) -> dict:
    return {"tag": tag, "R": list(fit.R_values), "values": list(fit.norms),
            "slope": fit.slope, "intercept": fit.intercept,
            "stderr": fit.stderr, "predicted": fit.predicted}


def _scan(cfg: ExperimentConfig, report: Report, name: str, operation: str, norm,
          **spec) -> list:
    """norm(spec) at each scale of cfg, measured as the lower bound name_R<R>
    with the result's other fields as its error; returns the (R, value) samples."""
    samples = []
    for R in cfg.R:
        res = norm(opnorm.SmoothingOperatorSpec(sym=cfg.symbol, alpha=cfg.alpha, R=R,
                                                **spec))
        report.measure(f"{name}_R{R:g}", res.value, operation, "lower",
                       {k: v for k, v in vars(res).items() if k != "value"})
        samples.append((R, res.value))
    return samples


def _run_scaling(cfg: ExperimentConfig, report: Report):
    samples = _scan(cfg, report, "norm", "operator_norm_l2",
                    lambda spec: opnorm.operator_norm_l2(spec, seed=cfg.seed),
                    q=cfg.q, r=cfg.r)
    predicted = opnorm.predicted_exponent(cfg.symbol.n, cfg.symbol.m, cfg.q,
                                          cfg.r, cfg.alpha)
    fit = opnorm.fit_exponent(samples, predicted=predicted)
    report.fits.append(_fit_entry("scaling", fit))
    if cfg.expect == "match":
        ok = abs(fit.slope - predicted) <= SLOPE_TOL
        report.criterion("slope-matches-prediction", ok,
                         f"slope {fit.slope:.4f} vs {predicted:.4f} "
                         f"(tol {SLOPE_TOL})")
    else:
        ok = fit.residual_slope >= cfg.residual_min
        report.criterion("residual-slope-grows", ok,
                         f"residual {fit.residual_slope:.4f} >= {cfg.residual_min}")
    if cfg.cross_check:
        spec0 = opnorm.SmoothingOperatorSpec(sym=cfg.symbol, alpha=cfg.alpha,
                                             R=cfg.R[0], q=cfg.q, r=cfg.r)
        dense = opnorm.operator_norm_dense_eig(spec0)
        lanczos = samples[0][1]
        rel = abs(dense - lanczos) / dense
        report.measure("dense_vs_lanczos_rel", rel, "operator_norm_dense_eig", "defect")
        # Lanczos gives a Rayleigh quotient: never above the dense norm, and
        # below it by at most its stopping tolerance
        ok = (lanczos <= dense * (1 + 1e-12)
              and (dense - lanczos) / dense <= opnorm.LANCZOS_TOL)
        report.criterion("dense-cross-check", ok,
                         f"eig {dense:.6f} vs lanczos {lanczos:.6f} ({rel:.2e}): "
                         f"lanczos <= eig, gap <= {opnorm.LANCZOS_TOL:g}")


def _run_maximal(cfg: ExperimentConfig, report: Report):
    samples = _scan(cfg, report, "maximal", "lower_bound_mixed",
                    lambda spec: opnorm.lower_bound_mixed(
                        spec, cfg.ascent_steps * cfg.restarts),
                    q=cfg.q, r=math.inf)
    predicted = opnorm.predicted_exponent(cfg.symbol.n, cfg.symbol.m, cfg.q,
                                          math.inf, cfg.alpha)
    fit = opnorm.fit_exponent(samples, predicted=predicted)
    report.fits.append(_fit_entry("maximal", fit))
    ok = abs(fit.slope - predicted) <= SLOPE_TOL
    report.criterion("maximal-slope", ok,
                     f"slope {fit.slope:.4f} vs {predicted:.4f} (tol {SLOPE_TOL})")


def _run_transfer(cfg: ExperimentConfig, report: Report):
    loc = _scan(cfg, report, "local", "operator_norm_l2",
                lambda spec: opnorm.operator_norm_l2(spec, seed=cfg.seed),
                q=cfg.q, r=cfg.r, window="local")
    glob = _scan(cfg, report, "global", "lower_bound_mixed",
                 lambda spec: opnorm.lower_bound_mixed(spec, cfg.ascent_steps * cfg.restarts),
                 q=cfg.q, r=cfg.r_tilde, window="global")
    f_loc = opnorm.fit_exponent(loc)
    f_glob = opnorm.fit_exponent(glob)
    delta_inf, alpha_sup = opnorm.transfer_exponent(cfg.symbol.n, cfg.r,
                                                    cfg.r_tilde, cfg.alpha)
    report.fits.append(_fit_entry("local", f_loc))
    report.fits.append(_fit_entry("global", f_glob))
    report.measure("delta_inf", delta_inf, "transfer_exponent", "estimate")
    report.measure("alpha_global_sup", alpha_sup, "transfer_exponent", "estimate")
    bound = f_loc.slope + delta_inf + SLOPE_TOL
    ok = f_glob.slope <= bound
    report.criterion("window-transfer-slope", ok,
                     f"global {f_glob.slope:.4f} <= local {f_loc.slope:.4f} "
                     f"+ {delta_inf} + {SLOPE_TOL} = {bound:.4f}")


def _gaussian_oracle(grid: Grid, t: float) -> np.ndarray:
    """The unit Gaussian evolved by e^{i t xi^2} at the nodes of a 1-d grid,
    by rectangle-rule quadrature of its Fourier integral on 8192 nodes of
    [-16, 16): a path independent of the FFT.

    The nodes go in blocks of 16 (N must be a multiple of 16). Within a
    block, x_j = x_b + k dx about its middle node x_b, so e^{i x_j xi} =
    e^{i x_b xi} e^{i k dx xi}: one 16 x 8192 offset table serves every
    block, which then costs one exponential row and one matrix product.
    """
    M = 1 << 13
    xi = np.linspace(-16.0, 16.0, M, endpoint=False)
    fhat = math.sqrt(2 * math.pi) * np.exp(-(xi**2) / 2.0)
    kernel = np.exp(1j * t * xi**2) * fhat
    dxi = xi[1] - xi[0]
    offsets = np.exp(1j * np.outer((np.arange(16) - 8) * grid.dx, xi))
    oracle = np.concatenate([offsets @ (kernel * np.exp(1j * xb[8] * xi))
                             for xb in np.split(grid.x_axis(), grid.N // 16)])
    return oracle * (dxi / (2 * math.pi))


def _run_propagator_audit(cfg: ExperimentConfig, report: Report):
    grid = Grid(cfg.symbol.n, cfg.N, cfg.L)
    worst = 0.0
    times = np.linspace(0.0, 4.0, 64)
    for s in range(cfg.fields):
        f = make_field(grid, RandomBandlimited(Annulus(0.25, 8.0), seed=cfg.seed + s))
        u = propagator.propagate(f, cfg.symbol, times)
        worst = max(worst, propagator.energy_defect(u, f))
    report.measure("energy_defect_max", worst, "propagate", "defect")
    report.criterion("energy-identity", worst <= 1e-12,
                     f"max relative defect {worst:.2e} <= 1e-12")

    gg = Grid(1, 2048, 64.0)
    f0 = make_field(gg, GaussianRecipe(center=(0.0,), width=1.0))
    t = 0.5
    u = propagator.propagate(f0, symbols.schrodinger(1), [t])
    err = float(np.max(np.abs(u.slices[0] - _gaussian_oracle(gg, t))))
    report.measure("gaussian_oracle_maxabs", err, "propagate", "defect")
    report.criterion("gaussian-oracle", err <= 1e-6, f"max abs {err:.2e} <= 1e-6")


def _run_wavepacket_audit(cfg: ExperimentConfig, report: Report):
    grid = Grid(cfg.symbol.n, cfg.N, cfg.L)
    worst_recon, worst_energy, spills = 0.0, 0.0, []
    last_dec = None
    for R in cfg.R:
        pair = wavepackets.build_partitions(R, grid)
        for s in range(cfg.fields):
            f = make_field(grid, RandomBandlimited(Sector(), seed=cfg.seed + s))
            dec = wavepackets.decompose(f, pair)
            rec = wavepackets.reconstruct(dec)
            worst_recon = max(worst_recon,
                              Field(grid, rec.values - f.values).l2() / f.l2())
            worst_energy = max(worst_energy, wavepackets.energy_identity_defect(dec))
            spills.append(dec.spill_max)
            last_dec = dec
    report.measure("reconstruction_max", worst_recon, "decompose/reconstruct", "defect")
    report.measure("energy_defect_max", worst_energy, "decompose", "defect")
    report.measure("spatial_spill_max",
                   max((s for s in spills if s is not None), default=None), "decompose",
                   "estimate")
    report.measure("spill_radius_factor", wavepackets.SPILL_RADIUS_FACTOR,
                   "decompose", "label")
    report.criterion("packet-reconstruction", worst_recon <= 1e-10,
                     f"max rel error {worst_recon:.2e} <= 1e-10")
    report.criterion("packet-energy-identity", worst_energy <= 1e-10,
                     f"max rel defect {worst_energy:.2e} <= 1e-10")

    rng = np.random.default_rng(cfg.seed)
    packets = last_dec.packets
    worst_ratio = 0.0
    for _ in range(SUBCOLLECTIONS):
        k = int(rng.integers(1, len(packets)))
        sel = rng.choice(len(packets), size=k, replace=False)
        worst_ratio = max(worst_ratio, wavepackets.almost_orthogonality(packets, sel))
    report.measure("orthogonality_ratio_max", worst_ratio, "almost_orthogonality", "estimate")
    report.criterion("almost-orthogonality", worst_ratio <= 4.0,
                     f"max ratio {worst_ratio:.3f} <= 4")


def _run_sparse_audit(cfg: ExperimentConfig, report: Report):
    rng = np.random.default_rng(cfg.seed)
    all_ok = True
    worst_c = 0.0
    c_cover = 2.0
    for _ in range(cfg.trials):
        npts = int(rng.integers(2, SPARSE_POINTS + 1))
        pts = set()
        while len(pts) < npts:
            pts.add(tuple(int(rng.integers(0, SPARSE_BOX)) for _ in range(2)))
        E = sparse.CubeSet(dim=2, points=tuple(pts))
        levels = sparse.sparse_decompose(E, K=cfg.K)
        audit = sparse.audit_decomposition(E, levels)
        ok = audit["partition_ok"] and audit["cover_ok"] and audit["sparse_ok"]
        all_ok &= ok
        worst_c = max(worst_c, audit["max_families"] / len(E) ** (1.0 / cfg.K))
        cols = sparse.columns_by_height(E)
        all_ok &= sum(len(cs) for cs in cols.values()) == len(E)
    report.measure("worst_cover_constant", worst_c, "sparse_decompose", "estimate")
    report.measure("c_cover_budget", c_cover, "sparse_decompose", "label")
    report.criterion("sparse-decomposition-audit",
                     all_ok and worst_c <= c_cover,
                     f"all audits pass, worst family constant {worst_c:.2f} "
                     f"<= {c_cover}")


def _run_tube_incidence(cfg: ExperimentConfig, report: Report):
    counts = {str(H): wavepackets.max_overlap(cfg.symbol, H)["count"] for H in TUBE_H}
    ratio = max(counts.values()) / min(counts.values())
    report.measure("counts", counts, "max_overlap", "estimate")
    report.criterion("overlap-stability", ratio <= 2.0,
                     f"max/min overlap {ratio:.2f} <= 2 across H")


def _run_decay_audit(cfg: ExperimentConfig, report: Report):
    sym = cfg.symbol
    worst_slope = -math.inf
    for R in cfg.R:
        v = np.array([1.0])
        t = R**2 / 2.0
        _, grad = symbols.phase(sym, v)
        core = -t * grad[0]
        ds = np.array([R, 2 * R, 4 * R, 8 * R])
        vals = [abs(wavepackets.packet_kernel(v, R, sym, t, np.array([core + d])))
                for d in ds]
        slope = float(np.polyfit(np.log(ds), np.log(vals), 1)[0])
        report.measure(f"kernel_slope_R{R:g}", slope, "packet_kernel", "estimate")
        worst_slope = max(worst_slope, slope)
    report.criterion("kernel-decay", worst_slope <= -3.0,
                     f"worst log-log slope {worst_slope:.2f} <= -3")

    patch = sparse.surface_patch(sym)
    nvec = np.array([1.0, -2.0]) / math.sqrt(5.0)
    lams = np.exp(np.linspace(math.log(16.0), math.log(256.0), 9))
    vals = [abs(sparse.surface_fourier(patch, lam * nvec)) for lam in lams]
    slope = float(np.polyfit(np.log(lams), np.log(vals), 1)[0])
    report.measure("surface_decay_slope", slope, "surface_fourier", "estimate")
    report.criterion("surface-measure-decay", abs(slope + 0.5) <= 0.1,
                     f"slope {slope:.3f} within -0.5 +/- 0.1")


def _random_ball_function(seed: int) -> sparse.BallFunction:
    rng = np.random.default_rng(seed)
    t_ax = np.linspace(0.0, 4.5, 64)
    x_ax = np.linspace(0.0, 2.5, 40)
    tt, xx = np.meshgrid(t_ax, x_ax, indexing="ij")
    env = np.exp(-(((tt - 2.2) / 1.5) ** 2) - ((xx - 1.2) / 0.8) ** 2)
    vals = env * (rng.standard_normal(tt.shape) + 1j * rng.standard_normal(tt.shape))
    k = np.exp(-0.5 * ((np.fft.fftfreq(len(t_ax))[:, None] * 8) ** 2
                       + (np.fft.fftfreq(len(x_ax))[None, :] * 8) ** 2))
    vals = np.fft.ifft2(np.fft.fft2(vals) * k)
    return sparse.BallFunction(t_axis=t_ax, x_axis=x_ax, values=vals)


def _run_decoupling_audit(cfg: ExperimentConfig, report: Report):
    patch = sparse.surface_patch(cfg.symbol, samples=256)
    H = DECOUPLING_H
    N = DECOUPLING_N
    singles = []
    for s in range(6):
        fam1 = sparse.SparseFamily(centers=((0, 0),), H=H)
        f = _random_ball_function(cfg.seed + s)
        singles.append(sparse.decoupling_check(fam1, [f], 2.0, patch)["ratio"])
    c_single = max(singles)
    report.measure("single_ball_constant", c_single, "decoupling_check", "estimate")
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for trial in range(10):
        centers = [(0, 0)]
        while len(centers) < N:
            cand = (int(rng.integers(-DECOUPLING_BOX, DECOUPLING_BOX)),
                    int(rng.integers(-DECOUPLING_BOX, DECOUPLING_BOX)))
            if all(sparse._sep_ok(sparse._dist2(cand, c), N, H) for c in centers):
                centers.append(cand)
        fam = sparse.SparseFamily(centers=tuple(centers), H=H)
        fns = [_random_ball_function(cfg.seed + 100 + 10 * trial + i)
               for i in range(N)]
        res = sparse.decoupling_check(fam, fns, 2.0, patch)
        worst = max(worst, res["ratio"])
    report.measure("decoupling_ratio_max", worst, "decoupling_check", "estimate")
    report.criterion("sparse-decoupling", worst <= 2.0 * c_single,
                     f"max ratio {worst:.4f} <= 2 x single-ball {c_single:.4f}")


RUNNERS = {
    "scaling": _run_scaling,
    "transfer": _run_transfer,
    "maximal": _run_maximal,
    "wavepacket-audit": _run_wavepacket_audit,
    "sparse-audit": _run_sparse_audit,
    "decay-audit": _run_decay_audit,
    "propagator-audit": _run_propagator_audit,
    "decoupling-audit": _run_decoupling_audit,
    "tube-incidence": _run_tube_incidence,
}


# ---------------------------------------------------------------------------
# The acceptance battery
# ---------------------------------------------------------------------------


def acceptance_runs() -> list:
    """The full verification battery as (name, config) pairs, in order."""
    schr = "power:m=2,n=1"
    runs = [
        ("energy-and-gaussian", f"kind = propagator-audit\nsymbol = {schr}\n"
         "N = 1024\nL = 64\nfields = 100\nseed = 1"),
        ("wavepacket-identities", f"kind = wavepacket-audit\nsymbol = {schr}\n"
         "N = 1024\nL = 128\nR = 4,8\nfields = 20\nseed = 2"),
        ("kernel-and-surface-decay", f"kind = decay-audit\nsymbol = {schr}\nR = 16,32"),
        ("l2-scaling", f"kind = scaling\nsymbol = {schr}\nalpha = 0.5\n"
         "q = 2\nr = 2\nR = 8,16,32,64\ncross_check = true\nseed = 4"),
        ("sharpness-direction", f"kind = scaling\nsymbol = {schr}\n"
         "alpha = 0.75\nq = 2\nr = 2\nR = 8,16,32,64\nexpect = residual\n"
         "residual_min = 0.2\nseed = 5"),
        ("maximal-exponent", f"kind = maximal\nsymbol = {schr}\nalpha = -0.25\n"
         "q = 2\nR = 8,16,32,64"),
        ("window-transfer", f"kind = transfer\nsymbol = {schr}\nalpha = 0.5\n"
         "q = 2\nr = 2\nr_tilde = 4\nR = 8,16,32\nseed = 7"),
        ("sparse-decomposition", f"kind = sparse-audit\nsymbol = {schr}\n"
         "trials = 50\nK = 3\nseed = 8"),
        ("sparse-decoupling", f"kind = decoupling-audit\nsymbol = {schr}\n"
         "seed = 9"),
        ("tube-incidence", f"kind = tube-incidence\nsymbol = {schr}"),
    ]
    return [(name, parse_config(text)) for name, text in runs]


def verify_all(out_dir: str | None = None) -> Report:
    """Run every acceptance experiment; aggregate pass/fail per criterion."""
    t0 = time.time()
    agg = Report(config={"kind": "verify-all"})
    for name, cfg in acceptance_runs():
        if out_dir:
            cfg.out = os.path.join(out_dir, name)
        sub = run(cfg)
        agg.criteria += [{**c, "name": f"{name}/{c['name']}"} for c in sub.criteria]
        agg.measurements += [{**m, "name": f"{name}/{m['name']}"} for m in sub.measurements]
        agg.fits += [{**f, "tag": f"{name}/{f['tag']}"} for f in sub.fits]
    agg.environment = _environment()
    agg.environment["wall_clock_s"] = round(time.time() - t0, 3)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "verify.json"), "w") as fh:
            fh.write(agg.to_json())
    return agg
