"""Wave-packet decomposition at scale R, packet kernels, and tube geometry.

Packets are indexed by a spatial lattice l in R Z^n and a frequency lattice
v in (1/R) Z^n. Analysis windows are exact square partitions of unity built
per axis from a fixed mollifier bump: phi^2(y) = b(y) / sum_j b(y - j),
so the packet energies sum to the field energy to machine precision, and
synthesis with the adjoint windows reproduces the field to machine
precision. The frequency windows are compactly supported (width 2/(3R)
per axis), so packet spectra are sharply localized; the price is that the
window's spatial kernel only concentrates rather than vanishes outside
radius ~ 2R/3, and that spillover is measured and reported with every
decomposition.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import Field, Grid, GridResolutionError, dft, idft
from . import symbols as sym_mod
from .propagator import SectorBump, canonical_bump
from .symbols import SymbolSpec

TWO_PI = 2.0 * math.pi


# Steepness of the generating bumps. The frequency windows use a flat top
# (small kappa): that concentrates their spatial kernels, which is what
# limits how tightly packets hug their tubes. The spatial windows use a
# moderate profile so their own frequency tails stay light and the live
# frequency lattice stays small.
FREQ_KAPPA = 0.08
SPATIAL_KAPPA = 1.0


def _unit_bump(y: np.ndarray, support: float, kappa: float) -> np.ndarray:
    """exp(-kappa/(1-(y/support)^2)) inside |y| < support, 0 outside."""
    s = np.abs(np.asarray(y, dtype=float)) / support
    inside = s < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        v = np.where(inside, np.exp(-kappa / np.where(inside, 1.0 - s**2, 1.0)), 0.0)
    return v


def _axis_partition_profile(y: np.ndarray, support: float, kappa: float) -> np.ndarray:
    """sqrt(b(y)/sum_j b(y-j)): square partition of unity on the unit lattice."""
    y = np.asarray(y, dtype=float)
    num = _unit_bump(y, support, kappa)
    # the normalizer is 1-periodic, so evaluate it at the fractional part
    yfrac = y - np.round(y)
    den = np.zeros_like(y)
    reach = int(math.ceil(support)) + 1
    for j in range(-reach, reach + 1):
        den += _unit_bump(yfrac - j, support, kappa)
    return np.sqrt(num / den)


SPATIAL_SUPPORT = 1.5  # per-axis, in units of R
FREQ_SUPPORT = 2.0 / 3.0  # per-axis, in units of 1/R


@dataclass(frozen=True)
class PartitionPair:
    """Window pair at scale R on a grid, with measured partition defects."""

    R: float
    grid: Grid
    spatial_defect: float
    freq_defect: float

    def spatial_lattice(self) -> np.ndarray:
        count = int(round(self.grid.L / self.R))
        return -self.grid.L / 2 + self.R * np.arange(count)

    def freq_lattice_axis(self, lo: float, hi: float) -> np.ndarray:
        """Frequency lattice nodes (1/R) Z covering [lo, hi]."""
        j0 = math.floor(lo * self.R) - 1
        j1 = math.ceil(hi * self.R) + 1
        return np.arange(j0, j1 + 1) / self.R

    def spatial_window_axis(self, x: np.ndarray, l: float) -> np.ndarray:
        # minimum-image distance on the torus; support 3R/2 < L/2 so each
        # node sees each window at most once
        L = self.grid.L
        y = np.mod(x - l + L / 2, L) - L / 2
        return _axis_partition_profile(y / self.R, SPATIAL_SUPPORT, SPATIAL_KAPPA)

    def freq_window_axis(self, xi: np.ndarray, v: float) -> np.ndarray:
        return _axis_partition_profile(self.R * (xi - v), FREQ_SUPPORT, FREQ_KAPPA)


def build_partitions(R: float, grid: Grid) -> PartitionPair:
    """Construct the window pair, checking the grid resolves both scales."""
    if R < 1:
        raise ValueError(f"packet scale R={R} must be >= 1")
    needed = []
    if grid.dx > R / 8:
        needed.append(f"dx <= R/8 requires N >= {int(math.ceil(8 * grid.L / R))}")
    if abs(grid.L / R - round(grid.L / R)) > 1e-12:
        needed.append("L must be an integer multiple of R")
    if grid.L < 4 * R:
        needed.append("L >= 4R so the spatial windows fit the torus")
    extent_needed = 4.0 * (2.0 + FREQ_SUPPORT / R)
    if 2 * grid.nyquist < extent_needed:
        n_req = int(math.ceil(extent_needed * grid.L / TWO_PI))
        needed.append(f"frequency extent {2*grid.nyquist:.3g} < {extent_needed:.3g}, "
                      f"requires N >= {n_req}")
    if needed:
        raise GridResolutionError("grid cannot resolve packet scales: " + "; ".join(needed))

    probe = PartitionPair(R=float(R), grid=grid, spatial_defect=0.0, freq_defect=0.0)
    x = grid.x_axis()
    s = np.zeros_like(x)
    for l in probe.spatial_lattice():
        s += probe.spatial_window_axis(x, l) ** 2
    xi = np.sort(grid.xi_axis())
    t = np.zeros_like(xi)
    for v in probe.freq_lattice_axis(xi[0], xi[-1]):
        t += probe.freq_window_axis(xi, v) ** 2
    sd = float(np.max(np.abs(s - 1.0)))
    fd = float(np.max(np.abs(t - 1.0)))
    if sd > 1e-12 or fd > 1e-12:
        raise GridResolutionError(f"partition defects {sd:.2e}/{fd:.2e} exceed 1e-12")
    return PartitionPair(R=float(R), grid=grid, spatial_defect=sd, freq_defect=fd)


@dataclass(frozen=True)
class WavePacket:
    grid: Grid
    l: tuple
    v: tuple
    spectrum: np.ndarray  # frequency samples of the packet
    energy: float

    @property
    def values(self) -> np.ndarray:
        """Spatial samples (computed on demand; packets are stored in
        frequency where the analysis windows act)."""
        return idft(Field(self.grid, self.spectrum)).values

    def field(self) -> Field:
        return Field(self.grid, self.values)


@dataclass(frozen=True)
class Tube:
    """R-neighborhood of the line through (0, l) with direction (-1, grad Phi(v))."""

    l: np.ndarray
    velocity: np.ndarray  # grad Phi(v)
    R: float

    def core(self, t: float) -> np.ndarray:
        return self.l - t * self.velocity

    def contains(self, t: float, x) -> bool:
        return bool(np.linalg.norm(np.atleast_1d(x) - self.core(t)) <= self.R)


def tube_for(packet: WavePacket, sym: SymbolSpec, R: float) -> Tube:
    v = np.asarray(packet.v, dtype=float)
    _, grad = sym_mod.phase(sym, v)
    return Tube(l=np.asarray(packet.l, dtype=float), velocity=grad, R=float(R))


@dataclass(frozen=True)
class Decomposition:
    pair: PartitionPair
    packets: list
    total_energy: float
    dropped_count: int
    dropped_energy: float
    spill_max: float  # worst packet spatial mass outside B(l, C R), C below
    spill_radius_factor: float


SPILL_RADIUS_FACTOR = 4.0


def _freq_weight_table(pair: PartitionPair, vs: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Per-axis window values, shape (len(vs), len(xi))."""
    return np.stack([pair.freq_window_axis(xi, v) for v in vs])


def decompose(f: Field, R: float, drop_tol: float = 1e-22) -> Decomposition:
    """Split a field into wave packets at scale R (any n).

    The smallest packets are dropped, and tallied, for as long as their
    summed energy stays <= drop_tol * ||f||^2. The analysis map is a tight
    frame, so the dropped packets cost at most sqrt(drop_tol) of relative
    reconstruction accuracy, 1e-11 at the default. The bound is on the
    total: a per-packet floor lets many packets below it add up, and on
    broadband data five packets of about 5e-19 ||f||^2 each already cost
    6e-10.
    """
    g = f.grid
    pair = build_partitions(R, g)
    total = f.l2() ** 2

    # The spatial windowing spreads frequency content across the whole axis,
    # so the frequency lattice must cover everything representable; windows
    # beyond the band carry negligible but nonzero energy and are dropped
    # under the energy budget. The frequency windows are products of one
    # per-axis table, so packet energies contract |ghat|^2 axis by axis.
    xi_ax = g.xi_axis()
    v_axis = pair.freq_lattice_axis(float(xi_ax.min()), float(xi_ax.max()))
    table = _freq_weight_table(pair, v_axis, xi_ax)
    table_sq = table**2
    wfreq = g.dxi**g.n / TWO_PI**g.n

    # first pass: the energy of every packet, and what building it needs
    xmesh = g.x_mesh()
    spill_r = SPILL_RADIUS_FACTOR * R
    lat = pair.spatial_lattice()
    rows = []
    energies = []
    for l in itertools.product(*([lat] * g.n)):
        l = tuple(float(c) for c in l)
        wl = np.ones(g.shape)
        d2 = np.zeros(g.shape)
        for axis in range(g.n):
            wl = wl * pair.spatial_window_axis(np.asarray(xmesh[axis]), l[axis])
            y = np.mod(np.asarray(xmesh[axis]) - l[axis] + g.L / 2, g.L) - g.L / 2
            d2 = d2 + y**2
        ghat = dft(Field(g, wl * f.values)).values
        e = np.abs(ghat) ** 2
        for axis in range(g.n):
            e = np.moveaxis(np.tensordot(table_sq, e, axes=([1], [axis])), 0, axis)
        rows.append((l, d2 > spill_r**2, ghat))
        energies.append(wfreq * e.reshape(-1))

    # drop the smallest packets while their summed energy stays in budget
    energies = np.stack(energies)
    flat_e = energies.ravel()
    order = np.argsort(flat_e, kind="stable")
    dropped = order[:np.searchsorted(np.cumsum(flat_e[order]), drop_tol * total, side="right")]
    keep = np.ones(flat_e.shape, dtype=bool)
    keep[dropped] = False

    packets = []
    spill_max = 0.0
    significant = 1e-6  # spill is meaningless for threshold-level packets
    v_index = list(itertools.product(range(len(v_axis)), repeat=g.n))
    vs = list(itertools.product(v_axis.tolist(), repeat=g.n))
    for (l, outside, ghat), kept, e_l in zip(rows, keep.reshape(energies.shape), energies):
        for flat in np.nonzero(kept)[0]:
            e = float(e_l[flat])
            window = functools.reduce(np.multiply.outer, [table[j] for j in v_index[flat]])
            pk = WavePacket(grid=g, l=l, v=vs[flat], spectrum=window * ghat, energy=e)
            if e >= significant * total:
                tail = g.dx**g.n * np.sum(np.abs(pk.values[outside]) ** 2)
                spill_max = max(spill_max, float(tail / e))
            packets.append(pk)

    return Decomposition(pair=pair, packets=packets, total_energy=total,
                         dropped_count=len(dropped),
                         dropped_energy=float(np.sum(flat_e[dropped])),
                         spill_max=spill_max, spill_radius_factor=SPILL_RADIUS_FACTOR)


def reconstruct(dec: Decomposition) -> Field:
    """Adjoint synthesis: apply each packet's frequency window and spatial
    window once more and sum. With exact square partitions this inverts the
    analysis map exactly (up to dropped packets)."""
    g = dec.pair.grid
    acc = np.zeros(g.shape, dtype=np.complex128)
    xmesh = g.x_mesh()
    ximesh = g.xi_mesh()
    by_l: dict = {}
    for p in dec.packets:
        by_l.setdefault(p.l, []).append(p)
    window_cache: dict = {}

    def window(axis: int, v: float) -> np.ndarray:
        key = (axis, v)
        w = window_cache.get(key)
        if w is None:
            w = dec.pair.freq_window_axis(np.asarray(ximesh[axis]), v)
            window_cache[key] = w
        return w

    for l, group in by_l.items():
        ph_sum = np.zeros(g.shape, dtype=np.complex128)
        for p in group:
            ph = p.spectrum
            for axis in range(g.n):
                ph = ph * window(axis, p.v[axis])
            ph_sum += ph
        vals = idft(Field(g, ph_sum)).values
        for axis in range(g.n):
            vals = vals * dec.pair.spatial_window_axis(np.asarray(xmesh[axis]), l[axis])
        acc += vals
    return Field(g, acc)


def plain_sum(dec: Decomposition) -> Field:
    """Plain sum of analysis packets (not an inverse; kept for reporting)."""
    g = dec.pair.grid
    acc = np.zeros(g.shape, dtype=np.complex128)
    for p in dec.packets:
        acc += p.spectrum
    return idft(Field(g, acc))


def energy_identity_defect(dec: Decomposition) -> float:
    s = sum(p.energy for p in dec.packets) + dec.dropped_energy
    return abs(s - dec.total_energy) / max(dec.total_energy, 1e-300)


def almost_orthogonality(packets, grid: Grid) -> float:
    """||sum of packets||_2 / sqrt(sum of energies) for a subcollection."""
    packets = list(packets)
    if not packets:
        raise ValueError("empty subcollection")
    energy = sum(p.energy for p in packets)
    if energy <= 0:
        raise ValueError("subcollection has zero energy")
    acc = np.zeros(grid.shape, dtype=np.complex128)
    for p in packets:
        acc += p.spectrum
    return Field(grid, acc).l2_freq() / math.sqrt(energy)


# ---------------------------------------------------------------------------
# Packet kernel (direct oscillatory quadrature, off-grid)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelValue:
    value: complex
    in_regime: bool


_ERF = np.frompyfunc(math.erf, 1, 1)

# Cutoff shape for the kernel amplitude: 1 on the ball B(v, 2/(3R)), Gaussian
# shoulders of width KERNEL_SIGMA * 2/(3R), truncated at KERNEL_REACH times
# the ball radius. The shoulders are wide enough that the kernel's far field
# is envelope-dominated at single-digit multiples of R, where the decay
# check probes it.
KERNEL_SIGMA = 1.0
KERNEL_REACH = 1.0 + 5.0 * KERNEL_SIGMA


def _flat_top(d: np.ndarray, r_ball: float) -> np.ndarray:
    """Radial indicator of [0, r_ball] convolved with a Gaussian."""
    s = KERNEL_SIGMA * r_ball
    a = (r_ball - d) / (math.sqrt(2) * s)
    b = (r_ball + d) / (math.sqrt(2) * s)
    vals = 0.5 * (_ERF(a).astype(float) + _ERF(b).astype(float))
    return np.where(d <= KERNEL_REACH * r_ball, vals, 0.0)


def packet_kernel(v, R: float, sym: SymbolSpec, t: float, x,
                  bump: SectorBump | None = None, nodes: int = 4096) -> KernelValue:
    """K_v(t, x): oscillatory integral of e^{i(x.xi + t Phi)} over a smooth
    flat-top cutoff equal to 1 on B(v, 2/(3R)) times the sector bump.

    Evaluated by midpoint quadrature refined past the phase oscillation;
    callers outside |t| <= 2 R^m get a warning flag (the decay envelope is
    only claimed in that regime).
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = sym.n
    if bump is None:
        bump = canonical_bump(n)
    r_ball = FREQ_SUPPORT / R
    r_out = KERNEL_REACH * r_ball
    in_regime = abs(t) <= 2.0 * R**sym.m

    if n > 1:
        nodes = min(nodes, 128)
    axes = []
    for i in range(n):
        lo, hi = v[i] - r_out, v[i] + r_out
        pts = lo + (np.arange(nodes) + 0.5) * (hi - lo) / nodes
        axes.append(pts)
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    d = np.sqrt(sum((m - c) ** 2 for m, c in zip(mesh, v)))
    amp = _flat_top(d, r_ball) * bump.values(mesh)
    phase = sum(x[i] * mesh[i] for i in range(n)) + t * sym_mod.value(sym, mesh)
    w = float(np.prod([(2 * r_out) / nodes] * n))
    val = complex(w * np.sum(amp * np.exp(1j * phase)))
    return KernelValue(value=val, in_regime=in_regime)



# ---------------------------------------------------------------------------
# Tube / cube incidence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cube:
    """Spacetime cell: time slab of half-height t_half over the spatial ball
    B(x_center, x_half)."""

    t_center: float
    t_half: float
    x_center: tuple
    x_half: float

    def dilated(self, factor: float) -> "Cube":
        return Cube(self.t_center, self.t_half * factor, self.x_center,
                    self.x_half * factor)


def tube_meets_cube(tube: Tube, cube: Cube, dilation: float = 1.0) -> bool:
    """Exact test: does the tube (core line fattened by R) meet the dilated cube?"""
    c = cube.dilated(dilation) if dilation != 1.0 else cube
    a = tube.l - np.asarray(c.x_center, dtype=float)
    gvec = tube.velocity
    g2 = float(np.dot(gvec, gvec))
    t0, t1 = c.t_center - c.t_half, c.t_center + c.t_half
    if g2 == 0.0:
        tstar = t0
    else:
        tstar = float(np.dot(a, gvec)) / g2
        tstar = min(max(tstar, t0), t1)
    dist = float(np.linalg.norm(a - tstar * gvec))
    return dist <= tube.R + c.x_half


def cube_chain(H: float) -> list:
    """Time slabs of height H tiling [H^2/2, 2 H^2] over the ball B(0, H)."""
    count = int(math.ceil(1.5 * H))
    origin = (0.0,)
    cubes = []
    for j in range(count):
        t_c = H**2 / 2 + (j + 0.5) * H
        cubes.append(Cube(t_center=t_c, t_half=H / 2, x_center=origin, x_half=H))
    return cubes


def overlap_count(tube: Tube, cubes, dilation: float = 1.0) -> int:
    return sum(1 for c in cubes if tube_meets_cube(tube, c, dilation))


def max_overlap(sym: SymbolSpec, H: float, eps: float = 0.1) -> dict:
    """Brute-force max of the per-tube cube-incidence count over the packet
    family at scale H (1-d): v on the positive sector lattice, l on the
    spatial lattice wide enough to reach the chain."""
    if sym.n != 1:
        raise NotImplementedError("incidence sweep implemented for n = 1")
    dilation = H**eps
    cubes = cube_chain(H)
    v_nodes = np.arange(math.ceil(0.5 * H), math.floor(2.0 * H) + 1) / H
    best = {"count": 0, "l": None, "v": None}
    for v in v_nodes:
        _, grad = sym_mod.phase(sym, np.array([v]))
        speed = abs(float(grad[0]))
        reach = speed * 2 * H**2 + (dilation + 2) * H
        l_nodes = H * np.arange(-math.ceil(reach / H), math.ceil(reach / H) + 1)
        counts = np.zeros(len(l_nodes), dtype=int)
        for c in cubes:
            cd = c.dilated(dilation)
            t0, t1 = cd.t_center - cd.t_half, cd.t_center + cd.t_half
            a = l_nodes - cd.x_center[0]
            g2 = speed**2
            if g2 == 0:
                tstar = np.full_like(a, t0)
            else:
                tstar = np.clip(a * float(grad[0]) / g2, t0, t1)
            dist = np.abs(a - tstar * float(grad[0]))
            counts += (dist <= H + cd.x_half).astype(int)
        i = int(np.argmax(counts))
        if counts[i] > best["count"]:
            best = {"count": int(counts[i]), "l": float(l_nodes[i]), "v": float(v)}
    return best
