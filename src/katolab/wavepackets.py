"""Wave-packet decomposition at scale R, packet kernels, and tube geometry.

Packets are indexed by a spatial lattice l in R Z^n and a frequency lattice
v in (1/R) Z^n. Analysis windows are exact square partitions of unity built
per axis from a fixed mollifier bump: phi^2(y) = b(y) / sum_j b(y - j),
so the packet energies sum to the field energy to machine precision, and
synthesis with the adjoint windows reproduces the field to machine
precision. build_partitions evaluates every window of a scale once, as two
per-axis tables (spatial lattice x grid, frequency lattice x grid; n-d
windows are outer products of their rows) and their support table; the
caller hands that one pair to every decomposition at the scale, and the
packet operations only read it. The frequency windows are compactly
supported (width 2/(3R) per axis), so packet spectra are sharply localized;
the price is that the window's spatial kernel only concentrates rather than
vanishes outside radius ~ 2R/3, and that spillover is measured and reported
with every decomposition whose torus reaches outside B(l, 4R).

A decomposition's packets are one PacketSet of arrays on that pair, each
stored on its frequency window's support; full spectra are expanded on
demand.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (SECTOR_INNER, SECTOR_OUTER, Field, Grid, GridResolutionError,
                   dft_batch, idft_batch, stack_rows)
from . import symbols as sym_mod
from .propagator import sector_bump
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
    """sqrt(b(y)/sum_j b(y-j)): square partition of unity on the unit lattice,
    evaluated only inside the support |y| < support."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    inside = np.abs(y) < support
    y = y[inside]
    num = _unit_bump(y, support, kappa)
    # the normalizer is 1-periodic, so evaluate it at the fractional part
    yfrac = y - np.round(y)
    den = np.zeros_like(y)
    reach = int(math.ceil(support)) + 1
    for j in range(-reach, reach + 1):
        den += _unit_bump(yfrac - j, support, kappa)
    out[inside] = np.sqrt(num / den)
    return out


SPATIAL_SUPPORT = 1.5  # per-axis, in units of R
FREQ_SUPPORT = 2.0 / 3.0  # per-axis, in units of 1/R


@dataclass(frozen=True)
class PartitionPair:
    """Window tables at scale R on a grid, with measured partition defects.

    spatial[i] is the window of lattice node lattice[i] on grid.x_axis();
    freq[j] is the window of node v_axis[j] on grid.xi_axis() (FFT order).
    In n dimensions a window is the outer product of one row per axis.
    index, mask and rows are the frequency windows' support (_support_table).
    """

    R: float
    grid: Grid
    lattice: np.ndarray
    spatial: np.ndarray
    v_axis: np.ndarray
    freq: np.ndarray
    spatial_defect: float
    freq_defect: float
    index: np.ndarray
    mask: np.ndarray
    rows: list


def check_packet_scale(R: float, grid: Grid) -> None:
    """Raise GridResolutionError (ValueError for R < 1) unless the grid
    resolves the windows of scale R."""
    if not R >= 1:
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


def build_partitions(R: float, grid: Grid) -> PartitionPair:
    """Tabulate the window pair and its support table, checking the grid."""
    check_packet_scale(R, grid)
    R, L = float(R), grid.L
    lattice = -L / 2 + R * np.arange(int(round(L / R)))
    # minimum-image distance on the torus; support 3R/2 < L/2 so each
    # node sees each window at most once
    y = np.mod(grid.x_axis() - lattice[:, None] + L / 2, L) - L / 2
    spatial = _axis_partition_profile(y / R, SPATIAL_SUPPORT, SPATIAL_KAPPA)
    # frequency nodes (1/R) Z covering every representable frequency
    xi = grid.xi_axis()
    v_axis = np.arange(math.floor(xi.min() * R) - 1, math.ceil(xi.max() * R) + 2) / R
    freq = _axis_partition_profile(R * (xi - v_axis[:, None]), FREQ_SUPPORT, FREQ_KAPPA)
    sd = float(np.max(np.abs(np.sum(spatial**2, axis=0) - 1.0)))
    fd = float(np.max(np.abs(np.sum(freq**2, axis=0) - 1.0)))
    if sd > 1e-12 or fd > 1e-12:
        raise GridResolutionError(f"partition defects {sd:.2e}/{fd:.2e} exceed 1e-12")
    index, mask, rows = _support_table(freq, grid)
    return PartitionPair(R=R, grid=grid, lattice=lattice, spatial=spatial,
                         v_axis=v_axis, freq=freq, spatial_defect=sd, freq_defect=fd,
                         index=index, mask=mask, rows=rows)


def _node_values(table: np.ndarray, nodes: np.ndarray, op, *start) -> np.ndarray:
    """`start`, if given, and each node's table rows nodes[s, a], combined by `op`."""
    n = nodes.shape[1]
    rows = [table[nodes[:, a]].reshape([len(nodes)] + [-1 if i == a else 1 for i in range(n)])
            for a in range(n)]
    return functools.reduce(op, rows, *start)


def _support_table(freq: np.ndarray, grid: Grid) -> tuple:
    """(index, mask, rows) of every frequency node (one row of the window
    table freq per axis): its window's flat grid support in C order, padded
    to the widest, which slots are real, and each axis's window row there."""
    n, N = grid.n, grid.N
    # per axis: node k's support columns c, ascending, at slots 0, 1, ...
    k, c = np.nonzero(freq)
    slot = np.arange(len(k)) - np.searchsorted(k, k)
    K, w = len(freq), slot.max() + 1

    def spread(values, a):  # axis a's (K, w) table on node axis a, slot axis n + a
        t = np.zeros((K, w), dtype=np.asarray(values).dtype)
        t[k, slot] = values
        t = t.reshape([K if i == a else w if i == n + a else 1 for i in range(2 * n)])
        return np.broadcast_to(t, (K,) * n + (w,) * n).reshape((K,) * n + (w**n,))

    index = sum(spread(c, a) * N ** (n - 1 - a) for a in range(n))
    mask = np.logical_and.reduce([spread(True, a) for a in range(n)])
    return index, mask, [spread(freq[k, c], a) for a in range(n)]


@dataclass(frozen=True)
class PacketSet:
    """A decomposition's kept packets, spatial node major. Packet i sits at
    rows l[i] of pair.lattice and v[i] of pair.v_axis (shape (P, n) each), has
    energy[i], and holds its frequency samples in block[i] at the grid indices
    pair.index[tuple(v[i])] where pair.mask is set (0 elsewhere)."""

    pair: PartitionPair
    l: np.ndarray
    v: np.ndarray
    energy: np.ndarray
    block: np.ndarray

    def __len__(self) -> int:
        return len(self.energy)


def packet_values(packets: PacketSet, rows):
    """Spatial samples of the packets at `rows`, in order, in stacks of
    `stack_rows(grid)` from batched inverse transforms: each row the same
    values as one inverse transform of its own expanded spectrum."""
    pair, g = packets.pair, packets.pair.grid
    step = stack_rows(g)
    for b in range(0, len(rows), step):
        chunk = rows[b:b + step]
        at = tuple(packets.v[chunk].T)
        mask = pair.mask[at]
        stack = np.zeros((len(chunk), math.prod(g.shape)), dtype=np.complex128)
        stack[np.nonzero(mask)[0], pair.index[at][mask]] = packets.block[chunk][mask]
        # the spectra are freed before the values are handed out
        stack = idft_batch(g, stack.reshape((len(chunk),) + g.shape))
        yield stack


@dataclass(frozen=True)
class Tube:
    """R-neighborhood of the line through (0, l) with direction (-1, grad Phi(v))."""

    l: np.ndarray
    velocity: np.ndarray  # grad Phi(v)
    R: float


@dataclass(frozen=True)
class Decomposition:
    packets: PacketSet
    total_energy: float
    dropped_count: int
    dropped_energy: float
    # worst packet spatial mass outside B(l, SPILL_RADIUS_FACTOR R); None when
    # that ball covers the whole torus and leaves nothing outside to measure
    spill_max: float | None


SPILL_RADIUS_FACTOR = 4.0
DROP_TOL = 1e-22


def decompose(f: Field, pair: PartitionPair) -> Decomposition:
    """Split a field into wave packets on the window pair of its grid (any n).

    The smallest packets are dropped, and tallied, for as long as their
    summed energy stays <= DROP_TOL * ||f||^2. The analysis map is a tight
    frame, so the dropped packets cost at most sqrt(DROP_TOL) of relative
    reconstruction accuracy, 1e-11. The bound is on the total: a per-packet
    floor lets many packets below it add up, and on broadband data five
    packets of about 5e-19 ||f||^2 each already cost 6e-10.
    """
    g, n, R = f.grid, f.grid.n, pair.R
    if g != pair.grid:
        raise ValueError(f"field grid {g} != window pair grid {pair.grid}")
    total = f.l2() ** 2

    # every spatial node's windowed field, transformed in stacks, and the
    # cells outside its spill ball
    nodes = np.array(list(itertools.product(range(len(pair.lattice)), repeat=n)))
    y2 = (np.mod(g.x_axis() - pair.lattice[:, None] + g.L / 2, g.L) - g.L / 2) ** 2
    outside = _node_values(y2, nodes, np.add) > (SPILL_RADIUS_FACTOR * R) ** 2
    ghat = _node_values(pair.spatial, nodes, np.multiply) * f.values
    step = stack_rows(g)
    for b in range(0, len(nodes), step):
        ghat[b:b + step] = dft_batch(g, ghat[b:b + step])

    # The frequency lattice covers everything representable; windows beyond
    # the band carry negligible energy and are dropped under the budget.
    # Energies contract |ghat|^2 with the table rows axis by axis, per node.
    freq_sq = pair.freq**2
    wfreq = g.dxi**n / TWO_PI**n
    energies = np.empty((len(nodes), len(pair.v_axis) ** n))
    for s, e in enumerate(np.abs(ghat) ** 2):
        for axis in range(n):
            e = np.moveaxis(np.tensordot(freq_sq, e, axes=([1], [axis])), 0, axis)
        energies[s] = wfreq * e.reshape(-1)
    del freq_sq  # as large as the window table, and the spill stacks come next

    # drop the smallest packets while their summed energy stays in budget
    flat_e = energies.ravel()
    order = np.argsort(flat_e, kind="stable")
    dropped = order[:np.searchsorted(np.cumsum(flat_e[order]), DROP_TOL * total, side="right")]

    # gather every kept packet's block through its frequency node's support
    s_of, j_of = np.divmod(np.delete(np.arange(flat_e.size), dropped), energies.shape[1])
    at = np.unravel_index(j_of, (len(pair.v_axis),) * n)  # frequency rows per axis
    window = functools.reduce(np.multiply, [r[at] for r in pair.rows])
    samples = ghat.reshape(len(nodes), -1)[s_of[:, None], pair.index[at]]
    packets = PacketSet(pair=pair, l=nodes[s_of], v=np.stack(at, axis=1),
                        energy=energies[s_of, j_of],
                        block=np.where(pair.mask[at], window * samples, 0))

    # spill tails of the significant packets (meaningless at threshold level)
    # from stacks across nodes, each summed over its own node's outside cells
    spill_max = None
    if outside.any():
        spill_max, b = 0.0, 0
        loud = np.flatnonzero(packets.energy >= 1e-6 * total)
        for vals in packet_values(packets, loud):
            batch, b = loud[b:b + len(vals)], b + len(vals)
            for s in np.unique(s_of[batch]):
                here = slice(*np.searchsorted(s_of[batch], [s, s + 1]))
                sq = (np.abs(vals[here]) ** 2).reshape(here.stop - here.start, -1)
                # compress keeps C order: each row sums pairwise, as np.sum of one does
                tail = g.dx**n * np.compress(outside[s].ravel(), sq, axis=1).sum(axis=1)
                spill_max = max(spill_max, float(np.max(tail / packets.energy[batch[here]])))
            del vals, sq  # before the next stack is made

    return Decomposition(packets=packets, total_energy=total,
                         dropped_count=len(dropped), spill_max=spill_max,
                         dropped_energy=float(np.sum(flat_e[dropped])))


def reconstruct(dec: Decomposition) -> Field:
    """Adjoint synthesis: apply each packet's frequency window and spatial
    window once more and sum; with exact square partitions this inverts the
    analysis map (up to dropped packets). Blocks add up in packet order."""
    packets, pair = dec.packets, dec.packets.pair
    g, n = pair.grid, pair.grid.n
    nodes = np.array(list(itertools.product(range(len(pair.lattice)), repeat=n)))
    at = tuple(packets.v.T)
    ph = functools.reduce(np.multiply, [r[at] for r in pair.rows], packets.block)
    mask = pair.mask[at]
    s_of = np.ravel_multi_index(tuple(packets.l.T), (len(pair.lattice),) * n)
    spectra = np.zeros((len(nodes), math.prod(g.shape)), dtype=np.complex128)
    np.add.at(spectra, (s_of[np.nonzero(mask)[0]], pair.index[at][mask]), ph[mask])
    acc = np.zeros(g.shape, dtype=np.complex128)
    step = stack_rows(g)
    for b in range(0, len(nodes), step):
        vals = _node_values(pair.spatial, nodes[b:b + step], np.multiply,
                            idft_batch(g, spectra[b:b + step].reshape((-1,) + g.shape)))
        for node_vals in vals:  # in node order, from zero
            acc += node_vals
    return Field(g, acc)


def energy_identity_defect(dec: Decomposition) -> float:
    s = sum(dec.packets.energy.tolist()) + dec.dropped_energy
    return abs(s - dec.total_energy) / max(dec.total_energy, 1e-300)


def almost_orthogonality(packets: PacketSet, sel) -> float:
    """||sum of packets||_2 / sqrt(sum of energies) for the subcollection
    of the packets at rows `sel`."""
    if not len(sel):
        raise ValueError("empty subcollection")
    energy = sum(packets.energy[sel].tolist())
    if energy <= 0:
        raise ValueError("subcollection has zero energy")
    # unbuffered, in packet order: the same sums as adding full spectra
    pair, at = packets.pair, tuple(packets.v[sel].T)
    mask = pair.mask[at]
    acc = np.zeros(pair.grid.shape, dtype=np.complex128)
    np.add.at(acc.reshape(-1), pair.index[at][mask], packets.block[sel][mask])
    return Field(pair.grid, acc).l2_freq() / math.sqrt(energy)


# ---------------------------------------------------------------------------
# Packet kernel (direct oscillatory quadrature, off-grid)
# ---------------------------------------------------------------------------


_ERF = np.frompyfunc(math.erf, 1, 1)

# Cutoff shape for the kernel amplitude: 1 on the ball B(v, 2/(3R)), Gaussian
# shoulders of width KERNEL_SIGMA * 2/(3R), truncated at KERNEL_REACH times
# the ball radius. The shoulders are wide enough that the kernel's far field
# is envelope-dominated at single-digit multiples of R, where the decay
# check probes it. The quadrature takes KERNEL_NODES midpoints per axis in
# one dimension and at most 128 in more.
KERNEL_SIGMA = 1.0
KERNEL_REACH = 1.0 + 5.0 * KERNEL_SIGMA
KERNEL_NODES = 4096


def _flat_top(d: np.ndarray, r_ball: float) -> np.ndarray:
    """Radial indicator of [0, r_ball] convolved with a Gaussian."""
    s = KERNEL_SIGMA * r_ball
    a = (r_ball - d) / (math.sqrt(2) * s)
    b = (r_ball + d) / (math.sqrt(2) * s)
    vals = 0.5 * (_ERF(a).astype(float) + _ERF(b).astype(float))
    return np.where(d <= KERNEL_REACH * r_ball, vals, 0.0)


def packet_kernel(v, R: float, sym: SymbolSpec, t: float, x) -> complex:
    """K_v(t, x): oscillatory integral of e^{i(x.xi + t Phi)} over a smooth
    flat-top cutoff equal to 1 on B(v, 2/(3R)) times the sector bump.

    Evaluated by midpoint quadrature refined past the phase oscillation; the
    decay envelope is only claimed for |t| <= 2 R^m.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = sym.n
    r_ball = FREQ_SUPPORT / R
    r_out = KERNEL_REACH * r_ball
    nodes = KERNEL_NODES if n == 1 else 128
    axes = []
    for i in range(n):
        lo, hi = v[i] - r_out, v[i] + r_out
        pts = lo + (np.arange(nodes) + 0.5) * (hi - lo) / nodes
        axes.append(pts)
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    d = np.sqrt(sum((m - c) ** 2 for m, c in zip(mesh, v)))
    amp = _flat_top(d, r_ball) * sector_bump(mesh)
    phase = sum(x[i] * mesh[i] for i in range(n)) + t * sym_mod.value(sym, mesh)
    w = float(np.prod([(2 * r_out) / nodes] * n))
    return complex(w * np.sum(amp * np.exp(1j * phase)))


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


def tube_meets_cube(tube: Tube, cube: Cube, dilation: float = 1.0):
    """Exact test: does the tube (core line fattened by R) meet the dilated cube?

    tube.l and tube.velocity may be stacks, shape (..., n), that broadcast
    together; the answer is then a boolean array over the stack.
    """
    c = cube.dilated(dilation) if dilation != 1.0 else cube
    a = np.asarray(tube.l, dtype=float) - np.asarray(c.x_center, dtype=float)
    gvec = np.asarray(tube.velocity, dtype=float)
    g2 = np.sum(gvec * gvec, axis=-1)
    # the core's closest approach to the cube's axis within the time slab;
    # a tube at rest is equally close at every time
    tstar = np.clip(np.sum(a * gvec, axis=-1) / np.where(g2 > 0, g2, 1.0),
                    c.t_center - c.t_half, c.t_center + c.t_half)
    dist = np.linalg.norm(a - tstar[..., None] * gvec, axis=-1)
    meets = dist <= tube.R + c.x_half
    return bool(meets) if meets.ndim == 0 else meets


def cube_chain(H: float) -> list:
    """Time slabs of height H tiling [H^2/2, 2 H^2] over the ball B(0, H)."""
    count = int(math.ceil(1.5 * H))
    origin = (0.0,)
    cubes = []
    for j in range(count):
        t_c = H**2 / 2 + (j + 0.5) * H
        cubes.append(Cube(t_center=t_c, t_half=H / 2, x_center=origin, x_half=H))
    return cubes


OVERLAP_EPS = 0.1  # max_overlap dilates each cube by H^OVERLAP_EPS


def max_overlap(sym: SymbolSpec, H: float) -> dict:
    """Brute-force max of the per-tube cube-incidence count over the packet
    family at scale H (1-d): v on the positive sector lattice, l on the
    spatial lattice wide enough to reach the chain."""
    if sym.n != 1:
        raise NotImplementedError("incidence sweep implemented for n = 1")
    dilation = H**OVERLAP_EPS
    v_nodes = np.arange(math.ceil(SECTOR_INNER * H), math.floor(SECTOR_OUTER * H) + 1) / H
    grad = sym_mod.gradient(sym, [v_nodes])[0]
    # per v, the offsets l = H k, |k| <= half, whose tubes can reach the chain
    reach = np.abs(grad) * 2 * H**2 + (dilation + 2) * H
    half = np.ceil(reach / H)
    k = np.arange(-half.max(), half.max() + 1)
    tubes = Tube(l=(H * k)[None, :, None], velocity=grad[:, None, None], R=H)
    counts = np.sum([tube_meets_cube(tubes, c, dilation) for c in cube_chain(H)], axis=0)
    counts = np.where(np.abs(k) <= half[:, None], counts, -1)
    # the first v, and its first l, with the highest count
    top = counts.max(axis=1)
    j = int(np.argmax(top))
    if top[j] <= 0:
        return {"count": 0, "l": None, "v": None}
    i = int(np.argmax(counts[j]))
    return {"count": int(top[j]), "l": float(H * k[i]), "v": float(v_nodes[j])}
