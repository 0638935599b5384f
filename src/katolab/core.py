"""Periodic grids, complex fields, and discrete Fourier transforms.

Everything else in the lab computes on these. The transform convention is
the integral one: forward kernel e^{-i x.xi} with rectangle-rule weight
dx^n, inverse carrying (2 pi)^{-n}. Sample points sit at cell centers,
x_j = -L/2 + (j + 1/2) dx, so that balls whose radius is a multiple of dx
have exactly the right discrete measure.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

KSLF_MAGIC = b"KSLF"
KSLT_MAGIC = b"KSLT"
KSLP_MAGIC = b"KSLP"
KSLF_VERSION = 1

# Largest stack of fields or spectra one batched transform takes; callers
# with more split them into blocks of `stack_rows(grid)`.
IDFT_STACK_BYTES = 4 << 20


class GridResolutionError(ValueError):
    """A requested scale cannot be represented on the grid."""


class FieldFormatError(ValueError):
    """Malformed field file; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L/2, L/2)^n with N cells per axis."""

    n: int
    N: int
    L: float

    def __post_init__(self):
        if self.n < 1 or self.n > 3:
            raise ValueError(f"dimension n={self.n} outside supported range 1..3")
        if self.N < 8 or self.N % 2 != 0:
            raise ValueError(f"N={self.N} must be even and >= 8")
        if not (math.isfinite(self.L) and self.L > 0):
            raise ValueError(f"period L={self.L} must be finite and positive")

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def dxi(self) -> float:
        return 2.0 * np.pi / self.L

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.n

    @property
    def nyquist(self) -> float:
        """Largest representable |xi| along one axis."""
        return np.pi / self.dx

    def x_axis(self) -> np.ndarray:
        j = np.arange(self.N)
        return -self.L / 2 + (j + 0.5) * self.dx

    def x_mesh(self) -> list:
        ax = self.x_axis()
        return list(np.meshgrid(*([ax] * self.n), indexing="ij", sparse=True))

    def xi_axis(self) -> np.ndarray:
        """Frequency nodes 2 pi k / L in FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.N, d=self.dx)

    def xi_mesh(self) -> list:
        ax = self.xi_axis()
        return list(np.meshgrid(*([ax] * self.n), indexing="ij", sparse=True))


@dataclass(frozen=True)
class Field:
    """Complex samples on a Grid (either side of the transform)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.complex128)
        if v.shape != self.grid.shape:
            raise ValueError(f"sample shape {v.shape} != grid shape {self.grid.shape}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def l2(self) -> float:
        """Spatial L2 norm with rectangle weight dx^n."""
        return float(np.sqrt(self.grid.dx**self.grid.n * np.sum(np.abs(self.values) ** 2)))

    def l2_freq(self) -> float:
        """L2 norm of a frequency-side field, weight (2 pi)^-n dxi^n."""
        g = self.grid
        w = g.dxi**g.n / (2.0 * np.pi) ** g.n
        return float(np.sqrt(w * np.sum(np.abs(self.values) ** 2)))


def check_uniform_times(t: np.ndarray) -> None:
    """Raise ValueError unless t is finite and increases strictly with one
    spacing."""
    if not np.all(np.isfinite(t)):
        raise ValueError("times must be finite")
    dt = np.diff(t)
    if np.any(dt <= 0):
        raise ValueError("times must be strictly increasing")
    if len(dt) > 1 and np.max(np.abs(dt - dt[0])) > 1e-12 * max(abs(t[-1]), abs(t[0]), 1.0):
        raise ValueError("time samples must be uniformly spaced")


@dataclass(frozen=True)
class SpacetimeField:
    """Time-sampled evolution: slices[s] is the field at times[s]."""

    grid: Grid
    times: np.ndarray
    slices: np.ndarray  # shape (S,) + grid.shape

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.ascontiguousarray(self.slices, dtype=np.complex128)
        if t.ndim != 1 or len(t) < 1:
            raise ValueError("times must be a nonempty 1-d array")
        if s.shape != (len(t),) + self.grid.shape:
            raise ValueError(f"slice shape {s.shape} incompatible with times/grid")
        check_uniform_times(t)
        t.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "slices", s)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0


def _axis_phase(grid: Grid, sign: float) -> list:
    # e^{sign * i * x0 * xi_k} per axis, x0 = -L/2 + dx/2 (cell-center offset)
    x0 = -grid.L / 2 + grid.dx / 2
    ph = np.exp(sign * 1j * x0 * grid.xi_axis())
    out = []
    for axis in range(grid.n):
        shape = [1] * grid.n
        shape[axis] = grid.N
        out.append(ph.reshape(shape))
    return out


def dft_batch(g: Grid, values: np.ndarray) -> np.ndarray:
    """Forward transforms of fields stacked along leading axes; the grid
    axes come last."""
    out = np.fft.fftn(values, axes=tuple(range(-g.n, 0))) * g.dx**g.n
    for ph in _axis_phase(g, -1.0):
        out = out * ph
    return out


def dft(f: Field) -> Field:
    """Forward transform: fhat(xi_k) = dx^n sum_j e^{-i x_j xi_k} f(x_j)."""
    return Field(f.grid, dft_batch(f.grid, f.values))


def idft_batch(g: Grid, spectra: np.ndarray) -> np.ndarray:
    """Inverse transforms of spectra stacked along leading axes; the grid
    axes come last."""
    for ph in _axis_phase(g, +1.0):
        spectra = spectra * ph
    out = np.fft.ifftn(spectra, axes=tuple(range(-g.n, 0)))
    out /= g.dx**g.n  # in place: one stack fewer at the peak
    return out


def stack_rows(g: Grid) -> int:
    """How many spectra on g fit one IDFT_STACK_BYTES stack (at least one)."""
    return max(1, IDFT_STACK_BYTES // (16 * math.prod(g.shape)))


def idft(fhat: Field) -> Field:
    """Inverse of dft; carries the (2 pi)^{-n} of the integral convention."""
    return Field(fhat.grid, idft_batch(fhat.grid, fhat.values))


# ---------------------------------------------------------------------------
# Field recipes
# ---------------------------------------------------------------------------


def _sector_polar(mesh) -> tuple:
    """|xi| and the chord |xi/|xi| - e1|, which reads 1 at the origin."""
    mesh = [np.asarray(m) for m in mesh]
    rho = np.sqrt(sum(m**2 for m in mesh))
    rho_safe = np.where(rho > 0, rho, 1.0)
    chord2 = (mesh[0] / rho_safe - 1.0) ** 2
    for m in mesh[1:]:
        chord2 = chord2 + (m / rho_safe) ** 2
    return rho, np.sqrt(chord2)


# The frequency sector Pi = {1/2 <= |xi| <= 2, |xi/|xi| - e1| <= pi/4}: its
# radii and its chordal angle to e1. The sector bump, the operator norms'
# mode grid, the surface patch and the tube family all read these.
SECTOR_INNER = 0.5
SECTOR_OUTER = 2.0
SECTOR_CHORD = math.pi / 4


@dataclass(frozen=True)
class Sector:
    """Annular sector 1/2 <= |xi| <= 2 within angle pi/4 (chordal) of e1."""

    def contains(self, mesh: list) -> np.ndarray:
        rho, chord = _sector_polar(mesh)
        ok = (rho >= SECTOR_INNER) & (rho <= SECTOR_OUTER) & (chord <= SECTOR_CHORD)
        return ok & (rho > 0)


@dataclass(frozen=True)
class Ball:
    center: tuple
    radius: float

    def contains(self, mesh: list) -> np.ndarray:
        if len(self.center) != len(mesh):
            raise ValueError(f"ball centre of dimension {len(self.center)} "
                             f"on a grid of dimension {len(mesh)}")
        d2 = sum((m - c) ** 2 for m, c in zip(mesh, self.center))
        return d2 < self.radius**2


@dataclass(frozen=True)
class Annulus:
    r_inner: float
    r_outer: float

    def contains(self, mesh: list) -> np.ndarray:
        rho = np.sqrt(sum(m**2 for m in mesh))
        return (rho >= self.r_inner) & (rho <= self.r_outer)


@dataclass(frozen=True)
class GaussianRecipe:
    center: tuple = (0.0,)
    width: float = 1.0


@dataclass(frozen=True)
class RandomBandlimited:
    region: object = field(default_factory=Sector)
    seed: int = 0


@dataclass(frozen=True)
class KnappRecipe:
    """Mollified frequency plate inside the sector.

    Thickness 1/R along the e1 axis in one dimension; for n >= 2 the plate
    is 1/R^2 thick along e1 and 1/R wide transversally.
    """

    R: float
    center_xi: float = 1.2


def _smoothstep(u: np.ndarray) -> np.ndarray:
    """C-infinity ramp from 0 (u<=0) to 1 (u>=1) built from exp(-1/u)."""
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(u > 0, np.exp(-1.0 / np.where(u > 0, u, 1.0)), 0.0)
        b = np.where(u < 1, np.exp(-1.0 / np.where(u < 1, 1.0 - u, 1.0)), 0.0)
    return a / (a + b)


def make_field(grid: Grid, recipe) -> Field:
    """Build a field from a declarative recipe; deterministic given seeds."""
    if isinstance(recipe, GaussianRecipe):
        if len(recipe.center) != grid.n:
            raise ValueError(f"key 'center': a centre of dimension {len(recipe.center)} "
                             f"on a grid of dimension {grid.n}")
        mesh = grid.x_mesh()
        d2 = sum((m - c) ** 2 for m, c in zip(mesh, recipe.center))
        return Field(grid, np.exp(-d2 / (2.0 * recipe.width**2)).astype(complex))

    if isinstance(recipe, RandomBandlimited):
        rng = np.random.default_rng(recipe.seed)
        shape = grid.shape
        coef = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        mask = recipe.region.contains(grid.xi_mesh())
        fhat = Field(grid, np.where(mask, coef, 0.0))
        return idft(fhat)

    if isinstance(recipe, KnappRecipe):
        R = recipe.R
        mesh = grid.xi_mesh()
        if grid.n == 1:
            half = [0.5 / R]
        else:
            half = [0.5 / R**2] + [0.5 / R] * (grid.n - 1)
        centers = [recipe.center_xi] + [0.0] * (grid.n - 1)
        prof = np.ones(grid.shape)
        for m, c, h in zip(mesh, centers, half):
            # flat top on 80% of the plate, mollified edges
            u = (h - np.abs(m - c)) / (0.2 * h)
            prof = prof * _smoothstep(u)
        return idft(Field(grid, prof.astype(complex)))

    raise TypeError(f"unknown field recipe {recipe!r}")


# ---------------------------------------------------------------------------
# Persistence (bit-exact): magic, version u32, then n, N, L as little-endian
# f64, then interleaved (re, im) f64 samples in row-major order. Evolution
# (KSLT) and packet-stack (KSLP) files put a count as f64 at byte 32.
# ---------------------------------------------------------------------------


def _write_samples(path: str, magic: bytes, g: Grid, extra: bytes, blocks) -> int:
    """Header (magic, version, grid, then `extra`), then the interleaved
    samples of each block of `blocks` in turn; returns the sample bytes
    written. Blocks are written as they come, so a generator is never held
    whole."""
    written = 0
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", KSLF_VERSION))
        fh.write(struct.pack("<ddd", float(g.n), float(g.N), g.L))
        fh.write(extra)
        for block in blocks:
            written += fh.write(np.ascontiguousarray(block, dtype="<c16").data)
    return written


def write_field(f: Field, path: str) -> None:
    _write_samples(path, KSLF_MAGIC, f.grid, b"", [f.values])


def write_packets(g: Grid, count: int, stacks, path: str) -> None:
    """Packet stack: `count` rows of samples on g, one per packet, streamed
    from `stacks`, an iterable of arrays of whole rows such as
    `wavepackets.packet_values`."""
    if count < 1:
        raise ValueError(f"packet count {count} must be at least 1")
    row_bytes = 16 * math.prod(g.shape)
    written = _write_samples(path, KSLP_MAGIC, g, struct.pack("<d", float(count)), stacks)
    if written != count * row_bytes:
        raise ValueError(f"{count} packets declared, {written / row_bytes:g} written")


def _read_grid(raw: bytes, magic: bytes) -> Grid:
    """Check magic and version, then parse the grid (n, N, L) at byte 8."""
    if len(raw) < 4 or raw[:4] != magic:
        raise FieldFormatError(f"bad magic, expected {magic.decode()}", 0)
    if len(raw) < 8:
        raise FieldFormatError("truncated version", 4)
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != KSLF_VERSION:
        raise FieldFormatError(f"unsupported version {version}", 4)
    if len(raw) < 32:
        raise FieldFormatError("truncated header", 8)
    n_f, N_f, L = struct.unpack_from("<ddd", raw, 8)
    if not (n_f.is_integer() and N_f.is_integer()):
        raise FieldFormatError("non-integer dimensions", 8)
    try:
        return Grid(int(n_f), int(N_f), L)
    except ValueError as exc:
        raise FieldFormatError(f"invalid grid: {exc}", 8) from exc


def _read_count(raw: bytes, what: str) -> int:
    """The count (slices, packets) stored as f64 at byte 32: a positive
    integer."""
    if len(raw) < 40:
        raise FieldFormatError(f"truncated {what} count", 32)
    (count,) = struct.unpack_from("<d", raw, 32)
    if not (count.is_integer() and count >= 1):
        raise FieldFormatError(f"{what} count {count!r} is not a positive integer", 32)
    return int(count)


def _read_samples(raw: bytes, offset: int, shape: tuple) -> np.ndarray:
    """Interleaved (re, im) f64 samples filling the file from offset on. A
    size mismatch names the first byte past the samples, or the start of
    the first sample the file cuts short."""
    need = offset + 16 * math.prod(shape)
    if len(raw) != need:
        at = need if len(raw) > need else offset + 16 * ((len(raw) - offset) // 16)
        raise FieldFormatError(f"expected {need} bytes, found {len(raw)}", at)
    return np.frombuffer(raw, dtype="<c16", offset=offset).reshape(shape)


def _read_file(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def read_field(path: str) -> Field:
    raw = _read_file(path)
    grid = _read_grid(raw, KSLF_MAGIC)
    return Field(grid, _read_samples(raw, 32, grid.shape))


def read_packets(path: str) -> tuple:
    """(grid, values) of a packet stack; values[i] holds packet i's
    samples, shape (P,) + grid.shape."""
    raw = _read_file(path)
    grid = _read_grid(raw, KSLP_MAGIC)
    count = _read_count(raw, "packet")
    return grid, _read_samples(raw, 40, (count,) + grid.shape)


def write_spacetime(u: SpacetimeField, path: str) -> None:
    times = np.asarray(u.times, dtype="<f8").tobytes()
    _write_samples(path, KSLT_MAGIC, u.grid,
                   struct.pack("<d", float(len(u.times))) + times, [u.slices])


def read_spacetime(path: str) -> SpacetimeField:
    raw = _read_file(path)
    grid = _read_grid(raw, KSLT_MAGIC)
    S = _read_count(raw, "slice")
    t_end = 40 + 8 * S
    if len(raw) < t_end:
        raise FieldFormatError(f"expected {S} times, found {(len(raw) - 40) // 8}", len(raw))
    times = np.frombuffer(raw, dtype="<f8", offset=40, count=S)
    try:
        check_uniform_times(times)
    except ValueError as exc:
        raise FieldFormatError(str(exc), 40) from exc
    slices = _read_samples(raw, t_end, (S,) + grid.shape)
    return SpacetimeField(grid, times.copy(), slices)
