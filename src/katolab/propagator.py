"""Dispersive propagator, sector-localized operator, and multiplier tools.

The solution operator acts diagonally in frequency with the unimodular
multiplier e^{i t Phi(xi)}, so the energy identity holds exactly on the
grid. The sector-localized operator composes the propagator with a smooth
bump phi supported on the sector Pi = {1/2 <= |xi| <= 2, |xi/|xi| - e1| <=
pi/4}; in keeping with its integral definition it carries an extra (2 pi)^n
relative to the propagator applied to the filtered data, and that factor is
applied explicitly here.

Time slices are evaluated a block at a time: one multiplier array for the
block and one batched inverse transform (`core.stack_rows` slices), each
slice bit-identical to its own transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (Field, Grid, SpacetimeField, _sector_polar, _smoothstep,
                   dft, idft, idft_batch, stack_rows)
from . import symbols as sym_mod
from .symbols import SymbolSpec

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SectorBump:
    """Smooth cutoff supported on the sector, 1 on its mollified interior.

    Width fractions are relative to the support dimensions: the radial
    ramp occupies radial_frac * (2 - 1/2) at each radial edge and the
    angular ramp angular_frac * (pi/4) at the cone edge.
    """

    n: int
    radial_frac: float = 0.125
    angular_frac: float = 0.125

    @property
    def radial_width(self) -> float:
        return self.radial_frac * 1.5

    @property
    def angular_width(self) -> float:
        return self.angular_frac * (math.pi / 4)

    def values(self, mesh) -> np.ndarray:
        rho, chord = _sector_polar(mesh)
        w = self.radial_width
        radial = _smoothstep((rho - 0.5) / w) * _smoothstep((2.0 - rho) / w)
        angular = _smoothstep((math.pi / 4 - chord) / self.angular_width)
        out = radial * angular
        return np.where(rho > 0, out, 0.0)

    def values_1d(self, xi: np.ndarray) -> np.ndarray:
        return self.values([np.asarray(xi, dtype=float)])

    def support_radial(self) -> tuple:
        return (0.5, 2.0)


def canonical_bump(n: int) -> SectorBump:
    return SectorBump(n=n)


def _multiplier_slices(f: Field, sym: SymbolSpec, times, extra: np.ndarray | None) -> SpacetimeField:
    g = f.grid
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if g.n != sym.n:
        raise ValueError(f"grid dimension {g.n} != symbol dimension {sym.n}")
    fhat = dft(f).values
    if extra is not None:
        fhat = fhat * extra
    phi = sym_mod.value(sym, g.xi_mesh())
    out = np.empty((len(times),) + g.shape, dtype=np.complex128)
    step = stack_rows(g)
    for s in range(0, len(times), step):
        t = times[s:s + step].reshape((-1,) + (1,) * g.n)
        out[s:s + step] = idft_batch(g, np.exp(1j * t * phi) * fhat)
    return SpacetimeField(g, times, out)


def propagate(f: Field, sym: SymbolSpec, times) -> SpacetimeField:
    """Free evolution u(t) = (inverse transform of e^{i t Phi} fhat)."""
    return _multiplier_slices(f, sym, times, None)


def apply_U(f: Field, sym: SymbolSpec, bump: SectorBump, times) -> SpacetimeField:
    """Sector-localized evolution; equals (2 pi)^n times the filtered propagator."""
    g = f.grid
    extra = bump.values(g.xi_mesh()) * TWO_PI**g.n
    return _multiplier_slices(f, sym, times, extra)


def bessel(f: Field, alpha: float) -> Field:
    """Apply the frequency weight (1 + |xi|^2)^(alpha/2)."""
    g = f.grid
    w = (1.0 + g.xi_radius() ** 2) ** (alpha / 2.0)
    return idft(Field(g, w * dft(f).values))


def _lp_profile(rho: np.ndarray, k: int) -> np.ndarray:
    # chi(r) = 1 for r <= 1.4, 0 for r >= 2; the late ramp leaves each block
    # identically 1 on a fat band [2^k, 1.4 * 2^k] inside its shell
    def chi(r):
        return _smoothstep((2.0 - r) / 0.6)

    if k == 0:
        return chi(rho)
    return chi(rho / 2.0**k) - chi(rho / 2.0 ** (k - 1))


def lp_shell_range(grid: Grid) -> int:
    """Largest shell index whose telescoping sum closes on this grid."""
    return max(0, math.ceil(math.log2(grid.nyquist * math.sqrt(grid.n))))


def lp_project(f: Field, k: int) -> Field:
    """Dyadic frequency block: shell 2^{k-1} <= |xi| <= 2^{k+1} (k >= 1)."""
    if k < 0:
        raise ValueError("shell index must be nonnegative")
    g = f.grid
    if k >= 1 and 2.0 ** (k - 1) > g.nyquist * math.sqrt(g.n):
        raise ValueError(
            f"shell k={k} lies outside the representable range |xi| <= "
            f"{g.nyquist * math.sqrt(g.n):.3g}"
        )
    rho = g.xi_radius()
    return idft(Field(g, _lp_profile(rho, k) * dft(f).values))


def energy_defect(u: SpacetimeField, f: Field) -> float:
    """Largest relative deviation of ||u(t)||_2 from ||f||_2."""
    ref = f.l2()
    g = u.grid
    flat = u.slices.reshape(len(u.times), -1)
    l2 = np.sqrt(g.dx**g.n * np.sum(np.abs(flat) ** 2, axis=1))
    return float(np.max(np.abs(l2 - ref))) / max(ref, 1e-300)


def times_for_window(sym: SymbolSpec, t0: float, t1: float, xi_max: float,
                     max_steps: int = 20000) -> tuple:
    """Uniform samples of [t0, t1] with the fastest phase advancing < pi/4
    per step at |xi| = xi_max. Returns (times, capped_flag)."""
    point = [np.array([xi_max])] + [np.array([0.0])] * (sym.n - 1)
    rate = max(abs(float(sym_mod.value(sym, point)[0])), 1e-12)
    steps = int(math.ceil((t1 - t0) * rate / (math.pi / 4))) + 1
    capped = steps > max_steps
    steps = min(steps, max_steps)
    # cell-centered samples so window integrals use a clean rectangle rule
    dt = (t1 - t0) / steps
    return t0 + (np.arange(steps) + 0.5) * dt, capped


def _shell_bump(rho: np.ndarray, k: int) -> np.ndarray:
    # adapted to the shell [2^{k-1}, 2^{k+1}]: 1 there, support [2^{k-2}, 2^{k+2}]
    lo, hi = 2.0 ** (k - 1), 2.0 ** (k + 1)
    ramp_lo = _smoothstep((rho - lo / 2) / (lo / 2))
    ramp_hi = _smoothstep((2 * hi - rho) / hi)
    return ramp_lo * ramp_hi


def rescale_check(f: Field, sym: SymbolSpec, k: int, bump: SectorBump | None = None,
                  times=(0.0, 0.5, 1.0)) -> float:
    """Sup-norm mismatch of the parabolic-rescaling identity at level k.

    Side one evolves the sector-filtered field at times t on the base grid;
    side two evolves the shell-filtered, dilated samples at times 2^{-mk} t
    on the grid with period L 2^{-k}, whose nodes coincide with the base
    nodes under the dilation. Both sides carry the propagator normalization.
    """
    g = f.grid
    if bump is None:
        bump = canonical_bump(g.n)
    xi_need = 2.0 ** (k + 2) * math.sqrt(g.n)
    g_small = Grid(g.n, g.N, g.L / 2.0**k)
    if g_small.nyquist < xi_need:
        raise ValueError(
            f"level k={k} needs |xi| up to {xi_need:.3g} but the rescaled grid "
            f"resolves only {g_small.nyquist:.3g}"
        )
    times = np.atleast_1d(np.asarray(times, dtype=float))

    filtered = idft(Field(g, dft(f).values * bump.values(g.xi_mesh())))
    side1 = propagate(filtered, sym, times)

    g_dil = Field(g_small, filtered.values)  # same samples, rescaled coordinates
    shell = _shell_bump(g_small.xi_radius(), k)
    g_shell = idft(Field(g_small, dft(g_dil).values * shell))
    side2 = propagate(g_shell, sym, times / 2.0 ** (sym.m * k))

    return float(np.max(np.abs(side1.slices - side2.slices)))
