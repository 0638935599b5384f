"""Dispersive propagator and the sector bump.

The solution operator acts diagonally in frequency with the unimodular
multiplier e^{i t Phi(xi)}, so the energy identity holds exactly on the
grid. The sector bump `sector_bump` is a smooth cutoff supported on the
sector Pi = {1/2 <= |xi| <= 2, |xi/|xi| - e1| <= pi/4} of `core`; the
operator norms and the packet kernels localize with it.

Time slices are evaluated a block at a time: one multiplier array for the
block and one batched inverse transform (`core.stack_rows` slices), each
slice bit-identical to its own transform.
"""

from __future__ import annotations

import numpy as np

from .core import (SECTOR_CHORD, SECTOR_INNER, SECTOR_OUTER, Field, SpacetimeField,
                   _sector_polar, _smoothstep, dft, idft_batch, stack_rows)
from . import symbols as sym_mod
from .symbols import SymbolSpec

# Ramp widths of the sector bump, relative to its support: the radial ramp
# occupies RADIAL_FRAC * (2 - 1/2) at each radial edge and the angular ramp
# ANGULAR_FRAC * (pi/4) at the cone edge.
RADIAL_FRAC = 0.125
ANGULAR_FRAC = 0.125


def sector_bump(mesh) -> np.ndarray:
    """Smooth cutoff supported on the sector, 1 on its mollified interior,
    over a broadcastable list of coordinate arrays (any dimension)."""
    rho, chord = _sector_polar(mesh)
    w = RADIAL_FRAC * (SECTOR_OUTER - SECTOR_INNER)
    radial = _smoothstep((rho - SECTOR_INNER) / w) * _smoothstep((SECTOR_OUTER - rho) / w)
    angular = _smoothstep((SECTOR_CHORD - chord) / (ANGULAR_FRAC * SECTOR_CHORD))
    return np.where(rho > 0, radial * angular, 0.0)


def propagate(f: Field, sym: SymbolSpec, times) -> SpacetimeField:
    """Free evolution u(t) = (inverse transform of e^{i t Phi} fhat)."""
    g = f.grid
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if g.n != sym.n:
        raise ValueError(f"grid dimension {g.n} != symbol dimension {sym.n}")
    fhat = dft(f).values
    phi = sym_mod.value(sym, g.xi_mesh())
    out = np.empty((len(times),) + g.shape, dtype=np.complex128)
    step = stack_rows(g)
    for s in range(0, len(times), step):
        t = times[s:s + step].reshape((-1,) + (1,) * g.n)
        out[s:s + step] = idft_batch(g, np.exp(1j * t * phi) * fhat)
    return SpacetimeField(g, times, out)


def energy_defect(u: SpacetimeField, f: Field) -> float:
    """Largest relative deviation of ||u(t)||_2 from ||f||_2."""
    ref = f.l2()
    g = u.grid
    flat = u.slices.reshape(len(u.times), -1)
    l2 = np.sqrt(g.dx**g.n * np.sum(np.abs(flat) ** 2, axis=1))
    return float(np.max(np.abs(l2 - ref))) / max(ref, 1e-300)
