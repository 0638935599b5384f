"""Mixed space-time norms L^q_x L^r_t over balls and windows: an inner
reduction over each cell's time samples, then an outer one over the cells.

Both use the rectangle rule on the sampled lattice; an infinite exponent
is the max over samples. Ball membership is decided by the cell-center
test with an open ball, which makes the discrete measure of a ball exact
whenever its radius is a multiple of the grid spacing (cell-centered
grids). _reduce_grad differentiates one reduction, so the norm's gradient
is the chain rule of the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Ball, SpacetimeField

INF = math.inf


@dataclass(frozen=True)
class MixedNormSpec:
    q: float  # outer, over the cells
    r: float  # inner, over the time samples
    ball: tuple | None = None  # (center tuple, radius)
    window: tuple | None = None  # (a, b), else all sampled times

    def __post_init__(self):
        if self.q < 1 or self.r < 1:
            raise ValueError("exponents must lie in [1, inf]")


def spatial_mask(u: SpacetimeField, ball) -> np.ndarray:
    """The cells of u in ball; ValueError if it misses the grid's dimension or cells."""
    g = u.grid
    if ball is None:
        return np.ones(g.shape, dtype=bool)
    center, radius = ball
    mask = np.broadcast_to(Ball(tuple(center), radius).contains(g.x_mesh()), g.shape)
    if not mask.any():
        raise ValueError("the ball holds no grid cell")
    return mask


def time_mask(u: SpacetimeField, window) -> np.ndarray:
    """The samples of u in window; ValueError if it holds none."""
    if window is None:
        return np.ones(len(u.times), dtype=bool)
    a, b = window
    mask = (u.times >= a) & (u.times <= b)
    if not mask.any():
        raise ValueError("the time window holds no sample")
    return mask


def _reduce(values: np.ndarray, p: float, weight: float) -> np.ndarray:
    """The weighted l^p norm of values over axis 0."""
    if p == INF:
        return np.max(values, axis=0)
    return (weight * np.sum(values**p, axis=0)) ** (1.0 / p)


def _reduce_grad(values: np.ndarray, p: float, weight: float, reduced) -> np.ndarray:
    """d _reduce / d values, given reduced, its result: weight v^(p-1) reduced^(1-p),
    0 where reduced is 0; at p = inf the indicator of the first maximum over axis 0."""
    if p == INF:
        d = np.zeros(values.shape)
        np.put_along_axis(d, values.argmax(axis=0, keepdims=True), 1.0, axis=0)
        return d
    scale = np.where(reduced > 0, weight * np.where(reduced > 0, reduced, 1.0) ** (1 - p), 0.0)
    return values ** (p - 1) * scale


def mixed_norm(u: SpacetimeField, spec: MixedNormSpec) -> float:
    smask = spatial_mask(u, spec.ball)
    tmask = time_mask(u, spec.window)
    # slab of |u| over selected times x selected cells, shape (S_sel, X_sel)
    slab = np.abs(u.slices)[tmask][:, smask]
    wt = u.dt if len(u.times) > 1 else 1.0
    return float(_reduce(_reduce(slab, spec.r, wt), spec.q, u.grid.dx**u.grid.n))
