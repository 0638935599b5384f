"""Mixed space-time norms over balls and windows, in both nesting orders.

Inner and outer integrals use the rectangle rule on the sampled lattice;
an infinite exponent is the max over samples. Ball membership is decided
by the cell-center test with an open ball, which makes the discrete
measure of a ball exact whenever its radius is a multiple of the grid
spacing (cell-centered grids). _nesting names the norm's two reductions
and _reduce_grad differentiates one, so its gradient is their chain rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Ball, SpacetimeField

INF = math.inf


@dataclass(frozen=True)
class MixedNormSpec:
    q: float
    r: float
    order: str = "xt"  # 'xt': outer x, inner t; 'tx': outer t, inner x
    ball: tuple | None = None  # (center tuple, radius)
    window: tuple | None = None  # (a, b), else all sampled times

    def __post_init__(self):
        if self.q < 1 or self.r < 1:
            raise ValueError("exponents must lie in [1, inf]")
        if self.order not in ("xt", "tx"):
            raise ValueError(f"order must be 'xt' or 'tx', got {self.order!r}")


def _spatial_mask(u: SpacetimeField, ball) -> np.ndarray:
    g = u.grid
    if ball is None:
        return np.ones(g.shape, dtype=bool)
    center, radius = ball
    return np.broadcast_to(Ball(tuple(center), radius).contains(g.x_mesh()), g.shape)


def _time_mask(u: SpacetimeField, window) -> np.ndarray:
    if window is None:
        return np.ones(len(u.times), dtype=bool)
    a, b = window
    return (u.times >= a) & (u.times <= b)


def _reduce(values: np.ndarray, p: float, weight: float, axis: int) -> np.ndarray:
    if p == INF:
        return np.max(values, axis=axis)
    return (weight * np.sum(values**p, axis=axis)) ** (1.0 / p)


def _reduce_grad(values: np.ndarray, p: float, weight: float, axis: int,
                 reduced) -> np.ndarray:
    """d _reduce / d values, given reduced, its result: weight v^(p-1) reduced^(1-p),
    0 where reduced is 0; at p = inf the indicator of the first maximum along axis."""
    if p == INF:
        d = np.zeros(values.shape)
        np.put_along_axis(d, values.argmax(axis=axis, keepdims=True), 1.0, axis=axis)
        return d
    red = np.expand_dims(reduced, axis)
    scale = np.where(red > 0, weight * np.where(red > 0, red, 1.0) ** (1 - p), 0.0)
    return values ** (p - 1) * scale


def _nesting(spec, u) -> tuple:
    """((p, weight, axis) of the inner reduction, (p, weight) of the outer) of a
    (time, cell) slab of u: xt reduces over t (axis 0) first, tx over x (axis 1)."""
    g = u.grid
    wx = g.dx**g.n
    wt = u.dt if len(u.times) > 1 else 1.0
    if spec.order == "xt":
        return (spec.r, wt, 0), (spec.q, wx)
    return (spec.q, wx, 1), (spec.r, wt)


def mixed_norm(u: SpacetimeField, spec: MixedNormSpec) -> float:
    smask = _spatial_mask(u, spec.ball)
    tmask = _time_mask(u, spec.window)
    if not smask.any():
        raise ValueError("spatial region contains no grid cells")
    if not tmask.any():
        raise ValueError("time window contains no samples")
    # slab of |u| over selected times x selected cells, shape (S_sel, X_sel)
    slab = np.abs(u.slices)[tmask][:, smask]
    (p_in, w_in, axis), (p_out, w_out) = _nesting(spec, u)
    return float(_reduce(_reduce(slab, p_in, w_in, axis), p_out, w_out, axis=0))

