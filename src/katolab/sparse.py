"""Sparse-ball machinery: the surface measure and its Fourier transform,
sparse families, the decoupling check, and the recursive cube decomposition.

All set geometry here (cube sets, separations, level thresholds) is exact,
and the level radii are integers; floating point enters only through the
oscillatory quadratures. The decomposition and its audit read squared
distances off one exact int64 table per point set, built only after a
check in Python ints that dim * span^2 fits in int64; thresholds past the
table's range (H_k^2 reaches 10^120) are clamped to one above its largest
entry before they meet it. `is_sparse` stays on Python arithmetic, since a
`SparseFamily` may hold rational centers. The decoupling check evaluates
each ball's compactly supported window only on an index box around its
support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import symbols as sym_mod
from .core import SECTOR_INNER, SECTOR_OUTER
from .symbols import SymbolSpec


class ScaleError(ValueError):
    """A recursion radius left the representable coordinate range."""


# ---------------------------------------------------------------------------
# Surface measure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurfacePatch:
    """The graph {(Phi(xi), xi)} over the sector, sampled for quadrature.

    Nodes are midpoints of the parameter interval; weights carry the area
    element sqrt(1 + |grad Phi|^2) times the parameter cell measure.
    """

    sym: SymbolSpec
    xi: np.ndarray
    weights: np.ndarray

    @property
    def tau(self) -> np.ndarray:
        return sym_mod.value(self.sym, [self.xi])

    def points(self) -> np.ndarray:
        """Surface samples as rows (tau, xi) in spacetime frequency."""
        return np.stack([self.tau, self.xi], axis=1)


def surface_patch(sym: SymbolSpec, samples: int = 2048) -> SurfacePatch:
    if sym.n != 1:
        raise NotImplementedError("surface sampling implemented for n = 1")
    dxi = (SECTOR_OUTER - SECTOR_INNER) / samples
    xi = SECTOR_INNER + (np.arange(samples) + 0.5) * dxi
    grad = sym_mod.gradient(sym, [xi])[0]
    weights = np.sqrt(1.0 + grad**2) * dxi
    return SurfacePatch(sym=sym, xi=xi, weights=weights)


def surface_fourier(patch: SurfacePatch, zeta) -> complex:
    """Transform of the surface measure, int_S e^{-i z . zeta} dsigma(z)."""
    zeta = np.asarray(zeta, dtype=float)
    phase = zeta[0] * patch.tau + zeta[1] * patch.xi
    return complex(np.sum(patch.weights * np.exp(-1j * phase)))


# ---------------------------------------------------------------------------
# Sparse families (exact arithmetic)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SparseFamily:
    centers: tuple  # tuples of ints (or Fractions)
    H: int

    @property
    def N(self) -> int:
        return len(self.centers)


def _dist2(a, b):
    # exact for Python ints and Fractions, which family centers may be
    return sum((x - y) ** 2 for x, y in zip(a, b))


def _sep_ok(d2, N: int, H: int) -> bool:
    # |dz| >= (N H)^2  <=>  |dz|^2 >= (N H)^4
    return d2 >= (N * H) ** 4


def is_sparse(family: SparseFamily) -> bool:
    """Exact predicate: pairwise center separation at least (N H)^2."""
    cs = family.centers
    for i in range(len(cs)):
        for j in range(i + 1, len(cs)):
            if not _sep_ok(_dist2(cs[i], cs[j]), family.N, family.H):
                return False
    return True


@dataclass(frozen=True)
class CubeSet:
    """Finite union of unit cubes, identified by integer corner points."""

    dim: int
    points: tuple  # tuple of int tuples

    def __post_init__(self):
        pts = tuple(tuple(int(c) for c in p) for p in self.points)
        if len(set(pts)) != len(pts):
            raise ValueError("cube corners must be unique")
        if not pts:
            raise ValueError("cube set must be nonempty")
        for p in pts:
            if len(p) != self.dim:
                raise ValueError(f"point {p} does not have dimension {self.dim}")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


H_LIMIT = 10**60  # the largest level radius; experiment configs stay within it


@dataclass(frozen=True)
class SparseLevel:
    H_k: int
    ball_radius: int  # radius used for covering: previous level's H
    members: tuple
    families: tuple  # of SparseFamily


def _dist2_table(rows, cols=None) -> np.ndarray:
    """Exact squared distances between integer points, rows x cols (rows x
    rows without cols), as an int64 table.

    Coordinates are shifted to the set's lower corner in Python ints first;
    the table is built only when dim * span^2, a bound on every entry, stays
    below the int64 maximum.
    """
    pts = list(rows) + list(cols or ())
    dim = len(pts[0])
    lo = [min(p[a] for p in pts) for a in range(dim)]
    span = max(max(p[a] for p in pts) - lo[a] for a in range(dim))
    if dim * span * span >= np.iinfo(np.int64).max:
        raise ValueError(f"coordinate span {span} in dimension {dim} "
                         "overflows int64 squared distances")
    x = np.array([[c - m for c, m in zip(p, lo)] for p in pts], dtype=np.int64)
    a, b = x[:len(rows)], (x if cols is None else x[len(rows):])
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _within(d2: np.ndarray, r2: int) -> np.ndarray:
    """d2 <= r2 elementwise, exact for an integer r2 of any size: r2 is
    clamped to one above the table's largest entry, which the span check of
    `_dist2_table` keeps inside int64."""
    return d2 <= min(r2, int(d2.max(initial=0)) + 1)


def sparse_decompose(E: CubeSet, K: int) -> list:
    """Split a cube set into K levels of sparse ball families.

    Level radii are the integers H_k = (|E| H_{k-1})^2 from H_0 = 1; a
    point joins level k when its H_k-ball captures at most |E|^(k/K) of the
    set. Each level is covered greedily by balls of the previous radius
    centered at a maximal separated subset, and the balls are packed into
    families first-fit under the exact separation predicate for the grown
    family size, checked against the family's closest pair.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    pts = E.points
    size = len(pts)
    d2 = _dist2_table(pts)
    remaining = np.arange(size)
    levels = []
    H_prev = 1
    for k in range(1, K + 1):
        H_k = (size * H_prev) ** 2
        if H_k > H_LIMIT:
            raise ScaleError(f"level {k} radius {H_k} exceeds the supported range")
        if k == K:
            members, remaining = remaining, remaining[:0]
        else:
            # count^K <= size^k exactly, with count = |E ∩ B(x, H_k)|
            counts = np.count_nonzero(_within(d2[remaining], H_k * H_k), axis=1)
            keep = np.array([c**K <= size**k for c in counts.tolist()], dtype=bool)
            members, remaining = remaining[keep], remaining[~keep]
        members = members.tolist()
        families = _cover_and_pack(d2, members, H_prev)
        levels.append(SparseLevel(
            H_k=H_k, ball_radius=H_prev, members=tuple(pts[i] for i in members),
            families=tuple(SparseFamily(centers=tuple(pts[i] for i in fam), H=H_prev)
                           for fam in families)))
        H_prev = H_k
    return levels


def _cover_and_pack(d2: np.ndarray, idx: list, radius: int) -> list:
    """Families of indices into d2: the indices idx, in order, are covered
    greedily by balls of the radius, and the centers are packed first fit."""
    near = _within(d2[np.ix_(idx, idx)], radius * radius)
    # a point is a center when no earlier center lies within the radius
    covered = np.zeros(len(idx), dtype=bool)
    centers = []
    for j in range(len(idx)):
        if not covered[j]:
            centers.append(idx[j])
            covered |= near[j]
    # First fit. _sep_ok is monotone in d2, so a grown family is sparse
    # exactly when its closest pair is: keep each family's minimum pairwise
    # d2 (None for one center) and test only the pairs a new center adds.
    families: list = []
    for c in centers:
        for fam in families:
            members, fam_min = fam
            dmin = int(d2[c, members].min())
            if fam_min is not None and fam_min < dmin:
                dmin = fam_min
            if _sep_ok(dmin, len(members) + 1, radius):
                members.append(c)
                fam[1] = dmin
                break
        else:
            families.append([[c], None])
    return [f for f, _ in families]


def audit_decomposition(E: CubeSet, levels: list) -> dict:
    """Exact audit: partition, cover, and per-family sparsity."""
    seen: dict = {}
    for lv in levels:
        for ptp in lv.members:
            seen[ptp] = seen.get(ptp, 0) + 1
    partition_ok = (set(seen) == set(E.points)
                    and all(v == 1 for v in seen.values()))
    cover_ok = True
    sparse_ok = True
    max_families = 0
    for lv in levels:
        max_families = max(max_families, len(lv.families))
        centers = [c for fam in lv.families for c in fam.centers]
        if lv.members:
            near = _within(_dist2_table(lv.members, centers),
                           lv.ball_radius * lv.ball_radius)
            cover_ok &= bool(near.any(axis=1).all())
        for fam in lv.families:
            if fam.N > 1:
                d2 = _dist2_table(fam.centers)[np.triu_indices(fam.N, 1)]
                sparse_ok &= _sep_ok(int(d2.min()), fam.N, fam.H)
    return {"partition_ok": partition_ok, "cover_ok": cover_ok,
            "sparse_ok": sparse_ok, "max_families": max_families}


def columns_by_height(E: CubeSet) -> dict:
    """Group columns (fibers along axis 0) by dyadic height.

    Returns {h: CubeSet} with h dyadic; each column of E lands in the bin
    [h, 2h) by its cube count, and the bins partition E exactly.
    """
    cols: dict = {}
    for ptp in E.points:
        base = ptp[1:]
        cols.setdefault(base, []).append(ptp)
    out: dict = {}
    for base, members in cols.items():
        h = 1 << (len(members).bit_length() - 1)
        out.setdefault(h, []).extend(members)
    return {h: CubeSet(dim=E.dim, points=tuple(v)) for h, v in sorted(out.items())}


# ---------------------------------------------------------------------------
# Sparse decoupling check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BallFunction:
    """A function sampled on a uniform box grid in spacetime frequency."""

    t_axis: np.ndarray
    x_axis: np.ndarray
    values: np.ndarray  # (len(t_axis), len(x_axis))

    def __post_init__(self):
        for name in ("t_axis", "x_axis"):
            if np.any(np.diff(getattr(self, name)) <= 0):
                raise ValueError(f"{name} must increase")

    @property
    def cell(self) -> float:
        dt = self.t_axis[1] - self.t_axis[0] if len(self.t_axis) > 1 else 1.0
        dx = self.x_axis[1] - self.x_axis[0] if len(self.x_axis) > 1 else 1.0
        return float(dt * dx)

    def lp(self, p: float) -> float:
        return float((self.cell * np.sum(np.abs(self.values) ** p)) ** (1.0 / p))


def mollifier_hat(zeta_norm: np.ndarray) -> np.ndarray:
    """Compactly supported window profile (1 - |z|^2 / 1.5^2)^6."""
    s2 = (np.asarray(zeta_norm) / 1.5) ** 2
    return np.where(s2 < 1.0, (1.0 - np.minimum(s2, 1.0)) ** 6, 0.0)


def _support_box(axis: np.ndarray, centers: np.ndarray, radius: float) -> np.ndarray:
    """Per center c, the indices of one fixed-width run of the increasing
    axis that covers every sample within `radius` of c plus one sample on
    each side (rows of shape (len(centers), width)); the run is shifted,
    not cut, at the ends of the axis, so its extra samples lie outside the
    radius."""
    lo = np.searchsorted(axis, centers - radius, side="left") - 1
    hi = np.searchsorted(axis, centers + radius, side="right") + 1
    width = min(int(np.max(hi - lo)), len(axis))
    start = np.clip(lo, 0, len(axis) - width)
    return start[:, None] + np.arange(width)


def decoupling_check(family: SparseFamily, functions: list, p: float,
                     patch: SurfacePatch) -> dict:
    """Ratio of the summed, window-convolved surface restriction to the
    separated right side.

    LHS = || sum_i (f_i * phihat_i) |_S ||_{L^p(dsigma)} where phihat_i is
    the ball-scale window modulated to the family center z_i; RHS =
    H^{1/p} (sum_i ||f_i||_p^p)^{1/p}. Requires the family to pass the
    exact sparsity predicate (the bound is not claimed otherwise). The
    functions themselves may live anywhere; the centers enter through the
    modulations. The window phihat(H (p - y)) vanishes unless
    H |p - y| < 1.5, so each patch point sums over the index box of its
    function's grid that holds that disc, not over the whole grid.
    """
    if not 1.0 <= p <= 2.0:
        raise ValueError("p must lie in [1, 2]")
    if len(functions) != family.N:
        raise ValueError("one function per family ball is required")
    if not is_sparse(family):
        raise ValueError("family fails the sparsity predicate; bound not claimed")
    H = family.H
    pts = patch.points()  # (M, 2)
    total = np.zeros(len(pts), dtype=np.complex128)
    for z_i, f in zip(family.centers, functions):
        z = np.array([float(z_i[0]), float(z_i[1])])
        tt, xx = np.meshgrid(f.t_axis, f.x_axis, indexing="ij")
        y = np.stack([tt.ravel(), xx.ravel()], axis=1)  # (P, 2)
        # the modulation e^{-i z.(p - y)} factors as e^{-i z.p} e^{i z.y}
        mod = (np.exp(1j * (y @ z)) * f.values.ravel()).reshape(f.values.shape)
        it = _support_box(f.t_axis, pts[:, 0], 1.5 / H)
        ix = _support_box(f.x_axis, pts[:, 1], 1.5 / H)
        diff_t = pts[:, 0, None, None] - f.t_axis[it][:, :, None]
        diff_x = pts[:, 1, None, None] - f.x_axis[ix][:, None, :]
        win = mollifier_hat(H * np.sqrt(diff_t**2 + diff_x**2))
        box = mod[it[:, :, None], ix[:, None, :]]
        total += (H**2 * f.cell * np.exp(-1j * (pts @ z))
                  * np.einsum("mij,mij->m", win, box))
    lhs = float((np.sum(patch.weights * np.abs(total) ** p)) ** (1.0 / p))
    rhs = float(H ** (1.0 / p) * (sum(f.lp(p) ** p for f in functions)) ** (1.0 / p))
    return {"lhs": lhs, "rhs": rhs, "ratio": lhs / max(rhs, 1e-300)}
