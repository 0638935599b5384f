import math
from fractions import Fraction

import numpy as np
import pytest

from katolab import sparse as SP
from katolab import symbols as S

SYM = S.schrodinger(1)


@pytest.fixture(scope="module")
def patch():
    return SP.surface_patch(SYM)


def test_total_measure_refinement(patch):
    fine = SP.surface_patch(SYM, samples=8192)
    a, b = np.sum(patch.weights), np.sum(fine.weights)
    assert a > 0
    assert abs(a - b) / b <= 1e-8
    z0 = SP.surface_fourier(patch, [0.0, 0.0])
    assert z0.real == pytest.approx(a, rel=1e-12)
    assert z0.imag == pytest.approx(0.0, abs=1e-12)


def test_conjugate_symmetry(patch):
    for zeta in ([3.0, -1.0], [0.5, 7.25], [-11.0, 2.0]):
        a = SP.surface_fourier(patch, zeta)
        b = SP.surface_fourier(patch, [-zeta[0], -zeta[1]])
        assert a == pytest.approx(np.conj(b), rel=1e-12)


def test_normal_direction_decay(patch):
    nvec = np.array([1.0, -2.0]) / math.sqrt(5.0)
    lams = np.exp(np.linspace(math.log(16.0), math.log(256.0), 9))
    vals = [abs(SP.surface_fourier(patch, lam * nvec)) for lam in lams]
    slope = np.polyfit(np.log(lams), np.log(vals), 1)[0]
    assert abs(slope + 0.5) <= 0.1


def test_sparsity_predicate_arithmetic():
    fam = SP.SparseFamily(centers=((0, 0), (900, 0), (0, 900)), H=10)
    assert SP.is_sparse(fam)  # (3*10)^2 = 900 and all pairs reach it
    fam_bad = SP.SparseFamily(centers=((0, 0), (899, 0), (0, 900)), H=10)
    assert not SP.is_sparse(fam_bad)
    assert SP.is_sparse(SP.SparseFamily(centers=((5, -3),), H=10))
    d = (2 * 10) ** 2 - 1
    assert not SP.is_sparse(SP.SparseFamily(centers=((0, 0), (d, 0)), H=10))
    assert SP.is_sparse(SP.SparseFamily(centers=((0, 0), (d + 1, 0)), H=10))
    # Fraction centers at the threshold 400 = (2 H)^2, minus one, minus a
    # hair, exactly, plus one
    a = (Fraction(1, 3), Fraction(-2, 7))
    for offset, ok in ((-1, False), (Fraction(-1, 10**9), False), (0, True), (1, True)):
        fam = SP.SparseFamily(centers=(a, (a[0] + 400 + offset, a[1])), H=10)
        assert SP.is_sparse(fam) is ok


def test_decompose_singleton_and_K1():
    E = SP.CubeSet(dim=2, points=((3, 4),))
    levels = SP.sparse_decompose(E, K=3)
    assert sum(len(lv.members) for lv in levels) == 1
    assert sum(len(lv.families) for lv in levels) == 1

    rng = np.random.default_rng(1)
    pts = {(int(rng.integers(0, 1000)), int(rng.integers(0, 1000))) for _ in range(20)}
    E = SP.CubeSet(dim=2, points=tuple(pts))
    levels = SP.sparse_decompose(E, K=1)
    assert len(levels) == 1
    assert set(levels[0].members) == set(E.points)  # threshold vacuous at K=1
    with pytest.raises(ValueError):
        SP.CubeSet(dim=2, points=((0, 0), (0, 0)))


def test_decompose_random_audit():
    rng = np.random.default_rng(7)
    for _ in range(5):
        npts = int(rng.integers(2, 65))
        pts = set()
        while len(pts) < npts:
            pts.add((int(rng.integers(0, 10**6)), int(rng.integers(0, 10**6))))
        E = SP.CubeSet(dim=2, points=tuple(pts))
        levels = SP.sparse_decompose(E, K=3)
        audit = SP.audit_decomposition(E, levels)
        assert audit["partition_ok"] and audit["cover_ok"] and audit["sparse_ok"]
        assert audit["max_families"] <= 2.0 * len(E) ** (1.0 / 3.0)


def _first_fit_reference(points, radius):
    """Cover, then first fit that re-checks every pair of the grown family."""
    r2 = radius * radius
    centers = []
    for pt in points:
        if all(SP._dist2(pt, c) > r2 for c in centers):
            centers.append(pt)
    families = []
    for c in centers:
        for fam in families:
            grown = fam + [c]
            if all(SP._sep_ok(SP._dist2(a, b), len(grown), radius)
                   for i, a in enumerate(grown) for b in grown[i + 1:]):
                fam.append(c)
                break
        else:
            families.append([c])
    return [tuple(f) for f in families]


def test_packing_matches_pairwise_first_fit():
    rng = np.random.default_rng(11)
    multi = split = 0
    for _ in range(60):
        radius = int(rng.integers(1, 4))
        box = int(rng.integers(20, 2000))
        pts = [tuple(int(c) for c in rng.integers(0, box, 2))
               for _ in range(int(rng.integers(2, 30)))]
        # collinear runs, along an axis and a diagonal, whose steps sit at the
        # family thresholds +-1
        for direction in ((1, 0), (1, 1)):
            x = y = 0
            for _ in range(int(rng.integers(2, 12))):
                N = int(rng.integers(2, 7))
                step = (N * radius) ** 2 + int(rng.integers(-1, 2))
                x, y = x + direction[0] * step, y + direction[1] * step
                pts.append((x, y))
        pts = list(dict.fromkeys(pts))
        got = [f.centers for f in SP._cover_and_pack(pts, radius)]
        assert got == _first_fit_reference(pts, radius)
        multi += any(len(f) > 1 for f in got)
        split += len(got) > 1
    assert multi and split


def test_recursion_radii():
    # H_k = (|E| H_{k-1})^2. |E| = 3: H_1 = 9, H_2 = 9 * 81 = 729, H_3 = 9 * 729^2
    pts = ((0, 0), (10**5, 0), (0, 10**5))
    E = SP.CubeSet(dim=2, points=pts)
    levels = SP.sparse_decompose(E, K=3)
    assert [lv.H_k for lv in levels] == [9, 9 * 81, 9 * 729**2]
    assert [lv.ball_radius for lv in levels] == [1, 9, 9 * 81]
    # |E| = 128: H_3 = 128^14 = 2^98, past float precision, exact
    E = SP.CubeSet(dim=2, points=tuple((i, i * i) for i in range(128)))
    levels = SP.sparse_decompose(E, K=3)
    assert [lv.H_k for lv in levels] == [2**14, 2**42, 2**98]
    assert [lv.ball_radius for lv in levels] == [1, 2**14, 2**42]
    assert all(type(lv.H_k) is int for lv in levels)


def test_columns_by_height():
    E = SP.CubeSet(dim=2, points=((0, 0), (1, 0), (2, 0), (3, 0), (0, 5)))
    cols = SP.columns_by_height(E)
    assert sorted(cols) == [1, 4]
    assert len(cols[4]) == 4 and len(cols[1]) == 1

    # uniform box of height 8 over a base: single key 8
    pts = tuple((t, x) for t in range(8) for x in (0, 1, 2))
    E = SP.CubeSet(dim=2, points=pts)
    cols = SP.columns_by_height(E)
    assert sorted(cols) == [8]
    assert len(cols[8]) == len(E)

    rng = np.random.default_rng(3)
    pts = {(int(rng.integers(0, 40)), int(rng.integers(0, 12))) for _ in range(150)}
    E = SP.CubeSet(dim=2, points=tuple(pts))
    cols = SP.columns_by_height(E)
    assert sum(len(cs) for cs in cols.values()) == len(E)
    for h, cs in cols.items():
        col_sizes: dict = {}
        for ptp in cs.points:
            col_sizes[ptp[1]] = col_sizes.get(ptp[1], 0) + 1
        for size in col_sizes.values():
            assert h <= size < 2 * h


def ball_fn(seed):
    rng = np.random.default_rng(seed)
    t_ax = np.linspace(0.0, 4.5, 48)
    x_ax = np.linspace(0.0, 2.5, 32)
    tt, xx = np.meshgrid(t_ax, x_ax, indexing="ij")
    env = np.exp(-(((tt - 2.2) / 1.5) ** 2) - ((xx - 1.2) / 0.8) ** 2)
    vals = env * (rng.standard_normal(tt.shape) + 1j * rng.standard_normal(tt.shape))
    return SP.BallFunction(t_axis=t_ax, x_axis=x_ax, values=vals)


def test_decoupling_single_ball_and_p1(patch):
    small = SP.surface_patch(SYM, samples=128)
    fam = SP.SparseFamily(centers=((0, 0),), H=8)
    f = ball_fn(0)
    r2 = SP.decoupling_check(fam, [f], 2.0, small)
    assert 0 < r2["ratio"] < 4.0
    r1 = SP.decoupling_check(fam, [f], 1.0, small)
    assert 0 < r1["ratio"] < 4.0


def test_decoupling_requires_sparsity(patch):
    small = SP.surface_patch(SYM, samples=64)
    fam = SP.SparseFamily(centers=((0, 0), (10, 0)), H=8)
    assert not SP.is_sparse(fam)
    with pytest.raises(ValueError):
        SP.decoupling_check(fam, [ball_fn(0), ball_fn(1)], 2.0, small)


def test_decoupling_sparse_config(patch):
    small = SP.surface_patch(SYM, samples=128)
    sep = (2 * 8) ** 2
    fam = SP.SparseFamily(centers=((0, 0), (sep, 0)), H=8)
    assert SP.is_sparse(fam)
    res = SP.decoupling_check(fam, [ball_fn(2), ball_fn(3)], 2.0, small)
    single = max(SP.decoupling_check(SP.SparseFamily(centers=((0, 0),), H=8),
                                     [ball_fn(s)], 2.0, small)["ratio"]
                 for s in (2, 3))
    assert res["ratio"] <= 2.0 * single


def _dense_decoupling_lhs(family, functions, p, patch):
    # every window on every sample of its function, as one dense matrix
    H = family.H
    pts = patch.points()
    total = np.zeros(len(pts), dtype=np.complex128)
    for z_i, f in zip(family.centers, functions):
        z = np.array([float(z_i[0]), float(z_i[1])])
        tt, xx = np.meshgrid(f.t_axis, f.x_axis, indexing="ij")
        y = np.stack([tt.ravel(), xx.ravel()], axis=1)
        dist = np.hypot(pts[:, 0][:, None] - y[None, :, 0], pts[:, 1][:, None] - y[None, :, 1])
        win = SP.mollifier_hat(H * dist)
        total += (H**2 * f.cell * np.exp(-1j * (pts @ z))
                  * (win @ (np.exp(1j * (y @ z)) * f.values.ravel())))
    return float(np.sum(patch.weights * np.abs(total) ** p) ** (1.0 / p))


def _ball_fn_on(t_ax, x_ax, seed):
    rng = np.random.default_rng(seed)
    shape = (len(t_ax), len(x_ax))
    return SP.BallFunction(t_axis=t_ax, x_axis=x_ax,
                           values=rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@pytest.mark.parametrize("H", [2, 8])
def test_decoupling_check_matches_the_dense_window(H):
    small = SP.surface_patch(SYM, samples=96)
    # the patch (xi^2, xi), xi in [1/2, 2], crosses both ends of both axes
    near_ends = [_ball_fn_on(np.linspace(0.6, 3.1, 41), np.linspace(0.8, 1.7, 23), s)
                 for s in (0, 1)]
    fam = SP.SparseFamily(centers=((0, 0), ((2 * H) ** 2, 3)), H=H)
    for p in (1.0, 2.0):
        res = SP.decoupling_check(fam, near_ends, p, small)
        ref = _dense_decoupling_lhs(fam, near_ends, p, small)
        assert res["lhs"] > 0
        assert abs(res["lhs"] - ref) <= 1e-13 * ref
    # a ball whose window misses the patch adds nothing
    far = _ball_fn_on(np.linspace(6.0, 9.0, 30), np.linspace(3.0, 4.0, 12), 2)
    single = SP.SparseFamily(centers=((5, -7),), H=H)
    assert SP.decoupling_check(single, [far], 2.0, small)["lhs"] == 0.0
    assert _dense_decoupling_lhs(single, [far], 2.0, small) == 0.0


def test_ball_function_axes_must_increase():
    with pytest.raises(ValueError):
        _ball_fn_on(np.linspace(1.0, 0.0, 8), np.linspace(0.0, 1.0, 4), 0)
