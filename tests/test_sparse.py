import dataclasses
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
        got = [tuple(pts[i] for i in f)
               for f in SP._cover_and_pack(SP._dist2_table(pts), list(range(len(pts))), radius)]
        assert got == _first_fit_reference(pts, radius)
        multi += any(len(f) > 1 for f in got)
        split += len(got) > 1
    assert multi and split


def _decompose_reference(points, K):
    """The decomposition on Python-int distances: ball counts pair by pair,
    then the pairwise cover and first fit above."""
    size = len(points)
    remaining = list(points)
    levels = []
    H_prev = 1
    for k in range(1, K + 1):
        H_k = (size * H_prev) ** 2
        members = [x for x in remaining
                   if k == K or _ball_count(points, x, H_k) ** K <= size**k]
        remaining = [x for x in remaining if x not in members]
        levels.append((H_k, H_prev, tuple(members), _first_fit_reference(members, H_prev)))
        H_prev = H_k
    return levels


def _ball_count(points, x, H):
    return sum(SP._dist2(x, y) <= H * H for y in points)


def _threshold_set(rng, m, K):
    """m**K points in clusters far apart at level 1, where a ball count of m
    meets count**K == size exactly. Each cluster is an anchor and a random
    few of the points at squared distance H^2, H^2 + 1, (H - 1)^2,
    (H + 1)^2, 1 and 2 from it, with H = H_1 = size^2 the level-2 cover
    radius."""
    size = m**K
    H = size * size
    offsets = [(H, 0), (0, -H), (H, 1), (H - 1, 0), (-H - 1, 0), (1, 0), (1, 1)]
    pts = []
    base = 0
    while len(pts) < size:
        pts.append((base, 0))
        for i in rng.permutation(len(offsets))[:int(rng.integers(m - 2, m + 2))]:
            if len(pts) < size:
                pts.append((base + offsets[i][0], offsets[i][1]))
        base += 10 * H
    return [pts[i] for i in rng.permutation(size)]


def test_table_route_matches_python_int_reference():
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(12):
        for m, K in ((4, 2), (5, 2), (2, 3), (3, 3)):
            cases.append((_threshold_set(rng, m, K), K, m))
        npts = int(rng.integers(2, 40))
        box = int(rng.choice([50, 10**4, 10**6]))
        pts = {tuple(int(c) for c in rng.integers(0, box, 2)) for _ in range(npts)}
        cases.append((list(pts), int(rng.integers(1, 4)), None))
    counts = set()
    radii = set()
    for pts, K, m in cases:
        E = SP.CubeSet(dim=2, points=tuple(pts))
        levels = SP.sparse_decompose(E, K)
        got = [(lv.H_k, lv.ball_radius, lv.members, [f.centers for f in lv.families])
               for lv in levels]
        assert got == _decompose_reference(E.points, K)
        assert all(f.H == lv.ball_radius for lv in levels for f in lv.families)
        if m is not None:
            H = len(pts) ** 2
            counts |= {_ball_count(pts, x, H) - m for x in pts}
            members = got[1][2]
            radii |= {SP._dist2(a, b) for a in members for b in members} & {
                (H - 1) ** 2, H * H, H * H + 1, (H + 1) ** 2}
    # level-1 counts one below, at and one above count**K == size, and
    # level-2 pairs at the cover radius, just inside and just outside it
    assert {-1, 0, 1} <= counts
    assert len(radii) == 4


def _valid_decomposition(box, K):
    rng = np.random.default_rng(0)
    pts = set()
    while len(pts) < 40:
        pts.add(tuple(int(c) for c in rng.integers(0, box, 2)))
    E = SP.CubeSet(dim=2, points=tuple(sorted(pts)))
    levels = SP.sparse_decompose(E, K)
    audit = SP.audit_decomposition(E, levels)
    assert audit["partition_ok"] and audit["cover_ok"] and audit["sparse_ok"]
    return E, levels


def _two_squares(n):
    """Some (a, b) with a^2 + b^2 = n, or None."""
    return next(((a, math.isqrt(n - a * a)) for a in range(math.isqrt(n) + 1)
                 if math.isqrt(n - a * a) ** 2 == n - a * a), None)


def test_audit_fails_on_a_pair_one_short_of_the_separation():
    E, levels = _valid_decomposition(3 * 10**4, K=3)
    # a family whose squared separation (N H)^4 - 1 is a sum of two squares
    k, lv, i, fam, short = next(
        (k, lv, i, f, _two_squares((f.N * f.H) ** 4 - 1))
        for k, lv in enumerate(levels) for i, f in enumerate(lv.families)
        if f.N > 1 and _two_squares((f.N * f.H) ** 4 - 1))
    c0, c1 = fam.centers[:2]
    sep = (fam.N * fam.H) ** 2
    # c1 moves to distance (N H)^2 from c0, to squared distance one short,
    # and to distance one short
    for shift, ok in (((sep, 0), True), (short, False), ((sep - 1, 0), False)):
        moved = (c0[0] + shift[0], c0[1] + shift[1])
        fams = list(lv.families)
        fams[i] = dataclasses.replace(fam, centers=(c0, moved) + fam.centers[2:])
        members = tuple(moved if p == c1 else p for p in lv.members)
        sabotaged = list(levels)
        sabotaged[k] = dataclasses.replace(lv, members=members, families=tuple(fams))
        audit = SP.audit_decomposition(E, sabotaged)
        assert audit["sparse_ok"] is ok and audit["cover_ok"]


def test_audit_fails_on_a_member_just_outside_every_ball():
    E, levels = _valid_decomposition(3000, K=2)
    k, lv = next((k, lv) for k, lv in enumerate(levels)
                 if lv.members and lv.ball_radius > 1)
    r = lv.ball_radius
    centers = [c for f in lv.families for c in f.centers]
    c = next(c for c in centers
             if all(SP._dist2((c[0] + r, c[1] + 1), x) > r * r for x in centers))
    for dy, ok in ((0, True), (1, False)):
        sabotaged = list(levels)
        sabotaged[k] = dataclasses.replace(
            lv, members=((c[0] + r, c[1] + dy),) + lv.members[1:])
        audit = SP.audit_decomposition(E, sabotaged)
        assert audit["cover_ok"] is ok and audit["sparse_ok"]


def test_distance_table_refuses_a_span_past_int64():
    with pytest.raises(ValueError, match="span 1099511627776"):
        SP.sparse_decompose(SP.CubeSet(dim=2, points=((0, 0), (2**40, 3))), K=2)
    # the span counts, not the coordinates; 1-D spans up to
    # isqrt(2^63 - 1) = 3037000499 fit
    far = SP.CubeSet(dim=2, points=((10**30, 0), (10**30 + 3, 4)))
    assert SP.sparse_decompose(far, K=2)[0].members == far.points
    edge = math.isqrt(2**63 - 1)
    for span, ok in ((edge, True), (edge + 1, False)):
        E = SP.CubeSet(dim=1, points=((0,), (span,)))
        if ok:
            got = [(lv.members, [f.centers for f in lv.families])
                   for lv in SP.sparse_decompose(E, K=2)]
            assert got == [(lv[2], lv[3]) for lv in _decompose_reference(E.points, 2)]
        else:
            with pytest.raises(ValueError, match=f"span {span}"):
                SP.sparse_decompose(E, K=2)


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
