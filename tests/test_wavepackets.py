import collections
import functools
import itertools
import math

import numpy as np
import pytest

from katolab import propagator as P
from katolab import symbols as S
from katolab import wavepackets as W
from katolab.core import (Field, Grid, GridResolutionError, RandomBandlimited,
                          Sector, dft, idft, make_field, stack_rows)
from tests.packet_reference import packet_node, packet_spectrum, packet_values

SYM = S.schrodinger(1)


@pytest.fixture(scope="module")
def grid():
    return Grid(1, 1024, 128.0)


def _decompose(f, R):
    """f's decomposition on a pair of its own."""
    return W.decompose(f, W.build_partitions(R, f.grid))


@pytest.fixture(scope="module")
def dec8(grid):
    f = make_field(grid, RandomBandlimited(Sector(), seed=11))
    return f, _decompose(f, 8.0)


def test_partition_sums(grid):
    pair = W.build_partitions(8.0, grid)
    assert pair.spatial_defect <= 1e-12
    assert pair.freq_defect <= 1e-12
    pair1 = W.build_partitions(1.0, Grid(1, 512, 32.0))
    assert pair1.spatial_defect <= 1e-12


def test_unresolvable_scales_error():
    g = Grid(1, 16, 64.0)  # dx = 4 = R/2, too coarse for R = 8
    with pytest.raises(GridResolutionError) as exc:
        W.build_partitions(8.0, g)
    assert "N >=" in str(exc.value)
    with pytest.raises(GridResolutionError):
        W.build_partitions(5.0, Grid(1, 512, 64.0))  # 5 does not divide 64
    with pytest.raises(ValueError):
        W.build_partitions(0.5, Grid(1, 512, 64.0))
    with pytest.raises(ValueError, match="packet scale"):
        W.build_partitions(math.nan, Grid(1, 512, 64.0))


def _pair_arrays(pair):
    return [pair.lattice, pair.spatial, pair.v_axis, pair.freq, pair.index, pair.mask,
            *pair.rows]


def test_decompositions_on_one_pair_match_those_on_fresh_pairs(grid, monkeypatch):
    pair = W.build_partitions(8.0, grid)
    before = [a.copy() for a in _pair_arrays(pair)]
    fields = [make_field(grid, RandomBandlimited(Sector(), seed=s)) for s in (11, 12)]
    shared = [W.decompose(f, pair) for f in fields]
    fresh = [_decompose(f, 8.0) for f in fields]
    sel = np.random.default_rng(3).choice(len(shared[0].packets), size=40, replace=False)
    # the readers build no table: they read the pair
    for name in ("build_partitions", "_support_table", "_axis_partition_profile"):
        monkeypatch.setattr(W, name, None)
    for a, b in zip(shared, fresh):
        assert a.packets.pair is pair and b.packets.pair is not pair
        for key in ("l", "v", "energy", "block"):
            assert np.array_equal(getattr(a.packets, key), getattr(b.packets, key)), key
        assert (a.total_energy, a.dropped_count, a.dropped_energy, a.spill_max) == \
            (b.total_energy, b.dropped_count, b.dropped_energy, b.spill_max)
        assert np.array_equal(W.reconstruct(a).values, W.reconstruct(b).values)
        assert W.almost_orthogonality(a.packets, sel) == W.almost_orthogonality(b.packets, sel)
        assert np.array_equal(next(W.packet_values(a.packets, sel)),
                              next(W.packet_values(b.packets, sel)))
    assert all(np.array_equal(x, y) for x, y in zip(_pair_arrays(pair), before))


def test_decompose_refuses_a_pair_of_another_grid(grid):
    # the same N on another L would misalign every window without a word
    pair = W.build_partitions(8.0, Grid(1, 1024, 64.0))
    f = make_field(grid, RandomBandlimited(Sector(), seed=11))
    with pytest.raises(ValueError, match=r"field grid .*L=128.* != window pair grid .*L=64"):
        W.decompose(f, pair)


def test_reconstruction_and_energy(dec8, grid):
    f, dec = dec8
    rec = W.reconstruct(dec)
    rel = Field(grid, rec.values - f.values).l2() / f.l2()
    assert rel <= 1e-10
    assert W.energy_identity_defect(dec) <= 1e-10


def test_dropped_packets_stay_within_the_energy_budget(grid):
    # five packets of this field each hold about 5e-19 of its energy; a
    # per-packet floor of 1e-18 dropped them all and cost 6e-10 accuracy
    f = make_field(grid, RandomBandlimited(Sector(), seed=35))
    dec = _decompose(f, 8.0)
    assert dec.dropped_energy <= 1e-22 * dec.total_energy
    rec = W.reconstruct(dec)
    assert Field(grid, rec.values - f.values).l2() / f.l2() <= 1e-10


def test_two_dimensional_packets_are_tight():
    f = _gaussian_2d()
    g = f.grid
    dec = _decompose(f, 4.0)
    wfreq = g.dxi**2 / (2 * math.pi) ** 2
    for i in range(0, len(dec.packets), 97):
        assert dec.packets.energy[i] == pytest.approx(
            wfreq * np.sum(np.abs(packet_spectrum(dec, i)) ** 2), rel=1e-12)
    rec = W.reconstruct(dec)
    assert Field(g, rec.values - f.values).l2() / f.l2() <= 1e-10
    assert W.energy_identity_defect(dec) <= 1e-10


# a reference packet: the full spectrum, as a plain record
_Packet = collections.namedtuple("_Packet", "grid l v spectrum energy")


def _reference_decompose(f, R, drop_tol=1e-22):
    """Per-packet window path: every window evaluated at its own (l, v)."""
    g, R = f.grid, float(R)
    total = f.l2() ** 2
    xmesh, xi = g.x_mesh(), g.xi_axis()
    lat = -g.L / 2 + R * np.arange(int(round(g.L / R)))
    v_axis = np.arange(math.floor(xi.min() * R) - 1, math.ceil(xi.max() * R) + 2) / R
    window_at = {v: _freq_window(R, xi, v) for v in v_axis.tolist()}
    table = np.stack(list(window_at.values()))
    wfreq = g.dxi**g.n / (2 * math.pi) ** g.n
    rows, energies = [], []
    for l in itertools.product(*([lat.tolist()] * g.n)):
        wl, d2 = np.ones(g.shape), np.zeros(g.shape)
        for axis in range(g.n):
            wl = wl * _spatial_window(g, R, xmesh[axis], l[axis])
            d2 = d2 + (np.mod(xmesh[axis] - l[axis] + g.L / 2, g.L) - g.L / 2) ** 2
        ghat = dft(Field(g, wl * f.values)).values
        e = np.abs(ghat) ** 2
        for axis in range(g.n):
            e = np.moveaxis(np.tensordot(table**2, e, axes=([1], [axis])), 0, axis)
        rows.append((l, d2 > (W.SPILL_RADIUS_FACTOR * R) ** 2, ghat))
        energies.append(wfreq * e.reshape(-1))
    flat_e = np.stack(energies).ravel()
    order = np.argsort(flat_e, kind="stable")
    dropped = order[:np.searchsorted(np.cumsum(flat_e[order]), drop_tol * total, side="right")]
    keep = np.ones(flat_e.shape, dtype=bool)
    keep[dropped] = False
    packets, spill_max = [], 0.0
    vs = list(itertools.product(v_axis.tolist(), repeat=g.n))
    for (l, outside, ghat), kept, e_l in zip(rows, keep.reshape(-1, len(vs)), energies):
        for j in np.nonzero(kept)[0]:
            window = functools.reduce(np.multiply.outer, [window_at[v] for v in vs[j]])
            p = _Packet(grid=g, l=l, v=vs[j], spectrum=window * ghat, energy=float(e_l[j]))
            if p.energy >= 1e-6 * total:
                tail = g.dx**g.n * np.sum(np.abs(idft(Field(g, p.spectrum)).values[outside]) ** 2)
                spill_max = max(spill_max, float(tail / p.energy))
            packets.append(p)
    if not any(outside.any() for _, outside, _ in rows):
        spill_max = None
    return packets, len(dropped), spill_max


def _reference_reconstruct(packets, R):
    g = packets[0].grid
    xmesh, ximesh = g.x_mesh(), g.xi_mesh()
    windows = {}
    acc = np.zeros(g.shape, dtype=np.complex128)
    by_l = {}
    for p in packets:
        by_l.setdefault(p.l, []).append(p)
    for l, group in by_l.items():
        ph_sum = np.zeros(g.shape, dtype=np.complex128)
        for p in group:
            ph = p.spectrum
            for axis in range(g.n):
                key = (axis, p.v[axis])
                if key not in windows:
                    windows[key] = _freq_window(R, ximesh[axis], p.v[axis])
                ph = ph * windows[key]
            ph_sum += ph
        vals = idft(Field(g, ph_sum)).values
        for axis in range(g.n):
            vals = vals * _spatial_window(g, R, xmesh[axis], l[axis])
        acc += vals
    return acc


def _spatial_window(g, R, x, l):
    y = np.mod(x - l + g.L / 2, g.L) - g.L / 2
    return W._axis_partition_profile(y / R, W.SPATIAL_SUPPORT, W.SPATIAL_KAPPA)


def _freq_window(R, xi, v):
    return W._axis_partition_profile(R * (xi - v), W.FREQ_SUPPORT, W.FREQ_KAPPA)


def _gaussian_2d():
    g = Grid(2, 32, 16.0)
    x = g.x_mesh()
    return Field(g, np.exp(-(x[0] ** 2 + x[1] ** 2) / 8) * np.exp(1j * (x[0] + 0.5 * x[1])))


@pytest.mark.parametrize("case", ["1d-R4", "1d-R8", "2d-R4"])
def test_window_tables_match_per_packet_windows(grid, case):
    if case == "2d-R4":
        f, R = _gaussian_2d(), 4.0
    else:
        f, R = make_field(grid, RandomBandlimited(Sector(), seed=11)), float(case[4:])
    packets, dropped_count, spill_max = _reference_decompose(f, R)
    dec = _decompose(f, R)
    assert len(dec.packets) == len(packets)
    for i, q in enumerate(packets):
        assert packet_node(dec, i) == (q.l, q.v, q.energy)
        assert np.array_equal(packet_spectrum(dec, i), q.spectrum)
    assert dec.dropped_count == dropped_count
    assert dec.spill_max == spill_max
    assert np.array_equal(W.reconstruct(dec).values, _reference_reconstruct(packets, R))


def test_packets_are_stored_on_their_window_support(dec8, grid):
    # the frequency window of R = 8 covers at most 8 of the 1024 samples;
    # the support table has one row per frequency node, and padded slots
    # hold zeros
    _, dec = dec8
    ps, pair = dec.packets, dec.packets.pair
    assert ps.block.shape == (len(ps), pair.index.shape[1]) and ps.block.shape[1] <= 8
    assert pair.index.shape == pair.mask.shape == (len(pair.v_axis), ps.block.shape[1])
    assert ps.block.nbytes < 0.01 * len(ps) * grid.N * 16
    assert not ps.block[~pair.mask[tuple(ps.v.T)]].any()


def _reference_almost_orthogonality(dec, sel):
    acc = np.zeros(dec.packets.pair.grid.shape, dtype=np.complex128)
    for i in sel:
        acc += packet_spectrum(dec, i)
    energy = sum(packet_node(dec, i)[2] for i in sel)
    return Field(dec.packets.pair.grid, acc).l2_freq() / math.sqrt(energy)


@pytest.mark.parametrize("case", ["1d-R8", "2d-R4"])
def test_almost_orthogonality_matches_the_full_spectrum_sum(dec8, case):
    dec = _decompose(_gaussian_2d(), 4.0) if case == "2d-R4" else dec8[1]
    n = len(dec.packets)
    rng = np.random.default_rng(3)
    for _ in range(10):
        sel = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
        assert (W.almost_orthogonality(dec.packets, sel)
                == _reference_almost_orthogonality(dec, sel))


@pytest.mark.parametrize("case", ["1d-R8", "2d-R4"])
def test_packet_values_match_per_packet_transforms(dec8, case):
    dec = _decompose(_gaussian_2d(), 4.0) if case == "2d-R4" else dec8[1]
    step = stack_rows(dec.packets.pair.grid)
    # one full stack and a short one, of consecutive packets and of every
    # third packet
    for rows in (np.arange(step + 5), np.arange(0, 3 * (step + 5), 3)):
        stacks = list(W.packet_values(dec.packets, rows))
        assert [len(s) for s in stacks] == [step, 5]
        for i, vals in zip(rows, np.concatenate(stacks)):
            assert np.array_equal(vals, packet_values(dec, i))
    assert list(W.packet_values(dec.packets, np.arange(0))) == []


@pytest.mark.parametrize("L, measurable", [(64.0, False), (96.0, True)])
def test_spill_is_none_when_the_spill_ball_covers_the_torus(L, measurable):
    # B(l, 4R) with R = 8 covers the whole torus while L/2 <= 32
    g = Grid(1, int(8 * L), L)
    dec = _decompose(make_field(g, RandomBandlimited(Sector(), seed=11)), 8.0)
    if measurable:
        assert dec.spill_max > 0.0
    else:
        assert dec.spill_max is None


def test_packet_frequency_support_sharp(dec8, grid):
    # frequency windows are compactly supported: packet spectra vanish
    # outside B(v, 2/(3R)) exactly by construction
    _, dec = dec8
    xi = grid.xi_axis()
    R = dec.packets.pair.R
    for i in range(24):
        outside = np.abs(xi - packet_node(dec, i)[1][0]) > W.FREQ_SUPPORT / R
        assert np.max(np.abs(packet_spectrum(dec, i)[outside])) == 0.0


def test_modulated_bump_concentrates(grid):
    # data localized at a lattice point l0 with carrier v0 lands in packets
    # with nearby indices; width 1.5R keeps both marginals inside the
    # (2R, 2/R) index window
    R = 8.0
    l0, v0 = 16.0, 1.25
    x = grid.x_axis()
    f = Field(grid, np.exp(-((x - l0) ** 2) / (2 * (1.2 * R) ** 2))
              * np.exp(1j * v0 * x))
    dec = _decompose(f, R)
    packets = [packet_node(dec, i) for i in range(len(dec.packets))]
    near = sum(e for l, v, e in packets
               if abs(l[0] - l0) <= 2 * R and abs(v[0] - v0) <= 2.0 / R)
    total = sum(e for _, _, e in packets)
    # the window tails cap the joint concentration near 95%; the rest sits
    # in the immediately adjacent index ring
    assert near / total >= 0.95
    wider = sum(e for l, v, e in packets
                if abs(l[0] - l0) <= 3 * R and abs(v[0] - v0) <= 4.0 / R)
    assert wider / total >= 0.98


def test_almost_orthogonality(dec8):
    _, dec = dec8
    packets = dec.packets
    assert W.almost_orthogonality(packets, np.array([0])) == pytest.approx(1.0, rel=1e-9)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, len(packets)))
        sel = rng.choice(len(packets), size=k, replace=False)
        worst = max(worst, W.almost_orthogonality(packets, sel))
    assert worst <= 4.0
    with pytest.raises(ValueError):
        W.almost_orthogonality(packets, np.arange(0))


def test_packet_transport(dec8, grid):
    _, dec = dec8
    R = dec.packets.pair.R
    i = int(np.argmax(dec.packets.energy))
    l, v, _ = packet_node(dec, i)
    _, grad = S.phase(SYM, np.array(v))
    x = grid.x_axis()
    fractions = []
    for t in (R**SYM.m / 2, R**SYM.m, 2 * R**SYM.m):
        u = P.propagate(Field(grid, packet_values(dec, i)), SYM, [t])
        core = l[0] - t * grad[0]  # the tube's core line at time t
        y = np.mod(x - core + grid.L / 2, grid.L) - grid.L / 2
        m = np.abs(y) <= 4 * R
        tot = np.sum(np.abs(u.slices[0]) ** 2)
        fractions.append(float(np.sum(np.abs(u.slices[0]) ** 2 * m) / tot))
    # window start is the tightest regime; late-window spreading is bounded
    assert fractions[0] >= 0.93
    assert min(fractions) >= 0.88


def test_kernel_core_and_bounds():
    R = 16.0
    v = np.array([1.0])
    t = R**2 / 2
    _, grad = S.phase(SYM, v)
    core = -t * grad[0]
    kv = W.packet_kernel(v, R, SYM, t, np.array([core]))
    # at (0, 0) the phase vanishes, so the value is the amplitude integral
    amp_integral = W.packet_kernel(v, R, SYM, 0.0, np.array([0.0]))
    assert abs(amp_integral.imag) <= 1e-12 * amp_integral.real
    mass = amp_integral.real
    assert mass / 4 <= abs(kv) <= 4 * mass
    # triangle inequality at arbitrary (t, x)
    for x_probe in (-3.0, 17.0):
        k = W.packet_kernel(v, R, SYM, t, np.array([x_probe]))
        assert abs(k) <= mass * (1 + 1e-12)


def test_kernel_decay_slope():
    R = 16.0
    v = np.array([1.0])
    t = R**2 / 2
    _, grad = S.phase(SYM, v)
    core = -t * grad[0]
    ds = np.array([R, 2 * R, 4 * R, 8 * R])
    vals = [abs(W.packet_kernel(v, R, SYM, t, np.array([core + d]))) for d in ds]
    slope = np.polyfit(np.log(ds), np.log(vals), 1)[0]
    assert slope <= -3.0


def test_tube_meets_cube_basics():
    tube = W.Tube(l=np.array([0.0]), velocity=np.array([2.0]), R=4.0)
    through = W.Cube(t_center=0.0, t_half=2.0, x_center=(0.0,), x_half=4.0)
    assert W.tube_meets_cube(tube, through)
    far = W.Cube(t_center=0.0, t_half=0.5, x_center=(100.0,), x_half=4.0)
    assert not W.tube_meets_cube(tube, far)
    # dilation can create contact
    edge = W.Cube(t_center=0.0, t_half=0.5, x_center=(9.5,), x_half=1.0)
    assert not W.tube_meets_cube(tube, edge)
    assert W.tube_meets_cube(tube, edge, dilation=6.0)


def test_tube_meets_cube_against_point_sampling():
    rng = np.random.default_rng(0)
    R = 4.0
    mismatches = 0
    for _ in range(1000):
        l = rng.uniform(-30, 30)
        v = rng.uniform(0.5, 2.0)
        tube = W.Tube(l=np.array([l]), velocity=np.array([2 * v]), R=R)
        cube = W.Cube(t_center=rng.uniform(-10, 10), t_half=rng.uniform(0.5, 4),
                      x_center=(rng.uniform(-30, 30),), x_half=rng.uniform(0.5, 4))
        pred = W.tube_meets_cube(tube, cube)
        # dense sampling of the cube at resolution 1e-2 R
        step = 1e-2 * R
        ts = np.arange(cube.t_center - cube.t_half, cube.t_center + cube.t_half
                       + step, step)
        xs = np.arange(cube.x_center[0] - cube.x_half,
                       cube.x_center[0] + cube.x_half + step, step)
        cores = l - np.outer(ts, [2 * v])
        dist = np.abs(xs[None, :] - cores)
        oracle = bool(np.any(dist <= R))
        if pred != oracle:
            # disagreement is only tolerable within a sampling-resolution
            # band of the decision boundary
            a = l - cube.x_center[0]
            g2 = (2 * v) ** 2
            tstar = np.clip(a * 2 * v / g2, cube.t_center - cube.t_half,
                            cube.t_center + cube.t_half)
            d = abs(a - tstar * 2 * v)
            assert abs(d - (R + cube.x_half)) <= 3 * step
            mismatches += 1
    assert mismatches <= 20


def test_tube_meets_cube_on_a_stack_matches_single_tubes():
    # a stack of offsets against stacked velocities, at rest included, in
    # one and two dimensions: each entry is the single tube's answer
    rng = np.random.default_rng(1)
    for n in (1, 2):
        l = rng.uniform(-30, 30, size=(5, 7, n))
        vel = rng.uniform(-3, 3, size=(5, 1, n))
        vel[0] = 0.0
        cube = W.Cube(t_center=2.0, t_half=3.0, x_center=(1.0,) * n, x_half=2.5)
        got = W.tube_meets_cube(W.Tube(l=l, velocity=vel, R=4.0), cube, dilation=1.5)
        assert got.shape == (5, 7) and 0 < got.sum() < got.size
        for i, j in np.ndindex(got.shape):
            tube = W.Tube(l=l[i, j], velocity=vel[i, 0], R=4.0)
            assert got[i, j] == W.tube_meets_cube(tube, cube, dilation=1.5)


def test_overlap_counts_stable_under_doubling():
    counts = {}
    for H in (16.0, 32.0, 64.0):
        counts[H] = W.max_overlap(SYM, H)["count"]
        assert counts[H] >= 1
    assert max(counts.values()) <= 2 * min(counts.values())


def test_overlap_count_single_tube():
    H = 16.0
    cubes = W.cube_chain(H)
    # a slow tube passing the origin meets only a bounded stretch of the chain
    _, grad = S.phase(SYM, np.array([0.5]))
    tube = W.Tube(l=np.array([H**2 / 2 * grad[0]]), velocity=grad, R=H)
    c = sum(W.tube_meets_cube(tube, cube, dilation=H**0.1) for cube in cubes)
    assert 1 <= c <= 12
