import math

import numpy as np
import pytest

from katolab import propagator as P
from katolab import symbols as S
from katolab import wavepackets as W
from katolab.core import (Field, Grid, GridResolutionError, RandomBandlimited,
                          Sector, idft, make_field)

SYM = S.schrodinger(1)


@pytest.fixture(scope="module")
def grid():
    return Grid(1, 1024, 128.0)


@pytest.fixture(scope="module")
def dec8(grid):
    f = make_field(grid, RandomBandlimited(Sector(), seed=11))
    return f, W.decompose(f, 8.0)


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
    dec = W.decompose(f, 8.0)
    assert dec.dropped_energy <= 1e-22 * dec.total_energy
    rec = W.reconstruct(dec)
    assert Field(grid, rec.values - f.values).l2() / f.l2() <= 1e-10


def test_two_dimensional_packets_are_tight():
    g = Grid(2, 32, 16.0)
    x = g.x_mesh()
    f = Field(g, np.exp(-(x[0] ** 2 + x[1] ** 2) / 8) * np.exp(1j * (x[0] + 0.5 * x[1])))
    dec = W.decompose(f, 4.0)
    wfreq = g.dxi**2 / (2 * math.pi) ** 2
    for p in dec.packets[::97]:
        assert p.energy == pytest.approx(wfreq * np.sum(np.abs(p.spectrum) ** 2), rel=1e-12)
    rec = W.reconstruct(dec)
    assert Field(g, rec.values - f.values).l2() / f.l2() <= 1e-10
    assert W.energy_identity_defect(dec) <= 1e-10


def test_packet_frequency_support_sharp(dec8, grid):
    # frequency windows are compactly supported: packet spectra vanish
    # outside B(v, 2/(3R)) exactly by construction
    _, dec = dec8
    xi = grid.xi_axis()
    R = dec.pair.R
    for p in dec.packets[:24]:
        outside = np.abs(xi - p.v[0]) > W.FREQ_SUPPORT / R
        assert np.max(np.abs(p.spectrum[outside])) == 0.0


def test_modulated_bump_concentrates(grid):
    # data localized at a lattice point l0 with carrier v0 lands in packets
    # with nearby indices; width 1.5R keeps both marginals inside the
    # (2R, 2/R) index window
    R = 8.0
    l0, v0 = 16.0, 1.25
    x = grid.x_axis()
    f = Field(grid, np.exp(-((x - l0) ** 2) / (2 * (1.2 * R) ** 2))
              * np.exp(1j * v0 * x))
    dec = W.decompose(f, R)
    near = sum(p.energy for p in dec.packets
               if abs(p.l[0] - l0) <= 2 * R and abs(p.v[0] - v0) <= 2.0 / R)
    total = sum(p.energy for p in dec.packets)
    # the window tails cap the joint concentration near 95%; the rest sits
    # in the immediately adjacent index ring
    assert near / total >= 0.95
    wider = sum(p.energy for p in dec.packets
                if abs(p.l[0] - l0) <= 3 * R and abs(p.v[0] - v0) <= 4.0 / R)
    assert wider / total >= 0.98


def test_almost_orthogonality(dec8, grid):
    _, dec = dec8
    packets = dec.packets
    assert W.almost_orthogonality([packets[0]], grid) == pytest.approx(1.0, rel=1e-9)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, len(packets)))
        sel = rng.choice(len(packets), size=k, replace=False)
        worst = max(worst, W.almost_orthogonality([packets[i] for i in sel], grid))
    assert worst <= 4.0
    with pytest.raises(ValueError):
        W.almost_orthogonality([], grid)


def test_packet_transport(dec8, grid):
    _, dec = dec8
    R = dec.pair.R
    p = max(dec.packets, key=lambda q: q.energy)
    tube = W.tube_for(p, SYM, R)
    bump = P.canonical_bump(1)
    x = grid.x_axis()
    fractions = []
    for t in (R**SYM.m / 2, R**SYM.m, 2 * R**SYM.m):
        u = P.apply_U(p.field(), SYM, bump, [t])
        core = tube.core(t)[0]
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
    assert kv.in_regime
    # at (0, 0) the phase vanishes, so the value is the amplitude integral
    amp_integral = W.packet_kernel(v, R, SYM, 0.0, np.array([0.0])).value
    assert abs(amp_integral.imag) <= 1e-12 * amp_integral.real
    mass = amp_integral.real
    assert mass / 4 <= abs(kv.value) <= 4 * mass
    # triangle inequality at arbitrary (t, x)
    for x_probe in (-3.0, 17.0):
        k = W.packet_kernel(v, R, SYM, t, np.array([x_probe]))
        assert abs(k.value) <= mass * (1 + 1e-12)
    # regime flag
    far = W.packet_kernel(v, R, SYM, 3 * R**2, np.array([0.0]))
    assert not far.in_regime


def test_kernel_decay_slope():
    R = 16.0
    v = np.array([1.0])
    t = R**2 / 2
    _, grad = S.phase(SYM, v)
    core = -t * grad[0]
    ds = np.array([R, 2 * R, 4 * R, 8 * R])
    vals = [abs(W.packet_kernel(v, R, SYM, t, np.array([core + d])).value)
            for d in ds]
    slope = np.polyfit(np.log(ds), np.log(vals), 1)[0]
    assert slope <= -3.0


def test_tube_membership():
    tube = W.Tube(l=np.array([0.0]), velocity=np.array([2.0]), R=4.0)
    assert tube.contains(0.0, [0.0])
    assert tube.contains(1.0, [-2.0 + 3.9])
    assert not tube.contains(1.0, [4.0])


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
    c = W.overlap_count(tube, cubes, dilation=H**0.1)
    assert 1 <= c <= 12
