import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katolab import norms as N
from katolab import propagator as P
from katolab import symbols as S
from katolab.core import Field, Grid, GaussianRecipe, SpacetimeField, make_field

INF = math.inf


def constant_evolution(grid, times, value=1.0):
    slab = np.full((len(times),) + grid.shape, value, dtype=complex)
    return SpacetimeField(grid, np.asarray(times, float), slab)


def cell_times(a, b, steps):
    dt = (b - a) / steps
    return a + (np.arange(steps) + 0.5) * dt


def test_constant_on_unit_ball():
    g = Grid(1, 64, 8.0)  # dx = 1/8, ball radius 1 is a lattice multiple
    u = constant_evolution(g, cell_times(0.0, 1.0, 16))
    spec = N.MixedNormSpec(q=2, r=2, ball=((0.0,), 1.0), window=(0.0, 1.0))
    assert N.mixed_norm(u, spec) == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_separable_factorizes():
    g = Grid(1, 64, 8.0)
    times = cell_times(0.0, 2.0, 32)
    fx = np.cos(g.x_axis() * 0.7) + 1.5
    gt = np.exp(-times) + 0.5
    slab = gt[:, None] * fx[None, :]
    u = SpacetimeField(g, times, slab.astype(complex))
    for q, r in ((2.0, 4.0), (3.0, 2.0)):
        got = N.mixed_norm(u, N.MixedNormSpec(q=q, r=r))
        nf = (g.dx * np.sum(np.abs(fx) ** q)) ** (1 / q)
        ng = ((times[1] - times[0]) * np.sum(np.abs(gt) ** r)) ** (1 / r)
        assert got == pytest.approx(nf * ng, rel=1e-12)


def test_column_indicator():
    # indicator of a column set of height h over base P: h^{1/r} |P|^{1/q}
    g = Grid(1, 64, 8.0)
    times = cell_times(0.0, 4.0, 32)  # dt = 1/8
    slab = np.zeros((len(times), g.N), dtype=complex)
    base = np.abs(g.x_axis() - 0.5) < 1.0  # |P| = 2
    h_window = times < 3.0  # height 3
    slab[np.ix_(h_window, base)] = 1.0
    u = SpacetimeField(g, times, slab)
    for q, r in ((2.0, 2.0), (2.0, 4.0), (3.0, 1.0)):
        got = N.mixed_norm(u, N.MixedNormSpec(q=q, r=r))
        assert got == pytest.approx(3.0 ** (1 / r) * 2.0 ** (1 / q), rel=1e-12)


def test_maximal_time_independent():
    g = Grid(1, 64, 8.0)
    f = np.cos(g.x_axis()) + 2.0
    times = cell_times(0.0, 1.0, 8)
    u = SpacetimeField(g, times, np.broadcast_to(f, (8, g.N)).astype(complex))
    got = N.mixed_norm(u, N.MixedNormSpec(q=2.0, r=N.INF, ball=((0.0,), 2.0)))
    inside = np.abs(g.x_axis()) < 2.0
    expect = math.sqrt(g.dx * np.sum(f[inside] ** 2))
    assert got == pytest.approx(expect, rel=1e-12)


def test_maximal_unimodular_in_time():
    g = Grid(1, 64, 8.0)
    f = np.cos(g.x_axis()) + 2.0
    times = cell_times(0.0, 1.0, 8)
    slab = np.exp(1j * times)[:, None] * f[None, :]
    u = SpacetimeField(g, times, slab)
    got = N.mixed_norm(u, N.MixedNormSpec(q=2.0, r=N.INF, ball=((0.0,), 2.0)))
    inside = np.abs(g.x_axis()) < 2.0
    expect = math.sqrt(g.dx * np.sum(f[inside] ** 2))
    assert got == pytest.approx(expect, rel=1e-12)


def test_maximal_refinement_consistency():
    g = Grid(1, 512, 64.0)
    f = make_field(g, GaussianRecipe(center=(0.0,), width=1.0))
    sym = S.schrodinger(1)
    u128 = P.propagate(f, sym, cell_times(0.0, 1.0, 128))
    u64 = P.propagate(f, sym, cell_times(0.0, 1.0, 64))
    spec = N.MixedNormSpec(q=2, r=INF, ball=((0.0,), 1.0))
    a = N.mixed_norm(u64, spec)
    b = N.mixed_norm(u128, spec)
    assert abs(a - b) / b <= 0.01


def test_monotonicity():
    g = Grid(1, 64, 8.0)
    times = cell_times(0.0, 1.0, 16)
    rng = np.random.default_rng(0)
    slab = rng.standard_normal((16, g.N)) + 1j * rng.standard_normal((16, g.N))
    u = SpacetimeField(g, times, slab)
    small = N.mixed_norm(u, N.MixedNormSpec(q=2, r=2, ball=((0.0,), 1.0),
                                            window=(0.25, 0.75)))
    big_ball = N.mixed_norm(u, N.MixedNormSpec(q=2, r=2, ball=((0.0,), 2.0),
                                               window=(0.25, 0.75)))
    big_win = N.mixed_norm(u, N.MixedNormSpec(q=2, r=2, ball=((0.0,), 1.0),
                                              window=(0.0, 1.0)))
    assert big_ball >= small and big_win >= small


@settings(max_examples=20, deadline=None)
@given(r1=st.floats(min_value=1.0, max_value=8.0),
       r2=st.floats(min_value=1.0, max_value=8.0))
def test_normalized_time_means_monotone_in_r(r1, r2):
    r_lo, r_hi = sorted((r1, r2))
    g = Grid(1, 16, 4.0)
    times = cell_times(0.0, 1.0, 8)
    rng = np.random.default_rng(42)
    slab = rng.standard_normal((8, g.N)) + 1j * rng.standard_normal((8, g.N))
    u = SpacetimeField(g, times, slab)
    window_len = 1.0

    def normalized(r):
        v = N.mixed_norm(u, N.MixedNormSpec(q=2, r=r, window=(0.0, 1.0)))
        return v / window_len ** (1 / r)

    assert normalized(r_hi) >= normalized(r_lo) * (1 - 1e-12)


def test_homogeneous_degree_one():
    g = Grid(1, 64, 8.0)
    times = cell_times(0.0, 1.0, 16)
    rng = np.random.default_rng(2)
    slab = rng.standard_normal((16, g.N)) + 1j * rng.standard_normal((16, g.N))
    u = SpacetimeField(g, times, slab)
    u3 = SpacetimeField(g, times, 3.0 * slab)
    spec = N.MixedNormSpec(q=2.5, r=4.0)
    assert N.mixed_norm(u3, spec) == pytest.approx(3 * N.mixed_norm(u, spec),
                                                   rel=1e-12)


def test_ball_centre_must_match_the_grid_dimension():
    # one ball rule (core.Ball): a centre of another dimension is refused,
    # not cut to the grid's by zip (which measured ((0, 100), 4) as ((0,), 4)
    # on a 1-D grid, and a 1-D centre on a 2-D grid as a slab)
    times = cell_times(0.0, 1.0, 4)
    u1 = constant_evolution(Grid(1, 64, 16.0), times)
    u2 = constant_evolution(Grid(2, 32, 16.0), times)
    for u, center in ((u1, (0.0, 100.0)), (u2, (0.0,))):
        with pytest.raises(ValueError, match="dimension"):
            N.mixed_norm(u, N.MixedNormSpec(q=1, r=INF, ball=(center, 4.0)))
    # on matching dimensions: the ball's measure, a segment of length 8 and
    # the lattice disc of radius 4 (cell-centre test)
    assert N.mixed_norm(u1, N.MixedNormSpec(q=1, r=INF, ball=((0.0,), 4.0))) == \
        pytest.approx(8.0, rel=1e-12)
    x, y = u2.grid.x_mesh()
    cells = np.sum(x**2 + y**2 < 16.0)
    assert N.mixed_norm(u2, N.MixedNormSpec(q=1, r=INF, ball=((0.0, 0.0), 4.0))) == \
        pytest.approx(cells * u2.grid.dx**2, rel=1e-12)


def test_empty_region_errors():
    g = Grid(1, 64, 8.0)
    u = constant_evolution(g, cell_times(0.0, 1.0, 8))
    with pytest.raises(ValueError, match="ball holds no grid cell"):
        N.mixed_norm(u, N.MixedNormSpec(q=2, r=2, ball=((100.0,), 0.01)))
    with pytest.raises(ValueError, match="window holds no sample"):
        N.mixed_norm(u, N.MixedNormSpec(q=2, r=2, window=(5.0, 6.0)))
    with pytest.raises(ValueError):
        N.MixedNormSpec(q=0.5, r=2)


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
def test_reduce_grad_matches_central_differences(p, axis):
    # the array's lines along `axis` are reduced: at axis 1 its transpose
    # goes to _reduce, which reduces over axis 0
    rng = np.random.default_rng(3)
    v = rng.uniform(0.5, 2.0, (5, 6))
    v[3] = 0.0  # an all-zero line along axis 1
    v[:, 2] = 0.0  # and one along axis 0
    if axis == 1:
        v = v.T
    w, h = 0.3, 1e-6
    red = N._reduce(v, p, w)
    d = N._reduce_grad(v, p, w, red)
    live = np.broadcast_to(red > 0, v.shape)
    assert not live.all() and np.all(d[~live] == 0.0)
    for i, j in zip(*np.nonzero(live)):
        e = np.zeros_like(v)
        e[i, j] = h
        fd = (N._reduce(v + e, p, w) - N._reduce(v - e, p, w)) / (2 * h)
        assert fd[j] == pytest.approx(d[i, j], abs=1e-8)


def test_reduce_grad_at_inf_marks_the_first_maximum():
    v = np.array([[1.0, 3.0, 3.0, 2.0], [5.0, 5.0, 0.0, 5.0], [0.0, 0.0, 0.0, 0.0]]).T
    want = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]], dtype=float).T
    d = N._reduce_grad(v, INF, 0.3, N._reduce(v, INF, 0.3))
    assert np.array_equal(d, want)
