import math

import numpy as np
import pytest

from katolab import propagator as P
from katolab import symbols as S
from katolab.core import (Field, Grid, GaussianRecipe, RandomBandlimited,
                          Sector, dft, idft, make_field, stack_rows)

SYM = S.schrodinger(1)


def band_field(grid, seed=0):
    return make_field(grid, RandomBandlimited(Sector(), seed=seed))


def test_time_zero_is_identity():
    g = Grid(1, 256, 32.0)
    f = band_field(g)
    u = P.propagate(f, SYM, [0.0])
    scale = np.max(np.abs(f.values))
    assert np.max(np.abs(u.slices[0] - f.values)) <= 1e-14 * scale


def closed_form_gaussian(x, t):
    # unit-width gaussian under the quadratic flow (forward phase e^{i t xi^2})
    a = 1.0 - 2j * t
    return a**-0.5 * np.exp(-(x**2) / (2 * a))


def quadrature_oracle(x, t, nodes=1 << 16, xi_max=16.0):
    """The unit Gaussian evolved by e^{i t xi^2} at uniform points x (a
    multiple of 16 of them), by the rectangle rule for its Fourier integral
    on `nodes` nodes of [-xi_max, xi_max): a path independent of the FFT.

    The points go in blocks of 16. Within a block, x_j = x_b + o dx about
    its middle point x_b, so e^{i x_j xi} = e^{i x_b xi} e^{i o dx xi}: one
    16 x nodes offset table serves every block, which then costs one
    exponential row and one matrix product.
    """
    xi = np.linspace(-xi_max, xi_max, nodes, endpoint=False)
    fhat = math.sqrt(2 * math.pi) * np.exp(-(xi**2) / 2.0)
    weight = np.exp(1j * t * xi**2) * fhat
    offsets = np.exp(1j * np.outer((np.arange(16) - 8) * (x[1] - x[0]), xi))
    sums = np.concatenate([offsets @ (weight * np.exp(1j * xb[8] * xi))
                           for xb in np.split(x, len(x) // 16)])
    return sums * (xi[1] - xi[0]) / (2 * math.pi)


def test_gaussian_propagation_against_both_oracles():
    g = Grid(1, 2048, 64.0)
    f = make_field(g, GaussianRecipe(center=(0.0,), width=1.0))
    t = 0.5
    u = P.propagate(f, SYM, [t]).slices[0]
    x = g.x_axis()
    closed = closed_form_gaussian(x, t)
    quad = quadrature_oracle(x, t)
    assert np.max(np.abs(closed - quad)) <= 1e-8  # oracles agree with each other
    assert np.max(np.abs(u - closed)) <= 1e-6
    assert np.max(np.abs(u - quad)) <= 1e-6


@pytest.mark.parametrize("case", ["1d", "2d", "one-slice", "ragged-blocks"])
def test_propagate_matches_per_slice_inverse_transforms(case):
    if case == "2d":
        g, sym, S_count = Grid(2, 32, 16.0), S.schrodinger(2), 9
    elif case == "ragged-blocks":
        # 8 slices of this grid fill one stack: three blocks, the last short
        g, sym, S_count = Grid(1, 1 << 15, 4096.0), SYM, 19
        assert S_count > 2 * stack_rows(g) and S_count % stack_rows(g)
    else:
        g, sym, S_count = Grid(1, 512, 64.0), SYM, 1 if case == "one-slice" else 37
    f = make_field(g, GaussianRecipe(center=(0.5,) * g.n, width=2.0))
    times = np.linspace(0.0, 3.0, S_count)
    u = P.propagate(f, sym, times)
    fhat = dft(f).values
    phi = S.value(sym, g.xi_mesh())
    for s, t in enumerate(times):
        ref = idft(Field(g, np.exp(1j * t * phi) * fhat)).values
        assert np.array_equal(u.slices[s], ref), s
    ref = max(abs(Field(g, u.slices[s]).l2() - f.l2()) for s in range(S_count)) / f.l2()
    assert P.energy_defect(u, f) == ref


def test_translation_commutes():
    g = Grid(1, 256, 64.0)
    f = band_field(g, 5)
    shift = 7
    times = [0.3, 0.6]
    u = P.propagate(f, SYM, times)
    fr = Field(g, np.roll(f.values, shift))
    ur = P.propagate(fr, SYM, times)
    for s in range(len(times)):
        assert np.max(np.abs(ur.slices[s] - np.roll(u.slices[s], shift))) <= 1e-10


def test_energy_identity():
    g = Grid(1, 512, 64.0)
    worst = 0.0
    for seed in range(10):
        f = band_field(g, seed)
        u = P.propagate(f, SYM, np.linspace(0.0, 8.0, 16))
        worst = max(worst, P.energy_defect(u, f))
    assert worst <= 1e-12


def test_sector_operator_kills_disjoint_support():
    g = Grid(1, 512, 64.0)
    phi = P.sector_bump(g.xi_mesh())
    assert np.max(np.abs(phi[np.abs(g.xi_axis()) <= 0.25])) <= 1e-12


def test_sector_output_spectrum_stays_in_sector():
    g = Grid(1, 512, 64.0)
    f = Field(g, np.random.default_rng(3).standard_normal(g.shape).astype(complex))
    spec = P.sector_bump(g.xi_mesh()) * dft(f).values
    mask = Sector().contains(g.xi_mesh())
    outside = np.sum(np.abs(spec[~mask]) ** 2)
    total = np.sum(np.abs(spec) ** 2)
    assert outside <= 1e-12 * total
