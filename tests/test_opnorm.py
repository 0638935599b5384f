import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katolab import opnorm as O
from katolab import symbols as S
from katolab.core import Grid, SpacetimeField
from katolab.norms import MixedNormSpec, mixed_norm

SYM = S.schrodinger(1)
INF = math.inf


def spec_at(R, alpha=0.5, q=2.0, r=2.0, window="local"):
    return O.SmoothingOperatorSpec(sym=SYM, alpha=alpha, R=R, q=q, r=r,
                                   window=window)


def test_power_iteration_identity_and_diagonal():
    # identity: norm 1; diagonal multiplier: top entry wins
    lam, it, conv, gap = O._power_iteration(lambda v: v, 64, seed=0)
    assert lam == pytest.approx(1.0, rel=1e-6)
    assert conv
    d = np.linspace(0.1, 2.7, 32)
    lam, *_ = O._power_iteration(lambda v: d * v, 32, seed=1,
                                 tol=1e-9, max_iter=5000)
    assert lam == pytest.approx(d.max(), rel=1e-3)


def test_fast_kernel_matches_dense():
    for R in (8.0, 16.0):
        spec = spec_at(R)
        modes = O.mode_grid(spec)
        H = O.dense_operator_matrix(spec, modes)
        fast = O._FastKernel(spec, modes)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(len(modes.xi)) + 1j * rng.standard_normal(len(modes.xi))
        a = H @ v
        b = fast.apply(v)
        assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(a)


@pytest.mark.parametrize("M", [1, 2, 3, 64, 337, 700])
def test_fast_kernel_matches_dense_on_sliced_grids(M):
    spec = spec_at(16.0)
    full = O.mode_grid(spec)
    k0 = (len(full.xi) - M) // 2
    cut = slice(k0, k0 + M)
    modes = dataclasses.replace(full, xi=full.xi[cut], amp=full.amp[cut],
                                phi_vals=full.phi_vals[cut])
    rng = np.random.default_rng(M)
    v = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    a = O.dense_operator_matrix(spec, modes) @ v
    b = O._FastKernel(spec, modes).apply(v)
    assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(a)


def test_fft_size_is_smallest_3_smooth_power_of_two_product():
    smooth = sorted(2**a * 3**b for a in range(14) for b in range(9))
    for n in range(1, 5001):
        assert O._fft_size(n) == next(s for s in smooth if s >= n), n


def test_fast_power_iteration_golden_value():
    # recorded with a 24-transform kernel of size 2^ceil(log2 3M): the fast
    # path's transforms may change, its result may not
    res = O.operator_norm_l2(spec_at(32.0), seed=4)
    assert res.method == "power-fast"
    assert res.value == pytest.approx(47.614878320316464, rel=1e-10)


def test_fast_and_dense_power_iteration_agree():
    fast = O.operator_norm_l2(spec_at(16.0), method="fast")
    dense = O.operator_norm_l2(spec_at(16.0), method="dense")
    assert fast.value == pytest.approx(dense.value, rel=1e-12)
    assert fast.iterations == dense.iterations


def test_power_iteration_matches_dense_eig():
    spec = spec_at(8.0)
    eig = O.operator_norm_dense_eig(spec)
    res = O.operator_norm_l2(spec)
    assert res.converged
    assert abs(res.value - eig) / eig <= 0.01


def test_global_window_dominates_local():
    loc = O.operator_norm_l2(spec_at(8.0, window="local")).value
    glob = O.operator_norm_l2(spec_at(8.0, window="global")).value
    assert glob >= loc * (1 - 1e-10)


def test_l2_requires_q_r_two():
    with pytest.raises(ValueError):
        O.operator_norm_l2(spec_at(8.0, q=4.0))


def test_lower_bound_consistent_with_l2():
    spec = spec_at(8.0)
    lb = O.lower_bound_mixed(spec)
    full = O.operator_norm_l2(spec)
    assert lb.value <= full.value * 1.05
    assert lb.value >= full.value * 0.95


def test_quotient_scale_invariance():
    spec = spec_at(8.0, q=2.0, r=4.0)
    modes = O.mode_grid(spec)
    c = np.exp(-0.5 * ((modes.xi - 1.1) / 0.1) ** 2).astype(complex)
    times = O._transit_times(spec, modes, c)
    q1 = O._eval_mixed(spec, modes, c, times) / O._l2_of_spectrum(modes, c)
    q3 = O._eval_mixed(spec, modes, 3.0 * c, times) / O._l2_of_spectrum(modes, 3.0 * c)
    assert q1 == pytest.approx(q3, rel=1e-12)


def test_candidate_ranking_scale_invariant():
    # scaling the input never changes which candidate wins the bank
    spec = spec_at(8.0, q=2.0, r=INF, alpha=-0.25)
    modes = O.mode_grid(spec)
    vals = {}
    for name, c in O._candidate_bank(spec, modes, 0):
        times = O._transit_times(spec, modes, c)
        for scale in (1.0, 7.5):
            v = (O._eval_mixed(spec, modes, scale * c, times)
                 / O._l2_of_spectrum(modes, scale * c))
            vals.setdefault(name, []).append(v)
    for name, pair in vals.items():
        assert pair[0] == pytest.approx(pair[1], rel=1e-10)


# Direct formulas the blocked kernels must reproduce: one exp(i t phi) per
# time sample and mode, and the chain rule through a dense S x nx weight W.

def _eval_reference(spec, modes, c, times):
    nx = max(int(math.ceil(2 * spec.R / 0.7)), 32)
    nx += nx % 2
    gx = Grid(1, nx, 2 * spec.R)
    ph = np.exp(1j * np.outer(times, modes.phi_vals)) * (modes.amp * c * modes.dxi)
    slab = ph @ np.exp(1j * np.outer(gx.x_axis(), modes.xi)).T
    u = SpacetimeField(gx, times, slab)
    return mixed_norm(u, MixedNormSpec(q=spec.q, r=spec.r, order=spec.order)), u


def _gradient_reference(spec, modes, c, times):
    val, u = _eval_reference(spec, modes, c, times)
    slab = u.slices
    absu = np.abs(slab)
    wt = u.dt if len(times) > 1 else 1.0
    wx = u.grid.dx
    q, r = spec.q, spec.r
    if r == INF:
        arg = absu.argmax(axis=0)
        cols = np.arange(slab.shape[1])
        Mb = absu[arg, cols]
        safe = np.where(Mb > 0, Mb, 1.0)
        W = np.zeros_like(slab)
        W[arg, cols] = 0.5 * val ** (1 - q) * wx * safe ** (q - 1) * slab[arg, cols] / safe
    else:
        G = wt * np.sum(absu**r, axis=0)
        safe = np.where(absu > 0, absu, 1.0)
        W = (0.5 * val ** (1 - q) * wx * wt * np.where(G > 0, G, 1.0) ** (q / r - 1.0)
             * safe ** (r - 2) * slab)
        W[:, G <= 0] = 0.0
    ph_x = np.exp(-1j * np.outer(u.grid.x_axis(), modes.xi))
    ph_t = np.exp(-1j * np.outer(modes.phi_vals, times))
    g = modes.amp * modes.dxi * np.sum(ph_t * (ph_x.T @ W.T), axis=1)
    nf = O._l2_of_spectrum(modes, c)
    return (g - (val / nf) * (modes.dxi / O.TWO_PI) * c / (2.0 * nf)) / nf


def _chirp_case(r, window):
    spec = spec_at(8.0, alpha=-0.25, r=r, window=window)
    modes = O.mode_grid(spec)
    c = dict(O._candidate_bank(spec, modes, 0))["chirp-root@0.9"]
    return spec, modes, c, O._transit_times(spec, modes, c)


@pytest.mark.parametrize("window", ["local", "global"])
@pytest.mark.parametrize("r", [INF, 4.0])
def test_eval_mixed_matches_per_sample_phases(r, window):
    spec, modes, c, times = _chirp_case(r, window)
    assert len(times) > 2 * O.BLOCK
    for ts in (times[:1], times[:127], times[:128], times[:129], times[::2], times):
        val, u = O._eval_mixed(spec, modes, c, ts, want_slab=True)
        ref, u_ref = _eval_reference(spec, modes, c, ts)
        assert abs(val - ref) <= 1e-10 * ref, len(ts)
        err = np.max(np.abs(u.slices - u_ref.slices))
        assert err <= 1e-10 * np.max(np.abs(u_ref.slices)), len(ts)


@pytest.mark.parametrize("window", ["local", "global"])
@pytest.mark.parametrize("r", [INF, 4.0])
def test_quotient_gradient_matches_dense_chain_rule(r, window):
    spec, modes, c, times = _chirp_case(r, window)
    val, u = O._eval_mixed(spec, modes, c, times, want_slab=True)
    g = O._quotient_gradient(spec, modes, c, val, u)
    ref = _gradient_reference(spec, modes, c, times)
    assert np.linalg.norm(g - ref) <= 1e-9 * np.linalg.norm(ref)


def test_eval_mixed_rejects_nonuniform_times():
    spec, modes, c, times = _chirp_case(INF, "local")
    bent = np.array(times)
    bent[5] += 0.3 * (times[1] - times[0])
    with pytest.raises(ValueError):
        O._eval_mixed(spec, modes, c, bent)


def test_refined_seed_is_reported_when_it_wins(monkeypatch):
    # the bank winner is over the ascent budget, so the cheaper runner-up is
    # refined; it climbs past the winner and must be the reported candidate
    spec = spec_at(8.0, alpha=-0.25, r=INF)
    modes = O.mode_grid(spec)
    full = dict(O._candidate_bank(spec, modes, 0))
    bank = [("chirp-wide@0.9", full["chirp-wide@0.9"]),
            ("chirp-root@0.9", full["chirp-root@0.9"])]
    vals, costs = [], []
    for _, c in bank:
        times = O._transit_times(spec, modes, c)
        vals.append(O._eval_mixed(spec, modes, c, times) / O._l2_of_spectrum(modes, c))
        live = np.sum(np.abs(c) > 1e-9 * np.max(np.abs(c)))
        costs.append(len(times) * (2 * spec.R / 0.7) * live)
    assert vals[0] > vals[1] and costs[0] > costs[1]
    monkeypatch.setattr(O, "_candidate_bank", lambda *args: bank)
    monkeypatch.setattr(O, "ASCENT_BUDGET", 0.5 * (costs[0] + costs[1]))
    res = O.lower_bound_mixed(spec)
    assert res.ascent_gain > 0
    assert res.candidate == "chirp-root@0.9"
    assert res.value >= vals[0] * (1.0 + res.ascent_gain) * (1 - 1e-12)


def test_predicted_exponent_examples():
    assert O.predicted_exponent(1, 2, 2, 2, 0.5) == pytest.approx(0.5)
    assert O.predicted_exponent(2, 2, 3, INF, -1.0 / 3.0) == pytest.approx(0.0)
    assert O.predicted_exponent(1, 2, 2, INF, -0.25) == pytest.approx(0.25)


def test_transfer_exponent_examples():
    d, a = O.transfer_exponent(1, 2.0, 4.0, 0.5)
    assert d == pytest.approx(0.25)
    assert a == pytest.approx(0.25)
    d, _ = O.transfer_exponent(1, 2.0, 2.0 + 1e-9, 0.5)
    assert d <= 1e-9
    eps = 0.1
    d, _ = O.transfer_exponent(2, 1 / eps, 2 / eps, 0.0)
    assert d == pytest.approx(2 * (eps - eps / 2))
    with pytest.raises(ValueError):
        O.transfer_exponent(1, 4.0, 2.0, 0.5)


def test_fit_exact_power_law():
    fit = O.fit_exponent([(8.0, 3 * 8**0.5), (16.0, 3 * 16**0.5),
                          (32.0, 3 * 32**0.5)])
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit.stderr <= 1e-12


def test_fit_constant_samples():
    fit = O.fit_exponent([(8.0, 2.0), (16.0, 2.0), (32.0, 2.0)])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_validation():
    with pytest.raises(ValueError):
        O.fit_exponent([(8.0, 1.0), (16.0, 2.0)])
    with pytest.raises(ValueError):
        O.fit_exponent([(8.0, 1.0), (16.0, -2.0), (32.0, 2.0)])
    with pytest.raises(ValueError):
        O.fit_exponent([(8.0, 1.0), (12.0, 2.0), (16.0, 2.0)])  # not dyadic


@settings(max_examples=25, deadline=None)
@given(c=st.floats(min_value=0.01, max_value=100.0),
       slope=st.floats(min_value=-2.0, max_value=2.0))
def test_fit_recovers_exact_laws(c, slope):
    samples = [(R, c * R**slope) for R in (4.0, 8.0, 16.0, 32.0)]
    fit = O.fit_exponent(samples)
    assert fit.slope == pytest.approx(slope, abs=1e-9)


def test_spec_validation():
    with pytest.raises(ValueError):
        O.SmoothingOperatorSpec(sym=SYM, alpha=0.5, R=0.5)
    with pytest.raises(ValueError):
        O.SmoothingOperatorSpec(sym=SYM, alpha=0.5, R=8.0, window="sideways")
    with pytest.raises(ValueError):
        O.SmoothingOperatorSpec(sym=SYM, alpha=0.5, R=8.0, q=0.2)
