import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katolab import opnorm as O
from katolab import symbols as S
from katolab.core import SECTOR_INNER, SECTOR_OUTER, Grid, SpacetimeField, check_uniform_times
from katolab.norms import MixedNormSpec, _reduce, mixed_norm

SYM = S.schrodinger(1)
INF = math.inf


def xt(value):
    """Case id of a parameter value, suffixed with the L^q_x L^r_t nesting
    every mixed norm has: space outside, time inside."""
    return f"{value}-xt"


def spec_at(R, alpha=0.5, q=2.0, r=2.0, window="local"):
    return O.SmoothingOperatorSpec(sym=SYM, alpha=alpha, R=R, q=q, r=r,
                                   window=window)


def l2_modes(spec):
    """The L2 norms' nodes: the grid over the whole window, which the time
    integral T of their kernel covers."""
    a, b = spec.time_window()
    return O.mode_grid(spec, b - a)


def call_modes(spec):
    """The nodes lower_bound_mixed runs on: the grid over its doubled
    transit window, first to last sample."""
    wide = O._transit_times(spec)[0]
    return O.mode_grid(spec, wide[-1] - wide[0])


def test_lanczos_identity_and_diagonal(monkeypatch):
    # identity: the first step is an invariant subspace
    theta, steps, residual = O._lanczos(lambda v: v, 64, seed=0)
    assert theta == pytest.approx(1.0, rel=1e-12)
    assert steps == 1 and residual <= 1e-12
    # diagonal multiplier: the top entry wins, at most M steps
    d = np.linspace(0.1, 2.7, 32)
    monkeypatch.setattr(O, "LANCZOS_TOL", 1e-12)
    theta, steps, residual = O._lanczos(lambda v: d * v, 32, seed=1)
    assert theta == pytest.approx(d.max(), rel=1e-12)
    assert steps <= 32 and residual <= 1e-10


# the structured apply's symbols, by the prefix of their sliced-grid test ids;
# p = -xi^3 decreases in xi
L2_SYMBOLS = {"": "power:m=2,n=1", "m3-": "power:m=3,n=1", "poly-": "poly:n=1,terms=-1*3"}


def test_fast_kernel_matches_dense():
    for text, scales in (("power:m=2,n=1", (8.0, 16.0)), ("power:m=3,n=1", (4.0, 8.0)),
                         ("poly:n=1,terms=-1*3", (4.0, 8.0))):
        for R in scales:
            spec = O.SmoothingOperatorSpec(sym=S.from_config(text), alpha=0.5, R=R)
            modes = l2_modes(spec)
            H = O.dense_operator_matrix(spec, modes)
            fast = O._FastKernel(spec, modes)
            v = np.random.default_rng(0).standard_normal(len(modes.xi))
            a = H @ v
            b = fast.apply(v)
            assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(a), (text, R)


def _sliced(spec, M):
    full = l2_modes(spec)
    k0 = (len(full.xi) - M) // 2
    cut = slice(k0, k0 + M)
    return dataclasses.replace(full, xi=full.xi[cut], amp=full.amp[cut],
                               phi_vals=full.phi_vals[cut])


@pytest.mark.parametrize("text, M", [pytest.param(text, M, id=f"{tag}{M}")
                                     for tag, text in L2_SYMBOLS.items()
                                     for M in (1, 2, 3, 64, 337, 700)])
def test_fast_kernel_matches_dense_on_sliced_grids(text, M):
    spec = O.SmoothingOperatorSpec(sym=S.from_config(text), alpha=0.5, R=16.0)
    modes = _sliced(spec, M)
    v = np.random.default_rng(M).standard_normal(M)
    a = O.dense_operator_matrix(spec, modes) @ v
    b = O._FastKernel(spec, modes).apply(v)
    assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(a)


def _closed_form_kernel(spec, modes, rows=slice(None)):
    """The rows `rows` of the L2 kernel with the whole window integral,
    T(omega) = int_a^b e^{i t omega} dt = (e^{i b omega} - e^{i a omega}) / (i omega),
    written out here independently of the module's real kernel."""
    a, b = spec.time_window()
    delta = modes.xi[None, :] - modes.xi[rows, None]
    omega = modes.phi_vals[None, :] - modes.phi_vals[rows, None]
    X = np.where(delta != 0, 2 * np.sin(spec.R * delta) / np.where(delta != 0, delta, 1.0),
                 2 * spec.R)
    T = np.where(omega != 0, (np.exp(1j * b * omega) - np.exp(1j * a * omega))
                 / (1j * np.where(omega != 0, omega, 1.0)), b - a)
    return np.outer(modes.amp[rows], modes.amp) * X * T


@pytest.mark.parametrize("window", ["local", "global"])
@pytest.mark.parametrize("text, R", [("power:m=2,n=1", 8.0), ("power:m=3,n=1", 4.0)])
def test_real_kernel_is_the_closed_form_kernel_conjugated_by_its_phase(text, R, window):
    # H = D* H_r D with D = diag(e^{i t0 p_k}), t0 the window's centre: a
    # unitary similarity, so H_r has the spectrum of H
    spec = O.SmoothingOperatorSpec(sym=S.from_config(text), alpha=0.5, R=R, window=window)
    modes = l2_modes(spec)
    H_r = O.dense_operator_matrix(spec, modes)
    assert H_r.dtype == np.float64 and np.array_equal(H_r, H_r.T)
    D = np.exp(1j * O._focus_time(spec) * modes.phi_vals)
    # Weyl: every eigenvalue of H lies within ||H - D* H_r D||_2 <= ||.||_F of
    # its match in H_r, and the top eigenvalue is at least the largest diagonal.
    # The Frobenius norm is summed over blocks of 256 rows: at m = 3 on the
    # global window (3378 nodes) a whole complex kernel is 180 MB, and its
    # closed form builds several of those
    err2 = 0.0
    for start in range(0, len(D), 256):
        rows = slice(start, start + 256)
        diff = np.conj(D[rows])[:, None] * H_r[rows] * D[None, :]
        diff -= _closed_form_kernel(spec, modes, rows)
        err2 += float(np.sum(np.abs(diff) ** 2))
    assert math.sqrt(err2) <= 1e-12 * np.diag(H_r).max()
    if window == "local":  # 237 and 497 nodes; the global 1611 and 3378 take seconds
        H = _closed_form_kernel(spec, modes)
        top_r, top = np.linalg.eigvalsh(H_r)[-5:], np.linalg.eigvalsh(H)[-5:]
        assert np.abs(top_r - top).max() <= 1e-12 * top[-1]


def test_fast_kernel_maps_real_vectors_to_real_vectors():
    for text in L2_SYMBOLS.values():
        spec = O.SmoothingOperatorSpec(sym=S.from_config(text), alpha=0.5, R=4.0)
        modes = l2_modes(spec)
        out = O._FastKernel(spec, modes).apply(np.ones(len(modes.xi)))
        assert out.dtype == np.float64 and out.shape == modes.xi.shape, text


@pytest.mark.parametrize("M", [1, 2, 3])
def test_lanczos_krylov_breakdown_on_sliced_grids(monkeypatch, M):
    # with M modes the Krylov space is all of R^M after at most M steps
    spec = spec_at(16.0)
    modes = _sliced(spec, M)
    top = np.linalg.eigvalsh(O.dense_operator_matrix(spec, modes))[-1]
    monkeypatch.setattr(O, "LANCZOS_TOL", 1e-14)
    theta, steps, residual = O._lanczos(O._FastKernel(spec, modes).apply, M, seed=0)
    assert steps <= M
    assert theta == pytest.approx(top, rel=1e-10)
    assert residual <= 1e-10


def test_fft_size_is_smallest_3_smooth_power_of_two_product():
    smooth = sorted(2**a * 3**b for a in range(14) for b in range(9))
    for n in range(1, 5001):
        assert O._fft_size(n) == next(s for s in smooth if s >= n), n


@pytest.mark.parametrize("window", ["local", "global"])
@pytest.mark.parametrize("scale", [1.0, 0.3])
@pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
def test_mode_grid_spacing_uses_the_exact_speed_bound(m, scale, window):
    # |Phi'| = scale m |xi|^(m-1) is slowest on the sector at |xi| = 1/2; the
    # period 2 pi / dp covers the caller's span and that speed's transit of
    # the ball: the whole window for the L2 kernel, the doubled transit
    # window for the mixed-norm lower bounds
    spec = O.SmoothingOperatorSpec(sym=S.SymbolSpec("power", m, 1, scale=scale),
                                   alpha=0.5, R=4.0, window=window)
    v_min = scale * m * 0.5 ** (m - 1)
    a, b = spec.time_window()
    wide = O._transit_times(spec)[0]
    for span, modes in ((b - a, l2_modes(spec)), (wide[-1] - wide[0], call_modes(spec))):
        dp = 2 * math.pi / (O.SPAN_FACTOR * (span + (4 * spec.R + O.L2_PAD) / v_min))
        assert modes.dp == pytest.approx(dp, rel=1e-14), span


def test_fast_lanczos_golden_value(monkeypatch):
    # recorded at LANCZOS_TOL = 1e-3 (46 steps, residual 9.7e-4). Lanczos runs
    # on the real kernel H_r from a real start, rng.standard_normal(M) of the
    # same seed; the complex kernel's complex start read 47.73522335426093 in
    # 61 steps. A run to residual 1e-9 (142 steps) gives 47.7362540041150, as
    # the complex kernel did and as on the uniform xi-grid to 13 digits: H_r
    # has the same top eigenvalue. The recorded Ritz value lies 2.8e-5 below it.
    spec = spec_at(32.0)
    res = O.operator_norm_l2(spec, seed=4)
    assert res.method == "lanczos-fast"
    assert res.residual <= O.LANCZOS_TOL
    assert res.value == pytest.approx(47.73493559541081, rel=1e-10)
    modes = l2_modes(spec)
    monkeypatch.setattr(O, "LANCZOS_TOL", 1e-9)
    monkeypatch.setattr(O, "LANCZOS_STEPS", 400)
    theta, _, residual = O._lanczos(O._FastKernel(spec, modes).apply, len(modes.xi), seed=4)
    assert residual <= 1e-9
    tight = math.sqrt(O.TWO_PI * modes.dp * theta)
    assert tight == pytest.approx(47.7362540041150, rel=1e-9)
    assert tight * (1 - 1e-4) <= res.value <= tight * (1 + 1e-12)


def test_fast_and_dense_lanczos_agree():
    spec = spec_at(16.0)
    modes = l2_modes(spec)
    H = O.dense_operator_matrix(spec, modes)
    fast = O._lanczos(O._FastKernel(spec, modes).apply, len(modes.xi), seed=0)
    dense = O._lanczos(lambda v: H @ v, len(modes.xi), seed=0)
    assert fast[0] == pytest.approx(dense[0], rel=1e-12)
    assert fast[1] == dense[1]
    # operator_norm_l2 runs the structured apply for the quadratic symbol
    res = O.operator_norm_l2(spec)
    assert res.method == "lanczos-fast"
    assert res.iterations == fast[1]
    assert res.value == pytest.approx(math.sqrt(O.TWO_PI * modes.dp * dense[0]), rel=1e-12)


@pytest.mark.parametrize("R", [8.0, 16.0])
def test_lanczos_is_a_tight_lower_bound_of_dense_eig(R):
    # the Ritz value is a Rayleigh quotient, so it never exceeds the top
    # eigenvalue; at residual 1e-3 it is within 1e-5 of it
    spec = spec_at(R)
    modes = l2_modes(spec)
    top = np.linalg.eigvalsh(O.dense_operator_matrix(spec, modes))[-1]
    res = O.operator_norm_l2(spec)
    assert res.residual <= O.LANCZOS_TOL
    theta = res.value**2 / (O.TWO_PI * modes.dp)
    assert top * (1 - 1e-5) <= theta <= top * (1 + 1e-12)
    assert res.value == pytest.approx(O.operator_norm_dense_eig(spec), rel=1e-5)


@pytest.mark.parametrize("R", [2.0, 4.0, 8.0])
def test_l2_node_rule_is_converged(monkeypatch, R):
    # the dense value on the p-grid lies within 3e-5 of the same kernel at 8x
    # the span, so at 8x the nodes; without L2_PAD, R = 2 reads 2.6e-3 high
    spec = spec_at(R)
    a, b = spec.time_window()
    v_min = 1.0  # Phi'(1/2) for Phi = xi^2
    dp = 2 * math.pi / (O.SPAN_FACTOR * (b - a + (4 * R + O.L2_PAD) / v_min))
    assert l2_modes(spec).dp == pytest.approx(dp, rel=1e-14)
    value = O.operator_norm_dense_eig(spec)
    monkeypatch.setattr(O, "SPAN_FACTOR", 8 * O.SPAN_FACTOR)
    assert value == pytest.approx(O.operator_norm_dense_eig(spec), rel=3e-5)


def test_non_integer_degree_takes_the_explicit_kernel_up_to_its_cap():
    spec = O.SmoothingOperatorSpec(sym=S.from_config("power:m=2.5,n=1"), alpha=0.5, R=8.0)
    res = O.operator_norm_l2(spec)
    assert res.method == "lanczos-dense" and res.residual <= O.LANCZOS_TOL
    assert res.value == pytest.approx(O.operator_norm_dense_eig(spec), rel=O.LANCZOS_TOL)
    O.check_l2_scale(spec)
    with pytest.raises(ValueError, match="R = 32 needs 19182 L2 nodes"):
        O.check_l2_scale(dataclasses.replace(spec, R=32.0))
    # an integer degree takes the structured apply at any scale, and the
    # dense cross-check up to the cap
    quadratic = spec_at(64.0)
    O.check_l2_scale(quadratic)
    with pytest.raises(ValueError, match="R = 64 needs 9525 L2 nodes"):
        O.check_l2_scale(quadratic, dense=True)


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


def _evaluate(spec, modes, c, times):
    """_eval_mixed on tables of its own."""
    return O._eval_mixed(spec, modes, c, times, O._tables(spec, modes))


def _call_times(spec):
    """The transit window of _transit_times: the samples ASCENT_BUDGET
    counts, and those lower_bound_mixed runs its bank and iteration on at
    finite r (at r = inf their peak band)."""
    times, _, transit = O._transit_times(spec)
    return times[transit]


def test_quotient_scale_invariance():
    spec = spec_at(8.0, q=2.0, r=4.0)
    modes = call_modes(spec)
    c = np.exp(-0.5 * ((modes.xi - 1.1) / 0.1) ** 2).astype(complex)
    times = _call_times(spec)
    q1 = _evaluate(spec, modes, c, times)[0] / O._l2_of_spectrum(modes, c)
    q3 = _evaluate(spec, modes, 3.0 * c, times)[0] / O._l2_of_spectrum(modes, 3.0 * c)
    assert q1 == pytest.approx(q3, rel=1e-12)


def test_candidate_ranking_scale_invariant():
    # scaling the input never changes which candidate wins the bank
    spec = spec_at(8.0, q=2.0, r=INF, alpha=-0.25)
    modes = call_modes(spec)
    vals = {}
    times = _call_times(spec)
    for name, c in O._candidate_bank(spec, modes):
        for scale in (1.0, 7.5):
            v = (_evaluate(spec, modes, scale * c, times)[0]
                 / O._l2_of_spectrum(modes, scale * c))
            vals.setdefault(name, []).append(v)
    for name, pair in vals.items():
        assert pair[0] == pytest.approx(pair[1], rel=1e-10)


# Direct formulas the chirp-z transforms must reproduce: one exp(i t phi)
# per time sample and mode, and the chain rule through a dense S x nx weight
# W. The reference slab is built 256 samples at a time to bound its memory.

def _eval_reference(spec, modes, c, times):
    nx = max(int(math.ceil(2 * spec.R / 0.7)), 32)
    nx += nx % 2
    gx = Grid(1, nx, 2 * spec.R)
    amp = modes.amp * c * modes.dp
    ph_x = np.exp(1j * np.outer(gx.x_axis(), modes.xi)).T
    slab = np.concatenate([(np.exp(1j * np.outer(times[s0:s0 + 256], modes.phi_vals)) * amp)
                           @ ph_x for s0 in range(0, len(times), 256)])
    u = SpacetimeField(gx, times, slab)
    return mixed_norm(u, MixedNormSpec(q=spec.q, r=spec.r)), u


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
    return modes.amp * modes.dp * np.sum(ph_t * (ph_x.T @ W.T), axis=1)


def _chirp_case(r, window, q=2.0):
    # R = 8, but local R = 16 at finite r, where the band-limited step leaves
    # local R = 8 only 227 transit samples
    R = 16.0 if window == "local" and r != INF else 8.0
    spec = spec_at(R, alpha=-0.25, q=q, r=r, window=window)
    modes = call_modes(spec)
    c = dict(O._candidate_bank(spec, modes))["chirp-root@0.9"]
    return spec, modes, c, _call_times(spec)


# A spectrum the bank does not hold, with the bank's focusing chirp: seeded
# noise, whose peaks in time need not be smooth and whose sum over the modes
# has no coherent phase.

def _focusing_chirp(spec, modes):
    a, b = spec.time_window()
    t_focus = 0.0 if spec.window == "global" else (a + b) / 2.0
    return np.exp(-1j * t_focus * modes.phi_vals)


def _noise(spec, modes):
    rng = np.random.default_rng(0)
    noise = rng.standard_normal(len(modes.xi)) + 1j * rng.standard_normal(len(modes.xi))
    return _focusing_chirp(spec, modes) * noise * np.exp(-0.5 * ((modes.xi - 1.2) / 0.4) ** 2)


@pytest.mark.parametrize("window", ["local", "global"])
@pytest.mark.parametrize("r", [INF, 4.0])
def test_eval_mixed_matches_per_sample_phases(r, window):
    # the slab and its mixed norm, the sup at r = inf, on one sample, on two
    # and on windows of the times
    spec, modes, c, times = _chirp_case(r, window)
    for ts in (times[:1], times[:2], times[:127], times[::2], times):
        val, u = _evaluate(spec, modes, c, ts)
        ref, u_ref = _eval_reference(spec, modes, c, ts)
        assert abs(val - ref) <= 1e-10 * ref, len(ts)
        want = u_ref.slices
        assert np.max(np.abs(u.slices - want)) <= 1e-10 * np.max(np.abs(want)), len(ts)


def _long_double_slab(modes, c, times, space):
    """u on times by the direct sum over the modes, each phase t_s phi_k
    formed and reduced mod 2 pi in np.longdouble before its exponential,
    256 samples at a time."""
    two_pi = 8 * np.arctan(np.longdouble(1))
    p = modes.phi_vals.astype(np.longdouble)
    amp = modes.amp * c * modes.dp
    return np.concatenate([
        (np.exp(1j * (np.outer(times[s0:s0 + 256].astype(np.longdouble), p) % two_pi)
                .astype(float)) * amp) @ space for s0 in range(0, len(times), 256)])


@pytest.mark.parametrize("window", ["local", "global"])
@pytest.mark.parametrize("R", [16.0, 32.0])
def test_chirp_z_slab_matches_the_long_double_sum(R, window):
    # the doubled window at r = inf, the call's longest grid (10857 samples
    # at R = 32), checked on every 7th sample and the last. The transform
    # steps by (t[-1] - t[0]) / (S - 1): the difference of the first two
    # samples carries their rounding into every one of the S steps
    spec = spec_at(R, alpha=-0.25, r=INF, window=window)
    modes = call_modes(spec)
    times = O._transit_times(spec)[0]
    tables = O._tables(spec, modes)
    rows = np.r_[0:len(times):7, len(times) - 1]
    broad = dict(O._candidate_bank(spec, modes))["chirp-broad"]
    for name, c in (("chirp-broad", broad), ("noise", _noise(spec, modes))):
        got = O._eval_mixed(spec, modes, c, times, tables)[1].slices[rows]
        want = _long_double_slab(modes, c, times[rows], tables[1])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name


@pytest.mark.parametrize("r", [INF, 4.0], ids=xt)
def test_doubled_window_pass_matches_one_unchunked_evaluation(monkeypatch, r):
    # the last pass of a call is one _eval_mixed over the doubled window,
    # whose slab is built chunk by chunk of cells: chunks of one cell, of all
    # 32 cells, and of 5, which does not divide 32, give the same slab
    spec = spec_at(8.0, alpha=-0.25, r=r, window="global")
    modes = call_modes(spec)
    times = O._transit_times(spec)[0]
    tables = O._tables(spec, modes)
    nx = tables[0].N
    c = _noise(spec, modes)
    monkeypatch.setattr(O, "IDFT_STACK_BYTES", 1 << 40)
    val, u = O._eval_mixed(spec, modes, c, times, tables)
    slab_chunks, widths = O._slab_chunks, []

    def logged(*args):
        for cells, block in slab_chunks(*args):
            widths.append(block.shape[1])
            yield cells, block

    monkeypatch.setattr(O, "_slab_chunks", logged)
    # every mode is live, so one row of the transform takes L entries
    L = O._fft_size(len(modes.xi) + len(times) - 1)
    for stack, want in ((1, [1] * nx), (1 << 40, [nx]), (5 * 16 * L, [5] * 6 + [2])):
        monkeypatch.setattr(O, "IDFT_STACK_BYTES", stack)
        del widths[:]
        got, v = O._eval_mixed(spec, modes, c, times, tables)
        assert widths == want
        assert got == val
        assert np.array_equal(v.slices, u.slices)


@pytest.mark.parametrize("window", ["local", "global"])
@pytest.mark.parametrize("r", [INF, 4.0])
def test_quotient_gradient_matches_dense_chain_rule(r, window):
    spec, modes, c, times = _chirp_case(r, window)
    tables = O._tables(spec, modes)
    val, u = O._eval_mixed(spec, modes, c, times, tables)
    g = O._quotient_gradient(spec, modes, val, u, tables)
    ref = _gradient_reference(spec, modes, c, times)
    assert np.linalg.norm(g - ref) <= 1e-9 * np.linalg.norm(ref)


@pytest.mark.parametrize("r", [INF, 4.0], ids=xt)
def test_quotient_gradient_matches_finite_differences(r):
    # central differences of the numerator F along directions inside the
    # spectrum's support, at q = 2 and at an outer exponent other than 2
    for q in (2.0, 4.0):
        _check_gradient_by_finite_differences(*_chirp_case(r, "local", q=q))


@pytest.mark.parametrize("r", [INF, 4.0], ids=xt)
def test_quotient_gradient_at_q_inf_matches_finite_differences(r):
    # a sup over x: the subgradient on the maximal cell is the gradient
    # wherever that maximum is unique. The chirp alone peaks on two cells
    # symmetric about the ball's centre; a seeded perturbation separates them.
    spec, modes, c, times = _chirp_case(r, "local", q=INF)
    rng = np.random.default_rng(2)
    c = c * (1.0 + 0.2 * (rng.standard_normal(len(c))
                          + 1j * rng.standard_normal(len(c))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = _check_gradient_by_finite_differences(spec, modes, c, times)
    assert np.all(np.isfinite(g)) and np.linalg.norm(g) > 0


def _check_gradient_by_finite_differences(spec, modes, c, times):
    tables = O._tables(spec, modes)
    val, u = O._eval_mixed(spec, modes, c, times, tables)
    g = O._quotient_gradient(spec, modes, val, u, tables)

    def numerator(x):
        return O._eval_mixed(spec, modes, x, times, tables)[0]

    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(3):
        d = np.abs(c) * (rng.standard_normal(len(c)) + 1j * rng.standard_normal(len(c)))
        d *= np.linalg.norm(c) / np.linalg.norm(d)
        fd = (numerator(c + h * d) - numerator(c - h * d)) / (2 * h)
        slope = 2.0 * np.real(np.vdot(g, d))
        assert abs(fd - slope) <= 1e-6 * 2.0 * np.linalg.norm(g) * np.linalg.norm(d)
    return g


def test_eval_mixed_rejects_nonuniform_times():
    spec, modes, c, times = _chirp_case(INF, "local")
    bent = np.array(times)
    bent[5] += 0.3 * (times[1] - times[0])
    with pytest.raises(ValueError):
        _evaluate(spec, modes, c, bent)


def _hand_made_bank(spec, modes):
    # a winner that does not span every mode, and a runner-up
    full = dict(O._candidate_bank(spec, modes))
    return [("chirp-wide@0.9", full["chirp-wide@0.9"]),
            ("chirp-root@0.9", full["chirp-root@0.9"])]


def test_only_an_affordable_bank_winner_is_refined(monkeypatch):
    _check_only_an_affordable_winner_is_refined(monkeypatch, INF)


def test_only_an_affordable_bank_winner_is_refined_at_finite_r(monkeypatch):
    _check_only_an_affordable_winner_is_refined(monkeypatch, 4.0)


def _check_only_an_affordable_winner_is_refined(monkeypatch, r):
    # over the ascent budget the winner is reported as the bank found it,
    # with no iteration; at the call's cost it is refined and keeps its name
    spec = spec_at(8.0, alpha=-0.25, r=r)
    modes = call_modes(spec)
    bank = _hand_made_bank(spec, modes)
    # the bank's quotients on its rows (at r = inf the peak band)
    vals = [_evaluate(spec, modes, c, _band_tables(spec, modes)[0])[0]
            / O._l2_of_spectrum(modes, c) for _, c in bank]
    assert vals[0] > vals[1]
    monkeypatch.setattr(O, "_candidate_bank", lambda *args: bank)
    # what the budget is compared with: the transit window's time samples x
    # cells of the call's ball grid x modes, whatever the bank winner
    cost = len(_call_times(spec)) * O._tables(spec, modes)[0].N * len(modes.xi)

    monkeypatch.setattr(O, "ASCENT_BUDGET", cost * (1 - 1e-12))
    res = O.lower_bound_mixed(spec)
    assert res.candidate == "chirp-wide@0.9"
    assert res.ascent_gain == 0.0
    # the bank loop is the only counted work: no iteration ran
    assert res.evaluations == len(bank)
    v_wide = _wide_diagnostics(spec, modes, bank[0][1])[0] / O._l2_of_spectrum(modes, bank[0][1])
    assert res.value == max(vals[0], v_wide)

    monkeypatch.setattr(O, "ASCENT_BUDGET", cost)
    res = O.lower_bound_mixed(spec)
    assert res.candidate == "chirp-wide@0.9"
    assert res.evaluations > len(bank)
    assert res.ascent_gain > 0.0
    assert res.value >= vals[0] * (1.0 + res.ascent_gain) * (1 - 1e-12)


def test_bank_winner_is_evaluated_once(monkeypatch):
    _check_bank_winner_is_evaluated_once(monkeypatch, INF)


def test_bank_winner_is_evaluated_once_at_finite_r(monkeypatch):
    _check_bank_winner_is_evaluated_once(monkeypatch, 4.0)


def _check_bank_winner_is_evaluated_once(monkeypatch, r):
    # the bank loop's evaluation of the winner starts the power iteration,
    # so with no iteration nothing is evaluated after the bank but the one
    # last pass over the rows doubled, and the value is the higher of the
    # two. At local R = 8 the doubled transit window clips to the same
    # operator window, so at finite r the bank's rows are all of the times,
    # the last pass reads them again and window_delta compares the same
    # samples: it reads rounding only. At r = inf the bank runs on the peak
    # band and the last pass on the doubled band. The diagnostics read the
    # last pass.
    spec = spec_at(8.0, alpha=-0.25, r=r)
    modes = call_modes(spec)
    times, _, transit = O._transit_times(spec)
    assert transit == slice(0, len(times))
    assert (times[0], times[-1]) == pytest.approx(spec.time_window(), abs=times[1] - times[0])
    bank = _hand_made_bank(spec, modes)
    calls = []
    monkeypatch.setattr(O, "_candidate_bank", lambda *args: bank)
    eval_mixed = O._eval_mixed
    monkeypatch.setattr(O, "_eval_mixed", lambda *args: calls.append(args) or eval_mixed(*args))

    monkeypatch.setattr(O, "ASCENT_BUDGET", 0.0)
    over = O.lower_bound_mixed(spec)
    monkeypatch.setattr(O, "ASCENT_BUDGET", math.inf)
    # a zero iteration cap means no iteration
    unrefined = O.lower_bound_mixed(spec, 0)
    assert len(calls) == 2 * (len(bank) + 1)
    for args in (calls[len(bank)], calls[-1]):
        assert args[2] is bank[0][1] and np.array_equal(args[3], _last_times(spec))
    assert np.array_equal(_last_times(spec), times) == (r != INF)

    band, tables = _band_tables(spec, modes)
    assert (len(band) < len(times)) == (r == INF)
    v_band = O._eval_mixed(spec, modes, bank[0][1], band, tables)[0]
    v_full, ref_delta, tail = _wide_diagnostics(spec, modes, bank[0][1])
    for res in (over, unrefined):
        assert res.candidate == "chirp-wide@0.9"
        assert res.value == max(v_band, v_full) / O._l2_of_spectrum(modes, bank[0][1])
        assert res.refinement_delta == ref_delta
        assert res.window_delta == abs(v_full - v_band) / v_band
        assert res.tail_fraction == tail
    if r != INF:
        assert over.window_delta <= 1e-14


def _transit_window(spec):
    """The transit window's samples on the envelope step by their definition:
    the cell centres of t0 +- 3.5 (2R + 1/width)/v_min clipped to the
    operator's window, at least 8 cells of at most an eighth of
    1/width/v_min, width the sector's and v_min its slowest speed."""
    a, b = spec.time_window()
    t0 = (a + b) / 2.0
    width = SECTOR_OUTER - SECTOR_INNER
    v_min = 2.0 * SECTOR_INNER  # the quadratic symbol's speed
    margin = 3.5 * (2.0 * spec.R + 1.0 / width) / v_min
    lo, hi = max(a, t0 - margin), min(b, t0 + margin)
    steps = max(math.ceil((hi - lo) / (1.0 / width / v_min / 8.0)), 8)
    return lo + (np.arange(steps) + 0.5) * (hi - lo) / steps


def test_windows_share_the_time_step_without_a_sample_cap():
    # at the battery's largest maximal scale the doubled window holds more
    # than 20000 samples. It is one grid with the transit window, whose
    # samples are its rows, so window_delta compares windows, not sampling
    # steps; it adds whole groups of 8 samples on each side
    spec = spec_at(64.0, alpha=-0.25, r=INF)
    times, _, transit = O._transit_times(spec)
    assert np.array_equal(times[transit], _transit_window(spec))
    assert len(times) > 20000
    assert transit.start % 8 == 0 and (len(times) - transit.stop) % 8 == 0
    a, b = spec.time_window()
    assert a < times[0] and times[-1] < b
    check_uniform_times(times)


@pytest.mark.parametrize("R, window, tol", [
    pytest.param(R, window, tol, id=xt(f"{R}-{window}-{tol}"))
    for R, window, tol in [(2.0, "global", 1e-8), (8.0, "global", 1e-12),
                           (8.0, "local", 1e-12), (16.0, "local", 1e-12)]])
def test_band_limited_step_matches_the_envelope_step(R, window, tol):
    # at r = 4 and q = 2 the time integrand is a trigonometric sum with
    # frequencies inside +-2 Omega, so the rectangle rule at BAND_STEP of
    # 2 pi / (2 Omega) integrates it as the envelope step, about 5x finer,
    # does, apart from the window ends: global R = 2 still holds mass there
    spec = spec_at(R, alpha=0.5, r=4.0, window=window)
    modes = call_modes(spec)
    band, envelope = _call_times(spec), _transit_window(spec)
    dt, dt_env = band[1] - band[0], envelope[1] - envelope[0]
    omega = SECTOR_OUTER**2 - SECTOR_INNER**2  # the symbol's range on the sector
    assert dt <= O.BAND_STEP * 2 * math.pi / (2 * omega) and dt > 4 * dt_env
    assert band[0] - dt / 2 == pytest.approx(envelope[0] - dt_env / 2, abs=1e-9)
    assert band[-1] + dt / 2 == pytest.approx(envelope[-1] + dt_env / 2, abs=1e-9)
    for name, c in O._candidate_bank(spec, modes):
        val, ref = (_evaluate(spec, modes, c, ts)[0] for ts in (band, envelope))
        assert abs(val - ref) <= tol * ref, name


@pytest.mark.parametrize("q, r", [pytest.param(q, r, id=xt(f"{q}-{r}"))
                                  for q, r in [(2.0, INF), (2.0, 3.0)]])
def test_integrands_without_a_band_keep_the_envelope_step(q, r):
    # sup_t |u| and |u|^3 are not trigonometric sums in t
    spec = spec_at(8.0, alpha=-0.25, q=q, r=r, window="global")
    assert np.array_equal(_call_times(spec), _transit_window(spec))


def test_doubled_window_value_is_at_least_the_transit_windows():
    # at finite r the doubled window holds the transit window's samples and
    # more at the same step, so its L^r integral over time is no smaller
    spec = spec_at(8.0, alpha=0.5, r=4.0, window="global")
    modes = call_modes(spec)
    times, rows, transit = O._transit_times(spec)
    assert rows == transit
    tables = O._tables(spec, modes)
    for name, c in O._candidate_bank(spec, modes) + [("noise", _noise(spec, modes))]:
        v_wide = O._eval_mixed(spec, modes, c, times, tables)[0]
        v_top = O._eval_mixed(spec, modes, c, times[rows], tables)[0]
        assert v_wide >= v_top * (1 - 1e-12), name


@pytest.mark.parametrize("window", ["local", "global"], ids=xt)
@pytest.mark.parametrize("R", [2.0, 4.0, 8.0, 16.0, 32.0])
def test_peak_band_holds_every_peak(monkeypatch, R, window):
    # at r = inf the bank and the iteration search only the band: the
    # transit rows around the focus. A band too narrow would cut a peak off,
    # so every cell's peak on the doubled window lies in it, for every bank
    # candidate and for the point the call evaluates there
    spec = spec_at(R, alpha=-0.25, r=INF, window=window)
    modes = call_modes(spec)
    wide, band, transit = O._transit_times(spec)
    assert transit.start <= band.start < band.stop <= transit.stop
    tables = O._tables(spec, modes)

    def inside(c):
        peaks = np.abs(O._eval_mixed(spec, modes, c, wide, tables)[1].slices).argmax(axis=0)
        return band.start <= peaks.min() and peaks.max() < band.stop

    for name, c in O._candidate_bank(spec, modes):
        assert inside(c), name
    eval_mixed, points = O._eval_mixed, []
    monkeypatch.setattr(O, "_eval_mixed",
                        lambda *args: points.append(args[2]) or eval_mixed(*args))
    res = O.lower_bound_mixed(spec)
    # the last evaluation is the reported point's
    assert len(points) == res.evaluations + 1 and inside(points[-1])


@pytest.mark.parametrize("R, window, r", [
    pytest.param(R, window, r, id=xt(f"{R}-{window}-{r}"))
    for R, window, r in [(2.0, "local", INF), (2.0, "global", INF), (8.0, "local", INF),
                         (32.0, "local", INF), (32.0, "global", INF), (2.0, "local", 4.0),
                         (8.0, "local", 4.0), (8.0, "global", 4.0), (32.0, "global", 4.0),
                         (8.0, "global", 3.0)]])
def test_last_pass_reads_the_rows_doubled(monkeypatch, R, window, r):
    # the last evaluation reads the rows doubled about their centre, n // 2
    # samples on each side of n, clipped to the doubled window. At finite r
    # the rows are the transit window, and the doubled window adds at most
    # n // 2 samples on each side of it, so the last pass reads all of the
    # doubled window, bit for bit. At r = inf it reads the doubled band,
    # which only local R = 2 clips
    spec = spec_at(R, alpha=-0.25, r=r, window=window)
    wide, rows, transit = O._transit_times(spec)
    n = rows.stop - rows.start
    eval_mixed, calls = O._eval_mixed, []
    monkeypatch.setattr(O, "_eval_mixed", lambda *args: calls.append(args[3]) or eval_mixed(*args))
    O.lower_bound_mixed(spec, 0)
    last = calls[-1]
    k = int(np.searchsorted(wide, last[0]))
    assert np.array_equal(last, wide[k:k + len(last)])
    assert rows.start - k == min(n // 2, rows.start)
    assert k + len(last) - rows.stop == min(n // 2, len(wide) - rows.stop)
    if r != INF:
        assert rows == transit
        assert transit.start <= n // 2 and len(wide) - transit.stop <= n // 2
        assert np.array_equal(last, wide)
    elif R >= 8:
        # the doubled band, unclipped, is a part of the doubled window
        assert len(last) == n + 2 * (n // 2) < len(wide)


def test_window_delta_guards_the_peak_band(monkeypatch):
    # at r = inf the bank and the iteration read only the peak band, and the
    # last pass over the doubled band guards it: a spectrum that focuses
    # outside the band, at t0 + 1.5 reach, peaks in the doubled band, so
    # window_delta is far above rounding and the value is the doubled band's
    spec = spec_at(8.0, alpha=-0.25, r=INF)
    modes = call_modes(spec)
    wide, rows, _ = O._transit_times(spec)
    reach = (spec.R + 1.0 / (SECTOR_OUTER - SECTOR_INNER)) / (2.0 * SECTOR_INNER)
    t_late = O._focus_time(spec) + 1.5 * reach
    assert wide[rows][-1] < t_late < _last_times(spec)[-1]
    late = (np.exp(-1j * t_late * modes.phi_vals) / np.sqrt(2.0 * modes.xi)
            * np.exp(-0.5 * ((modes.xi - 1.2) / 0.35) ** 2))
    monkeypatch.setattr(O, "_candidate_bank", lambda *args: [("late", late)])
    res = O.lower_bound_mixed(spec, 0)
    v_band = _evaluate(spec, modes, late, wide[rows])[0]
    v_last = _evaluate(spec, modes, late, _last_times(spec))[0]
    assert res.window_delta == (v_last - v_band) / v_band > 0.1
    assert res.value == v_last / O._l2_of_spectrum(modes, late)


# The power iteration as one call per piece of work: every evaluation and
# gradient builds its own tables (ball grid and spatial factor) and reads
# the rows the bank and the iteration run on: the peak band at r = inf, the
# transit window at finite r. lower_bound_mixed must give the same result
# with one set of tables per call and one gradient per iteration. The value
# is the higher of the best point's evaluation on those rows and its last
# pass over the rows doubled about their centre (_last_times), and the
# diagnostics read that pass.

def _band_tables(spec, modes):
    """(the rows the bank and the iteration run on, fresh tables)."""
    wide, rows, _ = O._transit_times(spec)
    return wide[rows], O._tables(spec, modes)


def _last_times(spec):
    """The times of a call's last evaluation: its rows doubled about their
    centre, n // 2 samples on each side of n, clipped to the doubled window."""
    wide, rows, _ = O._transit_times(spec)
    n = rows.stop - rows.start
    return wide[max(0, rows.start - n // 2):rows.stop + n // 2]


def _wide_diagnostics(spec, modes, c):
    """(value, refinement_delta, tail_fraction) of spectrum c from a fresh
    evaluation on _last_times: the norm on every sample and on every
    second one, and the share of sum_x |u|^2 in the last tenth of them.
    The half-rate norm reduces every second row of |u| as lower_bound_mixed
    does; mixed_norm agrees to rounding only, as its cell mask hands the sum
    over time a column-major copy, which numpy adds in another order."""
    times = _last_times(spec)
    value, u = _evaluate(spec, modes, c, times)
    absu = np.abs(u.slices)
    half = float(_reduce(_reduce(absu[::2], spec.r, times[2] - times[0]), spec.q, u.grid.dx))
    assert half == pytest.approx(mixed_norm(SpacetimeField(u.grid, times[::2], u.slices[::2]),
                                            MixedNormSpec(q=spec.q, r=spec.r)), rel=1e-14)
    per_t = np.sum(absu**2, axis=1)
    k = max(1, len(per_t) // 10)
    return (value, abs(value - half) / max(value, 1e-300),
            float(np.sum(per_t[-k:]) / max(np.sum(per_t), 1e-300)))


def _lower_bound_reference(spec):
    """(result, quotients of the bank winner and of every iterate after it)."""
    modes = call_modes(spec)
    times = _call_times(spec)

    def evaluate(c):
        return O._eval_mixed(spec, modes, c, *_band_tables(spec, modes))

    evals, best_val = 0, 0.0
    for name, c in O._candidate_bank(spec, modes):
        raw, u = evaluate(c)
        val = raw / O._l2_of_spectrum(modes, c)
        evals += 1
        if val > best_val:
            best_val, best_name, best = val, name, (c, raw, u)
    # the budget counts the transit window's samples, whatever the band
    affordable = len(times) * u.grid.N * len(modes.xi) <= O.ASCENT_BUDGET
    quotients, top = [best_val], best
    c, raw, u = best
    for _ in range(O.POWER_ITERATIONS if affordable else 0):
        c = O._quotient_gradient(spec, modes, raw, u, _band_tables(spec, modes)[1])
        raw, u = evaluate(c)
        evals += 1
        quotients.append(raw / O._l2_of_spectrum(modes, c))
        if quotients[-1] > max(quotients[:-1]):
            top = (c, raw, u)
        if quotients[-1] - quotients[-2] <= O.POWER_RISE_TOL * quotients[-1]:
            break
    top_c, v_top, _ = top
    top_val = max(quotients)
    v_wide, ref_delta, tail = _wide_diagnostics(spec, modes, top_c)
    nf = O._l2_of_spectrum(modes, top_c)
    res = O.LowerBoundResult(
        value=max(top_val, v_wide / nf), candidate=best_name,
        ascent_gain=(top_val - best_val) / max(best_val, 1e-300),
        refinement_delta=ref_delta, window_delta=abs(v_wide - v_top) / max(v_top, 1e-300),
        tail_fraction=tail, evaluations=evals)
    return res, quotients


@pytest.mark.parametrize("R", [4.0, 8.0])
@pytest.mark.parametrize("window", ["local", "global"])
@pytest.mark.parametrize("r", [4.0, INF])
def test_ascent_matches_the_per_call_reference(monkeypatch, r, window, R):
    # every field equal; one gradient per iteration, always on the call's
    # tables; one set of tables per call, read by the bank, the iteration
    # and the one last pass over the rows doubled
    spec = spec_at(R, alpha=-0.25, r=r, window=window)
    modes = call_modes(spec)
    bank = len(O._candidate_bank(spec, modes))
    ref, quotients = _lower_bound_reference(spec)
    calls = {"_eval_mixed": [], "_quotient_gradient": [], "_tables": []}
    for name, log in calls.items():
        monkeypatch.setattr(O, name, lambda *args, _f=getattr(O, name), _log=log:
                            _log.append(len(args)) or _f(*args))
    res = O.lower_bound_mixed(spec)
    for field in dataclasses.fields(O.LowerBoundResult):
        assert getattr(res, field.name) == getattr(ref, field.name), field.name
    grads = calls["_quotient_gradient"]
    assert len(grads) == res.evaluations - bank == len(quotients) - 1 > 0
    assert set(grads) == {5}
    assert len(calls["_eval_mixed"]) == res.evaluations + 1
    assert len(calls["_tables"]) == 1


@pytest.mark.parametrize("window", ["local", "global"], ids=xt)
@pytest.mark.parametrize("r", [4.0, INF])
def test_power_iteration_is_monotone(monkeypatch, r, window):
    # on the fixed rows of the call the numerator is a norm of the spectrum,
    # at r = inf too (the sup over those samples), convex and 1-homogeneous,
    # so no iterate falls below the one before it (to rounding). The result
    # reports the best iterate: its gain over the bank winner and its
    # spectrum, the one the last pass, over the rows doubled, reads
    spec = spec_at(4.0, alpha=-0.25, r=r, window=window)
    modes = call_modes(spec)
    bank = len(O._candidate_bank(spec, modes))
    eval_mixed, calls = O._eval_mixed, []

    def logged(*args):
        val, u = eval_mixed(*args)
        calls.append((args[2], val / O._l2_of_spectrum(modes, args[2]), args[3]))
        return val, u

    monkeypatch.setattr(O, "_eval_mixed", logged)
    res = O.lower_bound_mixed(spec)
    start = max(q for _, q, _ in calls[:bank])
    iterates, wide = calls[bank:-1], calls[-1]
    assert len(iterates) == res.evaluations - bank
    assert np.array_equal(wide[2], _last_times(spec))
    quotients = [start] + [q for _, q, _ in iterates]
    assert len(iterates) >= 3 and quotients[1] > start
    for before, after in zip(quotients, quotients[1:]):
        assert after >= before * (1 - 1e-14)
    top = max(quotients)
    assert res.ascent_gain == (top - start) / start
    top_c = iterates[quotients.index(top) - 1][0]
    assert wide[0] is top_c
    assert res.value == max(top, wide[1])


# lower_bound_mixed at the battery's maximal (criterion 08) and global
# transfer (criterion 09) configs: (R, value as float.hex, bank winner).
# Maximal R = 32 is over ASCENT_BUDGET, so the bank winner's value; the
# others are refined by the power iteration. Recorded again once the bound
# ran on the L2 norms' grid, uniform in p = Phi(xi) and sized to the doubled
# transit window, in place of a xi-uniform grid sized to the whole window,
# with every bank spectrum divided by sqrt|Phi'| to keep its data. The
# bound sees the grid only through its quadrature, so the values moved by
# the sampling error of either grid: maximal R = 8, 16, 32 by -2.5e-5,
# -5.5e-7 and -1.2e-5 from 0x1.3b4ebd2639103p+3, 0x1.a198946b86594p+3 and
# 0x1.e9bff2ab9038bp+3, transfer R = 2, 4, 8 by -5.8e-7, +6.1e-9 and +4.9e-11
# from 0x1.ee6aa298eb8c1p+2, 0x1.5c75cff34d087p+3 and 0x1.e6c219c416b5ep+3.
# Transfer R = 2's winner changed from chirp-wide@1.3: their unrefined
# quotients lie within 7e-4 of each other, in either order, on both grids.
# At a fixed BLAS thread count the values are bit-identical; the tolerance
# absorbs the last-bit changes of another thread count or BLAS build.
GOLDEN_MAXIMAL = [(8.0, "0x1.3b4cb81c8e462p+3", "chirp-broad"),
                  (16.0, "0x1.a198855aab1a2p+3", "chirp-broad"),
                  (32.0, "0x1.e9be6b30c1301p+3", "chirp-broad")]
GOLDEN_TRANSFER = [(2.0, "0x1.ee6a8faaff3cap+2", "chirp-root@1.3"),
                   (4.0, "0x1.5c75d016eebf0p+3", "chirp-wide@1.3"),
                   (8.0, "0x1.e6c219c47d45bp+3", "chirp-wide@1.3")]


GOLDEN = ([("maximal",) + g for g in GOLDEN_MAXIMAL]
          + [("transfer",) + g for g in GOLDEN_TRANSFER])


# ids name the case, not the value, so a re-recorded value keeps the test's id
@pytest.mark.parametrize("kind, R, value, candidate", GOLDEN,
                         ids=[f"{kind}-R{R:g}" for kind, R, *_ in GOLDEN])
def test_lower_bound_golden_values(kind, R, value, candidate):
    if kind == "maximal":
        spec = spec_at(R, alpha=-0.25, r=INF)
    else:
        spec = spec_at(R, alpha=0.5, r=4.0, window="global")
    res = O.lower_bound_mixed(spec)
    assert res.candidate == candidate
    assert res.value == pytest.approx(float.fromhex(value), rel=1e-12, abs=0)


@pytest.mark.parametrize("R, window, r, alpha", [(8.0, "local", INF, -0.25),
                                                  (4.0, "global", 4.0, 0.5),
                                                  (8.0, "global", 4.0, 0.5)])
def test_mixed_node_rule_is_converged(monkeypatch, R, window, r, alpha):
    # the refined bound on the grid sized to the doubled transit window lies
    # within 1e-7 of the same bound at twice the span, so twice the nodes
    # (3.0e-8, 6.1e-9 and 4.9e-11 here); a period sized at SPAN_FACTOR = 1
    # moves local R = 8 and global R = 4 by 6.7e-6 and 5.0e-6 against 2
    spec = spec_at(R, alpha=alpha, r=r, window=window)
    res = O.lower_bound_mixed(spec)
    assert res.ascent_gain > 0
    monkeypatch.setattr(O, "SPAN_FACTOR", 2 * O.SPAN_FACTOR)
    assert O.lower_bound_mixed(spec).value == pytest.approx(res.value, rel=1e-7)


def _doubled_window_diagnostics(spec, modes, c):
    """(value, (refinement_delta, window_delta, tail_fraction), whether the
    wide window won) of spectrum c from a fresh evaluation on the bank's
    rows and a fresh one on those rows doubled: the value is the higher of
    the two, the sampling diagnostics are the doubled rows'."""
    v_top = O._eval_mixed(spec, modes, c, *_band_tables(spec, modes))[0]
    v_wide, ref_delta, tail = _wide_diagnostics(spec, modes, c)
    return max(v_top, v_wide), (ref_delta, abs(v_wide - v_top) / v_top, tail), v_wide > v_top


@pytest.mark.parametrize("r, alpha", [(INF, -0.25), (4.0, 0.5)])
def test_diagnostics_read_the_doubled_window(monkeypatch, r, alpha):
    # the power iteration moves the winner to a new point on the bank's rows
    # (the peak band at r = inf, the transit window at r = 4); the value is
    # the higher of its evaluation there and its last pass over those rows
    # doubled (the doubled band, the doubled transit window), refinement_delta
    # and tail_fraction are the last pass's whichever wins, and nothing runs
    # beyond the bank, the iteration and that one pass
    spec = spec_at(2.0, alpha=alpha, r=r, window="global")
    modes = call_modes(spec)
    calls, eval_mixed = [], O._eval_mixed
    monkeypatch.setattr(O, "_eval_mixed", lambda *args: calls.append(args) or eval_mixed(*args))
    res = O.lower_bound_mixed(spec)
    assert len(calls) == res.evaluations + 1
    wide = calls[-1]
    top_c = wide[2]  # the last pass's spectrum is the reported point
    assert np.array_equal(wide[3], _last_times(spec))
    times = next(args[3] for args in calls if args[2] is top_c)
    assert res.ascent_gain > 0
    bank = dict(O._candidate_bank(spec, modes))
    assert not any(top_c is c for c in bank.values())
    assert np.array_equal(times, _band_tables(spec, modes)[0])
    value, diagnostics, wide = _doubled_window_diagnostics(spec, modes, top_c)
    assert wide == (r != INF)
    assert (res.refinement_delta, res.window_delta, res.tail_fraction) == diagnostics
    assert res.value == value / O._l2_of_spectrum(modes, top_c)


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
    with pytest.raises(ValueError):
        O.fit_exponent([(8.0, 1.0), (24.0, 2.0), (72.0, 3.0)])  # integer ratio 3
    with pytest.raises(ValueError):
        O.fit_exponent([(8.0, 1.0), (16.0, 2.0), (16.0, 3.0)])  # repeated scale
    # in any order, each a power-of-two multiple of the one before
    assert O.fit_exponent([(32.0, 4.0), (8.0, 1.0), (16.0, 2.0)]).slope == pytest.approx(1.0)
    assert O.fit_exponent([(2.0, 1.0), (8.0, 4.0), (16.0, 8.0)]).slope == pytest.approx(1.0)


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
    # <xi>^alpha at |xi| = 2 is 5^(alpha/2): within [1e-30, 1e30] up to |alpha| = 85.8
    for alpha in (85.0, -85.0):
        O.SmoothingOperatorSpec(sym=SYM, alpha=alpha, R=8.0)
    for alpha in (86.0, -86.0, 1e300, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            O.SmoothingOperatorSpec(sym=SYM, alpha=alpha, R=8.0)
