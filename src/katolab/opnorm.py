"""Operator norms of the localized smoothing map and the exponent calculus.

The operator under study sends initial data with spectrum on the sector to
the weighted evolution restricted to a ball in space and a window in time:

    A f = [sector evolution of f, weighted by (1+|xi|^2)^(alpha/2)]
          restricted to B_R x window.

For q = r = 2 the squared norm is a quadratic form whose kernel factors
into closed-form window integrals,

    H[k',k] = d_k' d_k * X(xi_k - xi_k') * T(Phi_k - Phi_k'),

with X the spatial ball integral (a sinc), T(omega) = e^{i t0 omega}
T_r(omega) the time-window integral (T_r a real sinc, t0 the window's
centre) and d the weighted bump amplitude, over nodes uniform in p = Phi(xi)
(mode_grid) whose period 2 pi / dp in time spans the window and the slowest
transit of the ball, so the periodic representation never recirculates mass
through the ball. So H = D* H_r D, D = diag(e^{i t0 p_k}), and every route
runs on the real symmetric H_r, of the same spectrum. The norm is its top
eigenvalue, found by one seeded real Lanczos run, fully reorthogonalised,
and cross-checked by a dense eigensolve at small scale. Its top Ritz value
is a Rayleigh quotient, so a lower bound, reported with its residual
||H_r v - theta v|| / theta. On the p-grid T_r is Toeplitz, so a symbol
c xi^m of integer degree takes a structured apply at every scale
(_FastKernel: 2m FFTs of size N >= 2M - 1 over M nodes), any other degree
the explicit matrix, up to DENSE_MODES.

Mixed norms are L^q_x L^r_t (norms). The cases (q, r) != (2, 2), the
maximal r = inf included, are handled by lower_bound_mixed: a bank of five
chirps focusing at the window's centre, the winner refined by the power
method c <- dF/d conj(c) for the numerator F(c) = ||A c|| of the quotient.
F is convex and 1-homogeneous, a norm of c on fixed time samples, so no
iterate lowers the quotient (Boyd 1974, Higham 1992). One function
(_transit_times) decides where a call samples time: one grid covers the
transit window of the sector around that focus, doubled, over a p-grid
spanning only that doubled window, and the bank and the iteration run on
rows of that grid: at finite r the transit window, at r = inf its band
within the transit time (R + 1/width)/v_min of the focus, where every peak
lies. The best point is evaluated once more on the rows doubled about
their centre: at finite r the whole doubled grid, at r = inf the doubled
band. Every diagnostic comes from that evaluation, and the reported value
is the higher of it and the value on the rows. Those values are lower
bounds by construction and are reported as such.

Their cost is the evolution slab u(t_s, x_b) = sum_k a_k e^{i t_s p_k}
e^{i x_b xi_k} over S time samples, M modes and the nx cells of the ball
grid. The times are uniform, t_s = t_0 + s dt, and so are the p-nodes,
p_k = p_0 + k dp, so for each cell the sum over k is one chirp-z transform
(_chirp_z; Rabiner, Schafer & Rader 1969, Bluestein 1970): two FFTs of
size about S + M instead of S M exponentials, for every r, the sup over all
S samples at r = inf. The gradient is its adjoint, a chirp-z transform from
the times back to the p-nodes. A call builds the ball grid and the M x nx
spatial factor e^{i x_b xi_k} once (_tables); an evaluation on any window
of the times reads the rows of its live modes. Transforms go in chunks of
cells that fill one IDFT_STACK_BYTES buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import symbols as sym_mod
from .core import IDFT_STACK_BYTES, SECTOR_INNER, SECTOR_OUTER, Grid, SpacetimeField
from .norms import INF, MixedNormSpec, _reduce, _reduce_grad, mixed_norm
from .propagator import sector_bump
from .symbols import SymbolSpec

TWO_PI = 2.0 * math.pi

# Nodes are uniform in p = Phi(xi) at dp = 2 pi / (SPAN_FACTOR (span +
# (4 R + L2_PAD) / v_min)), v_min = |Phi'(1/2)| the slowest speed and span
# the time the caller covers: e^{i t p} repeats after 2 pi / dp, and the span
# and the slowest transit of the ball must fit in that period, with the
# margin SPAN_FACTOR: at 8 times it the L2 norms move by at most 3e-5, at
# twice it the refined lower bounds by at most 1e-7 relative. L2_PAD is for
# the bump's ramps, a fixed width in p whatever R: without it the L2 norm at
# R = 2 reads 2.6e-3 high. The explicit M x M kernel, for non-integer m and
# the cross-check, takes at most DENSE_MODES nodes.
SPAN_FACTOR = 2.5
GLOBAL_T_FACTOR = 8.0
L2_PAD = 32.0
DENSE_MODES = 6000

# L2 norms: Lanczos stops once the top Ritz pair's residual is at most
# LANCZOS_TOL times its Ritz value, or after LANCZOS_STEPS kernel applies.
# A tighter tolerance costs far more steps where the top of the spectrum is
# clustered (R = 64 needs about 280 for 1e-4).
LANCZOS_TOL = 1e-3
LANCZOS_STEPS = 200

# Mixed-norm lower bounds: the cap on the power iterations (the default of
# the experiment configs' ascent_steps x restarts), far enough that the
# battery's refined calls stop on the rise (criterion 09 R = 32 takes 49),
# the relative rise at which they stop, and the largest transit-window
# samples x ball cells x modes cost of a call whose bank winner they refine
# (the transit window even at r = inf, where the rows are its peak band).
POWER_ITERATIONS = 96
POWER_RISE_TOL = 1e-12
ASCENT_BUDGET = 4e8

# Time step of a band-limited finite-r evaluation, as a share of the step
# 2 pi / ((r/2) Omega) at which the rectangle rule stops being exact for its
# integrand (_transit_times): at 1/2 the half-rate grid of refinement_delta
# sits at that limit.
BAND_STEP = 0.5


@dataclass(frozen=True)
class SmoothingOperatorSpec:
    sym: SymbolSpec
    alpha: float
    R: float
    q: float = 2.0
    r: float = 2.0
    window: str = "local"  # 'local' -> [R^m/2, 2R^m]; 'global' -> [-T, T]

    def __post_init__(self):
        if self.q < 1 or self.r < 1:
            raise ValueError("exponents must lie in [1, inf]")
        if self.window not in ("local", "global"):
            raise ValueError(f"window must be 'local' or 'global', got {self.window!r}")
        if self.R < 1:
            raise ValueError("scale R must be >= 1")
        if self.sym.n != 1:
            raise ValueError(f"operator norms are one-dimensional, got n = {self.sym.n}")
        check_alpha(self.alpha)

    def time_window(self) -> tuple:
        if self.window == "local":
            return (self.R**self.sym.m / 2.0, 2.0 * self.R**self.sym.m)
        T = GLOBAL_T_FACTOR * self.R**self.sym.m
        return (-T, T)


@dataclass(frozen=True)
class ModeGrid:
    """Frequency nodes covering the sector bump's support, uniform in
    p = Phi(xi) with step dp."""

    xi: np.ndarray
    dp: float
    amp: np.ndarray  # <xi>^alpha * bump(xi) / sqrt|Phi'(xi)| at the nodes
    phi_vals: np.ndarray  # symbol values p at the nodes


def _slowest_speed(spec: SmoothingOperatorSpec) -> float:
    """|Phi'(1/2)|: in one dimension |Phi'| grows with |xi| on the sector."""
    return abs(float(sym_mod.gradient(spec.sym, [SECTOR_INNER])[0]))


def mode_grid(spec: SmoothingOperatorSpec, span: float) -> ModeGrid:
    """The nodes of a caller covering `span` in time, increasing in p. On
    xi > 0 a one-dimensional symbol is c xi^m, c = Phi(1), so
    xi = (p/c)^(1/m); amp takes the square root of the weight dp / |Phi'|
    of each node."""
    m, c = spec.sym.m, float(sym_mod.value(spec.sym, [1.0]))
    dp = TWO_PI / (SPAN_FACTOR * (span + (4.0 * spec.R + L2_PAD) / _slowest_speed(spec)))
    lo, hi = sorted((c * SECTOR_INNER**m, c * SECTOR_OUTER**m))
    p = (np.arange(math.floor(lo / dp), math.ceil(hi / dp) + 1) + 0.5) * dp
    xi = np.abs(p / c) ** (1.0 / m)
    w = sector_bump([xi])
    live = w > 1e-14
    xi, p, w = xi[live], p[live], w[live]
    speed = np.abs(sym_mod.gradient(spec.sym, [xi])[0])
    return ModeGrid(xi=xi, dp=dp, amp=(1.0 + xi**2) ** (spec.alpha / 2.0) * w / np.sqrt(speed),
                    phi_vals=p)


def check_l2_scale(spec: SmoothingOperatorSpec, dense: bool = False) -> None:
    """Raise ValueError if the L2 norm of spec, or with dense its dense
    cross-check, would run the explicit kernel on more than DENSE_MODES nodes."""
    a, b = spec.time_window()
    M = len(mode_grid(spec, b - a).xi) if dense or not float(spec.sym.m).is_integer() else 0
    if M > DENSE_MODES:
        raise ValueError(f"R = {spec.R:g} needs {M} L2 nodes, over the explicit kernel's "
                         f"{DENSE_MODES} (non-integer m, cross-check)")


def _window_integral(spec: SmoothingOperatorSpec, omega: np.ndarray) -> np.ndarray:
    """T_r(omega) = e^{-i t0 omega} T(omega): a real even sinc, stable through 0."""
    a, b = spec.time_window()
    return (b - a) * np.sinc((b - a) * omega / TWO_PI)


def dense_operator_matrix(spec: SmoothingOperatorSpec, modes: ModeGrid) -> np.ndarray:
    """Explicit real symmetric kernel H_r, O(M^2) memory, for small scales; the
    ball and window integrals X and T_r as sincs, stable through delta, omega = 0.
    Built in blocks of 256 rows, so H_r is its only M x M array."""
    M = len(modes.xi)
    if M > DENSE_MODES:
        raise ValueError(f"dense kernel with M={M} modes would be too large")
    d, H = modes.amp, np.empty((M, M))
    for start in range(0, M, 256):
        rows = slice(start, start + 256)
        delta = modes.xi[None, :] - modes.xi[rows, None]
        omega = modes.phi_vals[None, :] - modes.phi_vals[rows, None]
        X = 2.0 * spec.R * np.sinc(spec.R * delta / math.pi)
        H[rows] = (d[rows, None] * d[None, :]) * X * _window_integral(spec, omega)
    return H


def _fft_size(n: int) -> int:
    """Smallest 2^a 3^b >= n: numpy's FFT is fast on these, slow on large primes."""
    best, p3 = 2 * n, 1
    while p3 < 2 * n:
        best = min(best, p3 << (-(-n // p3) - 1).bit_length())
        p3 *= 3
    return best


class _FastKernel:
    """Structured apply of the real kernel H_r to real vectors on the p-grid
    for Phi = c xi^m, m an integer. With delta = xi_k - xi_k', omega = p_k - p_k'
    and 1/delta = c sum_{j<m} xi_k^j xi_k'^(m-1-j) / omega, off the diagonal

        X(delta) T_r(omega) = sum_{s=+-1, j<m} (s c / i) e^{-i s R xi_k'} xi_k'^(m-1-j)
                              K_r(omega) e^{i s R xi_k} xi_k^j,

    K_r = T_r / omega = 2 sin((b - a) omega / 2) / omega^2, and on it X T_r = 2 R (b - a).
    K_r is real, so on a real vector the s = -1 terms are the conjugates of the
    s = +1 terms. K_r is Toeplitz, the nodes being uniform in p: circulant
    embedding of size N >= 2M - 1 (_fft_size) correlates without wrap-around
    into the output slice [M-1, 2M-1), so 2 Re of the m terms takes 2m FFTs.
    """

    def __init__(self, spec: SmoothingOperatorSpec, modes: ModeGrid):
        a, b = spec.time_window()
        xi, d, M = modes.xi, modes.amp, len(modes.xi)
        self.M, self.N = M, _fft_size(2 * M - 1)
        # K reversed over its lags: out[i] = sum_k K(p_k - p_i) g[k] lands at M-1+i
        lags = np.arange(M - 1, -M, -1) * modes.dp
        self.ft = np.fft.fft(_window_integral(spec, lags) / np.where(lags != 0, lags, np.inf),
                             self.N)
        self.diag = d**2 * (2.0 * spec.R) * (b - a)
        m, c = int(spec.sym.m), float(sym_mod.value(spec.sym, [1.0]))
        col = d * np.exp(1j * spec.R * xi)  # the (column, row) factors of the m terms
        self.mods = [(col * xi**j, (2.0 * c / 1j) * np.conj(col) * xi**(m - 1 - j))
                     for j in range(m)]

    def apply(self, c: np.ndarray) -> np.ndarray:
        rows = slice(self.M - 1, 2 * self.M - 1)
        out = self.diag * c
        for col, row in self.mods:
            out += (row * np.fft.ifft(np.fft.fft(col * c, self.N) * self.ft)[rows]).real
        return out


@dataclass
class OperatorNormResult:
    """value is sqrt(2 pi dp theta) for the top Ritz value theta of H_r, a
    lower bound; residual is ||H_r v - theta v|| / theta for its Ritz vector v."""

    value: float
    iterations: int
    residual: float
    mode_count: int
    method: str


def _lanczos(apply_fn, M: int, seed: int) -> tuple:
    """(theta, steps, residual / theta) of the top Ritz pair of a symmetric H
    on R^M, from one seeded normal start, fully reorthogonalised.

    After k steps (one apply each) the orthonormal rows v_1..v_k of V and
    the tridiagonal T = V H V^T satisfy
    H V^T = V^T T + beta_k v_{k+1} e_k^T, so the top eigenpair (theta, y)
    of T gives the Ritz vector V^T y with residual beta_k |y_k|, read
    without an apply. The run stops once that is at most
    LANCZOS_TOL * |theta|, when the basis spans R^M, or after LANCZOS_STEPS.
    V grows by doubling, so it holds about the steps taken and is copied a
    logarithmic number of times.
    """
    rng = np.random.default_rng(seed)
    V = np.empty((min(16, M), M))
    v = rng.standard_normal(M)
    V[0] = v / np.linalg.norm(v)
    alpha, beta = [], []
    for k in range(1, min(LANCZOS_STEPS, M) + 1):
        w = apply_fn(V[k - 1])
        alpha.append(float(V[k - 1] @ w))
        # two classical Gram-Schmidt passes against the whole basis
        for _ in range(2):
            w -= (V[:k] @ w) @ V[:k]
        beta.append(float(np.linalg.norm(w)))
        T = np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1)
        theta, Y = np.linalg.eigh(T)
        theta, residual = float(theta[-1]), beta[-1] * float(abs(Y[-1, -1]))
        if residual <= LANCZOS_TOL * abs(theta) or k == M:
            break
        if k == len(V):
            grown = np.empty((min(2 * k, M), M))
            grown[:k] = V
            V = grown
        V[k] = w / beta[-1]
    return theta, k, residual / abs(theta) if theta else 0.0


def operator_norm_l2(spec: SmoothingOperatorSpec, seed: int = 0) -> OperatorNormResult:
    """Norm of the ball/window-localized weighted evolution on L^2 data.

    One seeded Lanczos run (_lanczos) on the real kernel H_r over the p-grid
    (mode_grid), reporting its residual. A symbol of integer degree
    takes the structured apply ('lanczos-fast'), any other the explicit
    matrix ('lanczos-dense', at most DENSE_MODES nodes).
    """
    if spec.q != 2 or spec.r != 2:
        raise ValueError("operator_norm_l2 requires q = r = 2")
    a, b = spec.time_window()
    modes = mode_grid(spec, b - a)
    if float(spec.sym.m).is_integer():
        apply_fn, how = _FastKernel(spec, modes).apply, "lanczos-fast"
    else:
        H = dense_operator_matrix(spec, modes)
        apply_fn, how = (lambda v: H @ v), "lanczos-dense"
    theta, steps, residual = _lanczos(apply_fn, len(modes.xi), seed)
    value = math.sqrt(max(TWO_PI * modes.dp * theta, 0.0))
    return OperatorNormResult(value=value, iterations=steps, residual=residual,
                              mode_count=len(modes.xi), method=how)


def operator_norm_dense_eig(spec: SmoothingOperatorSpec) -> float:
    """Cross-check route: top eigenvalue of the explicit kernel."""
    a, b = spec.time_window()
    modes = mode_grid(spec, b - a)
    lam = float(np.linalg.eigvalsh(dense_operator_matrix(spec, modes))[-1])
    return math.sqrt(max(TWO_PI * modes.dp * lam, 0.0))


# ---------------------------------------------------------------------------
# Mixed-norm lower bounds
# ---------------------------------------------------------------------------


@dataclass
class LowerBoundResult:
    value: float
    candidate: str
    ascent_gain: float
    refinement_delta: float
    window_delta: float
    tail_fraction: float
    evaluations: int


def _candidate_bank(spec: SmoothingOperatorSpec, modes: ModeGrid) -> list:
    """Trial spectra, chirps focusing at the window's centre: Gaussian
    profiles of width R^{-1/2} and 2 R^{-1/2} at 0.9 and 1.3, cut at three
    widths, and a broadband one; each is data f^ over sqrt|Phi'|, the
    spectrum of f^ on p-nodes (mode_grid's amp)."""
    xi = modes.xi
    speed = np.abs(sym_mod.gradient(spec.sym, [xi])[0])
    chirp = np.exp(-1j * _focus_time(spec) * modes.phi_vals) / np.sqrt(speed)
    bank = []
    root = 1.0 / math.sqrt(spec.R)
    for width, tag in ((root, "chirp-root"), (2.0 * root, "chirp-wide")):
        for center in (0.9, 1.3):
            prof = np.exp(-0.5 * ((xi - center) / (0.5 * width)) ** 2)
            prof = np.where(np.abs(xi - center) < 3 * width, prof, 0.0)
            bank.append((f"{tag}@{center}", chirp * prof))
    bank.append(("chirp-broad", chirp * np.exp(-0.5 * ((xi - 1.2) / 0.35) ** 2)))
    return bank


def _focus_time(spec: SmoothingOperatorSpec) -> float:
    """Where the bank's chirps focus: the window's centre (0 on global)."""
    a, b = spec.time_window()
    return (a + b) / 2.0


def _transit_times(spec: SmoothingOperatorSpec) -> tuple:
    """(times, rows, transit): the doubled transit window, the slice of it
    that the bank and the power iteration read, and the transit window, the
    samples of every mode's passage through the ball, as a slice of it.

    A mode chirped to focus at the window's focus t0 transits the ball
    within t0 +- margin = 3.5 (ball + envelope width)/speed, clipped to the
    window, width and speed the sector's (the slowest). Where the time
    integrand is band-limited, it is sampled at BAND_STEP of the step below
    which the rectangle rule is exact for it: u(t, x) = sum_k a_k
    e^{i t phi_k} e^{i x xi_k}, so |u|^r for even r is a trigonometric sum
    in t with frequencies inside +-(r/2) Omega, Omega = ptp(Phi) on the
    sector, and the rule integrates it exactly at steps below
    2 pi / ((r/2) Omega), apart from the window ends (Poisson summation).
    Every other integrand, r = inf included, is sampled on the envelope
    timescale, an eighth of the transit of the focused width at the slowest
    speed.
    times extends the window, at its step and by whole groups of 8 samples,
    towards t0 +- 2 margin, clipped to the window. The samples depend on
    the operator alone, so they size its mode grid, and every spectrum of
    one call shares them.
    At finite r the time integral spreads over every transit row, so rows
    is the transit window. At r = inf only the sup in time is left, and
    every peak of |u| lies in the transit rows within (R + 1/width)/v_min
    of t0, v_min that slowest speed: a spectrum focused at (t0, 0) crosses
    B_R within that time of t0, the transit-time bound behind the maximal
    estimates (Kenig, Ponce & Vega, Indiana Univ. Math. J. 40, 1991). So
    rows is that peak band.
    """
    a, b = spec.time_window()
    t0 = _focus_time(spec)
    width = SECTOR_OUTER - SECTOR_INNER
    v_min = _slowest_speed(spec)
    # a packet of bandwidth `width` focused at t0 re-disperses linearly in
    # |t - t0|; solving transit-overlap with that growth gives the 3.5x factor
    margin = 3.5 * (2.0 * spec.R + 1.0 / width) / v_min
    lo, hi = max(a, t0 - margin), min(b, t0 + margin)
    if spec.r % 2 == 0:  # nan at r = inf
        omega = float(np.ptp(sym_mod.value(spec.sym, [[SECTOR_INNER, SECTOR_OUTER]])))
        dt = BAND_STEP * TWO_PI / (spec.r / 2.0 * omega)
    else:
        dt = (1.0 / width) / v_min / 8.0
    steps = max(int(math.ceil((hi - lo) / dt)), 8)
    # whole groups of 8 samples: the grid every recorded value (the
    # battery's reports, the golden values) was taken on
    group = 8 * (hi - lo) / steps
    before, after = (8 * int(gap // group) for gap in
                     (lo - max(a, t0 - 2.0 * margin), min(b, t0 + 2.0 * margin) - hi))
    s = np.arange(-before, steps + after)
    times = lo + (s + 0.5) * (hi - lo) / steps
    transit = rows = slice(before, before + steps)
    if spec.r == INF:
        reach = (spec.R + 1.0 / width) / v_min
        band = times[transit]
        rows = slice(before + int(np.searchsorted(band, t0 - reach)),
                     before + int(np.searchsorted(band, t0 + reach, side="right")))
    return times, rows, transit


def _tables(spec: SmoothingOperatorSpec, modes: ModeGrid) -> tuple:
    """(gx, space): the ball grid, fine enough for the carrier (|xi| <= 2.2)
    and the envelope, and the spatial factor space[k, b] = e^{i xi_k x_b}.
    One pair serves every evaluation and gradient of a call."""
    nx = max(int(math.ceil(2 * spec.R / 0.7)), 32)
    nx += nx % 2
    gx = Grid(1, nx, 2 * spec.R)
    return gx, np.exp(1j * np.outer(modes.xi, gx.x_axis()))


def _chirp_z(x: np.ndarray, w, a: np.ndarray, b: np.ndarray):
    """Yield (rows, y) over chunks of the rows of x, with
    y[i, j] = sum_k x[rows][i, k] w_k e^{i a_k b_j} for uniform nodes a, b;
    y is a view of the chunk's buffer, valid until the next chunk.

    Bluestein's chirp-z transform (Rabiner, Schafer & Rader 1969; Bluestein
    1970). About the middle nodes, k = ka + kappa and j = jb + sigma, with
    beta the product of the two steps,
    a_k b_j = (a_k - a_ka) b_jb + a_ka b_j + beta kappa sigma, and
    kappa sigma = (kappa^2 + sigma^2 - (sigma - kappa)^2) / 2. So each row is
    one convolution with the chirp e^{-i beta n^2 / 2}, two FFTs of a size
    L >= len(a) + len(b) - 1 (_fft_size) in place of len(a) len(b)
    exponentials. Each step is (last - first) / (count - 1): the difference
    of the first two nodes would carry their rounding into every step.
    Centring the indices keeps the chirps' phases, and so their rounding,
    at a quarter of what they are from the first nodes. The rows go in
    chunks that fill one IDFT_STACK_BYTES buffer, transformed in place.
    """
    m, n = len(a), len(b)
    ka, jb = m // 2, n // 2
    beta = (a[-1] - a[0]) / max(m - 1, 1) * (b[-1] - b[0]) / max(n - 1, 1)
    L = _fft_size(m + n - 1)
    # sigma - kappa at each circular lag j - k of the convolution
    lag = np.arange(L)
    lag = np.where(lag < n, lag, lag - L) - (jb - ka)
    kernel = np.fft.fft(np.exp(-0.5j * beta * lag**2))
    pre = w * np.exp(1j * ((a - a[ka]) * b[jb] + 0.5 * beta * (np.arange(m) - ka) ** 2))
    post = np.exp(1j * (a[ka] * b + 0.5 * beta * (np.arange(n) - jb) ** 2))
    step = max(1, IDFT_STACK_BYTES // (16 * L))
    buf = np.empty((min(step, len(x)), L), dtype=np.complex128)
    for start in range(0, len(x), step):
        rows = slice(start, min(start + step, len(x)))
        part = buf[:rows.stop - start]
        np.multiply(x[rows], pre, out=part[:, :m])
        part[:, m:] = 0.0
        np.fft.fft(part, out=part)
        part *= kernel
        np.fft.ifft(part, out=part)
        y = part[:, :n]
        y *= post
        yield rows, y


def _slab_chunks(modes: ModeGrid, c: np.ndarray, times: np.ndarray, tables: tuple):
    """Yield (cells, block) over chunks of the cells of the ball grid,
    block[s, i] = u(times[s], x_cells[i]) for the weighted sector evolution
    u(t, x) = sum_k a_k e^{i t phi_k} e^{i x xi_k}, a = amp c dp, of spectrum c.

    The sum runs over the span of the live modes (those of |a| above
    1e-14 of its largest), a dead mode inside it weighted 0, so the
    p-nodes stay uniform; for each cell it is one chirp-z transform from
    the p-nodes to the uniform times (_chirp_z), on the rows of the
    spatial factor of tables = _tables(spec, modes).
    """
    amp = modes.amp * c * modes.dp
    live = np.abs(amp) > 1e-14 * np.max(np.abs(amp))
    k = np.flatnonzero(live)
    span = slice(k[0], k[-1] + 1)
    space = tables[1][span]
    for cells, y in _chirp_z(space.T, np.where(live, amp, 0.0)[span],
                             modes.phi_vals[span], times):
        yield cells, y.T


def _eval_mixed(spec: SmoothingOperatorSpec, modes: ModeGrid, c: np.ndarray,
                times: np.ndarray, tables: tuple) -> tuple:
    """(mixed norm, u) of the weighted sector evolution of spectrum c over
    uniform times (ValueError from SpacetimeField otherwise): u the
    SpacetimeField of its slab on the ball grid (_slab_chunks,
    tables = _tables(spec, modes)), the value its L^q_x L^r_t norm
    (norms.mixed_norm), the sup at r = inf."""
    gx = tables[0]
    slab = np.empty((len(times), gx.N), dtype=np.complex128)
    for cells, block in _slab_chunks(modes, c, times, tables):
        slab[:, cells] = block
    u = SpacetimeField(gx, times, slab)
    return mixed_norm(u, MixedNormSpec(q=spec.q, r=spec.r)), u


def _l2_of_spectrum(modes: ModeGrid, c: np.ndarray) -> float:
    return math.sqrt(modes.dp / TWO_PI * float(np.sum(np.abs(c) ** 2)))


def _quotient_gradient(spec: SmoothingOperatorSpec, modes: ModeGrid, val: float,
                       u: SpacetimeField, tables: tuple) -> np.ndarray:
    """dF/d conj(c) of the numerator F(c) = ||A c||, the mixed norm of the
    evolution of spectrum c (a subgradient where a sup has several maxima).

    (val, u) is what _eval_mixed returned for c on tables. With
    W = d val / d conj(u), the chain rule back to the spectrum is
    g_k = amp_k sum_b e^{-i x_b xi_k} sum_s e^{-i t_s phi_k} W[s, b]: W is
    the chain rule through the norm's two reductions, over t and then over
    x (norms._reduce_grad, a sup taking its first maximum, so at r = inf W
    lives on each cell's peak sample), and the sum over s is the adjoint of
    the slab's transform, the conjugate of a chirp-z transform from the
    times to the p-nodes of conj(W) (_chirp_z). F is 1-homogeneous, so g
    does not change when c is scaled by a positive factor.
    """
    space = tables[1]
    slab = u.slices
    absu = np.abs(slab)
    # mixed_norm's weights, dt (the slab has more than one sample) and dx
    inner = _reduce(absu, spec.r, u.dt)
    W = (0.5 * _reduce_grad(inner, spec.q, u.grid.dx, val)
         * _reduce_grad(absu, spec.r, u.dt, inner) * slab / np.where(absu > 0, absu, 1.0))
    # conj(g_k / amp_k) = sum_b e^{i x_b xi_k} sum_s e^{i t_s phi_k} conj(W[s, b])
    gc = np.zeros(len(modes.xi), dtype=np.complex128)
    for cells, z in _chirp_z(np.conj(W).T, 1.0, u.times, modes.phi_vals):
        gc += np.sum(space[:, cells] * z.T, axis=1)
    return modes.amp * modes.dp * np.conj(gc)


def lower_bound_mixed(spec: SmoothingOperatorSpec,
                      iterations: int = POWER_ITERATIONS) -> LowerBoundResult:
    """Lower bound for the mixed-norm operator quotient, (q, r) != (2, 2).

    Maximum over the candidate bank, refined by the power method
    c <- dF/d conj(c) (_quotient_gradient) from the bank winner. The result
    is a LOWER bound only; stagnation is recorded, never raised.
    `candidate` names the bank winner, refined only when the call's cost
    (transit-window samples x ball cells x modes) is within ASCENT_BUDGET.
    The refinement runs at most `iterations` iterations, one evaluation and
    one gradient each, and stops early once an iterate rises by at most
    POWER_RISE_TOL relative (or falls, which rounding alone allows); the
    best iterate is kept. One call builds one ball grid and spatial factor
    (_tables) over a mode grid spanning the doubled transit window, and the
    bank and every iteration evaluate on its rows, both from _transit_times:
    the transit window at finite r, its peak band at r = inf. The best point
    is evaluated once more on the rows doubled about their centre (all of
    the doubled window at finite r, the focus being its centre; the doubled
    band at r = inf, the guard that no peak lies just outside the band), and
    the higher of the two values is reported.
    Every diagnostic reads that last evaluation, so none depends on which
    value wins by rounding: refinement_delta (the value with every second
    time sample dropped), tail_fraction (the share of sum_x |u|^2 in the
    last tenth of its samples) and window_delta, its relative difference
    from the value on the rows (rounding when they already span the doubled
    window; at finite r, at one step, the doubled window can only raise the
    value).
    """
    wide, rows, transit = _transit_times(spec)
    modes = mode_grid(spec, wide[-1] - wide[0])
    tables = _tables(spec, modes)
    times = wide[rows]
    evals, best_val = 0, 0.0
    for name, c in _candidate_bank(spec, modes):
        raw, u = _eval_mixed(spec, modes, c, times, tables)
        val = raw / _l2_of_spectrum(modes, c)
        evals += 1
        if val > best_val:
            best_val, best_name, best = val, name, (c, raw, u)

    # power iteration from the winner, when it is cheap enough to
    # differentiate repeatedly: for a convex, 1-homogeneous F the
    # subgradient inequality F(x) >= 2 Re<g, x>, with equality at x = c,
    # gives F(g) / |g| >= 2 |g| >= F(c) / |c|
    affordable = (transit.stop - transit.start) * tables[0].N * len(modes.xi) <= ASCENT_BUDGET
    top_val, top = best_val, best
    c, raw, u = best
    for _ in range(iterations if affordable else 0):
        c = _quotient_gradient(spec, modes, raw, u, tables)
        raw, u = _eval_mixed(spec, modes, c, times, tables)
        val = raw / _l2_of_spectrum(modes, c)
        evals += 1
        rise = val - top_val
        if rise > 0:
            top_val, top = val, (c, raw, u)
        if rise <= POWER_RISE_TOL * val:
            break

    top_c, v_top, _ = top
    n = rows.stop - rows.start
    v_wide, u = _eval_mixed(spec, modes, top_c,
                            wide[max(0, rows.start - n // 2):rows.stop + n // 2], tables)
    absu = np.abs(u.slices)
    half = float(_reduce(_reduce(absu[::2], spec.r, u.times[2] - u.times[0]),
                         spec.q, u.grid.dx))
    per_t = np.sum(np.square(absu, out=absu), axis=1)
    window_delta = abs(v_wide - v_top) / max(v_top, 1e-300)
    ref_delta = abs(v_wide - half) / max(v_wide, 1e-300)
    # share of the time-profile mass in the last tenth of the window
    k = max(1, len(per_t) // 10)
    tail_fraction = float(np.sum(per_t[-k:]) / max(np.sum(per_t), 1e-300))
    nf = _l2_of_spectrum(modes, top_c)
    return LowerBoundResult(value=max(v_top, v_wide) / nf, candidate=best_name,
                            ascent_gain=(top_val - best_val) / max(best_val, 1e-300),
                            refinement_delta=ref_delta, window_delta=window_delta,
                            tail_fraction=tail_fraction, evaluations=evals)


# ---------------------------------------------------------------------------
# Exponent calculus and power-law fitting
# ---------------------------------------------------------------------------


def predicted_exponent(n: int, m: float, q: float, r: float, alpha: float) -> float:
    """-alpha + n/q + m/r - n/2, the growth in R the estimate at regularity
    alpha affords for frequency-R data on the unit ball (parabolic scaling).
    The measured norms' data stay on a fixed sector, where alpha moves no
    slope, so a residual grows with alpha because this falls."""
    inv_q = 0.0 if q == INF else 1.0 / q
    inv_r = 0.0 if r == INF else 1.0 / r
    return -alpha + n * inv_q + m * inv_r - n / 2.0


def transfer_exponent(n: int, r: float, r_tilde: float, alpha: float) -> tuple:
    """Regularity cost of passing from a bounded window to the whole line.

    Returns (delta_inf, alpha_global_sup): any delta > delta_inf is
    admissible, so every global regularity below alpha - delta_inf holds.
    """
    if not r_tilde > r:
        raise ValueError(f"need r_tilde > r, got {r_tilde} <= {r}")
    if r < 2:
        raise ValueError("transfer requires r >= 2")
    inv_r = 0.0 if r == INF else 1.0 / r
    inv_rt = 0.0 if r_tilde == INF else 1.0 / r_tilde
    delta_inf = n * (inv_r - inv_rt)
    return delta_inf, alpha - delta_inf


@dataclass(frozen=True)
class ScalingFit:
    R_values: tuple
    norms: tuple
    slope: float
    intercept: float
    stderr: float
    predicted: float | None = None

    @property
    def residual_slope(self) -> float | None:
        return None if self.predicted is None else self.slope - self.predicted


def check_alpha(alpha: float) -> None:
    """Raise ValueError unless the weight <xi>^alpha = (1 + xi^2)^(alpha/2) stays
    in [1e-30, 1e30] on the sector |xi| <= SECTOR_OUTER. The L2 form is
    quadratic in the weight and Lanczos squares its output: far inside floats."""
    if not abs(alpha) / 2 * math.log(1 + SECTOR_OUTER**2) <= math.log(1e30):
        raise ValueError(f"<xi>^alpha leaves [1e-30, 1e30] on the sector, got {alpha}")


def check_fit_scales(R_values) -> None:
    """Raise ValueError unless fit_exponent takes these scales: at least 3,
    and in increasing order each a power-of-two multiple (2, 4, 8, ...) of
    the one before, its log2 ratio a positive integer."""
    Rs = np.sort(np.asarray(R_values, dtype=float))
    k = np.log2(Rs[1:] / Rs[:-1])
    if len(Rs) < 3 or np.any(np.round(k) < 1) or np.any(np.abs(k - np.round(k)) > 1e-9):
        raise ValueError("need at least 3 dyadic scales (each the one before times 2, 4, "
                         f"8, ...), got {', '.join(f'{R:g}' for R in Rs)}")


def fit_exponent(samples, predicted: float | None = None) -> ScalingFit:
    """Least squares on (log R, log value) for dyadic R (check_fit_scales)."""
    samples = sorted(samples)
    check_fit_scales([s[0] for s in samples])
    Rs = np.array([s[0] for s in samples], dtype=float)
    vals = np.array([s[1] for s in samples], dtype=float)
    if np.any(vals <= 0):
        raise ValueError("values must be positive for a log-log fit")
    x, y = np.log(Rs), np.log(vals)
    A = np.vstack([x, np.ones_like(x)]).T
    # at least 3 distinct scales: A has full rank, res its one residual sum
    coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    stderr = math.sqrt(float(res[0]) / (len(x) - 2) / float(np.sum((x - x.mean()) ** 2)))
    return ScalingFit(R_values=tuple(Rs), norms=tuple(vals), slope=slope,
                      intercept=intercept, stderr=stderr, predicted=predicted)
