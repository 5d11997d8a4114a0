"""Curie-Weiss measurement model: closed-form truncation dynamics.

A tested spin-1/2 couples to an Ising magnet of N spins through
H_SM = -g s_z (x) sum_n g_n/g sigma_z^(n), and during the truncation window
the magnet stays paramagnetic while the tested spin's off-diagonal sector is
multiplied by the real factor F(t) = prod_n cos(2 g_n t).  Everything here is
closed-form; the dense oracle in qmeas.oracle cross-checks it for small N.

Products of cosines take one of two paths per time point.  Where every angle
x_n = 2 g_n t is small, log F = sum_k a_k sum_n x_n^(2k) is summed to K
terms from power sums of the couplings, computed once per call (O(N K)), so
each such point costs O(K); its k = 1 term is the Gaussian envelope
exp(-(t/tau)^2 (1 + delta^2)).  With x_max = |t| max_n |2 g_n| and
q = (2 x_max / pi)^2, the terms past K add at most
N (pi^2/6) q^(K+1) / ((K+1)(1-q)) to |log F| (from |B_2k| =
2 (2k)! zeta(2k) / (2 pi)^(2k)); the series serves a point only where that
bound is at most _SERIES_TOL.  The cascade's cos part takes the power sums
of all couplings minus those of its subset.  At a recurrence peak
t_nu = nu pi/(2g) the same series runs over the deviations 2 (g_n - g),
whose angles stay small.  Only the points past the radius (wide grids at
small N, recurrences of a wide spread) and the cascade's sine factors go to
the log-domain kernel, qmeas.kernels.trig_product.  The coupling table is
the only N-sized array that lives through a call on the series path.

Units: hbar = 1, couplings are energies, times are inverse energies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import ValidationError
from .qstate import SIGMA_X, SIGMA_Y, DensityOperator, Observable, bloch_state, qexpect

# largest N for the analytic (product-form) path; beyond this the per-call
# cost and coupling storage stop being interactive
ANALYTIC_N_MAX = 10**7

# a_k of log cos x = sum_k a_k x^(2k), k = 1..K:
# a_k = (-1)^k 2^(2k-1) (2^(2k)-1) B_2k / (k (2k)!)
_LOGCOS = (-1 / 2, -1 / 12, -1 / 45, -17 / 2520, -31 / 14175, -691 / 935550,
           -10922 / 42567525, -929569 / 10216206000)
_SERIES_K = len(_LOGCOS)
# largest tail bound on |log F| (an absolute error in log F, hence a relative
# error in F) at which a time point takes the series; below rounding
_SERIES_TOL = 1e-16
# couplings per power-sum block: a few cache-resident buffers, not N-sized ones
_POWER_BLOCK = 1 << 16
_GRID_POINTS = 400  # default_time_grid: points on [0, 4 tau]
_WINDOW_POINTS = 121  # and in each recurrence window


@dataclass(frozen=True)
class CurieWeissModel:
    """Frozen model: coupling table plus the tested spin's initial state."""

    N: int
    g: float
    couplings: np.ndarray
    delta_g_rms: float
    seed: int | None
    r0: DensityOperator

    def __post_init__(self):
        if not (math.isfinite(self.g) and self.g > 0.0):
            raise ValidationError("g must be finite and positive")
        c = np.asarray(self.couplings, dtype=np.float64)
        if c.shape != (self.N,):
            raise ValidationError("couplings must have shape (N,)")
        if np.any(c <= 0.0):
            raise ValidationError("all couplings must be positive")
        cmax = float(c.max())
        if not math.isfinite(2.0 * cmax):  # every angle is 2 g_n t
            raise ValidationError("every coupling rate 2 g_n must be finite; lower g")
        # deviation sums by blocks in units of cmax, so no square under- or
        # overflows: no N-sized array, and no BLAS dot (OpenBLAS threads)
        dsum = dsq = 0.0
        for lo in range(0, c.size, _POWER_BLOCK):
            dg = c[lo:lo + _POWER_BLOCK] - self.g
            dg /= cmax
            dsum += float(dg.sum())
            dg *= dg
            dsq += float(dg.sum())
        if abs(dsum / c.size) * cmax > 1e-12 * self.g:
            raise ValidationError("coupling deviations must have zero mean")
        rms = math.sqrt(dsq / c.size) * cmax
        # on the scale of g, as the mean: g + dg_n rounds dg_n by ulp(g) / 2
        if abs(rms - self.delta_g_rms) > 1e-12 * max(abs(self.delta_g_rms), rms, self.g):
            raise ValidationError("delta_g_rms does not match the stored couplings")
        if self.r0.matrix.shape != (2, 2):
            raise ValidationError("r0 must be a 2x2 density operator")
        c.setflags(write=False)
        object.__setattr__(self, "couplings", c)


@dataclass(frozen=True)
class TruncationResult:
    """Transverse expectation series over a time grid."""

    times: np.ndarray
    sx: np.ndarray
    sy: np.ndarray
    tau: float
    sx0: float = field(repr=False, default=0.0)

    def __post_init__(self):
        if self.tau <= 0.0:
            raise ValidationError("tau must be positive")
        t = np.asarray(self.times, dtype=np.float64)
        at_zero = np.flatnonzero(t == 0.0)
        if at_zero.size and abs(abs(self.sx[at_zero[0]]) - abs(self.sx0)) > 1e-12:
            raise ValidationError("sx(0) does not match the initial state")
        for name in ("times", "sx", "sy"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class RecurrenceProfile:
    """Recurrence peaks as read-only columns, one entry per peak: the index
    nu (ints from 1), the time t_nu, the measured |F| and the Gaussian
    damping estimate."""

    nu: np.ndarray
    time: np.ndarray
    measured: np.ndarray
    predicted: np.ndarray

    def __post_init__(self):
        for name in ("nu", "time", "measured", "predicted"):
            getattr(self, name).setflags(write=False)


def build_model(N, g, delta_g_rel=0.0, seed=0, r0=None) -> CurieWeissModel:
    """Draw couplings g_n = g + dg_n with exact zero mean and exact RMS.

    The deviations are Gaussian, recentred and rescaled so the sample mean is
    exactly 0 and the sample RMS exactly delta_g_rel*g; fixed seed gives
    bit-identical couplings.  Draws pushing any g_n below zero are rejected.
    The draw is recentred, scaled and shifted by g in place: the table is
    the only N-sized array that outlives the call.
    """
    N = int(N)
    if N < 1 or N > ANALYTIC_N_MAX:
        raise ValidationError(f"N must be in [1, {ANALYTIC_N_MAX}]")
    g = float(g)
    if not (math.isfinite(g) and g > 0.0):
        raise ValidationError("g must be finite and positive")
    # every grid is in units of tau = 1/(g sqrt(2N)): a g at which it
    # overflows to inf, or to 0 through g sqrt(2N), is refused undrawn
    if not 0.0 < 1.0 / (g * math.sqrt(2.0 * N)) < math.inf:
        raise ValidationError("tau = 1/(g sqrt(2N)) must be finite and positive")
    delta_g_rel = float(delta_g_rel)
    if not 0.0 <= delta_g_rel < 1.0:
        raise ValidationError("delta_g_rel must be in [0, 1)")
    # refused whether or not a draw is made, as sample_runs refuses it
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    if r0 is None:
        r0 = bloch_state((1.0, 0.0, 0.0))
    if delta_g_rel == 0.0:
        c = np.full(N, g)
    else:
        if N == 1:
            raise ValidationError("delta_g_rel > 0 requires N >= 2 (recentring kills a single deviation)")
        c = np.random.default_rng(seed).standard_normal(N)
        c -= c.mean()
        norm = float(np.sqrt(np.mean(c**2)))
        if norm == 0.0:
            raise ValidationError("degenerate coupling draw; use another seed")
        # the same bits as g + draw * (delta_g_rel * g / norm)
        c *= delta_g_rel * g / norm
        c += g
        if np.any(c <= 0.0):
            raise ValidationError("coupling draw produced g_n <= 0; lower delta_g_rel or change seed")
    return CurieWeissModel(
        N=N, g=g, couplings=c, delta_g_rms=delta_g_rel * g, seed=seed, r0=r0
    )


def truncation_time(model: CurieWeissModel) -> float:
    """Dephasing time tau = 1/(g sqrt(2N))."""
    return 1.0 / (model.g * np.sqrt(2.0 * model.N))


def _series_radius(n: int) -> float:
    """Largest x_max at which the K-term series meets _SERIES_TOL for n factors.

    q0 = (tol (K+1) 6 / (pi^2 n))^(1/(K+1)) solves the bound without its
    1/(1-q) factor; q0 (1-q0)^(1/(K+1)) lies below the exact root, where the
    bound is tol (1-q0)/(1-q) <= tol.
    """
    e = 1.0 / (_SERIES_K + 1)
    q0 = (_SERIES_TOL * (_SERIES_K + 1) * 6.0 / (np.pi**2 * n)) ** e
    return 0.5 * np.pi * np.sqrt(q0 * (1.0 - q0) ** e)


def _power_sums(c: np.ndarray, scale: float, shift: float = 0.0) -> np.ndarray:
    """S_k = sum_n ((c_n - shift)/scale)^(2k) for k = 1..K, by cache-sized blocks."""
    s = np.zeros(_SERIES_K)
    # with scale = max|c - shift| every term is at most 1; terms of far
    # smaller couplings may underflow to 0, which changes no sum
    with np.errstate(under="ignore"):
        for lo in range(0, c.size, _POWER_BLOCK):
            r = c[lo:lo + _POWER_BLOCK] - shift
            r /= scale
            r *= r
            p = r.copy()
            for k in range(_SERIES_K):
                s[k] += p.sum()
                p *= r
    return s


def _cos_product(c: np.ndarray, times, shift: float = 0.0, drop=None) -> np.ndarray:
    """prod_n cos(2 (c_n - shift) t) per time, over the n not in ``drop``.

    Inside the series radius log F = sum_k a_k S_k u^k with u = (t x)^2 and
    x = 2 max|c - shift| over all n, which bounds the kept angles.  The
    dropped terms' power sums are subtracted from the full ones and clamped
    at 0, so every term is <= 0, F is in [0, 1], F(0) = 1 exactly and
    F(-t) == F(t) bit for bit.  Past the radius the kernel takes the kept
    coefficients at times 2t (shifted ones doubled, at t, as a late peak's
    2t may overflow), the same angles bit for bit as 2c at t.  The empty
    product, and every product of zero angles, is exactly 1.
    """
    t = np.atleast_1d(np.asarray(times, dtype=np.float64))
    if t.ndim != 1:
        raise ValidationError("times must be scalar or one-dimensional")
    n = c.size - (0 if drop is None else len(drop))
    if n == 0:
        return np.ones(t.size)
    # max|c - shift| from the extremes: c - shift rounds monotonically
    cmax = max(float(c.max()) - shift, shift - float(c.min()))
    if cmax == 0.0:
        return np.ones(t.size)
    near = np.abs(t) <= _series_radius(n) / (2.0 * cmax)
    out = np.empty(t.size)
    if near.any():
        s = _power_sums(c, cmax, shift)
        if drop is not None:
            s = np.maximum(s - _power_sums(c[drop], cmax, shift), 0.0)
        s *= _LOGCOS
        # t^2, the Horner steps and exp underflow harmlessly for tiny t
        # and deep decay: to 0 in u and log F, to a subnormal or 0 in F
        with np.errstate(under="ignore"):
            u = np.square(t[near] * (2.0 * cmax))
            log_f = 0.0
            for sk in s[::-1]:
                log_f = (log_f + sk) * u
            out[near] = np.exp(log_f)
    if not near.all():
        kept = c if drop is None else np.delete(c, drop)
        if shift:
            out[~near] = kernels.trig_product(2.0 * (kept - shift), t[~near])
        else:
            out[~near] = kernels.trig_product(kept, 2.0 * t[~near])
    return out


def offdiag_factor(model: CurieWeissModel, times):
    """F(t) = prod_n cos(2 g_n t).

    Time points within the series radius take the power-sum series for
    log F, to K = 8 terms with a tail bound of at most 1e-16 on |log F|; the
    rest go to the log-magnitude + sign kernel (see the module docstring).
    Scalar in, float out; array in, array out.  The value is exactly real.
    """
    scalar = np.ndim(times) == 0
    out = _cos_product(model.couplings, times)
    return float(out[0]) if scalar else out


def transverse_expectations(model: CurieWeissModel, times) -> TruncationResult:
    """Tested-spin transverse series sx(t) = sx(0) F(t), sy(t) = sy(0) F(t)."""
    t = np.atleast_1d(np.asarray(times, dtype=np.float64))
    if not np.all(np.isfinite(t)):
        raise ValidationError("times must be finite")
    f = offdiag_factor(model, t)
    sx0 = qexpect(model.r0, Observable(SIGMA_X))
    sy0 = qexpect(model.r0, Observable(SIGMA_Y))
    # F near the subnormal range underflows as rounding; + 0.0 makes a zero +0.0
    with np.errstate(under="ignore"):
        sx, sy = sx0 * f + 0.0, sy0 * f + 0.0
    return TruncationResult(times=t, sx=sx, sy=sy, tau=truncation_time(model), sx0=sx0)


def recurrence_profile(model: CurieWeissModel, nu_max: int) -> RecurrenceProfile:
    """Recurrence peaks t_nu = nu*pi/(2g): measured |F| vs exp(-K nu^2).

    K = N (pi * delta_g_rms / g)^2 / 2 is the Gaussian estimate of the damping
    produced by the coupling spread.  Since 2 g_n t_nu = nu pi + 2 (g_n - g) t_nu,
    |F(t_nu)| = prod_n |cos(2 (g_n - g) t_nu)| exactly: the product over the
    small deviation angles, which takes the power-sum series within its
    radius.  With zero spread every peak is exactly 1.
    """
    nu_max = int(nu_max)
    if nu_max < 1:
        raise ValidationError("nu_max must be >= 1")
    K = 0.5 * model.N * (np.pi * model.delta_g_rms / model.g) ** 2
    nu = np.arange(1, nu_max + 1)
    t_peaks = nu * (np.pi / (2.0 * model.g))
    measured = np.abs(_cos_product(model.couplings, t_peaks, shift=model.g))
    predicted = np.exp(-K * nu * nu)
    return RecurrenceProfile(nu, t_peaks, measured, predicted)


def _cascade_coefficients(r0: DensityOperator, k: int) -> tuple[float, float]:
    # 2 Re[i^k r_ud(0)] cycles through (sx0, sy0, -sx0, -sy0) with k mod 4
    r_ud = complex(r0.matrix[0, 1])
    seq = (2.0 * r_ud.real, -2.0 * r_ud.imag, -2.0 * r_ud.real, 2.0 * r_ud.imag)
    return seq[k % 4], seq[(k + 1) % 4]


def cascade_correlation(model: CurieWeissModel, k: int, subset, times):
    """Correlators of s_x and s_y with a product of k magnet sigma_z's.

    Both equal a common envelope prod_{n in K} sin(2 g_n t) * prod_{n not in K}
    cos(2 g_n t) times initial-state coefficients that cycle with k mod 4
    (phase convention fixed against the dense oracle).  The k sin factors go
    to the kernel (O(k) per time point); the cos product over the N - k
    other couplings takes the power sums of all couplings minus those of the
    subset within the series radius, and the kernel past it, as in
    offdiag_factor.  Returns (with_sx, with_sy); scalars for scalar t.
    """
    k = int(k)
    if not 1 <= k <= model.N:
        raise ValidationError("k must be in [1, N]")
    idx = np.asarray(list(subset), dtype=np.int64)
    if idx.size != k:
        raise ValidationError("subset must contain exactly k indices")
    idx.sort()
    if np.any(idx[1:] == idx[:-1]):
        raise ValidationError("subset indices must be distinct")
    if idx.size and (idx[0] < 0 or idx[-1] >= model.N):
        raise ValidationError("subset index out of range")
    scalar = np.ndim(times) == 0
    cosines = _cos_product(model.couplings, times, drop=idx)
    cx, cy = _cascade_coefficients(model.r0, k)
    # tiny t gives subnormal sin factors, and two deep factors (or a deep
    # envelope and a coefficient below 1) may multiply to a subnormal or 0:
    # underflow here is rounding, not an error; + 0.0 makes a zero +0.0
    with np.errstate(under="ignore"):
        sines = kernels.trig_product(2.0 * model.couplings[idx], times,
                                     sin_mask=np.ones(k, dtype=bool))
        env = sines * cosines
        corr_x, corr_y = cx * env + 0.0, cy * env + 0.0
    if scalar:
        return float(corr_x[0]), float(corr_y[0])
    return corr_x, corr_y


def default_time_grid(model: CurieWeissModel, nu_max: int = 0) -> np.ndarray:
    """[0, 4 tau] at _GRID_POINTS points, plus windows t_nu +/- 3 tau of
    _WINDOW_POINTS points each when nu_max >= 1."""
    tau = truncation_time(model)
    pieces = [np.linspace(0.0, 4.0 * tau, _GRID_POINTS)]
    for nu in range(1, int(nu_max) + 1):
        t_nu = nu * np.pi / (2.0 * model.g)
        lo = max(0.0, t_nu - 3.0 * tau)
        pieces.append(np.linspace(lo, t_nu + 3.0 * tau, _WINDOW_POINTS))
    return np.unique(np.concatenate(pieces))
