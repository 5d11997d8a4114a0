"""Brute-force ground truth: the joint spin + magnet state on a time grid.

The joint state is stored per tested-spin sector as magnet-space blocks
W_ij(t) = r_ij(0) * R_ij(t), with R_ij(t) = U_i(t) (I/2^N) U_j(t)^dagger and
U_i generated by K_i = h_i, the magnet field selected by tested sector i.
Ideality fixes this generator: the tested s_z is conserved and the magnet
energy is a function of M_z, so every K_i is diagonal and the evolution is
pure dephasing.  The diagonal blocks W_ii = r_ii I/2^N never move, and the
off-diagonal block is W_01(t) = (r_01/2^N) e^{-it(K_0 - K_1)}: one phase per
basis state and time, with no time-stepping error.

A time grid is evaluated in one tile of at most _TILE complex entries,
refilled at every step with phase rows formed by doubling over the spins,
and F, s_x, s_y, the cascade correlators and the Appendix C invariant
R R^dagger = I/2^(2N) are row sums and matrix-vector products over the tile
(grid_expectations, appendix_c_grid).  A cascade sign factors over the low
and high halves of the bits, so it needs two 2^(N/2) vectors, not a 2^N
one: a pass holds 1.0 complex 2^N vectors, 1.5 with the invariant's float
buffer.  Everything the analytic layer claims (F, transverse series,
cascade correlators) is recomputed here from the 2^N basis sums and
compared.

joint_state assembles the full 2^(N+1)-square density operator at one time
from one phase row, as a dense reference at small N.

Sizes are bounded by errors.guard_bytes: the grid reaches N = 22, joint_state
N = 10.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .curie_weiss import ANALYTIC_N_MAX, CurieWeissModel
from .errors import ValidationError, guard_bytes
from .qstate import DensityOperator, readonly

# complex128 2^N vectors alive at the peak of a grid pass: 1.0 for
# grid_expectations (tracemalloc, N = 14..20, one phase tile; the cascade's
# signs are 2^(N/2) entries), 1.5 with the invariant's float buffer.  13
# still keeps the refusal at N = 23, so the oracle reaches N = 22 as
# documented, and leaves room for what a caller holds next to the pass
_DIAG_VECTORS = 13
# complex128 4^N matrices alive at the peak of joint_state: four for the
# 2^(N+1)-square joint, four for DensityOperator's copy and eight for its
# Hermitian check (tracemalloc, N = 7..9: 16.0-16.5)
_JOINT_MATRICES = 16

_TRACE_TOL = 1e-12
# complex entries of a phase tile: a tile holds _TILE // 2^N times (one
# time of 2^N entries from N = 13 on), so below N = 13 a grid's temporaries
# stay near 0.5 MB whatever its length (tracemalloc, N = 10, with the
# invariant and three cascade subsets)
_TILE = 1 << 13
_APPC_DEVIATION_TOL = 1e-12  # appendix_c_grid: largest deviation of an intact invariant
_APPC_MAX_K = 3  # and the largest cascade order it records


@dataclass(frozen=True)
class AppendixCReport:
    """Side-by-side record: exact block invariant vs decaying observables.

    The bare up-down block obeys R R^dagger = I/2^(2N) at every time (no
    decay at the full-state level), while the tested spin's transverse
    component and the low-k magnet correlators shrink on the same grid; the
    pair resolves the apparent irreversibility of the dephasing stage.
    """

    times: np.ndarray
    invariant_deviation: np.ndarray
    invariant_ok: bool
    sx: np.ndarray
    correlators: dict
    no_macroscopic_limit: bool


def guard_spins(n_spins: int) -> None:
    """Refuse an oracle run whose 2^N vectors would pass the byte budget, from
    N alone and so before any coupling is drawn; an N past ANALYTIC_N_MAX is
    left to build_model's ValidationError (its 2^N is never formed)."""
    if n_spins <= ANALYTIC_N_MAX:
        guard_bytes(_DIAG_VECTORS * 16 * 2**n_spins, "the dense oracle's 2^N vectors",
                    "use the analytic layer at this N")


def _sector_weights(model: CurieWeissModel) -> np.ndarray:
    """r0 as read-only complex sector weights, checked once per run: the
    diagonal blocks r_ii I/2^N carry these traces at every time.  Every run
    starts here, so the size guard comes before any 2^N array."""
    guard_spins(model.N)
    w = readonly(model.r0.matrix, np.complex128)
    if abs(w[0, 0] + w[1, 1] - 1.0) > _TRACE_TOL:
        raise ValidationError("diagonal block traces must sum to 1")
    return w


def _phase_tiles(model: CurieWeissModel, times) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(t, phase) per tile of the grid: phase[r, j] = e^{-i t_r (K_0 - K_1)_j}
    on basis state j, the product over spins of e^{+-2i g_n t_r}.

    Tested sectors are ordered (+1, -1); coupling favors magnetization with
    the tested spin's sign, so sector s gets the field -s * sum_n g_n sigma_z
    and K_1 - K_0 = 2 sum_n g_n sigma_z.  Bit n of j is 0 where
    sigma_z^(n) = +1 (qstate.weighted_magnetization_diag's order).  The one
    tile is refilled at every step: read it before asking for the next.
    """
    times = np.atleast_1d(np.asarray(times, dtype=np.float64))
    # |t (K_1 - K_0)| rounds to at most 2 sum_n g_n max|t|
    if not math.isfinite(2.0 * sum(model.couplings.tolist()) * float(np.max(np.abs(times)))):
        raise ValidationError("the phase t (K_1 - K_0) must be finite; lower the grid end or g")
    dim = 2**model.N
    phase = np.empty((max(1, _TILE // dim), dim), dtype=np.complex128)
    for lo in range(0, times.size, len(phase)):
        t = times[lo:lo + len(phase)]
        rows = phase[:t.size]
        z = np.exp(2j * np.multiply.outer(t, model.couplings))
        rows[:, 0] = 1.0
        for n in range(model.N):
            h = 2**n
            np.multiply(rows[:, :h], z[:, n, None].conj(), out=rows[:, h:2 * h])
            rows[:, :h] *= z[:, n, None]
        yield t, rows


def _zprod_signs(n_bits: int, bits) -> np.ndarray:
    # the sigma_z product over the positions in bits below n_bits, as the +-1
    # diagonal on an n_bits index; complex, so it meets the tile uncast
    z = np.ones(1, dtype=np.complex128)
    for n in range(n_bits):
        z = np.concatenate((z, -z if bits.count(n) % 2 else z))
    return z


def grid_expectations(model: CurieWeissModel, times, subsets: Iterable[tuple] = (),
                      invariant: bool = False) -> dict:
    """Observables over a whole time grid, tile by tile: "f", "sx" and "sy"
    are arrays over the times, and "cascade" maps each magnet subset to its
    (x, y) correlator arrays.  With invariant, "invariant_deviation" holds
    the largest entry of |R R^dagger - I/2^(2N)| per time.

    A tile's rows / 2^N are the bare block R_01 as diagonals and weight *
    rows the weighted block W_01: F = tr R_01, and <s_a (x) O> picks the
    up-down block, 2 Re tr(W_01 O) for s_x and -2 Im tr(W_01 O) for s_y (the
    conjugate block carries the other half), with O the sigma_z product
    over a subset for the cascade, its signs one short vector per half of the
    bits.  Past one tile, memory grows only by the output arrays."""
    w = _sector_weights(model)
    dim = 2**model.N
    times = np.atleast_1d(np.asarray(times, dtype=np.float64))
    if times.size == 0:
        raise ValidationError("no times supplied")
    cascade = {tuple(int(n) for n in s): (np.empty(times.size), np.empty(times.size))
               for s in subsets}
    low = model.N // 2
    signs = [(_zprod_signs(low, s), _zprod_signs(model.N - low, [n - low for n in s]))
             for s in cascade]
    weight, norm = w[0, 1] / dim, 1.0 / dim
    f, sx, sy, dev = (np.empty(times.size) for _ in range(4))
    lo = 0
    for t, rows in _phase_tiles(model, times):
        hi = lo + t.size
        s = rows.sum(axis=1)
        tr = weight * s
        f[lo:hi], sx[lo:hi], sy[lo:hi] = (norm * s).real, 2.0 * tr.real, -2.0 * tr.imag
        halves = rows.reshape(t.size, -1, 2**low)
        for (z_lo, z_hi), (x, y) in zip(signs, cascade.values()):
            c = weight * ((halves @ z_lo) * z_hi).sum(axis=1)
            x[lo:hi], y[lo:hi] = 2.0 * c.real, -2.0 * c.imag
        if invariant:
            # a diagonal block's Gram matrix is |R|^2 on the diagonal, formed
            # in one float buffer, dropped before the next tile
            a = np.abs(rows)
            a *= norm
            np.square(a, out=a)
            a -= 1.0 / dim**2
            np.abs(a, out=a)
            dev[lo:hi] = a.max(axis=1)
            del a
        lo = hi
    out = {"f": f, "sx": sx, "sy": sy, "cascade": cascade}
    if invariant:
        out["invariant_deviation"] = dev
    return out


def joint_state(model: CurieWeissModel, t: float) -> DensityOperator:
    """The full spin+magnet density operator at time t, assembled from r0
    and one phase row e: [[r00 I, r01 diag(e)], [r10 diag(e*), r11 I]] / 2^N.
    A dense reference for the grid at small N; DensityOperator checks that
    it is Hermitian, unit-trace and positive."""
    w = _sector_weights(model)
    dim = 2**model.N
    guard_bytes(_JOINT_MATRICES * 16 * dim**2, "the joint state at one time",
                "use grid_expectations")
    _, phase = next(_phase_tiles(model, [float(t)]))
    joint = np.zeros((2, dim, 2, dim), dtype=np.complex128)
    k = np.arange(dim)
    for i, j, row in ((0, 0, 1.0), (0, 1, phase[0]), (1, 0, phase[0].conj()), (1, 1, 1.0)):
        joint[i, k, j, k] = w[i, j] / dim * row
    return DensityOperator(joint.reshape(2 * dim, 2 * dim), subsystem_dims=(2, dim))


def appendix_c_grid(model: CurieWeissModel, times) -> AppendixCReport:
    """Check R R^dagger = I/2^(2N) to _APPC_DEVIATION_TOL at each time of the
    grid while recording the decay of s_x and of the cascade correlators over
    the first k = 1 .. _APPC_MAX_K magnet spins."""
    if model.r0.matrix[0, 1] == 0:
        raise ValidationError("appendix_c_grid needs a transverse initial "
                              "component (r0 off-diagonal)")
    times = np.atleast_1d(np.asarray(times, dtype=np.float64))
    prefixes = [tuple(range(k)) for k in range(1, min(_APPC_MAX_K, model.N) + 1)]
    obs = grid_expectations(model, times, prefixes, invariant=True)
    devs = obs["invariant_deviation"]
    return AppendixCReport(
        times=times,
        invariant_deviation=devs,
        invariant_ok=bool(np.all(devs <= _APPC_DEVIATION_TOL)),
        sx=obs["sx"],
        correlators={len(s): xy[0] for s, xy in obs["cascade"].items()},
        no_macroscopic_limit=model.N == 1,
    )
