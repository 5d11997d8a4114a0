"""Brute-force ground truth: sector-block evolution of spin + magnet.

The joint state is stored per tested-spin sector as magnet-space blocks
W_ij(t) = r_ij(0) * R_ij(t), with R_ij(t) = U_i(t) (I/2^N) U_j(t)^dagger and
U_i generated by K_i = h_i, the magnet field selected by tested sector i.
Ideality fixes this generator: the tested s_z is conserved and the magnet
energy is a function of M_z, so every K_i is diagonal and the evolution is
pure dephasing.  The diagonal blocks W_ii = r_ii I/2^N never move, and the
off-diagonal block is W_01(t) = (r_01/2^N) e^{-it(K_0 - K_1)}: one phase per
basis state and time, with no time-stepping error, kept as its length-2^N
diagonal.  Everything the analytic layer claims (F, transverse series,
cascade correlators) is recomputed here from the 2^N basis sums and
compared at small N.

A time grid is evaluated in tiles of at most _TILE complex entries per
numpy call: the phase rows come from np.cos and np.sin of the outer product
of times and K_1 - K_0, and F, s_x, s_y and the cascade correlators are row
sums and matrix-vector products over the tile (grid_expectations,
appendix_c_grid).  sector_blocks_at, iter_sector_blocks and
dense_joint_evolution are one-row views of the same tiles, and
block_expectations and appendix_c_report apply the same row observables to
a SectorBlocks' stored block.

Sizes are bounded by errors.guard_bytes: the oracle reaches N = 22.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .curie_weiss import ANALYTIC_N_MAX, CurieWeissModel
from .errors import ValidationError, guard_bytes
from .qstate import DensityOperator, dense_diagonal, weighted_magnetization_diag

# complex128 2^N vectors alive at the peak of a pass (tracemalloc, N = 14..18,
# three cached float64 sign vectors included): 4.5-4.8 for grid_expectations
# with the invariant, 8.0-8.6 for iter_sector_blocks consumed by
# block_expectations or appendix_c_report, which hold the shared diagonal
# blocks and two times' up-down blocks and their conjugates
_DIAG_VECTORS = 13
# complex128 4^N matrices alive in reconstruct_joint: the four blocks, the
# 2^(N+1)-square joint and its validation (tracemalloc, N = 8, 9)
_JOINT_MATRICES = 16

_TRACE_TOL = 1e-12
# entries per slice of the W_ji = conj(W_ij) check: its temporaries stay a
# small fraction of one 2^N vector
_PAIR_CHUNK = 1 << 12
# complex entries per numpy call of the tile core: a tile holds _TILE // 2^N
# times (one time from N = 13 on, its phase filled in slices of _TILE), so
# below N = 13 a grid's temporaries stay near 0.5 MB whatever its length
# (tracemalloc, N = 10, with the invariant and three cascade subsets)
_TILE = 1 << 13


class BlockMap(Mapping):
    """Read-only (i, j) -> magnet-space block, stored as its length-2^N
    diagonal.

    Reading a key builds the dense matrix with np.diag; diag() gives a
    block's diagonal without building the matrix.
    """

    def __init__(self, stored: dict):
        self._stored = dict(stored)

    def __getitem__(self, key) -> np.ndarray:
        return dense_diagonal(self._stored[key], "a dense sector block",
                              "read it with .diag(key)")

    def __iter__(self):
        return iter(self._stored)

    def __len__(self) -> int:
        return len(self._stored)

    def diag(self, key) -> np.ndarray:
        return self._stored[key]


def _is_conjugate(a: np.ndarray, b: np.ndarray) -> bool:
    """a == conj(b) exactly, compared slice by slice so that no conjugated
    2^N copy is built."""
    return a.shape == b.shape and all(
        np.array_equal(a[lo:lo + _PAIR_CHUNK], b[lo:lo + _PAIR_CHUNK].conj())
        for lo in range(0, len(a), _PAIR_CHUNK))


@dataclass(frozen=True)
class SectorBlocks:
    """Magnet-space blocks of the joint state at one time.

    blocks[(i, j)] is the weighted block r_ij(0) * R_ij(t), so the
    diagonal traces sum to 1 and reassembly needs no extra factors;
    sector_weights holds the r_ij(0) for recovering the bare R_ij.
    """

    time: float
    projectors: tuple[np.ndarray, ...]
    sector_weights: np.ndarray
    blocks: BlockMap

    def __post_init__(self):
        n_sec = len(self.projectors)
        if self.sector_weights.shape != (n_sec, n_sec):
            raise ValidationError("sector_weights must be square over sectors")
        diag = self.blocks.diag
        for i in range(n_sec):
            for j in range(i + 1, n_sec):
                if not _is_conjugate(diag((j, i)), diag((i, j))):
                    raise ValidationError("blocks must satisfy W_ji = W_ij^dagger exactly")
        total = sum(self.blocks.diag((i, i)).sum() for i in range(n_sec))
        if abs(total - 1.0) > _TRACE_TOL:
            raise ValidationError("diagonal block traces must sum to 1")


@dataclass(frozen=True)
class AppendixCReport:
    """Side-by-side record: exact block invariant vs decaying observables.

    The bare up-down block obeys R R^dagger = I/2^(2N) at every time (no
    decay at the full-state level), while the tested spin's transverse
    component and the low-k magnet correlators shrink on the same grid; the
    pair resolves the apparent irreversibility of the dephasing stage.
    """

    n_spins: int
    times: np.ndarray
    invariant_deviation: np.ndarray
    invariant_ok: bool
    sx: np.ndarray
    correlators: dict
    no_macroscopic_limit: bool
    message: str


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
    w = np.array(model.r0.matrix, dtype=np.complex128)
    if abs(w[0, 0] + w[1, 1] - 1.0) > _TRACE_TOL:
        raise ValidationError("diagonal block traces must sum to 1")
    w.setflags(write=False)
    return w


def _phase_tiles(model: CurieWeissModel, times) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(t, phase) per tile of the grid: phase[r, j] = e^{-i t_r (K_0 - K_1)_j}
    on basis state j, one cos and one sin per entry.

    Tested sectors are ordered (+1, -1); coupling favors magnetization with
    the tested spin's sign, so sector s gets the field -s * sum_n g_n sigma_z
    and K_1 - K_0 = 2 sum_n g_n sigma_z.  Each tile is a new array, so a row
    may outlive the next tile.
    """
    times = np.atleast_1d(np.asarray(times, dtype=np.float64))
    dk = weighted_magnetization_diag(model.couplings)
    dk *= 2.0
    cols = min(dk.size, _TILE)
    rows = _TILE // cols
    angle = np.empty((rows, cols))
    for lo in range(0, times.size, rows):
        t = times[lo:lo + rows]
        phase = np.empty((t.size, dk.size), dtype=np.complex128)
        for c in range(0, dk.size, cols):
            a = np.multiply.outer(t, dk[c:c + cols], out=angle[:t.size])
            np.cos(a, out=phase[:, c:c + cols].real)
            np.sin(a, out=phase[:, c:c + cols].imag)
        yield t, phase


@lru_cache(maxsize=3)
def _zprod_signs(n_spins: int, subset: tuple) -> np.ndarray:
    # the sigma_z-product diagonal as float64 +-1, cached: a run asks for the
    # same subsets (k = 1..3 in oracle-check and appc-report) at every tile
    a = np.arange(2**n_spins)
    parity = np.zeros_like(a)
    for n in subset:
        parity ^= a >> n
    z = (1 - 2 * (parity & 1)).astype(np.float64)
    z.setflags(write=False)
    return z


def _observables(rows: np.ndarray, weight: complex, norm: complex,
                 subsets: Iterable[tuple] = (), invariant: bool = False) -> dict:
    """Observables of each row, as arrays over the rows, keyed "f", "sx",
    "sy", (subset, "x") and (subset, "y") for the cascade correlators and,
    with invariant, "invariant_deviation".

    weight * rows is the weighted block W_01 and norm * rows the bare block
    R_01, stored as diagonals: F = tr R_01, and <s_a (x) O> picks the
    up-down block, 2 Re tr(W_01 O) for s_x and -2 Im tr(W_01 O) for s_y (the
    conjugate block carries the other half).  Cascade correlators take O as
    the sigma_z product over each magnet subset; the invariant deviation is
    the largest entry of |R R^dagger - I/2^(2N)|.
    """
    dim = rows.shape[1]
    n_spins = dim.bit_length() - 1
    s = rows.sum(axis=1)
    tr = weight * s
    out = {"f": (norm * s).real, "sx": 2.0 * tr.real, "sy": -2.0 * tr.imag}
    # (re, im) pairs, so that the float signs meet the rows in one product
    pairs = rows.view(np.float64).reshape(rows.shape[0], dim, 2)
    for subset in subsets:
        key = tuple(int(n) for n in subset)
        c = weight * (_zprod_signs(n_spins, key) @ pairs).view(np.complex128)[:, 0]
        out[key, "x"], out[key, "y"] = 2.0 * c.real, -2.0 * c.imag
    if invariant:
        # a diagonal block's Gram matrix is |R|^2 on the diagonal
        gram = (np.abs(rows) * abs(norm)) ** 2
        out["invariant_deviation"] = np.max(np.abs(gram - 1.0 / dim**2), axis=1)
    return out


def _nest(flat: dict) -> dict:
    """block_expectations' layout: the cascade pairs under "cascade", keyed
    by subset."""
    out = {key: v for key, v in flat.items() if isinstance(key, str)}
    out["cascade"] = {key[0]: (v, flat[key[0], "y"]) for key, v in flat.items()
                      if isinstance(key, tuple) and key[1] == "x"}
    return out


def grid_expectations(model: CurieWeissModel, times, subsets: Iterable[tuple] = (),
                      invariant: bool = False) -> dict:
    """block_expectations over a whole time grid, tile by tile: "f", "sx",
    "sy" and each "cascade" pair are arrays over the times.  With
    invariant, "invariant_deviation" holds the Appendix C check per time.
    Past the tile, memory grows only by these arrays."""
    w = _sector_weights(model)
    dim = 2**model.N
    times = np.atleast_1d(np.asarray(times, dtype=np.float64))
    if times.size == 0:
        raise ValidationError("no times supplied")
    subsets = list(subsets)
    flat, lo = {}, 0
    for t, phase in _phase_tiles(model, times):
        for key, v in _observables(phase, w[0, 1] / dim, 1.0 / dim, subsets,
                                   invariant).items():
            flat.setdefault(key, np.empty(times.size))[lo:lo + t.size] = v
        lo += t.size
    return _nest(flat)


def iter_sector_blocks(model: CurieWeissModel, times) -> Iterator[SectorBlocks]:
    """Stream SectorBlocks over a grid without holding them all in memory:
    the rows of each phase tile, weighted in place.  The diagonal blocks,
    weights and projectors are formed once and shared read-only."""
    w = _sector_weights(model)
    dim = 2**model.N
    shared = {(i, i): np.full(dim, w[i, i] / dim) for i in range(2)}
    projectors = (np.diag([1.0 + 0.0j, 0.0j]), np.diag([0.0j, 1.0 + 0.0j]))
    for a in (*shared.values(), *projectors):
        a.setflags(write=False)
    for t, phase in _phase_tiles(model, times):
        phase *= w[0, 1] / dim
        conj = phase.conj()
        for tile in (phase, conj):
            tile.setflags(write=False)
        for r in range(t.size):
            blocks = dict(shared)
            blocks[(0, 1)], blocks[(1, 0)] = phase[r], conj[r]
            yield SectorBlocks(time=float(t[r]), projectors=projectors,
                               sector_weights=w, blocks=BlockMap(blocks))


def sector_blocks_at(model: CurieWeissModel, t: float) -> SectorBlocks:
    """Joint state at one time, as weighted sector blocks stored as their
    diagonals: a one-row tile."""
    return next(iter_sector_blocks(model, [float(t)]))


def dense_joint_evolution(model: CurieWeissModel, times) -> list[SectorBlocks]:
    """Materialized block evolution; guarded as if each time held four
    2^N-entry blocks (the two diagonal ones are shared across times).  Use
    iter_sector_blocks for long grids at large N."""
    t = np.atleast_1d(np.asarray(times, dtype=np.float64))
    guard_bytes(t.size * 4 * 2**model.N * 16, "dense evolution", "use iter_sector_blocks")
    return list(iter_sector_blocks(model, t))


def reconstruct_joint(sb: SectorBlocks, r0: DensityOperator) -> DensityOperator:
    """Assemble the full spin+magnet density operator from sector blocks."""
    w = np.asarray(r0.matrix, dtype=np.complex128)
    if w.shape != sb.sector_weights.shape:
        raise ValidationError("r0 sector count does not match the blocks")
    if np.max(np.abs(w - sb.sector_weights)) > 1e-12:
        raise ValidationError("r0 disagrees with the weights stored in the blocks")
    dim_m = sb.blocks.diag((0, 0)).shape[0]
    guard_bytes(_JOINT_MATRICES * 16 * dim_m**2, "the reassembled joint state",
                "use block_expectations on the blocks")
    joint = np.block([[sb.blocks[(0, 0)], sb.blocks[(0, 1)]],
                      [sb.blocks[(1, 0)], sb.blocks[(1, 1)]]])
    return DensityOperator(joint, subsystem_dims=(2, dim_m))


def _block_rows(sb: SectorBlocks, subsets: Iterable[tuple], invariant: bool) -> dict:
    # the stored up-down block as a one-row tile: weight 1, and the bare
    # block is W_01 / r_01 (F is undefined when r_01 = 0)
    r_ud = complex(sb.sector_weights[0, 1])
    norm = 1.0 / r_ud if r_ud != 0 else float("nan")
    w01 = np.ascontiguousarray(sb.blocks.diag((0, 1)), dtype=np.complex128)
    return {key: float(v[0]) for key, v in
            _observables(w01[None, :], 1.0, norm, subsets, invariant).items()}


def block_expectations(sb: SectorBlocks, subsets: Iterable[tuple] = ()) -> dict:
    """Observables straight from the block diagonals: F, sx, sy, and correlators
    of (s_x, s_y) with sigma_z products over the given magnet subsets."""
    return _nest(_block_rows(sb, subsets, invariant=False))


def _report(n_spins: int, times: np.ndarray, obs: dict, deviation_tol: float) -> AppendixCReport:
    devs = obs["invariant_deviation"]
    small = n_spins == 1
    msg = "invariant holds to %.1e at %d times" % (float(devs.max(initial=0.0)), times.size)
    if small:
        msg += "; N=1: single cosine, no macroscopic limit"
    return AppendixCReport(
        n_spins=n_spins,
        times=times,
        invariant_deviation=devs,
        invariant_ok=bool(np.all(devs <= deviation_tol)),
        sx=obs["sx"],
        correlators={len(s): xy[0] for s, xy in obs["cascade"].items()},
        no_macroscopic_limit=small,
        message=msg,
    )


def _prefixes(n_spins: int, max_k: int) -> list[tuple]:
    return [tuple(range(k)) for k in range(1, min(max_k, n_spins) + 1)]


def _need_transverse(r_ud: complex) -> None:
    if r_ud == 0:
        raise ValidationError("appendix_c_report needs a transverse initial "
                              "component (r0 off-diagonal)")


def appendix_c_report(blocks: Iterable[SectorBlocks], deviation_tol: float = 1e-12,
                      max_k: int = 3) -> AppendixCReport:
    """Check R R^dagger = I/2^(2N) per time while recording the decay of the
    accessible observables; consumes any SectorBlocks iterable (streaming)."""
    times, flat = [], {}
    n_spins = None
    for sb in blocks:
        _need_transverse(complex(sb.sector_weights[0, 1]))
        if n_spins is None:
            n_spins = sb.blocks.diag((0, 1)).shape[0].bit_length() - 1
        times.append(sb.time)
        for key, v in _block_rows(sb, _prefixes(n_spins, max_k), invariant=True).items():
            flat.setdefault(key, []).append(v)
    if n_spins is None:
        raise ValidationError("no blocks supplied")
    obs = _nest({key: np.asarray(v) for key, v in flat.items()})
    return _report(n_spins, np.asarray(times), obs, deviation_tol)


def appendix_c_grid(model: CurieWeissModel, times, deviation_tol: float = 1e-12,
                    max_k: int = 3) -> AppendixCReport:
    """appendix_c_report over a whole time grid, tile by tile."""
    _need_transverse(complex(model.r0.matrix[0, 1]))
    times = np.atleast_1d(np.asarray(times, dtype=np.float64))
    obs = grid_expectations(model, times, _prefixes(model.N, max_k), invariant=True)
    return _report(model.N, times, obs, deviation_tol)
