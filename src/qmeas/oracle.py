"""Brute-force ground truth: sector-block evolution of spin + magnet.

The joint state is stored per tested-spin sector as magnet-space blocks
W_ij(t) = r_ij(0) * R_ij(t), with R_ij(t) = U_i(t) (I/2^N) U_j(t)^dagger and
U_i generated by K_i = h_i, the magnet field selected by tested sector i.
Ideality fixes this generator: the tested s_z is conserved and the magnet
energy is a function of M_z, so every K_i is diagonal and the evolution is
pure dephasing.  The propagators are then exact phase vectors, there is no
time-stepping error, and each block is kept as its length-2^N diagonal.
Everything the analytic layer claims (F, transverse series, cascade
correlators) is recomputed here from the 2^N basis sums and compared at
small N.

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

# complex128 2^N vectors alive at the peak of a streamed pass: 12.1 for the
# sector fields, phase vectors and two times' blocks, 12.3 with
# block_expectations or appendix_c_report consuming them and three cached
# int8 sign vectors (tracemalloc, N = 14..18)
_DIAG_VECTORS = 13
# complex128 4^N matrices alive in reconstruct_joint: the four blocks, the
# 2^(N+1)-square joint and its validation (tracemalloc, N = 8, 9)
_JOINT_MATRICES = 16

_TRACE_TOL = 1e-12
# entries per slice of the W_ji = conj(W_ij) check: its temporaries stay a
# small fraction of one 2^N vector
_PAIR_CHUNK = 1 << 12


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


def _sector_fields(model: CurieWeissModel) -> tuple[np.ndarray, np.ndarray]:
    # tested sectors ordered (+1, -1); coupling favors magnetization with the
    # tested spin's sign, so sector s gets the field -s * sum_n g_n sigma_z
    guard_spins(model.N)
    m = weighted_magnetization_diag(model.couplings)
    return -m, +m


def _sector_weights(model: CurieWeissModel) -> np.ndarray:
    return np.asarray(model.r0.matrix, dtype=np.complex128).copy()


def _projectors() -> tuple[np.ndarray, np.ndarray]:
    return np.diag([1.0 + 0.0j, 0.0j]), np.diag([0.0j, 1.0 + 0.0j])


def sector_blocks_at(model: CurieWeissModel, t: float,
                     _fields: tuple | None = None) -> SectorBlocks:
    """Joint state at one time, as weighted sector blocks stored as their
    diagonals; _fields are the precomputed sector fields of a streamed run."""
    fields = _fields if _fields is not None else _sector_fields(model)
    w = _sector_weights(model)
    t = float(t)
    us = [np.exp(-1j * t * k) for k in fields]
    inv_dim = 1.0 / 2**model.N
    blocks = {}
    for i in range(2):
        for j in range(i, 2):
            wij = w[i, j] * inv_dim * us[i] * np.conj(us[j])
            blocks[(i, j)] = wij
            if j != i:
                blocks[(j, i)] = wij.conj()
    return SectorBlocks(time=t, projectors=_projectors(), sector_weights=w,
                        blocks=BlockMap(blocks))


def iter_sector_blocks(model: CurieWeissModel, times) -> Iterator[SectorBlocks]:
    """Stream SectorBlocks over a grid without holding them all in memory."""
    fields = _sector_fields(model)
    for t in np.atleast_1d(np.asarray(times, dtype=np.float64)):
        yield sector_blocks_at(model, float(t), _fields=fields)


def dense_joint_evolution(model: CurieWeissModel, times) -> list[SectorBlocks]:
    """Materialized block evolution; guarded by the bytes its blocks take
    (four 2^N-entry blocks per time).  Use iter_sector_blocks for long grids
    at large N."""
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


@lru_cache(maxsize=3)
def _zprod_signs(n_spins: int, subset: tuple) -> np.ndarray:
    # the sigma_z-product diagonal as int8 +-1, cached: a run asks for the
    # same subsets (k = 1..3 in oracle-check and appc-report) at every time
    a = np.arange(2**n_spins)
    parity = np.zeros_like(a)
    for n in subset:
        parity ^= a >> n
    z = (1 - 2 * (parity & 1)).astype(np.int8)
    z.setflags(write=False)
    return z


def block_expectations(sb: SectorBlocks, subsets: Iterable[tuple] = ()) -> dict:
    """Observables straight from the block diagonals: F, sx, sy, and correlators
    of (s_x, s_y) with sigma_z products over the given magnet subsets."""
    diag_ud = sb.blocks.diag((0, 1))
    r_ud = complex(sb.sector_weights[0, 1])
    n_spins = diag_ud.shape[0].bit_length() - 1
    tr = complex(diag_ud.sum())
    # <s_a (x) O> picks the up-down block: 2 Re tr(W01 O) for s_x and
    # -2 Im tr(W01 O) for s_y (the conjugate block carries the other half)
    out = {
        "f": float((tr / r_ud).real) if r_ud != 0 else float("nan"),
        "sx": 2.0 * tr.real,
        "sy": -2.0 * tr.imag,
        "cascade": {},
    }
    for subset in subsets:
        # np.dot casts the signs to complex +-1.0 before the BLAS sum
        z = _zprod_signs(n_spins, tuple(int(n) for n in subset))
        c = complex(np.dot(diag_ud, z))
        out["cascade"][tuple(subset)] = (2.0 * c.real, -2.0 * c.imag)
    return out


def appendix_c_report(blocks: Iterable[SectorBlocks], deviation_tol: float = 1e-12,
                      max_k: int = 3) -> AppendixCReport:
    """Check R R^dagger = I/2^(2N) per time while recording the decay of the
    accessible observables; consumes any SectorBlocks iterable (streaming)."""
    times, devs, sx = [], [], []
    corr: dict = {}
    n_spins = None
    for sb in blocks:
        r_ud = complex(sb.sector_weights[0, 1])
        if r_ud == 0:
            raise ValidationError("appendix_c_report needs a transverse initial "
                                  "component (r0 off-diagonal)")
        d = sb.blocks.diag((0, 1))
        dim = d.shape[0]
        if n_spins is None:
            n_spins = dim.bit_length() - 1
            corr = {k: [] for k in range(1, min(max_k, n_spins) + 1)}
        target = 1.0 / dim**2
        # a diagonal block's Gram matrix is |d|^2 on the diagonal
        dev = float(np.max(np.abs((np.abs(d) / abs(r_ud)) ** 2 - target)))
        exp = block_expectations(sb, subsets=[tuple(range(k)) for k in corr])
        times.append(sb.time)
        devs.append(dev)
        sx.append(exp["sx"])
        for k in corr:
            corr[k].append(exp["cascade"][tuple(range(k))][0])
    if n_spins is None:
        raise ValidationError("no blocks supplied")
    devs_arr = np.asarray(devs)
    ok = bool(np.all(devs_arr <= deviation_tol))
    small = n_spins == 1
    msg = "invariant holds to %.1e at %d times" % (float(devs_arr.max(initial=0.0)), len(times))
    if small:
        msg += "; N=1: single cosine, no macroscopic limit"
    return AppendixCReport(
        n_spins=n_spins,
        times=np.asarray(times),
        invariant_deviation=devs_arr,
        invariant_ok=ok,
        sx=np.asarray(sx),
        correlators={k: np.asarray(v) for k, v in corr.items()},
        no_macroscopic_limit=small,
        message=msg,
    )
