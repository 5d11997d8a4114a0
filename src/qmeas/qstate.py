"""Density-operator algebra on finite tensor-product Hilbert spaces.

Conventions used throughout the package: hbar = 1 (times are in units of
hbar/energy), entropies in nats (k_B = 1). States and observables are complex
matrices validated on construction; invariant violations raise
ValidationError instead of being silently repaired.  Operators diagonal in the
computational basis may be stored as their real diagonal alone (diagonal=);
expectations, entropies and trace distances between such operators then work
on the vectors.
"""
from __future__ import annotations

from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError, guard_bytes

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_MIN_EIG = -1e-10

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)
for _p in PAULI:
    _p.setflags(write=False)


def _as_complex_matrix(matrix, what: str) -> np.ndarray:
    m = np.array(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{what} must be a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError(f"{what} has non-finite entries")
    return m


def diagonal_or_none(m) -> np.ndarray | None:
    """The diagonal of a square matrix with no nonzero entry off it, else None.

    Compares nonzero counts, so no dense temporary is built.  A
    DensityOperator or Observable in diagonal storage gives its stored real
    diagonal without building the matrix; a dense one is checked as a matrix.
    """
    if isinstance(m, _Operator):
        if m.diagonal is not None:
            return m.diagonal
        m = m.matrix
    d = np.diagonal(m)
    return d if np.count_nonzero(m) == np.count_nonzero(d) else None


def _check_hermitian(m: np.ndarray, what: str) -> np.ndarray | None:
    """Raise unless m is Hermitian; return its diagonal when m is diagonal.

    m may also be a complex vector standing for the diagonal matrix it lists.
    """
    d = m if m.ndim == 1 else diagonal_or_none(m)
    if d is not None:
        # the entries of M - M^dag are 2i Im d on the diagonal and 0 elsewhere
        dev = 2.0 * float(np.abs(d.imag).max(initial=0.0))
    else:
        # entries near +-1e308 overflow to inf, which is refused below
        with np.errstate(over="ignore", invalid="ignore"):
            dev = float(np.abs(m - m.conj().T).max())
    if dev > HERMITIAN_TOL:
        raise ValidationError(f"{what} is not Hermitian: max |M - M^dag| = {dev:.3e}")
    return d


def hermitian_eigvalsh(m) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix or operator, ascending; cheap path for
    diagonal input (diagonal storage is read without building the matrix)."""
    d = diagonal_or_none(m)
    if d is not None:
        return np.sort(d.real)
    return np.linalg.eigvalsh(m.matrix if isinstance(m, _Operator) else m)


def _validated(matrix, diagonal, what: str) -> tuple:
    """(dense matrix or None, complex diagonal or None) for one of the two
    storage modes, after the shape and finiteness checks."""
    if (matrix is None) == (diagonal is None):
        raise ValidationError(f"{what}: give exactly one of matrix and diagonal")
    if diagonal is None:
        return _as_complex_matrix(matrix, what), None
    d = np.array(diagonal, dtype=complex)
    if d.ndim != 1:
        raise ValidationError(f"{what} diagonal must be a vector, got shape {d.shape}")
    if not np.isfinite(d).all():
        raise ValidationError(f"{what} has non-finite entries")
    return None, d


class _Operator:
    """Immutable validated operator in one of two storage modes.

    Dense mode keeps the complex matrix.  Diagonal mode keeps only the real
    diagonal of an operator diagonal in the computational basis, and .matrix
    builds the dense matrix on each read, so code that reads .matrix keeps
    working while code that reads .diagonal never builds it.  A read whose
    matrix would pass errors.BYTES_BUDGET raises GuardError instead.
    """

    __slots__ = ("_matrix", "_diagonal")

    def _store(self, m, d) -> None:
        if m is None:
            d = d.real.copy()
            d.setflags(write=False)
        else:
            m.setflags(write=False)
            d = None
        object.__setattr__(self, "_matrix", m)
        object.__setattr__(self, "_diagonal", d)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def matrix(self) -> np.ndarray:
        if self._diagonal is None:
            return self._matrix
        d = self._diagonal
        guard_bytes(16 * d.size**2, "the dense matrix of a diagonal-stored operator",
                    "read .diagonal")
        m = np.diag(d.astype(np.complex128))
        m.setflags(write=False)
        return m

    @property
    def diagonal(self) -> np.ndarray | None:
        """The stored real diagonal in diagonal mode; None for a dense operator."""
        return self._diagonal

    @property
    def dim(self) -> int:
        return (self._matrix if self._diagonal is None else self._diagonal).shape[0]


class DensityOperator(_Operator):
    """A state: Hermitian, unit-trace, positive-semidefinite complex matrix.

    Parameters
    ----------
    matrix : array_like
        The dim x dim density matrix.
    subsystem_dims : tuple of int, optional
        Ordered tensor-factor dimensions; their product must equal dim.
        Defaults to the single factor (dim,).
    diagonal : array_like, keyword-only
        Diagonal storage: the length-dim diagonal of a state diagonal in the
        computational basis, given instead of matrix.  Validation and its
        messages are those of the dense matrix np.diag(diagonal).
    """

    __slots__ = ("subsystem_dims",)

    def __init__(self, matrix=None, subsystem_dims: tuple = (), *, diagonal=None):
        m, d = _validated(matrix, diagonal, "density matrix")
        dim = (m if d is None else d).shape[0]
        dims = tuple(int(k) for k in subsystem_dims) or (dim,)
        if any(k < 1 for k in dims) or int(np.prod(dims)) != dim:
            raise ValidationError(
                f"subsystem_dims {dims} do not multiply to dim {dim}")
        d = _check_hermitian(m if d is None else d, "density matrix")
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            tr = m.trace() if m is not None else d.sum()
        if not np.isfinite(tr):
            raise ValidationError(
                f"trace {tr} is not finite: the diagonal sums past the float range")
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(f"trace {tr} differs from 1 beyond {TRACE_TOL}")
        min_eig = float(d.real.min() if d is not None else np.linalg.eigvalsh(m)[0])
        if min_eig < PSD_MIN_EIG:
            raise ValidationError(
                f"state is not positive semidefinite: min eigenvalue {min_eig:.3e}")
        self._store(m, d)
        object.__setattr__(self, "subsystem_dims", dims)


class Observable(_Operator):
    """A Hermitian operator on a finite-dimensional space; pass diagonal=
    (keyword-only) instead of the matrix for diagonal storage."""

    __slots__ = ()

    def __init__(self, matrix=None, *, diagonal=None):
        m, d = _validated(matrix, diagonal, "observable")
        _check_hermitian(m if d is None else d, "observable")
        self._store(m, d)


# ---------------------------------------------------------------------------
# constructors

def pure_state(amplitudes: Sequence[complex], subsystem_dims: tuple = ()) -> DensityOperator:
    """|psi><psi| from a ket; the ket is normalized (zero vector is an error)."""
    v = np.asarray(amplitudes, dtype=complex).reshape(-1)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValidationError("cannot build a pure state from the zero vector")
    v = v / norm
    return DensityOperator(np.outer(v, v.conj()), subsystem_dims)


def bloch_state(v) -> DensityOperator:
    """Qubit state (I + v . sigma)/2 from a Bloch vector with |v| <= 1."""
    v = np.asarray(v, dtype=float).reshape(3)
    if not np.isfinite(v).all():
        raise ValidationError(f"Bloch vector {v.tolist()} must be finite")
    with np.errstate(over="ignore"):  # a norm past the double range is inf, and refused
        norm = np.linalg.norm(v)
    if norm > 1.0 + 1e-12:
        raise ValidationError(f"Bloch vector norm {norm} exceeds 1")
    m = 0.5 * (np.eye(2, dtype=complex)
               + v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z)
    return DensityOperator(m)


def bloch_vector(state: DensityOperator) -> np.ndarray:
    """(Tr D sigma_x, Tr D sigma_y, Tr D sigma_z) of a qubit state."""
    if state.dim != 2:
        raise ValidationError("Bloch vector is defined for qubit states only")
    return np.array([qexpect(state, Observable(p)) for p in PAULI])


def maximally_mixed(dim: int, subsystem_dims: tuple = ()) -> DensityOperator:
    return DensityOperator(np.eye(dim, dtype=complex) / dim, subsystem_dims)


def tensor(*factors):
    """Kronecker product of states (or of observables), left to right.

    For DensityOperator inputs the subsystem dimension lists concatenate.
    When every factor is in diagonal storage, so is the product.
    """
    if not factors:
        raise ValidationError("tensor needs at least one factor")
    if all(isinstance(f, DensityOperator) for f in factors):
        dims = tuple(k for f in factors for k in f.subsystem_dims)

        def make(m=None, diagonal=None):
            return DensityOperator(m, dims, diagonal=diagonal)
    elif all(isinstance(f, Observable) for f in factors):
        make = Observable
    else:
        raise ValidationError("tensor factors must be all states or all observables")
    if all(f.diagonal is not None for f in factors):
        return make(diagonal=reduce(np.kron, [f.diagonal for f in factors]))
    return make(reduce(np.kron, [f.matrix for f in factors]))


# ---------------------------------------------------------------------------
# operations

def qexpect(state: DensityOperator, obs: Observable) -> float:
    """q-expectation Tr(D O); the imaginary residue must be below 1e-12."""
    if state.dim != obs.dim:
        raise ValidationError(f"dimension mismatch: state {state.dim}, obs {obs.dim}")
    if state.diagonal is not None and obs.diagonal is not None:
        with np.errstate(under="ignore"):  # subnormal terms are rounding, as in einsum
            return float(np.dot(state.diagonal, obs.diagonal))
    val = complex(np.einsum("ij,ji->", state.matrix, obs.matrix))
    if abs(val.imag) > 1e-12:
        raise ValidationError(f"imaginary residue {val.imag:.3e} in expectation value")
    return float(val.real)


def evolve_unitary(state: DensityOperator, hamiltonian: Observable, t: float) -> DensityOperator:
    """U D U^dag with U = exp(-i H t), H time-independent (hbar = 1)."""
    if state.dim != hamiltonian.dim:
        raise ValidationError("dimension mismatch between state and Hamiltonian")
    evals, vecs = np.linalg.eigh(hamiltonian.matrix)
    phases = np.exp(-1j * evals * t)
    u = (vecs * phases) @ vecs.conj().T
    return DensityOperator(u @ state.matrix @ u.conj().T, state.subsystem_dims)


def partial_trace(state: DensityOperator, keep: Iterable[int]) -> DensityOperator:
    """Marginal state on the tensor factors listed in `keep` (original order);
    a state in diagonal storage gives its marginal in diagonal storage."""
    dims = state.subsystem_dims
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValidationError("keep must name at least one subsystem")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValidationError(f"keep {keep} out of range for {n} subsystems")
    traced = [i for i in range(n) if i not in keep]
    kept_dims = tuple(dims[i] for i in keep)
    if state.diagonal is not None:
        kept = state.diagonal.reshape(dims).sum(axis=tuple(traced))
        return DensityOperator(diagonal=kept.reshape(-1), subsystem_dims=kept_dims)
    m = state.matrix.reshape(*dims, *dims)
    nleft = n
    for i in reversed(traced):
        m = np.trace(m, axis1=i, axis2=i + nleft)
        nleft -= 1
    d = int(np.prod(kept_dims))
    return DensityOperator(m.reshape(d, d), kept_dims)


def merge(parts: Sequence[tuple]) -> DensityOperator:
    """Count-weighted mixture: N D = sum_k N_k D_k over (count, state) pairs."""
    if not parts:
        raise ValidationError("merge needs at least one (count, state) pair")
    counts = []
    states = []
    for count, state in parts:
        if int(count) != count or count <= 0:
            raise ValidationError(f"counts must be positive integers, got {count}")
        counts.append(int(count))
        states.append(state)
    dim = states[0].dim
    dims = states[0].subsystem_dims
    if any(s.dim != dim or s.subsystem_dims != dims for s in states):
        raise ValidationError("merge requires identical state dimensions")
    total = sum(counts)
    m = sum(c * s.matrix for c, s in zip(counts, states)) / total
    return DensityOperator(m, dims)


def vn_entropy(state: DensityOperator) -> float:
    """von Neumann entropy -Tr D ln D in nats, with 0 ln 0 = 0; for diagonal
    storage the Shannon entropy of the stored diagonal."""
    evals = np.clip(hermitian_eigvalsh(state), 0.0, 1.0)
    evals = evals[evals > 0.0]
    with np.errstate(under="ignore"):  # p ln p of a subnormal p is subnormal
        return max(0.0, float(-np.sum(evals * np.log(evals))))


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """(1/2) ||A - B||_1 via the spectrum of the Hermitian difference."""
    if a.dim != b.dim:
        raise ValidationError("dimension mismatch in trace distance")
    if a.diagonal is not None and b.diagonal is not None:
        diff = np.sort(a.diagonal - b.diagonal)  # summed in the dense path's order
    else:
        diff = hermitian_eigvalsh(a.matrix - b.matrix)
    return 0.5 * float(np.abs(diff).sum())


def weighted_magnetization_diag(couplings) -> np.ndarray:
    """Eigenvalues of sum_n g_n sigma_z^(n) over the 2^N computational basis.

    Bit n of the basis index is 0 where sigma_z^(n) = +1.  Built in place by
    doubling: after spin n the first 2^(n+1) entries hold the sums over spins
    0..n, so each entry adds the terms +-g_n in order of n and no
    temporary is made.  Callers bound N with errors.guard_bytes before they
    call it.
    """
    c = np.asarray(couplings, dtype=np.float64)
    m = np.empty(2**c.size)
    m[0] = 0.0
    h = 1
    for g in c.tolist():
        np.subtract(m[:h], g, out=m[h:2 * h])
        np.add(m[:h], g, out=m[:h])
        h *= 2
    return m
