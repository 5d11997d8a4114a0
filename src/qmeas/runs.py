"""Run statistics and reduction: Born weights, outcome sampling, branch
states (Lueders and von Neumann forms), subensemble extraction from the
registered joint state, and the entropy balance of an unread measurement.

Outcome selection is modeled as seeded multinomial sampling over the pointer
probabilities; nothing dynamical hides behind it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .qstate import (
    DensityOperator,
    Observable,
    merge,
    partial_trace,
    qexpect,
    readonly,
    tensor,
    trace_distance,
    vn_entropy,
)

_PROJ_TOL = 1e-12
_DEGENERACY_TOL = 1e-9  # eigenvalues this close are one outcome
_LEAK_TOL = 1e-8  # subensemble weight allowed outside its window
_FACTOR_TOL = 1e-8  # trace distance allowed from r_i (x) R_i
_MAX_RUNS = 2**63 - 1  # the largest total the multinomial sampler takes


@dataclass(frozen=True)
class TestedObservable:
    """Spectral form of the measured quantity: distinct eigenvalues with
    orthogonal projectors resolving the identity."""

    eigenvalues: tuple[float, ...]
    projectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.eigenvalues)
        projs = tuple(readonly(p, np.complex128) for p in self.projectors)
        if len(vals) != len(projs) or not vals:
            raise ValidationError("need one projector per eigenvalue")
        if len(set(vals)) != len(vals):
            raise ValidationError("eigenvalues must be distinct")
        dim = projs[0].shape[0]
        total = np.zeros((dim, dim), dtype=np.complex128)
        for i, p in enumerate(projs):
            if p.shape != (dim, dim):
                raise ValidationError("projector dimensions disagree")
            if np.max(np.abs(p - p.conj().T)) > _PROJ_TOL:
                raise ValidationError("projectors must be Hermitian")
            for jdx, q in enumerate(projs):
                ref = p if i == jdx else np.zeros_like(p)
                if np.max(np.abs(p @ q - ref)) > _PROJ_TOL:
                    raise ValidationError("projectors must be orthogonal and idempotent")
            total += p
        if np.max(np.abs(total - np.eye(dim))) > _PROJ_TOL:
            raise ValidationError("projectors must resolve the identity")
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "projectors", projs)

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    @property
    def observable(self) -> Observable:
        mat = sum(v * p for v, p in zip(self.eigenvalues, self.projectors))
        return Observable(mat)

    @classmethod
    def from_observable(cls, obs: Observable):
        vals, vecs = np.linalg.eigh(obs.matrix)
        groups: list[list[int]] = [[0]]
        for i in range(1, vals.size):
            if vals[i] - vals[groups[-1][0]] <= _DEGENERACY_TOL:
                groups[-1].append(i)
            else:
                groups.append([i])
        eigenvalues, projectors = [], []
        for g in groups:
            eigenvalues.append(float(np.mean(vals[g])))
            sub = vecs[:, g]
            projectors.append(sub @ sub.conj().T)
        return cls(tuple(eigenvalues), tuple(projectors))


def sz_observable() -> TestedObservable:
    """The qubit z observable with outcomes ordered (+1, -1)."""
    up = np.diag([1.0 + 0.0j, 0.0j])
    dn = np.diag([0.0j, 1.0 + 0.0j])
    return TestedObservable((1.0, -1.0), (up, dn))


@dataclass(frozen=True)
class EnsembleSplit:
    """One sampled partition of N runs over the outcomes."""

    total: int
    counts: tuple[int, ...]
    seed: int
    weights: tuple[float, ...]

    def __post_init__(self):
        if sum(self.counts) != self.total:
            raise ValidationError("counts must sum to the total")
        if any(c < 0 for c in self.counts):
            raise ValidationError("counts must be nonnegative")


@dataclass(frozen=True)
class OutcomeBranch:
    """State assigned to the runs that produced outcome i.

    p is None for the von Neumann branch, which does not depend on the
    pre-measurement state; delta is the joint S+M subensemble when known.
    """

    index: int
    p: float | None
    r: DensityOperator
    delta: DensityOperator | None = None


def born_weights(r0: DensityOperator, tested: TestedObservable) -> np.ndarray:
    """p_i = tr(r0 pi_i), validated to be a probability vector."""
    if r0.matrix.shape[0] != tested.dim:
        raise ValidationError("state and observable dimensions disagree")
    ps = []
    for p in tested.projectors:
        with np.errstate(under="ignore"):  # tiny entries round to 0
            val = complex(np.trace(p @ r0.matrix))
        if abs(val.imag) > 1e-12:
            raise ValidationError("projector weight came out complex")
        if not -1e-12 <= val.real <= 1.0 + 1e-12:
            raise ValidationError("projector weight outside [0, 1]")
        ps.append(min(1.0, max(0.0, val.real)))
    ps = np.asarray(ps)
    if abs(ps.sum() - 1.0) > 1e-12:
        raise ValidationError("projector weights do not sum to 1")
    return ps


def _outcome_projector(tested: TestedObservable, i: int) -> np.ndarray:
    # a negative index would silently pick an outcome from the end
    n = len(tested.projectors)
    if not 0 <= i < n:
        raise ValidationError(f"outcome {i} outside 0..{n - 1}")
    return tested.projectors[i]


def luders_branch(r0: DensityOperator, tested: TestedObservable, i: int) -> OutcomeBranch:
    """Branch pi_i r0 pi_i / p_i; an explicit error at p_i = 0.

    The state is formed as K K^dagger / tr with K = pi_i L and r0 = L L^dagger:
    a Gram matrix is positive semidefinite to rounding on its own scale p_i,
    while rounding in pi_i r0 pi_i is on the scale of r0 and, divided by a
    small p_i, breaks the Hermitian and positivity checks.
    """
    proj = _outcome_projector(tested, i)
    with np.errstate(under="ignore"):  # tiny entries round to 0
        p = float(np.trace(proj @ r0.matrix @ proj).real)
        if p <= 1e-14:
            raise ValidationError(f"outcome {i} has zero weight; branch state undefined")
        lam, u = np.linalg.eigh(r0.matrix)
        k = proj @ (u * np.sqrt(np.clip(lam, 0.0, None)))
        gram = k @ k.conj().T
        gram = 0.5 * (gram + gram.conj().T)
        gram /= np.trace(gram).real
    return OutcomeBranch(index=i, p=p, r=DensityOperator(gram, r0.subsystem_dims))


def von_neumann_branch(tested: TestedObservable, i: int) -> OutcomeBranch:
    """Maximally random sector state pi_i / rank(pi_i); needs no input state."""
    proj = _outcome_projector(tested, i)
    rank = float(np.trace(proj).real)
    with np.errstate(under="ignore"):  # tiny entries round to 0
        r = proj / rank
    return OutcomeBranch(index=i, p=None, r=DensityOperator(r))


def unread_reduction(r0: DensityOperator, tested: TestedObservable) -> DensityOperator:
    """Block-diagonal pinch sum_i pi_i r0 pi_i (measurement nobody reads)."""
    if r0.matrix.shape[0] != tested.dim:
        raise ValidationError("state and observable dimensions disagree")
    out = np.zeros_like(np.asarray(r0.matrix))
    # entries below the normal range round to 0: not an error
    with np.errstate(under="ignore"):
        for proj in tested.projectors:
            out = out + proj @ r0.matrix @ proj
    pinched = DensityOperator(out, r0.subsystem_dims)
    if vn_entropy(pinched) < vn_entropy(r0) - 1e-12:
        raise ValidationError("pinch decreased entropy; projector family inconsistent")
    return pinched


def sample_runs(weights, total: int, seed: int = 0) -> EnsembleSplit:
    """Multinomial split of `total` runs, deterministic per seed."""
    w = np.asarray(weights, dtype=np.float64)
    if total < 1:
        raise ValidationError("need at least one run")
    if total > _MAX_RUNS:
        raise ValidationError(f"at most 2^63 - 1 runs can be sampled, got {total}")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    if np.any(w < -1e-12):
        raise ValidationError("weights must be nonnegative")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValidationError("weights must be normalized")
    w = np.clip(w, 0.0, None)
    counts = np.random.default_rng(seed).multinomial(total, w / w.sum())
    return EnsembleSplit(total=int(total), counts=tuple(int(c) for c in counts),
                         seed=int(seed), weights=tuple(float(x) for x in w))


def frequency_report(split: EnsembleSplit) -> dict:
    """z-scores of observed frequencies against the sampling weights; 3-sigma
    entries are flagged, 5-sigma entries are marked failed."""
    z, flagged, failed = [], [], []
    for count, p in zip(split.counts, split.weights):
        spread = np.sqrt(split.total * p * (1.0 - p))
        if spread == 0.0:
            zi = 0.0 if count == round(split.total * p) else np.inf
        else:
            zi = (count - split.total * p) / spread
        z.append(float(zi))
        flagged.append(abs(zi) > 3.0)
        failed.append(abs(zi) > 5.0)
    return {"z": z, "flagged": flagged, "failed": failed,
            "any_flagged": any(flagged), "any_failed": any(failed)}


def subensemble_state(d_tf: DensityOperator, pointer, i: int) -> OutcomeBranch:
    """Extract the outcome-i subensemble via the pointer window projector.

    Checks that the joint state does not leak across windows, renormalizes
    (I (x) Pi_i) D (I (x) Pi_i), and verifies the extracted state factors as
    r_i (x) R_i within _FACTOR_TOL in trace distance.  The windows are
    diagonal, so every product scales entries of D: a joint state in diagonal
    storage is worked on as its diagonal, and the subensemble and r_i come
    back in diagonal storage.
    """
    if len(d_tf.subsystem_dims) != 2:
        raise ValidationError("joint state must carry (system, magnet) dimensions")
    dim_s, dim_m = d_tf.subsystem_dims
    if pointer.pointer_obs.dim != dim_m:
        raise ValidationError("pointer windows do not match the magnet dimension")
    n = len(pointer.window_projectors)
    if not 0 <= i < n:
        raise ValidationError(f"outcome {i} outside 0..{n - 1}")
    # I (x) Pi_j is diagonal, with diagonal the window vector tiled dim_s times
    windows = [np.tile(w, dim_s) for w in pointer.window_projectors]
    d = d_tf.diagonal
    if d is None:
        # (I (x) Pi_i) D (I (x) Pi_j) scales entry (m, n) of D by w_i[m] w_j[n]
        d = d_tf.matrix
        leaks = (np.outer(windows[i], w) * d for jdx, w in enumerate(windows) if jdx != i)
        sub = np.outer(windows[i], windows[i]) * d
        p = float(np.trace(sub).real)
    else:
        leaks = (windows[i] * d * w for jdx, w in enumerate(windows) if jdx != i)
        sub = windows[i] * d * windows[i]
        p = float(sub.sum())
    if any(np.max(np.abs(leak)) > _LEAK_TOL for leak in leaks):
        raise ValidationError("joint state leaks across pointer windows")
    if p <= 1e-14:
        raise ValidationError(f"outcome {i} has zero weight in the joint state")
    if d_tf.diagonal is None:
        delta = DensityOperator(sub / p, d_tf.subsystem_dims)
    else:
        delta = DensityOperator(diagonal=sub / p, subsystem_dims=d_tf.subsystem_dims)
    r_i = partial_trace(delta, keep=(0,))
    expected = tensor(r_i, pointer.pointer_states[i])
    if trace_distance(delta, expected) > _FACTOR_TOL:
        raise ValidationError("subensemble does not factor into system x pointer")
    return OutcomeBranch(index=i, p=p, r=r_i, delta=delta)


def info_balance(r0: DensityOperator, tested: TestedObservable) -> tuple[float, float]:
    """(loss, gain): entropy cost of the unread pinch and the information
    retrievable by reading, gain = S[pinch] - sum_i p_i S(r_i)."""
    pinched = unread_reduction(r0, tested)
    s_after = vn_entropy(pinched)
    loss = s_after - vn_entropy(r0)
    ps = born_weights(r0, tested)
    branch_term = 0.0
    for i, p in enumerate(ps):
        if p > 1e-14:
            branch_term += p * vn_entropy(luders_branch(r0, tested, i).r)
    gain = s_after - branch_term
    if loss < -1e-12 or gain < -1e-12:
        raise ValidationError("entropy balance came out negative")
    if gain > np.log(len(tested.eigenvalues)) + 1e-12:
        raise ValidationError("information gain exceeds the outcome-count bound")
    return float(loss), float(gain)


def merge_branches(branches, weights) -> DensityOperator:
    """Recombine branch states with rational weights via integer counts."""
    from fractions import Fraction

    fracs = [Fraction(w).limit_denominator(10**6) for w in weights]
    denom = np.lcm.reduce([f.denominator for f in fracs])
    counts = [int(f * denom) for f in fracs]
    return merge([(c, b.r) for c, b in zip(counts, branches) if c > 0])
