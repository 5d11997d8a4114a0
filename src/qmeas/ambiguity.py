"""Decomposition ambiguity of mixed states, and its absence classically.

A strict subensemble reading of a mixed state founders on geometry: every
chord of the Bloch sphere through an interior point yields a two-term convex
decomposition into pure states, and distinct chords yield incompatible ones.
Higher dimensions embed the same two-dimensional picture.  The module also
characterizes which observables are dispersionless on a given state, the
classical contrast where the decomposition is unique.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .qstate import DensityOperator, Observable, bloch_state, bloch_vector, readonly

RANK_TOL = 1e-10


@dataclass(frozen=True)
class ChordDecomposition:
    """Two pure Bloch endpoints and barycentric weights recomposing v."""

    v: np.ndarray
    direction: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    rho1: float
    rho2: float

    def __post_init__(self):
        for name in ("v", "direction", "v1", "v2"):
            object.__setattr__(self, name, readonly(getattr(self, name)))
        with np.errstate(under="ignore"):  # tiny components round to 0
            norms = np.linalg.norm(self.v1), np.linalg.norm(self.v2)
            recon = self.rho1 * self.v1 + self.rho2 * self.v2
        if max(abs(n - 1.0) for n in norms) > 1e-12:
            raise ValidationError("chord endpoints must be pure (unit norm)")
        if not (0.0 < self.rho1 < 1.0 and 0.0 < self.rho2 < 1.0):
            raise ValidationError("weights must lie strictly inside (0, 1)")
        if abs(self.rho1 + self.rho2 - 1.0) > 1e-12:
            raise ValidationError("weights must sum to 1")
        if np.max(np.abs(recon - self.v)) > 1e-12:
            raise ValidationError("endpoints and weights do not recompose v")

    def states(self) -> tuple[DensityOperator, DensityOperator]:
        return bloch_state(self.v1), bloch_state(self.v2)


@dataclass(frozen=True)
class AmbiguityReport:
    """Two decompositions of one state, with all pairwise overlaps."""

    first: ChordDecomposition
    second: ChordDecomposition
    overlaps: np.ndarray
    contradiction: bool


@dataclass(frozen=True)
class EmbeddedQubit:
    """Top-two-eigenvalue block of a state, renormalized for chord analysis."""

    weight: float
    qubit: DensityOperator
    basis: np.ndarray
    residual: tuple


@dataclass(frozen=True)
class DispersionlessFamily:
    """Span of the observables with zero q-variance on a state."""

    param_count: int
    basis: tuple[Observable, ...]
    rank: int


def chord_decomposition(v, direction) -> ChordDecomposition:
    """Intersect the line v + s d with the unit sphere; weights come from the
    barycentric (inverse chord-distance) rule, so rho1 v1 + rho2 v2 = v."""
    v = np.asarray(v, dtype=np.float64)
    d = np.asarray(direction, dtype=np.float64)
    if v.shape != (3,) or d.shape != (3,):
        raise ValidationError("v and direction must be 3-vectors")
    for name, x in (("v", v), ("direction", d)):
        if not np.isfinite(x).all():
            raise ValidationError(f"{name} {x.tolist()} must be finite")
    big = float(np.max(np.abs(d)))
    if big == 0.0:
        raise ValidationError("direction must be nonzero")
    # underflow below is rounding: tiny components of v, d, v1 or v2 go to 0;
    # a norm of v past the double range is inf, and refused
    with np.errstate(under="ignore", over="ignore"):
        # scaling by a power of two is exact, so d / |d| keeps its bits, and
        # the norm of a tiny direction stays out of the subnormal range
        d = np.ldexp(d, -math.frexp(big)[1])
        d = d / np.linalg.norm(d)
        norm_v = np.linalg.norm(v)
        if norm_v >= 1.0 - 1e-12:
            raise ValidationError("v must be an interior point (mixed state)")
        vd = float(v @ d)
        disc = vd * vd + (1.0 - norm_v**2)
        if disc <= 0.0:
            raise ValidationError("degenerate chord; impossible for an interior point")
        root = np.sqrt(disc)
        s_plus = -vd + root
        s_minus = -vd - root
        v1 = v + s_plus * d
        v2 = v + s_minus * d
        v1 /= np.linalg.norm(v1)
        v2 /= np.linalg.norm(v2)
    rho1 = -s_minus / (s_plus - s_minus)
    return ChordDecomposition(v=v, direction=d, v1=v1, v2=v2,
                              rho1=float(rho1), rho2=float(1.0 - rho1))


def pure_overlap(v1, v2) -> float:
    """|<psi1|psi2>|^2 = (1 + v1.v2)/2 for unit Bloch vectors."""
    return 0.5 * (1.0 + float(np.asarray(v1) @ np.asarray(v2)))


def ambiguity_witness(v, d1, d2) -> AmbiguityReport:
    """Decompose one interior point along two non-parallel chords and certify
    that the resulting pure components differ."""
    first = chord_decomposition(v, d1)
    second = chord_decomposition(v, d2)
    # on the unit directions: the cross product of tiny raw ones underflows
    with np.errstate(under="ignore"):
        cross = np.linalg.norm(np.cross(first.direction, second.direction))
    if cross <= 1e-12:
        raise ValidationError("directions are parallel: same chord, no ambiguity witness")
    points = [first.v1, first.v2, second.v1, second.v2]
    overlaps = np.empty((4, 4))
    for i in range(4):
        for jdx in range(4):
            overlaps[i, jdx] = pure_overlap(points[i], points[jdx])
    cross_pairs = overlaps[:2, 2:]
    contradiction = bool(np.all(cross_pairs < 1.0 - 1e-9))
    return AmbiguityReport(first=first, second=second, overlaps=overlaps,
                           contradiction=contradiction)


def embed_ambiguity_ndim(state: DensityOperator) -> EmbeddedQubit:
    """Isolate the top-two-eigenvalue block q * D2 of an n-dim mixed state.

    D2 is the renormalized qubit sub-state (diagonal in its own eigenbasis)
    on which the chord construction applies; the residual terms allow exact
    reassembly.
    """
    vals, vecs = np.linalg.eigh(state.matrix)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    if vals.size < 2 or vals[1] <= RANK_TOL:
        raise ValidationError("state is pure; nothing to decompose")
    q = float(vals[0] + vals[1])
    qubit = DensityOperator(np.diag([vals[0] / q, vals[1] / q]).astype(np.complex128))
    basis = vecs[:, :2]
    residual = tuple((float(vals[i]), vecs[:, i].copy()) for i in range(2, vals.size))
    return EmbeddedQubit(weight=q, qubit=qubit, basis=basis, residual=residual)


def reassemble_embedding(embedded: EmbeddedQubit) -> np.ndarray:
    """Invert embed_ambiguity_ndim exactly."""
    out = embedded.weight * (embedded.basis @ embedded.qubit.matrix @ embedded.basis.conj().T)
    for val, vec in embedded.residual:
        out = out + val * np.outer(vec, vec.conj())
    return out


def q_mean_variance(state: DensityOperator, obs: Observable) -> tuple[float, float]:
    """The q-expectation tr(rho A) and the q-variance tr(rho A^2) - tr(rho A)^2."""
    a = np.asarray(obs.matrix)
    mean = float(np.real(np.trace(state.matrix @ a)))
    second = float(np.real(np.trace(state.matrix @ (a @ a))))
    return mean, second - mean * mean


def is_dispersionless(state: DensityOperator, obs: Observable) -> bool:
    """True iff the q-variance of obs on state is at most RANK_TOL.

    When true, the state is also checked to be confined to the eigenspace of
    the certain value (a consistency failure raises).
    """
    if state.matrix.shape != obs.matrix.shape:
        raise ValidationError("state and observable dimensions disagree")
    mean, variance = q_mean_variance(state, obs)
    if variance > RANK_TOL:
        return False
    vals, vecs = np.linalg.eigh(np.asarray(obs.matrix))
    sel = np.abs(vals - mean) <= math.sqrt(RANK_TOL) + 1e-8 * (1.0 + abs(mean))
    proj = vecs[:, sel] @ vecs[:, sel].conj().T
    pinched = proj @ state.matrix @ proj
    if np.max(np.abs(pinched - state.matrix)) > 1e-8:
        raise ValidationError("zero variance without eigenspace confinement; inconsistent inputs")
    return True


def dispersionless_family(state: DensityOperator, rank_tol: float = RANK_TOL) -> DispersionlessFamily:
    """All observables certain on the state: c * (support projector) plus an
    arbitrary Hermitian block on the null space; (n-k)^2 + 1 real parameters
    for rank k in dimension n."""
    if not math.isfinite(rank_tol) or rank_tol < 0:
        raise ValidationError("rank_tol must be finite and non-negative")
    vals, vecs = np.linalg.eigh(state.matrix)
    near = (vals > rank_tol / 10.0) & (vals < rank_tol * 10.0)
    if np.any(near):
        warnings.warn(
            "eigenvalues within a decade of the rank threshold; "
            "the reported rank may be unstable", stacklevel=2)
    support = vals > rank_tol
    k = int(np.count_nonzero(support))
    n = vals.size
    proj_r = vecs[:, support] @ vecs[:, support].conj().T
    basis = [Observable(proj_r)]
    null_vecs = vecs[:, ~support]
    m = n - k
    for i in range(m):
        vi = null_vecs[:, i]
        basis.append(Observable(np.outer(vi, vi.conj())))
        for jdx in range(i + 1, m):
            vj = null_vecs[:, jdx]
            sym = np.outer(vi, vj.conj()) + np.outer(vj, vi.conj())
            anti = 1j * np.outer(vi, vj.conj()) - 1j * np.outer(vj, vi.conj())
            basis.append(Observable(sym))
            basis.append(Observable(anti))
    return DispersionlessFamily(param_count=m * m + 1, basis=tuple(basis), rank=k)
