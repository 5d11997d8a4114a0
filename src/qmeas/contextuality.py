"""Two-spin correlators, the CHSH combination, and joint-distribution
feasibility.

Each correlator is an ordinary commuting-pair expectation; the CHSH value C
assembles four of them.  Whether a single probability distribution over all
four +/-1 observables could reproduce a correlator table is a 16-variable
linear feasibility problem.  Its 9 x 16 constraint matrix does not depend on
the table, so it is solved exactly by trying every basic solution at once:
the 4096 nonsingular 9-column bases and their inverses are tabulated on
first use.  Every answer is cross-validated against the 24 facets of the
local polytope (Fine's theorem): the 8 CHSH variants and the 16 pair cells.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .qstate import PAULI, DensityOperator, Observable, pure_state, qexpect, tensor

_BOUND_TOL = 1e-12


@dataclass(frozen=True)
class DirectionPair:
    """Measurement axes for the first and second spin."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for name in ("a", "b"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (3,):
                raise ValidationError("axes must be 3-vectors")
            if abs(np.linalg.norm(arr) - 1.0) > 1e-12:
                raise ValidationError("axes must be unit vectors")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class CorrelatorTable:
    """The four pairwise correlators E[a_i b_j] plus single-side averages.

    Rows index the first spin's axes (z-like, x-like), columns the second
    spin's (u-like, v-like).  Marginals default to zero (the singlet case).
    """

    correlators: np.ndarray
    marginals_a: np.ndarray = None
    marginals_b: np.ndarray = None

    def __post_init__(self):
        corr = np.asarray(self.correlators, dtype=np.float64)
        if corr.shape != (2, 2):
            raise ValidationError("correlators must form a 2x2 table")
        ma = np.zeros(2) if self.marginals_a is None else np.asarray(self.marginals_a, float)
        mb = np.zeros(2) if self.marginals_b is None else np.asarray(self.marginals_b, float)
        if ma.shape != (2,) or mb.shape != (2,):
            raise ValidationError("marginals must have two entries per side")
        for arr in (corr, ma, mb):
            if not np.isfinite(arr).all():
                raise ValidationError("correlators and marginals must be finite")
            if np.any(np.abs(arr) > 1.0 + _BOUND_TOL):
                raise ValidationError("correlators and marginals must lie in [-1, 1]")
        corr.setflags(write=False)
        ma.setflags(write=False)
        mb.setflags(write=False)
        object.__setattr__(self, "correlators", corr)
        object.__setattr__(self, "marginals_a", ma)
        object.__setattr__(self, "marginals_b", mb)


@dataclass(frozen=True)
class Witness:
    """Why no joint distribution exists: a violated CHSH variant, or a
    negative entry forced on some pair distribution."""

    kind: str
    detail: dict
    value: float
    bound: float


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    distribution: np.ndarray | None
    witness: Witness | None


def singlet_state() -> DensityOperator:
    """The two-qubit singlet (|01> - |10>)/sqrt(2)."""
    return pure_state(np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0),
                      subsystem_dims=(2, 2))


def spin_observable(axis) -> Observable:
    a = np.asarray(axis, dtype=np.float64)
    if a.shape != (3,) or abs(np.linalg.norm(a) - 1.0) > 1e-12:
        raise ValidationError("axis must be a unit 3-vector")
    return Observable(a[0] * PAULI[0] + a[1] * PAULI[1] + a[2] * PAULI[2])


def pair_correlator(state: DensityOperator, pair: DirectionPair) -> float:
    """E(a, b) = tr[rho (a.sigma (x) b.sigma)]."""
    if state.matrix.shape[0] != 4:
        raise ValidationError("pair correlators need a two-qubit state")
    return qexpect(state, tensor(spin_observable(pair.a), spin_observable(pair.b)))


def optimal_chsh_axes() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The quadruple z, x, u = -(z+x)/sqrt2, v = -(z-x)/sqrt2; maximizes |C|
    on the singlet (Tsirelson point)."""
    z = np.array([0.0, 0.0, 1.0])
    x = np.array([1.0, 0.0, 0.0])
    u = -(z + x) / np.sqrt(2.0)
    v = -(z - x) / np.sqrt(2.0)
    return z, x, u, v


def chsh_value(state: DensityOperator, z, x, u, v) -> float:
    """C = E(z,u) + E(z,v) + E(x,u) - E(x,v)."""
    e = {}
    for name_a, a in (("z", z), ("x", x)):
        for name_b, b in (("u", u), ("v", v)):
            e[name_a + name_b] = pair_correlator(state, DirectionPair(a, b))
    return e["zu"] + e["zv"] + e["xu"] - e["xv"]


def table_from_state(state: DensityOperator, axes=None) -> CorrelatorTable:
    """Correlator table (with marginals) of a two-qubit state on four axes."""
    if axes is None:
        axes = optimal_chsh_axes()
    z, x, u, v = axes
    corr = np.empty((2, 2))
    for i, a in enumerate((z, x)):
        for jdx, b in enumerate((u, v)):
            corr[i, jdx] = pair_correlator(state, DirectionPair(a, b))
    eye = Observable(np.eye(2, dtype=np.complex128))
    ma = [qexpect(state, tensor(spin_observable(a), eye)) for a in (z, x)]
    mb = [qexpect(state, tensor(eye, spin_observable(b))) for b in (u, v)]
    return CorrelatorTable(correlators=corr, marginals_a=np.array(ma), marginals_b=np.array(mb))


def chsh_variants(table: CorrelatorTable) -> list[tuple[tuple[int, ...], float]]:
    """All 8 odd-minus sign combinations of the four correlators."""
    e = table.correlators.ravel()  # (zu, zv, xu, xv)
    out = []
    for signs in itertools.product((1, -1), repeat=4):
        if np.prod(signs) != -1:
            continue
        out.append((signs, float(np.dot(signs, e))))
    return out


@functools.cache
def _feasibility_matrix() -> np.ndarray:
    # variables q(sa0, sa1, sb0, sb1) over +/-1 outcomes, flattened with
    # sign index 0 -> +1, 1 -> -1; rows: the four correlators, the two
    # first-side and two second-side marginals, and the normalization
    signs = np.array([1.0, -1.0])[np.array(list(itertools.product((0, 1), repeat=4)))]
    first, second = signs[:, :2].T, signs[:, 2:].T
    rows = [first[i] * second[jdx] for i in range(2) for jdx in range(2)]
    a_mat = np.array([*rows, *first, *second, np.ones(16)])
    a_mat.setflags(write=False)
    return a_mat


def _feasibility_system(table: CorrelatorTable) -> tuple[np.ndarray, np.ndarray]:
    b_vec = np.concatenate([table.correlators.ravel(), table.marginals_a,
                            table.marginals_b, [1.0]])
    return _feasibility_matrix(), b_vec


@functools.cache
def _basis_table() -> tuple[np.ndarray, np.ndarray]:
    """(columns, inverses) of the 4096 nonsingular 9-column bases of the
    feasibility matrix, out of C(16, 9) = 11440 column subsets.

    Every nonsingular basis has |det| = 4096 (the tests check this), so
    4096 B^-1 is an integer matrix (the adjugate up to sign) and rounding it
    makes the inverses exact; |det| > 2048 is then an exact singularity
    test.  Built on first use (about 50 ms and 14 MB), not at import.
    """
    a_mat = _feasibility_matrix()
    cols = np.array(list(itertools.combinations(range(a_mat.shape[1]), a_mat.shape[0])))
    blocks = a_mat[:, cols].transpose(1, 0, 2)
    keep = np.abs(np.linalg.det(blocks)) > 2048.0
    inverses = np.round(4096.0 * np.linalg.inv(blocks[keep])) / 4096.0
    cols = cols[keep]
    cols.setflags(write=False)
    inverses.setflags(write=False)
    return cols, inverses


def _nonnegative_solution(a_mat: np.ndarray, b_vec: np.ndarray, tol: float):
    """Find x >= 0 with A x = b to within 10 tol, or None when there is none.

    A is the feasibility matrix.  When any x >= 0 solves A x = b, a basic one
    does (at most 9 nonzero entries), so computing B^-1 b for every basis B
    and keeping the one whose smallest entry is largest (the lowest index on
    ties) decides the problem; entries down to -tol are clipped to zero.
    """
    cols, inverses = _basis_table()
    xb = inverses @ b_vec
    worst = xb.min(axis=1)
    best = int(np.argmax(worst))
    if worst[best] < -tol:
        return None
    x = np.zeros(a_mat.shape[1])
    x[cols[best]] = np.clip(xb[best], 0.0, None)
    if np.max(np.abs(a_mat @ x - b_vec)) > 10 * tol:
        return None
    return x


def _worst_pair_cell(table: CorrelatorTable) -> tuple:
    # each observable pair (first i, second j) forces the joint cell
    # q(sa, sb) = (1 + sa*ma_i + sb*mb_j + sa*sb*E_ij)/4 >= 0
    worst = None
    for i in range(2):
        for jdx in range(2):
            for sa in (1.0, -1.0):
                for sb in (1.0, -1.0):
                    cell = 0.25 * (1.0 + sa * table.marginals_a[i] + sb * table.marginals_b[jdx]
                                   + sa * sb * table.correlators[i, jdx])
                    if worst is None or cell < worst[0]:
                        worst = (cell, i, jdx, sa, sb)
    return worst


def _pair_negativity(table: CorrelatorTable) -> Witness | None:
    cell, i, jdx, sa, sb = _worst_pair_cell(table)
    if cell < -1e-12:
        return Witness(kind="pair_negativity",
                       detail={"first_axis": i, "second_axis": jdx,
                               "first_sign": int(sa), "second_sign": int(sb)},
                       value=float(cell), bound=0.0)
    return None


def joint_distribution_feasible(table: CorrelatorTable, tol: float = 1e-9) -> FeasibilityResult:
    """Does any probability distribution over all four +/-1 observables match
    the table?  Returns the distribution or the violated inequality.

    A distribution exists exactly when the 8 CHSH variants lie within
    [-2, 2] and the 16 pair cells are nonnegative (Fine's theorem).  Every
    call cross-checks the solver against these facets: a returned
    distribution with a facet violated by more than tol raises, and so does,
    at zero marginals (where the pair cells cannot go negative), a refusal
    while all CHSH variants hold within tol.
    """
    x = _nonnegative_solution(*_feasibility_system(table), tol)
    variants = chsh_variants(table)
    worst_signs, worst_value = max(variants, key=lambda sv: abs(sv[1]))
    facets_hold = min(2.0 - abs(worst_value), _worst_pair_cell(table)[0]) >= -tol
    zero_marginals = not (np.any(table.marginals_a) or np.any(table.marginals_b))
    if (x is not None and not facets_hold) or (x is None and facets_hold and zero_marginals):
        raise ValidationError(
            "internal cross-check failed: the basis solution and the facet "
            "inequalities disagree")
    if x is not None:
        return FeasibilityResult(feasible=True,
                                 distribution=x.reshape(2, 2, 2, 2),
                                 witness=None)
    if abs(worst_value) > 2.0:
        witness = Witness(kind="chsh", detail={"signs": tuple(worst_signs)},
                          value=float(abs(worst_value)), bound=2.0)
    else:
        witness = _pair_negativity(table)
        if witness is None:
            raise ValidationError(
                "infeasible table with no CHSH or pair-negativity witness; "
                "cross-validation failed")
    return FeasibilityResult(feasible=False, distribution=None, witness=witness)
