"""Two-spin correlators, the CHSH combination, and joint-distribution
feasibility.

Each correlator is an ordinary commuting-pair expectation; the CHSH value C
assembles four of them.  Whether a single probability distribution over all
four +/-1 observables could reproduce a correlator table is a 16-variable
linear feasibility problem, solved here by scipy's HiGHS LP solver; at zero
marginals its answer coincides with the 8-inequality CHSH test and both are
cross-validated against each other.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError
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


def _feasibility_system(table: CorrelatorTable) -> tuple[np.ndarray, np.ndarray]:
    # variables q(sa0, sa1, sb0, sb1) over +/-1 outcomes, flattened with
    # sign index 0 -> +1, 1 -> -1
    signs = np.array([1.0, -1.0])
    rows, rhs = [], []
    grids = np.array(list(itertools.product((0, 1), repeat=4)))
    sa0, sa1 = signs[grids[:, 0]], signs[grids[:, 1]]
    sb0, sb1 = signs[grids[:, 2]], signs[grids[:, 3]]
    first = (sa0, sa1)
    second = (sb0, sb1)
    for i in range(2):
        for jdx in range(2):
            rows.append(first[i] * second[jdx])
            rhs.append(table.correlators[i, jdx])
    for i in range(2):
        rows.append(first[i])
        rhs.append(table.marginals_a[i])
    for jdx in range(2):
        rows.append(second[jdx])
        rhs.append(table.marginals_b[jdx])
    rows.append(np.ones(16))
    rhs.append(1.0)
    return np.asarray(rows), np.asarray(rhs)


def _nonnegative_solution(a_mat: np.ndarray, b_vec: np.ndarray, tol: float):
    """Find x >= 0 with A x = b to within 10 tol, or None when there is none."""
    from scipy.optimize import linprog  # deferred: about 0.2 s of import time

    # HiGHS' default feasibility tolerance (1e-7) admits entries near -1e-8,
    # which the residual check below would then reject; it refuses (with a
    # warning) any value below 1e-10 and falls back to that default
    feas_tol = max(tol / 10, 1e-10)
    res = linprog(np.zeros(a_mat.shape[1]), A_eq=a_mat, b_eq=b_vec, bounds=(0, None),
                  method="highs", options={"primal_feasibility_tolerance": feas_tol})
    if res.status == 2:
        return None
    if res.status != 0:
        raise ConvergenceError(f"joint-distribution LP: {res.message}")
    x = np.clip(res.x, 0.0, None)
    if np.max(np.abs(a_mat @ x - b_vec)) > 10 * tol:
        return None
    return x


def _pair_negativity(table: CorrelatorTable) -> Witness | None:
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
    if worst is not None and worst[0] < -1e-12:
        cell, i, jdx, sa, sb = worst
        return Witness(kind="pair_negativity",
                       detail={"first_axis": i, "second_axis": jdx,
                               "first_sign": int(sa), "second_sign": int(sb)},
                       value=float(cell), bound=0.0)
    return None


def joint_distribution_feasible(table: CorrelatorTable, tol: float = 1e-9) -> FeasibilityResult:
    """Does any probability distribution over all four +/-1 observables match
    the table?  Returns the distribution or the violated inequality.

    At zero marginals the answer is equivalent to all 8 CHSH variants lying
    within [-2, 2]; that equivalence is asserted on every call as a
    cross-check of the LP against the inequality test.
    """
    a_mat, b_vec = _feasibility_system(table)
    x = _nonnegative_solution(a_mat, b_vec, tol)
    variants = chsh_variants(table)
    worst_signs, worst_value = max(variants, key=lambda sv: abs(sv[1]))
    zero_marginals = not (np.any(table.marginals_a) or np.any(table.marginals_b))
    if zero_marginals:
        chsh_ok = abs(worst_value) <= 2.0 + tol
        if chsh_ok != (x is not None):
            raise ValidationError(
                "internal cross-check failed: LP and CHSH variants disagree "
                "on a zero-marginal table")
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
