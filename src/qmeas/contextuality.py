"""Two-spin correlators, the CHSH combination, and joint-distribution
feasibility.

Each correlator is an ordinary commuting-pair expectation; the CHSH value C
assembles four of them.  Whether a single probability distribution over all
four +/-1 observables could reproduce a correlator table is decided by the
24 facets of the local polytope (Fine's theorem): the 8 CHSH variants and
the 16 pair cells.  A feasible table's distribution is built in closed form
by gluing the triangles (a0, a1, b0) and (a0, a1, b1) along <a0 a1>, and is
checked against the 9 x 16 moment system before it is returned.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .qstate import PAULI, DensityOperator, Observable, pure_state, qexpect, readonly, tensor

_BOUND_TOL = 1e-12


@dataclass(frozen=True)
class DirectionPair:
    """Measurement axes for the first and second spin."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for name in ("a", "b"):
            arr = readonly(getattr(self, name))
            if arr.shape != (3,):
                raise ValidationError("axes must be 3-vectors")
            if abs(np.linalg.norm(arr) - 1.0) > 1e-12:
                raise ValidationError("axes must be unit vectors")
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
        corr = readonly(self.correlators)
        if corr.shape != (2, 2):
            raise ValidationError("correlators must form a 2x2 table")
        ma = readonly((0.0, 0.0) if self.marginals_a is None else self.marginals_a)
        mb = readonly((0.0, 0.0) if self.marginals_b is None else self.marginals_b)
        if ma.shape != (2,) or mb.shape != (2,):
            raise ValidationError("marginals must have two entries per side")
        for arr in (corr, ma, mb):
            if not np.isfinite(arr).all():
                raise ValidationError("correlators and marginals must be finite")
            if np.any(np.abs(arr) > 1.0 + _BOUND_TOL):
                raise ValidationError("correlators and marginals must lie in [-1, 1]")
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


def _outcome_signs(count: int) -> np.ndarray:
    """The 2^count outcomes of count +/-1 observables, one per row, with
    sign index 0 -> +1 (the first observable varies slowest)."""
    return np.array([1.0, -1.0])[np.array(list(itertools.product((0, 1), repeat=count)))]


def _feasibility_system(table: CorrelatorTable) -> tuple[np.ndarray, np.ndarray]:
    # variables q(sa0, sa1, sb0, sb1) over the 16 outcomes; rows: the four
    # correlators, the two first-side and two second-side marginals, and the
    # normalization
    signs = _outcome_signs(4)
    first, second = signs[:, :2].T, signs[:, 2:].T
    rows = [first[i] * second[jdx] for i in range(2) for jdx in range(2)]
    a_mat = np.array([*rows, *first, *second, np.ones(16)])
    b_vec = np.concatenate([table.correlators.ravel(), table.marginals_a,
                            table.marginals_b, [1.0]])
    return a_mat, b_vec


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


def _glued_distribution(table: CorrelatorTable) -> np.ndarray:
    """A joint distribution q(a0, a1, b0, b1) for a table inside the local
    polytope, glued from the triangles (a0, a1, b0) and (a0, a1, b1).

    Triangle j's cells are q_j(x, y, z) = (base_j + xyz t_j)/8 with
    base_j = 1 + x ma0 + y ma1 + z mb_j + xy c + xz E_0j + yz E_1j, where
    c = <a0 a1> and t_j = <a0 a1 b_j> are free.  Some t_j keeps all 8 cells
    nonnegative exactly when every cell with xyz = +1 and every cell with
    xyz = -1 have a base sum >= 0; those 16 sums are affine in c and bound
    it.  c and then each t_j are taken at the middle of their ranges (Fine's
    theorem makes c's range non-empty), and the two triangles are glued
    along their common (a0, a1) marginal p: q = q_0 q_1 / p, 0 where p = 0.
    """
    x, y, z = _outcome_signs(3).T
    plus = x * y * z > 0
    ma, mb, e = table.marginals_a, table.marginals_b, table.correlators
    fixed = [1.0 + x * ma[0] + y * ma[1] + z * mb[j] + x * z * e[0, j] + y * z * e[1, j]
             for j in range(2)]
    slope = (x * y)[plus][:, None] + (x * y)[~plus][None, :]
    sums = [f[plus][:, None] + f[~plus][None, :] for f in fixed]
    lower = max(float(np.max(-s[slope > 0])) for s in sums) / 2.0
    upper = min(float(np.min(s[slope < 0])) for s in sums) / 2.0
    c = 0.5 * (lower + upper)
    q = []
    for f in fixed:
        base = f + x * y * c
        t = 0.5 * (np.max(-base[plus]) + np.min(base[~plus]))
        q.append(np.clip(base + x * y * z * t, 0.0, None).reshape(2, 2, 2) / 8.0)
    p = q[0].sum(axis=2)[:, :, None, None]
    joint = q[0][:, :, :, None] * q[1][:, :, None, :]
    return np.divide(joint, p, out=np.zeros_like(joint), where=p > 0.0)


def joint_distribution_feasible(table: CorrelatorTable, tol: float = 1e-9) -> FeasibilityResult:
    """Does any probability distribution over all four +/-1 observables match
    the table?  Returns the distribution or the violated inequality.

    Fine's theorem decides: a distribution exists exactly when the 8 CHSH
    variants lie within [-2, 2] and the 16 pair cells are nonnegative, here
    within tol.  A feasible table gets the distribution glued from two
    triangles (one of many that match the table); it must reproduce the
    table to 10 tol, else the internal cross-check raises.
    """
    worst_signs, worst_value = max(chsh_variants(table), key=lambda sv: abs(sv[1]))
    cell, i, jdx, sa, sb = _worst_pair_cell(table)
    if abs(worst_value) - 2.0 > tol:
        witness = Witness(kind="chsh", detail={"signs": tuple(worst_signs)},
                          value=float(abs(worst_value)), bound=2.0)
    elif cell < -tol:
        witness = Witness(kind="pair_negativity",
                          detail={"first_axis": i, "second_axis": jdx,
                                  "first_sign": int(sa), "second_sign": int(sb)},
                          value=float(cell), bound=0.0)
    else:
        q = _glued_distribution(table)
        a_mat, b_vec = _feasibility_system(table)
        if not np.max(np.abs(a_mat @ q.ravel() - b_vec)) <= 10 * tol:
            raise ValidationError("internal cross-check failed: the glued distribution "
                                  "does not reproduce the table")
        return FeasibilityResult(feasible=True, distribution=q, witness=None)
    return FeasibilityResult(feasible=False, distribution=None, witness=witness)
