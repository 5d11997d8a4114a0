"""Thermodynamic registration: one max-entropy solver (its no-constraint
case gives the Gibbs pointer states with symmetry-breaking sources),
Curie-Weiss mean-field magnetization, and assembly of the measured joint state.

The magnet Hamiltonian is the long-range Ising form H_M = -(J/2N) M_z^2 (a
model choice; the symmetry arguments need nothing more).  Registration is
treated as endpoint thermodynamics: no rate equations, only the equilibrium
states the dynamics relaxes to.  Temperatures are energies (k_B = 1).  Every
registration operator is diagonal in the M_z basis and is handled as its
diagonal, by the solver too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InfeasibleError, ValidationError, guard_bytes
from .qstate import (DensityOperator, Observable, diagonal_or_none, qexpect,
                     vn_entropy, weighted_magnetization_diag)

_GRAM_RTOL = 1e-10
_MULTIPLIER_CAP = 1e8
_MAXENT_TOL = 1e-10  # largest constraint residual of a solved maxent state
_MAXENT_MAX_ITER = 100  # Newton steps before the solve gives up
# float64 2^N vectors alive at the peak: 13.3 in the pointer build, 15 with
# its s_z joint state and entropy (tracemalloc, N = 16..20); the byte budget
# refuses the full pointer from N = 23, and the full representation derived
# from the sectors at the same sizes
_FULL_VECTORS = 16
# bytes per magnetization sector alive at the peak of a reduced run
# (tracemalloc, N = 2e5..1e6: 120 for finalstate --reduced, 80 for register)
_SECTOR_BYTES = 128


@dataclass(frozen=True)
class ConstraintSet:
    """Expectation constraints defining a max-entropy problem.

    temperature (with hamiltonian) switches on fixed-beta mode: the exponent
    carries H/T plus one multiplier per listed observable.  dim is only
    needed when neither observables nor hamiltonian pin the space.
    """

    observables: tuple[Observable, ...] = ()
    targets: tuple[float, ...] = ()
    temperature: float | None = None
    hamiltonian: Observable | None = None
    dim: int | None = None

    def __post_init__(self):
        obs = tuple(self.observables)
        tgt = tuple(float(t) for t in self.targets)
        object.__setattr__(self, "observables", obs)
        object.__setattr__(self, "targets", tgt)
        if len(obs) != len(tgt):
            raise ValidationError("observables and targets must have equal length")
        if self.temperature is not None:
            if self.temperature <= 0:
                raise ValidationError("temperature must be positive")
            if self.hamiltonian is None:
                raise ValidationError("fixed-beta mode needs a hamiltonian")
        dims = {o.dim for o in obs}
        if self.hamiltonian is not None:
            dims.add(self.hamiltonian.dim)
        if self.dim is not None:
            dims.add(int(self.dim))
        if len(dims) > 1:
            raise ValidationError("constraint operators disagree on dimension")
        if not dims:
            raise ValidationError("cannot infer dimension; supply dim")
        object.__setattr__(self, "dim", dims.pop())
        if obs:
            k = len(obs)
            # diagonal operators: the Hilbert-Schmidt product is that of the diagonals
            ds = [diagonal_or_none(o) for o in obs]
            vs = ds if all(d is not None for d in ds) else [o.matrix for o in obs]
            gram = np.empty((k, k))
            for a in range(k):
                for b in range(a, k):
                    g = np.real(np.vdot(vs[a], vs[b]))
                    gram[a, b] = gram[b, a] = g
            # the correlation matrix, so that no observable's scale decides;
            # a zero observable is dependent
            scale = np.sqrt(np.diag(gram))
            dependent = scale.min() <= 0.0
            if not dependent:
                eigs = np.linalg.eigvalsh(gram / np.outer(scale, scale))
                dependent = eigs[0] < _GRAM_RTOL * eigs[-1]
            if dependent:
                raise ValidationError("constraint observables are linearly dependent")


@dataclass(frozen=True)
class MaxEntSolution:
    """Solved generalized-canonical state exp(-(gamma + beta H + sum lambda x))."""

    state: DensityOperator
    gamma: float
    multipliers: np.ndarray
    residuals: np.ndarray
    iterations: int


def _gibbs_of_exponent(a: np.ndarray):
    """Probabilities and log-partition for exponent eigenvalues a."""
    amin = float(a.min())
    with np.errstate(under="ignore"):  # a weight below the normal range is rounding
        p = np.exp(-(a - amin))
        s = float(p.sum())
        return p / s, np.log(s) - amin


def _kubo_weights(p: np.ndarray, a: np.ndarray) -> np.ndarray:
    # w_mn = (p_m - p_n)/(a_n - a_m), continued by p_m on the diagonal/degenerate pairs
    da = a[None, :] - a[:, None]
    dp = p[:, None] - p[None, :]
    scale = 1e-12 * max(1.0, float(np.max(np.abs(a))))
    near = np.abs(da) < scale
    return np.where(near, 0.5 * (p[:, None] + p[None, :]), dp / np.where(near, 1.0, da))


def maxent_state(constraints: ConstraintSet) -> MaxEntSolution:
    """Maximize von Neumann entropy subject to expectation constraints.

    Solves the smooth convex dual psi(lambda) = ln Z + lambda.c by damped
    Newton with Armijo backtracking; infeasible targets surface as multiplier
    blowup.  H enters as H * (1/T).  When H and every observable are diagonal
    (every registration problem) the exponent is a vector, the Hessian is the
    classical covariance and the state is stored as its diagonal; otherwise
    each step runs eigh and the Hessian is the quantum (Kubo) covariance.
    """
    dim = constraints.dim
    beta = None if constraints.temperature is None else 1.0 / constraints.temperature
    fixed = () if beta is None else (constraints.hamiltonian,)
    c = np.asarray(constraints.targets, dtype=np.float64)
    k = c.size
    # each path's decompose(lambda) gives (p, ln Z, ...), which its moments and state read
    diags = [diagonal_or_none(o) for o in fixed + constraints.observables]
    if all(d is not None for d in diags):
        xs = [d.real for d in diags[len(fixed):]]
        a_fixed = diags[0].real * beta if fixed else np.zeros(dim)

        def decompose(l):
            with np.errstate(under="ignore"):
                return _gibbs_of_exponent(a_fixed + sum(li * x for li, x in zip(l.tolist(), xs)))

        def moments(pt):
            # products and .sum, not BLAS dots, whose last digits follow the thread count
            p = pt[0]
            with np.errstate(under="ignore"):
                ex = np.array([(p * x).sum() for x in xs])
                dxs = [x - e for x, e in zip(xs, ex.tolist())]
                hess = np.array([[(p * u * w).sum() for w in dxs] for u in dxs])
            return ex, hess

        def state(pt):
            return DensityOperator(diagonal=pt[0])
    else:
        m_fixed = np.asarray(constraints.hamiltonian.matrix, dtype=np.complex128) * beta \
            if fixed else np.zeros((dim, dim), dtype=np.complex128)
        xs = np.stack([o.matrix for o in constraints.observables]) if k else None

        def decompose(l):
            a, v = np.linalg.eigh(m_fixed + np.tensordot(l, xs, axes=1) if k else m_fixed)
            return _gibbs_of_exponent(a) + (a, v)

        def moments(pt):
            p, _, a, v = pt
            xt = np.einsum("im,aij,jn->amn", v.conj(), xs, v, optimize=True)
            ex = np.einsum("amm,m->a", xt, p).real
            idx = np.arange(dim)
            xt[:, idx, idx] -= ex[:, None]
            w = _kubo_weights(p, a)
            return ex, np.einsum("amn,bmn,mn->ab", xt, xt.conj(), w, optimize=True).real

        def state(pt):
            dmat = (pt[3] * pt[0]) @ pt[3].conj().T
            return DensityOperator(0.5 * (dmat + dmat.conj().T))

    lam = np.zeros(k)
    pt = decompose(lam)
    psi, it = pt[1], 0
    ex, hess = moments(pt) if k else (np.zeros(0), None)
    grad = c - ex
    while k and float(np.max(np.abs(grad))) > _MAXENT_TOL:
        if it >= _MAXENT_MAX_ITER:
            raise ConvergenceError(
                f"maxent solver: no convergence in {_MAXENT_MAX_ITER} iterations")
        if float(np.max(np.abs(lam))) > _MULTIPLIER_CAP:
            raise InfeasibleError("maxent targets infeasible: multipliers diverge")
        hess = 0.5 * (hess + hess.T)
        hess[np.diag_indices(k)] += 1e-14 * max(1.0, float(np.trace(hess)) / k)
        step = np.linalg.solve(hess, -grad)
        alpha = 1.0
        slope = float(grad @ step)
        while True:
            trial = lam + alpha * step
            pt_t = decompose(trial)
            psi_t = pt_t[1] + float(trial @ c)
            if psi_t <= psi + 1e-4 * alpha * slope or alpha < 1e-12:
                break
            alpha *= 0.5
        if alpha < 1e-12:
            raise ConvergenceError("maxent solver: line search stalled")
        lam, pt, psi = trial, pt_t, psi_t
        ex, hess = moments(pt)
        grad = c - ex
        it += 1
    return MaxEntSolution(state=state(pt), gamma=float(pt[1]), multipliers=lam,
                          residuals=np.abs(grad), iterations=it)


def _real_diagonals(ops, what: str) -> list[np.ndarray]:
    ds = [diagonal_or_none(op) for op in ops]
    if any(d is None for d in ds):
        raise ValidationError(f"{what} must be diagonal in the M_z basis")
    return [d.real for d in ds]


def _check_jt(j: float, t: float) -> None:
    # NaN fails every comparison and inf passes "> 0": test finiteness first;
    # a subnormal T passes both, but 1/T overflows in every Gibbs exponent
    if not (math.isfinite(j) and math.isfinite(t)) or j <= 0 or t <= 0:
        raise ValidationError("J and T must be finite and positive")
    if not math.isfinite(1.0 / t):
        raise ValidationError(f"T = {t!r} must be finite and positive with a finite 1/T")


def _check_field(field: float) -> None:
    if not math.isfinite(field):
        raise ValidationError("field must be finite")


_MF_XTOL = 1e-15
_MF_MAX_STEPS = 200


def _mf_residual(m: float, j: float, t: float, field: float) -> float:
    return m - np.tanh((j * m + field) / t)


def _mf_root(lo: float, j: float, t: float, field: float) -> float:
    """Root of the residual m - tanh((J m + field)/T) in [lo, 1], where it
    rises from negative to non-negative.

    Newton from m = 1: the residual is convex there (J m + field >= 0), so
    the steps fall monotonically onto the root; a step that leaves the
    bracket, or a non-positive slope, is replaced by bisection.  Stops once a
    step moves m by at most 1e-15.
    """
    hi = m = 1.0
    for _ in range(_MF_MAX_STEPS):
        th = float(np.tanh((j * m + field) / t))
        f = m - th
        if f == 0.0:
            return m
        if f < 0.0:
            lo = m
        else:
            hi = m
        slope = 1.0 - (j / t) * (1.0 - th * th)
        new = m - f / slope if slope > 0.0 else lo  # lo fails the bracket test
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        if abs(new - m) <= _MF_XTOL:
            return new
        m = new
    raise ConvergenceError(f"mean-field root not found in {_MF_MAX_STEPS} steps")


def meanfield_magnetization(j: float, t: float, field: float = 0.0):
    """Stable root of m = tanh((J m + field)/T).

    field = 0 below T_C = J returns the symmetric pair (-m_F, +m_F); any
    other case returns the single stable branch whose sign matches the field.
    """
    _check_jt(j, t)
    _check_field(field)
    if field == 0.0:
        if t >= j:
            return 0.0
        lo = 1e-8
        if _mf_residual(lo, j, t, 0.0) >= 0.0:
            return (0.0, 0.0)
        m = _mf_root(lo, j, t, 0.0)
        if abs(_mf_residual(m, j, t, 0.0)) > 1e-12:
            raise ConvergenceError("mean-field fixed point not satisfied to 1e-12")
        return (-m, m)
    sign = 1.0 if field > 0 else -1.0
    m = _mf_root(0.0, j, t, abs(field))
    if abs(_mf_residual(m, j, t, abs(field))) > 1e-12:
        raise ConvergenceError("mean-field fixed point not satisfied to 1e-12")
    return sign * m


def free_energy_profile(j: float, t: float, field: float, m_grid) -> np.ndarray:
    """Per-spin free energy F(m) = -J m^2/2 - field m - T s(m), s the binary
    mixing entropy; defined on the closed interval [-1, 1]."""
    _check_jt(j, t)
    _check_field(field)
    m = np.asarray(m_grid, dtype=np.float64)
    if np.any(np.abs(m) > 1.0):
        raise ValidationError("magnetization grid must lie in [-1, 1]")
    p, q = (1.0 + m) / 2.0, (1.0 - m) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 ln 0 = 0
        entropy = -(np.where(p > 0.0, p * np.log(p), 0.0)
                    + np.where(q > 0.0, q * np.log(q), 0.0))
    return -0.5 * j * m**2 - field * m - t * entropy


def g_threshold(j: float, t: float) -> float:
    """Minimal source field that leaves no metastable wrong-sign minimum in
    the free-energy profile; 0 at and above T_C = J.

    Below T_C this is the mean-field spinodal h* = J s - T artanh(s) with
    s = sqrt(1 - T/J), where the wrong-sign minimum merges with the barrier.
    """
    _check_jt(j, t)
    if t >= j:
        return 0.0
    s = math.sqrt(1.0 - t / j)
    if s == 1.0:  # T/J below double resolution: h* = J to within 2e-15 J
        return j
    return j * s - t * math.atanh(s)


@dataclass(frozen=True)
class PointerLimitResult:
    """Source-strength sweep: tr(R^h A) per scale plus the extrapolated limit."""

    scales: np.ndarray
    values: np.ndarray
    extrapolated: float
    converged: bool
    message: str


def pointer_limit(h_m: Observable, source: Observable, temperature: float,
                  h_scale_sequence, pointer_obs: Observable) -> PointerLimitResult:
    """Follow tr(R^h A) as the source is scaled down; extrapolate the limit.

    The sequence must be positive; equal scales mean a single evaluation,
    otherwise strictly decreasing toward the weak-source pointer limit.
    Oscillation or runaway growth of the increments is an error.  Increments
    that keep growing moderately are the finite-size failure of the limit:
    the result is flagged converged=False and the last value is reported.
    """
    scales = np.asarray(h_scale_sequence, dtype=np.float64)
    d_h, d_src = _real_diagonals([h_m, source], "H_M and the source")
    if d_h.shape != d_src.shape:
        raise ValidationError("source dimension mismatch")
    # s * max|source| in Python floats: an overflow gives inf here, not a
    # RuntimeWarning from the scaled source
    peak = float(np.max(np.abs(d_src)))
    if not all(math.isfinite(s) and math.isfinite(s * peak) for s in scales.tolist()):
        raise ValidationError(f"scales {scales.tolist()} must be finite, and so must each "
                              f"scale times the largest source entry {peak:g}")
    if scales.size == 0 or np.any(scales <= 0):
        raise ValidationError("scales must be positive")
    if scales.size > 1 and np.ptp(scales) > 0 and not np.all(np.diff(scales) < 0):
        raise ValidationError("scales must be strictly decreasing (or all equal)")
    values = []
    for s in scales:
        total = Observable(diagonal=d_h + s * d_src)
        state = maxent_state(ConstraintSet(temperature=temperature, hamiltonian=total)).state
        values.append(qexpect(state, pointer_obs))
    values = np.asarray(values)
    if scales.size == 1 or np.ptp(scales) == 0:
        return PointerLimitResult(scales, values, float(values[-1]), True,
                                  "single scale, no extrapolation")
    d = np.diff(values)
    noise = 1e-12 * (1.0 + float(np.max(np.abs(values))))
    sig = np.abs(d) > noise
    if not np.any(sig):
        return PointerLimitResult(scales, values, float(values[-1]), True,
                                  "sequence already flat")
    ds = d[sig]
    if not np.all(np.isfinite(values)):
        raise ConvergenceError("pointer limit: non-finite tr(R^h A) sequence")
    if np.any(ds[:-1] * ds[1:] < 0):
        raise ConvergenceError("pointer limit: oscillatory tr(R^h A) sequence")
    if ds.size < 2:
        return PointerLimitResult(scales, values, float(values[-1]), True,
                                  "two usable scales; reporting the last value")
    r = ds[-1] / ds[-2]
    if r >= 10.0:
        raise ConvergenceError("pointer limit: diverging tr(R^h A) sequence")
    if r < 1.0:
        extrap = float(values[-1] + ds[-1] * r / (1.0 - r))
        return PointerLimitResult(scales, values, extrap, True,
                                  "geometric extrapolation, ratio %.3g" % r)
    return PointerLimitResult(
        scales, values, float(values[-1]), False,
        "increments still growing at the smallest scale (ratio %.3g); "
        "finite-size failure of the weak-source limit, reporting the last value" % r)


def _coupling_peak(n_spins: int, j: float) -> float:
    """|J| N/2, the largest |-(J/2N) M_z^2| (at M_z = +-N), formed as the
    energy arrays form it: when it is finite, no energy overflows."""
    return abs(j) / (2.0 * n_spins) * float(n_spins) ** 2


def guard_full_representation(n_spins: int) -> None:
    """Refuse the full 2^N representation past the byte budget on its vectors."""
    guard_bytes(_FULL_VECTORS * 8 * 2**n_spins, "full-representation pointer's 2^N vectors",
                "use reduced=True")


def log_degeneracies(n_spins: int) -> np.ndarray:
    """ln C(N, k) for k = 0..N, the log-degeneracy of the M_z = N - 2k sector.

    Computed for k <= N/2 and mirrored, so that sectors k and N-k (M and -M)
    get bit-identical values.
    """
    lg_n = math.lgamma(n_spins + 1)
    half = [lg_n - math.lgamma(k + 1) - math.lgamma(n_spins - k + 1)
            for k in range(n_spins // 2 + 1)]
    return np.array(half + half[:n_spins - n_spins // 2][::-1])


def magnet_operators(n_spins: int, j: float) -> tuple[Observable, Observable]:
    """H_M = -(J/2N) M_z^2 and M_z on the full 2^N magnet space, stored as
    their diagonals; sizes past the full pointer's byte guard are refused."""
    if n_spins < 1:
        raise ValidationError("need at least one spin")
    guard_full_representation(n_spins)
    if not math.isfinite(_coupling_peak(n_spins, j)):
        raise ValidationError(f"J N/2 must be finite: J = {j!r} and N = {n_spins} "
                              f"overflow the magnet energies")
    m = weighted_magnetization_diag(np.ones(n_spins))
    h = -(j / (2.0 * n_spins)) * m**2
    return Observable(diagonal=h), Observable(diagonal=m)


def reduced_magnet_operators(n_spins: int, j: float, temperature: float
                             ) -> tuple[Observable, Observable]:
    """(N+1)-dim magnetization-sector representation.

    Folds the sector degeneracy C(N, k) into the energy as -T ln C, so Gibbs
    states of the reduced Hamiltonian at this temperature reproduce the M_z
    marginal of the full 2^N magnet exactly.
    """
    if n_spins < 1:
        raise ValidationError("need at least one spin")
    if not math.isfinite(j):
        raise ValidationError("J must be finite")
    if not math.isfinite(temperature) or temperature <= 0:
        raise ValidationError("temperature must be finite and positive")
    guard_bytes(_SECTOR_BYTES * (n_spins + 1), "the N + 1 magnetization sectors", "lower N")
    log_deg = log_degeneracies(n_spins)
    # |H| <= |J| N/2 + T ln C(N, N/2)
    if not math.isfinite(_coupling_peak(n_spins, j)
                         + temperature * float(log_deg[n_spins // 2])):
        raise ValidationError(f"J N/2 + T ln C(N, N/2) must be finite: J = {j!r}, "
                              f"N = {n_spins} and T = {temperature!r} overflow the "
                              f"magnet energies")
    m = (n_spins - 2 * np.arange(n_spins + 1)).astype(np.float64)
    h = -(j / (2.0 * n_spins)) * m**2 - temperature * log_deg
    return Observable(diagonal=h), Observable(diagonal=m)


@dataclass(frozen=True)
class PointerModel:
    """Registered magnet: outcomes A_i with window projectors and the
    associated equilibrium states, windowed (R_i) and sourced (R_i^h).

    The pointer observable, window projectors and pointer states are
    diagonal in the M_z basis, and the checks run on their diagonals.  Each
    window projector is given as its diagonal, a 0/1 vector over the magnet
    basis, and kept as a read-only float64 vector.  log_partition_consts
    are the sourced states' log-partitions ln Z, in the convention of
    MaxEntSolution.gamma; ln Z stays finite at sizes where Z overflows
    double precision (|ln Z| > 709, from N ~ 400 at J = 1, T = 0.5).
    """

    pointer_obs: Observable
    outcomes: tuple[float, ...]
    window: float
    window_projectors: tuple[np.ndarray, ...]
    pointer_states: tuple[DensityOperator, ...]
    sourced_states: tuple[DensityOperator, ...]
    log_partition_consts: tuple[float, ...]

    def __post_init__(self):
        n = len(self.outcomes)
        if not (len(self.window_projectors) == len(self.pointer_states) == n):
            raise ValidationError("outcomes, projectors, and states must align")
        if self.window <= 0:
            raise ValidationError("window half-width must be positive")
        p = [np.array(w, dtype=np.float64) for w in self.window_projectors]
        for w in p:
            w.setflags(write=False)
        object.__setattr__(self, "window_projectors", tuple(p))
        a = _real_diagonals([self.pointer_obs], "pointer observable")[0]
        r = _real_diagonals(self.pointer_states, "pointer state")
        if any(v.shape != a.shape for v in p + r):
            raise ValidationError("pointer operators must share the magnet dimension")
        # products of diagonal operators are elementwise products of diagonals
        for i in range(n):
            for jdx in range(n):
                ref = p[i] if i == jdx else 0.0
                if np.max(np.abs(p[i] * p[jdx] - ref)) > 1e-12:
                    raise ValidationError("window projectors must be orthogonal")
        for i in range(n):
            for jdx in range(n):
                ref = r[i] if i == jdx else 0.0
                if np.max(np.abs(p[i] * r[jdx] * p[i] - ref)) > 1e-8:
                    raise ValidationError("pointer state leaks outside its window")
        gaps = [abs(self.outcomes[i] - self.outcomes[jdx])
                for i in range(n) for jdx in range(i + 1, n)]
        if gaps and self.window > min(gaps) / 3.0 + 1e-12:
            raise ValidationError("window too wide for the outcome spacing")
        for i, (a_i, r_i) in enumerate(zip(self.outcomes, r)):
            # sums of products, not BLAS dots; the variance is centered
            with np.errstate(under="ignore"):
                mean = float((r_i * a).sum())
                sdev = float(np.sqrt((r_i * (a - mean) ** 2).sum()))
            if abs(mean - a_i) > self.window:
                raise ValidationError(f"pointer mean for outcome {i} drifts past the window")
            if sdev > self.window / 3.0 + 1e-9:
                raise ValidationError(f"pointer fluctuation too large for outcome {i}")


def build_curie_weiss_pointer(n_spins: int, j: float, temperature: float,
                              reduced: bool = False,
                              max_iter: int = 16) -> PointerModel:
    """Pointer model for the Curie-Weiss magnet below T_C.

    Pointer states are Gibbs states restricted to magnetization windows
    [A_i - delta, A_i + delta] (the strict weak-source limit is ill-defined
    at small N), where delta is the fixed point of delta = 3 * q-stddev.
    The sourced states carry the source 1.5 h*, h* = g_threshold, which
    leaves no wrong-sign minimum.  reduced=True works in the (N+1)-dim
    magnetization representation, which every CLI run builds (the full
    output follows from it by full_representation_summary).  Every operator
    is kept as its diagonal; the full 2^N representation, kept as the
    reference the tests compare against, is refused past a byte guard on
    those vectors (from N = 23).
    """
    _check_jt(j, temperature)
    if temperature >= j:
        raise ValidationError("no ferromagnetic pointer above the Curie temperature")
    if reduced:
        h_m, m_obs = reduced_magnet_operators(n_spins, j, temperature)
    else:
        h_m, m_obs = magnet_operators(n_spins, j)
    source_strength = 1.5 * g_threshold(j, temperature)
    # the Gibbs exponents reach (J N/2 + |h| N)/T
    if not math.isfinite((_coupling_peak(n_spins, j) + source_strength * n_spins)
                         / temperature):
        raise ValidationError(f"(J N/2 + |h| N)/T must be finite: J = {j!r}, h = "
                              f"{source_strength!r}, N = {n_spins} and T = {temperature!r} "
                              f"overflow the Gibbs exponents")
    mz = m_obs.diagonal
    energies = h_m.diagonal
    with np.errstate(under="ignore"):  # a weight below the normal range is rounding
        weights = np.exp(-(energies - energies.min()) / temperature)
    m_f = meanfield_magnetization(j, temperature)[1]
    outcomes = (n_spins * m_f, -n_spins * m_f)
    gap = 2.0 * n_spins * m_f

    def window_stats(center: float, half: float):
        mask = np.abs(mz - center) <= half
        w = weights * mask
        total = w.sum()
        if total <= 0:
            raise ValidationError("empty magnetization window")
        # sums of products, not BLAS dots, whose last digits follow the thread
        # count; a centered variance, as E[M^2] - E[M]^2 cancels 7 digits at N = 1e6
        with np.errstate(under="ignore"):
            mean = float((w * mz).sum() / total)
            var = float((w * (mz - mean) ** 2).sum() / total)
            return mask, w / total, mean, np.sqrt(var)

    half = gap / 3.0
    for _ in range(max_iter):
        sdevs = [window_stats(a, half)[3] for a in outcomes]
        new_half = 3.0 * max(max(sdevs), 1e-12)
        if abs(new_half - half) <= 1e-9 * max(1.0, half):
            half = new_half
            break
        half = new_half
    else:
        raise ConvergenceError(
            f"pointer window: delta = 3 * q-stddev not converged in {max_iter} iterations")
    projs, states = [], []
    for a in outcomes:
        mask, probs, _, _ = window_stats(a, half)
        projs.append(mask)
        states.append(DensityOperator(diagonal=probs))
    sols = [maxent_state(ConstraintSet(temperature=temperature, hamiltonian=Observable(
        diagonal=energies - sign * source_strength * mz))) for sign in (1.0, -1.0)]
    return PointerModel(
        pointer_obs=m_obs,
        outcomes=outcomes,
        window=half,
        window_projectors=tuple(projs),
        pointer_states=tuple(states),
        sourced_states=tuple(sol.state for sol in sols),
        log_partition_consts=tuple(sol.gamma for sol in sols),
    )


def final_joint_state(r0: DensityOperator, tested, pointer: PointerModel) -> DensityOperator:
    """Registered endpoint sum_i p_i r_i (x) R_i; zero-weight outcomes omitted.

    Built and stored as its diagonal: every pinched P_i r0 P_i must be
    diagonal (an s_z measurement), else ValidationError.
    """
    projs = tested.projectors
    if len(projs) != len(pointer.pointer_states):
        raise ValidationError("tested outcomes and pointer states must align")
    dims = (r0.dim, pointer.pointer_states[0].dim)
    out = np.zeros(dims[0] * dims[1])
    for proj, r_m in zip(projs, pointer.pointer_states):
        pinched = proj @ r0.matrix @ proj
        if float(np.trace(pinched).real) > 0.0:
            d = diagonal_or_none(pinched)
            if d is None:
                raise ValidationError("every pinched P_i r0 P_i must be diagonal")
            with np.errstate(under="ignore"):  # subnormal products are rounding
                out += np.kron(d.real, diagonal_or_none(r_m).real)
    return DensityOperator(diagonal=out, subsystem_dims=dims)


def full_representation_summary(joint: DensityOperator) -> tuple[float, int]:
    """von Neumann entropy and magnet dimension 2^N of a registered joint
    state in the full 2^N magnet representation, derived from its
    (N+1)-sector form (final_joint_state on a reduced=True pointer).

    A full pointer state is a function of M_z alone, uniform over the
    C(N, k) basis states of sector k, so the full entropy is the sector
    entropy plus the mean log-degeneracy sum_i p_i sum_k R_i[k] ln C(N, k).
    """
    n_spins = joint.subsystem_dims[1] - 1
    q = joint.diagonal.real.reshape(joint.subsystem_dims)
    with np.errstate(under="ignore"):  # subnormal products are rounding
        degeneracy = float((q * log_degeneracies(n_spins)).sum())
    return vn_entropy(joint) + degeneracy, 2**n_spins
