import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qmeas import equilibrium as eq
from qmeas import runs
from qmeas.errors import ConvergenceError, GuardError, ValidationError
from qmeas.qstate import (
    SIGMA_Z,
    DensityOperator,
    Observable,
    bloch_state,
    maximally_mixed,
    partial_trace,
    qexpect,
    tensor,
    trace_distance,
    vn_entropy,
)
from qmeas.runs import sz_observable

from conftest import random_density, random_hermitian

M_F_08 = 0.7104117834878704  # root of m = tanh(1.25 m), verified by residual below


def _log_on_support(matrix):
    vals, vecs = np.linalg.eigh(matrix)
    return (vecs * np.log(vals)) @ vecs.conj().T


class TestMaxEnt:
    def test_trace_only_gives_uniform(self):
        sol = eq.maxent_state(eq.ConstraintSet(dim=5))
        assert trace_distance(sol.state, maximally_mixed(5)) <= 1e-12

    def test_fixed_beta_two_level(self):
        h = Observable(np.diag([0.0, 1.0]).astype(complex))
        sol = eq.maxent_state(eq.ConstraintSet(temperature=1.0, hamiltonian=h))
        p = np.real(np.diag(sol.state.matrix))
        z = 1.0 + np.exp(-1.0)
        assert p[0] == pytest.approx(1.0 / z, abs=1e-12)
        assert p[1] == pytest.approx(np.exp(-1.0) / z, abs=1e-12)
        assert p[0] == pytest.approx(0.731059, abs=1e-6)

    def test_energy_target_recovers_beta(self):
        h = Observable(np.diag([0.0, 1.0]).astype(complex))
        target = np.exp(-1.0) / (1.0 + np.exp(-1.0))
        sol = eq.maxent_state(eq.ConstraintSet(observables=(h,), targets=(target,)))
        assert sol.multipliers[0] == pytest.approx(1.0, abs=1e-8)

    def test_iteration_cap_raises(self, monkeypatch):
        # a diagonal energy target that takes several Newton steps: it is
        # met under the real cap, and a cap of one step refuses it
        cs = eq.ConstraintSet(observables=(Observable(diagonal=np.array([0.0, 1.0])),),
                              targets=(0.05,))
        assert eq.maxent_state(cs).iterations > 1
        monkeypatch.setattr(eq, "_MAXENT_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match="no convergence in 1 iterations"):
            eq.maxent_state(cs)

    def test_random_instances_solved(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 17))
            k = int(rng.integers(1, 4))
            obs = [random_hermitian(dim, rng) for _ in range(k)]
            probe = random_density(dim, rng)
            targets = [qexpect(probe, o) for o in obs]
            try:
                cs = eq.ConstraintSet(observables=tuple(obs), targets=tuple(targets))
            except ValidationError:
                continue  # dependent draw; the gate is exercised elsewhere
            sol = eq.maxent_state(cs)
            assert np.max(np.abs(sol.residuals)) <= 1e-10
            log_d = _log_on_support(sol.state.matrix)
            stat = log_d + sol.gamma * np.eye(dim)
            for lam, o in zip(sol.multipliers, obs):
                stat += lam * o.matrix
            assert np.max(np.abs(stat)) <= 1e-6

    def test_entropy_dominates_feasible_states(self, rng):
        dim = 4
        obs = [random_hermitian(dim, rng) for _ in range(2)]
        probe = random_density(dim, rng)
        cs = eq.ConstraintSet(observables=tuple(obs),
                              targets=tuple(qexpect(probe, o) for o in obs))
        sol = eq.maxent_state(cs)
        s_eq = vn_entropy(sol.state)
        raw = [np.eye(dim, dtype=complex)] + [o.matrix for o in obs]
        basis = []
        for b in raw:  # orthonormalize so sequential projection is exact
            for prev in basis:
                b = b - prev * np.vdot(prev, b).real
            basis.append(b / np.linalg.norm(b))
        found_distinct = 0
        for _ in range(100):
            y = random_hermitian(dim, rng).matrix
            # project onto directions that leave every constraint untouched
            for b in basis:
                y = y - b * np.vdot(b, y).real
            eps = 0.25 * np.min(np.linalg.eigvalsh(sol.state.matrix))
            y *= eps / max(np.max(np.abs(np.linalg.eigvalsh(y))), 1e-300)
            other = DensityOperator(sol.state.matrix + y)
            for o, tgt in zip(obs, cs.targets):
                assert qexpect(other, o) == pytest.approx(tgt, abs=1e-10)
            assert vn_entropy(other) <= s_eq + 1e-12
            if vn_entropy(other) < s_eq - 1e-9:
                found_distinct += 1
        assert found_distinct > 50

    def test_sector_constraints_produce_block_form(self):
        # constants of the motion confined to sectors force the off-diagonal
        # sector blocks of the equilibrium state to vanish
        proj_up = np.diag([1.0, 0.0]).astype(complex)
        proj_dn = np.diag([0.0, 1.0]).astype(complex)
        mz = np.diag([1.0, -1.0]).astype(complex)
        x0 = Observable(np.kron(proj_up, mz))
        x1 = Observable(np.kron(proj_dn, mz))
        h = Observable(-0.3 * np.kron(mz, mz))
        cs = eq.ConstraintSet(observables=(x0, x1), targets=(0.2, -0.4),
                              temperature=1.0, hamiltonian=h)
        sol = eq.maxent_state(cs)
        d = sol.state.matrix
        off = np.kron(proj_up, np.eye(2)) @ d @ np.kron(proj_dn, np.eye(2))
        assert np.max(np.abs(off)) <= 1e-10

    def test_dependent_observables_rejected(self):
        a = Observable(SIGMA_Z)
        b = Observable(2.0 * SIGMA_Z)
        with pytest.raises(ValidationError):
            eq.ConstraintSet(observables=(a, b), targets=(0.1, 0.2))

    def test_infeasible_target_raises(self):
        with pytest.raises((eq.InfeasibleError, ConvergenceError)):
            eq.maxent_state(eq.ConstraintSet(observables=(Observable(SIGMA_Z),),
                                             targets=(1.5,)))


def _gibbs(h_diag, temperature):
    """The Gibbs state of a diagonal H: maxent_state with no constraint."""
    return eq.maxent_state(eq.ConstraintSet(temperature=temperature,
                                            hamiltonian=Observable(diagonal=h_diag)))


def _rotated(diag, u):
    """The dense operator U diag(d) U^dag."""
    return Observable((u * diag) @ u.conj().T)


def _random_unitary(dim, rng):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestMaxEntDiagonal:
    def test_rotated_problem_matches_dense_path(self, rng):
        # the same problem in a rotated basis takes the eigh/Kubo path
        dim = 31
        h = rng.normal(size=dim)
        xs = [rng.normal(size=dim) for _ in range(3)]
        probe = rng.dirichlet(np.ones(dim))
        targets = tuple(float(probe @ x) for x in xs)
        u = _random_unitary(dim, rng)
        diag = eq.maxent_state(eq.ConstraintSet(
            observables=tuple(Observable(diagonal=x) for x in xs), targets=targets,
            temperature=0.7, hamiltonian=Observable(diagonal=h)))
        dense = eq.maxent_state(eq.ConstraintSet(
            observables=tuple(_rotated(x, u) for x in xs), targets=targets,
            temperature=0.7, hamiltonian=_rotated(h, u)))
        assert diag.state.diagonal is not None and dense.state.diagonal is None
        assert np.max(np.abs(diag.residuals)) <= 1e-10
        np.testing.assert_allclose(diag.multipliers, dense.multipliers, rtol=0.0, atol=1e-12)
        assert diag.gamma == pytest.approx(dense.gamma, abs=1e-12)
        back = DensityOperator(u.conj().T @ dense.state.matrix @ u)
        assert trace_distance(diag.state, back) <= 1e-12

    def test_one_constraint_at_a_million_sectors(self):
        # <M/N> = m_F on the reduced magnet: the least source that centres the
        # pointer at N m_F
        n = 10**6
        h_m, m_obs = eq.reduced_magnet_operators(n, 1.0, 0.8)
        sol = eq.maxent_state(eq.ConstraintSet(
            observables=(Observable(diagonal=m_obs.diagonal / n),), targets=(M_F_08,),
            temperature=0.8, hamiltonian=h_m))
        assert sol.state.dim == n + 1 and sol.state.diagonal is not None
        assert np.max(np.abs(sol.residuals)) <= 1e-10
        assert float(sol.state.diagonal @ m_obs.diagonal) / n == pytest.approx(M_F_08, abs=1e-10)

    def test_gram_check_on_diagonals_at_a_million_sectors(self):
        # the dense matrix of one such operator would be 16 TB
        m = eq.reduced_magnet_operators(10**6, 1.0, 0.8)[1].diagonal / 10**6
        cs = eq.ConstraintSet(observables=(Observable(diagonal=m), Observable(diagonal=m**2)),
                              targets=(0.0, 1.0))
        assert cs.dim == 10**6 + 1
        with pytest.raises(ValidationError, match="linearly dependent"):
            eq.ConstraintSet(observables=(Observable(diagonal=m), Observable(diagonal=2 * m)),
                             targets=(0.0, 0.0))

    def test_dependence_test_is_scale_invariant(self):
        # the raw Gram matrix of the reduced M_z and its square spans 12 decades
        m = eq.reduced_magnet_operators(10**6, 1.0, 0.8)[1].diagonal
        cs = eq.ConstraintSet(observables=(Observable(diagonal=m), Observable(diagonal=m**2)),
                              targets=(0.0, 1.0))
        assert cs.dim == 10**6 + 1
        dependent = [(Observable(diagonal=m), Observable(diagonal=2 * m)),
                     (Observable(diagonal=m), Observable(diagonal=np.zeros_like(m))),
                     (Observable(SIGMA_Z), Observable(2.0 * SIGMA_Z))]
        for pair in dependent:
            with pytest.raises(ValidationError, match="linearly dependent"):
                eq.ConstraintSet(observables=pair, targets=(0.0, 0.0))


class TestGibbsWithSource:
    def test_infinite_temperature_limit(self, rng):
        # a dense Gibbs state is the fixed-beta maxent state
        h = random_hermitian(4, rng)
        norm = float(np.max(np.abs(np.linalg.eigvalsh(h.matrix))))
        sol = eq.maxent_state(eq.ConstraintSet(temperature=1e6 * norm, hamiltonian=h))
        assert trace_distance(sol.state, maximally_mixed(4)) <= 1e-5

    def test_non_diagonal_operators_refused(self, rng):
        h_m, m_obs = eq.reduced_magnet_operators(4, 1.0, 0.8)
        coherent = random_hermitian(5, rng)
        with pytest.raises(ValidationError, match="diagonal in the M_z basis"):
            eq.pointer_limit(h_m, coherent, 0.8, [0.2, 0.1], m_obs)
        with pytest.raises(ValidationError, match="diagonal in the M_z basis"):
            eq.pointer_limit(coherent, Observable(diagonal=-m_obs.diagonal), 0.8, [0.2, 0.1],
                             m_obs)
        with pytest.raises(ValidationError, match="dimension mismatch"):
            eq.pointer_limit(h_m, Observable(diagonal=np.ones(4)), 0.8, [0.2, 0.1], m_obs)

    def test_log_partition_matches_maxent_gamma(self):
        h_m, m_obs = eq.reduced_magnet_operators(6, 1.0, 0.8)
        total = h_m.diagonal - 0.3 * m_obs.diagonal
        sol = _gibbs(total, 0.8)
        assert sol.state.diagonal is not None
        logz = math.log(math.fsum(math.exp(-e / 0.8) for e in total))
        assert sol.gamma == pytest.approx(logz, abs=1e-12)
        u = _random_unitary(7, np.random.default_rng(7))
        dense = eq.maxent_state(eq.ConstraintSet(temperature=0.8, hamiltonian=_rotated(total, u)))
        assert dense.gamma == pytest.approx(sol.gamma, abs=1e-12)
        back = DensityOperator(u.conj().T @ dense.state.matrix @ u)
        assert trace_distance(back, sol.state) <= 1e-12

    def test_single_spin_closed_form(self):
        for g, t in ((0.7, 1.0), (0.2, 0.5)):
            state = _gibbs(-g * np.diag(SIGMA_Z).real, t).state
            assert qexpect(state, Observable(SIGMA_Z)) == pytest.approx(np.tanh(g / t), abs=1e-12)

    def test_partition_equal_for_unitarily_related_sources(self):
        h_m, m_obs = eq.magnet_operators(4, 1.0)
        logz_up = _gibbs(h_m.diagonal - 0.3 * m_obs.diagonal, 0.8).gamma
        logz_dn = _gibbs(h_m.diagonal + 0.3 * m_obs.diagonal, 0.8).gamma
        assert logz_up == pytest.approx(logz_dn, rel=0.0, abs=1e-12)


class TestMeanField:
    def test_paramagnetic_above_curie_point(self):
        assert eq.meanfield_magnetization(1.0, 1.5) == 0.0

    def test_ordered_pair_below_curie_point(self):
        lo, hi = eq.meanfield_magnetization(1.0, 0.8)
        assert hi == pytest.approx(M_F_08, abs=1e-12)
        assert lo == -hi
        assert hi == pytest.approx(np.tanh(1.25 * hi), abs=1e-12)

    def test_saturation_at_large_field(self):
        assert eq.meanfield_magnetization(1.0, 0.8, field=50.0) == pytest.approx(1.0, abs=1e-9)
        assert eq.meanfield_magnetization(1.0, 0.8, field=-50.0) == pytest.approx(-1.0, abs=1e-9)

    def test_signed_field_branch(self):
        m = eq.meanfield_magnetization(1.0, 0.8, field=0.05)
        assert m > M_F_08
        assert m == pytest.approx(np.tanh(1.25 * m + 0.05 / 0.8), abs=1e-12)

    def test_exact_finite_n_magnet_approaches_mean_field(self):
        # the reduced Gibbs state is an exact sum over the N + 1 sectors; its
        # <M>/N approaches the root with a 1/N correction, N (m_N - m_MF) =
        # -2.635, -2.580, -2.575, -2.574 at N = 1e3 .. 1e6, so a Richardson
        # step over N = 1e5 and 1e6 removes it
        field = 0.01

        def m_exact(n):
            h_m, m_obs = eq.reduced_magnet_operators(n, 1.0, 0.8)
            state = _gibbs(h_m.diagonal - field * m_obs.diagonal, 0.8).state
            return float(state.diagonal @ m_obs.diagonal) / n

        m_mf = eq.meanfield_magnetization(1.0, 0.8, field)
        assert 1000 * (m_exact(1000) - m_mf) == pytest.approx(-2.6352, abs=1e-4)
        assert abs((10.0 * m_exact(10**6) - m_exact(10**5)) / 9.0 - m_mf) <= 1e-8


def _interior_minima(j, t, field):
    grid = np.linspace(-0.999, 0.999, 20001)
    f = eq.free_energy_profile(j, t, field, grid)
    d = np.diff(f)
    return int(np.sum((d[:-1] < 0) & (d[1:] > 0)))


class TestFreeEnergyAndThreshold:
    def test_symmetric_double_well(self):
        grid = np.linspace(-0.999, 0.999, 4001)
        f = eq.free_energy_profile(1.0, 0.8, 0.0, grid)
        assert np.allclose(f, f[::-1], atol=1e-12)
        assert _interior_minima(1.0, 0.8, 0.0) == 2
        mid = len(grid) // 2
        assert f[mid] > f[mid - 1] and f[mid] > f[mid + 1]  # local maximum at m = 0
        lo, hi = eq.meanfield_magnetization(1.0, 0.8)
        assert grid[np.argmin(f)] == pytest.approx(lo, abs=1e-3)
        assert grid[np.argmin(f[mid:]) + mid] == pytest.approx(hi, abs=1e-3)

    def test_source_term_is_the_odd_part(self, rng):
        grid = rng.uniform(-0.9, 0.9, size=25)
        for field in (0.03, -0.11):
            fw = eq.free_energy_profile(1.0, 0.8, field, grid)
            bw = eq.free_energy_profile(1.0, 0.8, field, -grid)
            assert np.allclose(fw - bw, -2 * field * grid, atol=1e-12)

    def test_threshold_kills_the_metastable_well(self):
        thr = eq.g_threshold(1.0, 0.8)
        assert thr > 0
        assert _interior_minima(1.0, 0.8, 1.01 * thr) == 1
        assert _interior_minima(1.0, 0.8, 0.99 * thr) == 2

    def test_threshold_matches_spinodal_closed_form(self):
        # spinodal: h* = J m_b - (T/2) ln((1+m_b)/(1-m_b)), m_b = sqrt(1 - T/J)
        j, t = 1.0, 0.8
        m_b = np.sqrt(1 - t / j)
        h_star = j * m_b - (t / 2) * np.log((1 + m_b) / (1 - m_b))
        assert eq.g_threshold(j, t) == pytest.approx(h_star, abs=2e-6)

    def test_threshold_finite_at_low_temperature(self):
        # s = sqrt(1 - T/J) rounds to 1 below T/J ~ 1e-16, where h* tends to J
        for t in (1e-300, 1e-17, 1e-15):
            assert eq.g_threshold(2.0, t) == pytest.approx(2.0, rel=1e-13)

    def test_threshold_monotone_in_temperature(self):
        thresholds = [eq.g_threshold(1.0, t) for t in np.linspace(0.1, 0.9, 10)]
        assert all(a > b for a, b in zip(thresholds, thresholds[1:]))


class TestPointerLimit:
    def test_equal_scales_single_evaluation(self):
        h_m, m_obs = eq.reduced_magnet_operators(10, 1.0, 0.8)
        src = Observable(-np.asarray(m_obs.matrix))
        lim = eq.pointer_limit(h_m, src, 0.8, [0.25, 0.25, 0.25], m_obs)
        assert lim.converged
        assert lim.values.size == 3
        assert lim.extrapolated == lim.values[-1]
        state = _gibbs(h_m.diagonal + 0.25 * np.diag(src.matrix).real, 0.8).state
        assert lim.extrapolated == pytest.approx(qexpect(state, m_obs), abs=1e-12)

    def test_commuting_observable_sequence_monotone(self):
        h_m, m_obs = eq.reduced_magnet_operators(12, 1.0, 0.8)
        src = Observable(-np.asarray(m_obs.matrix))
        lim = eq.pointer_limit(h_m, src, 0.8, [0.5, 0.4, 0.3, 0.2], m_obs)
        assert np.all(np.diff(lim.values) < 0)

    def test_finite_size_error_shrinks_with_n(self):
        scales = [0.3, 0.25, 0.2, 0.15]
        errors = {}
        for n in (8, 10, 12):
            h_m, m_obs = eq.reduced_magnet_operators(n, 1.0, 0.8)
            src = Observable(-np.asarray(m_obs.matrix))
            lim = eq.pointer_limit(h_m, src, 0.8, scales, m_obs)
            assert not lim.converged  # finite-size failure of the weak-source limit
            errors[n] = abs(lim.extrapolated - n * M_F_08) / n
        assert errors[8] > errors[10] > errors[12]

    def test_tracks_source_sign(self):
        h_m, m_obs = eq.reduced_magnet_operators(10, 1.0, 0.8)
        scales = [0.3, 0.25, 0.2, 0.15]
        up = eq.pointer_limit(h_m, Observable(-np.asarray(m_obs.matrix)), 0.8, scales, m_obs)
        dn = eq.pointer_limit(h_m, Observable(+np.asarray(m_obs.matrix)), 0.8, scales, m_obs)
        assert up.extrapolated == pytest.approx(-dn.extrapolated, abs=1e-9)
        assert up.extrapolated > 0 > dn.extrapolated

    def test_geometric_regime_converges(self):
        h_m, m_obs = eq.reduced_magnet_operators(200, 1.0, 0.5)
        src = Observable(-np.asarray(m_obs.matrix))
        lim = eq.pointer_limit(h_m, src, 0.5, [0.08, 0.04, 0.02, 0.01], m_obs)
        assert lim.converged
        m_f = eq.meanfield_magnetization(1.0, 0.5)[1]
        assert lim.extrapolated / 200 == pytest.approx(m_f, abs=0.02)

    def test_scale_validation(self):
        h_m, m_obs = eq.reduced_magnet_operators(8, 1.0, 0.8)
        src = Observable(-np.asarray(m_obs.matrix))
        with pytest.raises(ValidationError):
            eq.pointer_limit(h_m, src, 0.8, [], m_obs)
        with pytest.raises(ValidationError):
            eq.pointer_limit(h_m, src, 0.8, [0.1, 0.2], m_obs)
        with pytest.raises(ValidationError):
            eq.pointer_limit(h_m, src, 0.8, [0.2, -0.1], m_obs)


class TestPointerModel:
    def test_toy_pointer_invariants(self):
        pointer = eq.build_curie_weiss_pointer(10, 1.0, 0.5)
        n_out = len(pointer.outcomes)
        assert n_out == 2
        assert pointer.outcomes[0] == -pointer.outcomes[1]
        gap = abs(pointer.outcomes[0] - pointer.outcomes[1])
        assert pointer.window <= gap / 3.0 + 1e-12
        a = pointer.pointer_obs
        a2 = Observable(np.asarray(a.matrix) @ np.asarray(a.matrix))
        for a_i, r_i in zip(pointer.outcomes, pointer.pointer_states):
            mean = qexpect(r_i, a)
            assert abs(mean - a_i) <= pointer.window
            sdev = np.sqrt(qexpect(r_i, a2) - mean**2)
            assert sdev <= pointer.window / 3.0 + 1e-9
        lz0, lz1 = pointer.log_partition_consts
        assert abs(lz0 - lz1) <= 1e-12
        for i, w in enumerate(pointer.window_projectors):
            proj = np.diag(w)
            for jdx, r in enumerate(pointer.pointer_states):
                pinched = proj @ r.matrix @ proj
                ref = pointer.pointer_states[i].matrix if i == jdx else 0.0
                assert np.max(np.abs(pinched - ref)) <= 1e-8

    def test_reduced_representation_agrees(self):
        full = eq.build_curie_weiss_pointer(8, 1.0, 0.5)
        red = eq.build_curie_weiss_pointer(8, 1.0, 0.5, reduced=True)
        assert red.pointer_states[0].dim == 9
        assert full.outcomes == pytest.approx(red.outcomes, rel=1e-9)
        assert full.window == pytest.approx(red.window, rel=1e-9)
        for f_r, r_r, f_a, r_a in zip(full.pointer_states, red.pointer_states,
                                      (full.pointer_obs,) * 2, (red.pointer_obs,) * 2):
            assert qexpect(f_r, f_a) == pytest.approx(qexpect(r_r, r_a), rel=1e-9)
        assert abs(full.log_partition_consts[0] - red.log_partition_consts[0]) <= 1e-9

    def test_ordered_phase_required(self):
        with pytest.raises(ValidationError):
            eq.build_curie_weiss_pointer(10, 1.0, 1.2)

    def test_full_representation_size_guard(self):
        # N = 23 is the first size whose 2^N vectors pass the byte guard;
        # it is refused before anything is allocated
        with pytest.raises(GuardError, match="reduced=True"):
            eq.build_curie_weiss_pointer(23, 1.0, 0.5)
        with pytest.raises(GuardError):
            eq.magnet_operators(23, 1.0)

    def test_full_pointer_matches_reduced_at_16(self):
        n = 16
        full = eq.build_curie_weiss_pointer(n, 1.0, 0.5)
        red = eq.build_curie_weiss_pointer(n, 1.0, 0.5, reduced=True)
        assert (full.pointer_states[0].dim, red.pointer_states[0].dim) == (2**n, n + 1)
        assert full.outcomes == red.outcomes
        assert full.window == pytest.approx(red.window, rel=1e-12)
        lz_full, lz_red = full.log_partition_consts, red.log_partition_consts
        assert abs(lz_full[0] - lz_red[0]) <= 1e-12
        assert abs((lz_full[0] - lz_full[1]) - (lz_red[0] - lz_red[1])) <= 1e-13
        m_full, m_red = full.pointer_obs.diagonal, red.pointer_obs.diagonal
        log_deg = np.array([math.log(math.comb(n, k)) for k in range(n + 1)])
        for f_st, r_st in zip(full.pointer_states, red.pointer_states):
            # the M_z marginal of a full pointer state is the reduced state
            marginal = np.array([f_st.diagonal[m_full == m].sum() for m in m_red])
            np.testing.assert_allclose(marginal, r_st.diagonal, rtol=1e-12, atol=1e-16)
            # uniform within each sector: S_full = S_reduced + sum_k q_k ln C(N, k)
            assert vn_entropy(f_st) == pytest.approx(
                vn_entropy(r_st) + float(r_st.diagonal @ log_deg), rel=1e-12)

    def test_operators_are_stored_as_diagonals(self):
        pointer = eq.build_curie_weiss_pointer(10, 1.0, 0.5)
        assert pointer.pointer_obs.diagonal.shape == (1024,)
        for st in pointer.pointer_states + pointer.sourced_states:
            assert st.diagonal is not None
        for w in pointer.window_projectors:
            assert w.shape == (1024,) and w.dtype == np.float64 and not w.flags.writeable
            assert set(np.unique(w)) == {0.0, 1.0}

    def test_window_fixed_point_reports_nonconvergence(self):
        # the window fixed point settles in 3 iterations here, not in 1
        eq.build_curie_weiss_pointer(8, 1.0, 0.5, reduced=True, max_iter=3)
        with pytest.raises(ConvergenceError, match="pointer window"):
            eq.build_curie_weiss_pointer(8, 1.0, 0.5, reduced=True, max_iter=1)

    def test_window_is_three_centered_deviations(self):
        # reference: the centered second moment of the same weights, in fsum
        n = 10**6
        pointer = eq.build_curie_weiss_pointer(n, 1.0, 0.5, reduced=True)
        h_m, m_obs = eq.reduced_magnet_operators(n, 1.0, 0.5)
        mz, energies = m_obs.diagonal, h_m.diagonal
        weights = np.exp(-(energies - energies.min()) / 0.5)
        for a in pointer.outcomes:
            mask = np.abs(mz - a) <= pointer.window
            w, m = weights[mask].tolist(), mz[mask].tolist()
            total = math.fsum(w)
            mean = math.fsum(wk * mk for wk, mk in zip(w, m)) / total
            var = math.fsum(wk * (mk - mean) ** 2 for wk, mk in zip(w, m)) / total
            assert pointer.window == pytest.approx(3.0 * math.sqrt(var), rel=1e-13)


def toy_pointer(projs=((1, 1, 0, 0), (0, 0, 1, 1)), states=None):
    """Two-outcome pointer on a 4-level magnet with M_z = diag(3, 2, -2, -3)."""
    if states is None:
        states = (np.diag([0.5, 0.5, 0.0, 0.0]), np.diag([0.0, 0.0, 0.5, 0.5]))
    states = tuple(DensityOperator(np.asarray(r, dtype=complex)) for r in states)
    return eq.PointerModel(
        pointer_obs=Observable(np.diag([3.0, 2.0, -2.0, -3.0]).astype(complex)),
        outcomes=(2.5, -2.5),
        window=1.6,
        window_projectors=projs,
        pointer_states=states,
        sourced_states=states,
        log_partition_consts=(0.0, 0.0),
    )


class TestPointerModelChecks:
    def test_toy_pointer_is_valid(self):
        pointer = toy_pointer()
        assert isinstance(pointer.window_projectors, tuple)
        assert np.array_equal(pointer.window_projectors[0], [1.0, 1.0, 0.0, 0.0])
        assert not pointer.window_projectors[0].flags.writeable

    def test_overlapping_windows_rejected(self):
        with pytest.raises(ValidationError, match="orthogonal"):
            toy_pointer(projs=((1, 1, 0, 0), (0, 1, 1, 1)))

    def test_leaking_state_rejected(self):
        leaky = np.diag([0.5, 0.4, 0.1, 0.0])
        with pytest.raises(ValidationError, match="leaks"):
            toy_pointer(states=(leaky, np.diag([0.0, 0.0, 0.5, 0.5])))

    def test_non_diagonal_state_rejected(self):
        coherent = np.diag([0.5, 0.5, 0.0, 0.0])
        coherent[0, 1] = coherent[1, 0] = 0.1
        with pytest.raises(ValidationError, match="diagonal"):
            toy_pointer(states=(coherent, np.diag([0.0, 0.0, 0.5, 0.5])))


class TestFinalJointState:
    def test_eigenstate_sector_passthrough(self):
        pointer = eq.build_curie_weiss_pointer(8, 1.0, 0.5, reduced=True)
        tested = sz_observable()
        r0 = bloch_state((0, 0, 1))
        joint = eq.final_joint_state(r0, tested, pointer)
        expected = tensor(r0, pointer.pointer_states[0])
        assert trace_distance(joint, expected) <= 1e-14

    def test_transverse_input_splits_evenly(self):
        pointer = eq.build_curie_weiss_pointer(8, 1.0, 0.5, reduced=True)
        tested = sz_observable()
        joint = eq.final_joint_state(bloch_state((1, 0, 0)), tested, pointer)
        halves = [0.5 * np.kron(np.diag([1.0, 0.0]), pointer.pointer_states[0].matrix),
                  0.5 * np.kron(np.diag([0.0, 1.0]), pointer.pointer_states[1].matrix)]
        assert np.allclose(joint.matrix, halves[0] + halves[1], atol=1e-14)

    @pytest.mark.parametrize("reduced", [False, True])
    def test_sz_joint_state_is_diagonal_and_exact(self, reduced):
        pointer = eq.build_curie_weiss_pointer(8, 1.0, 0.5, reduced=reduced)
        tested = sz_observable()
        r0 = bloch_state((0.5, 0.2, 0.3))
        joint = eq.final_joint_state(r0, tested, pointer)
        assert joint.diagonal is not None
        assert joint.subsystem_dims == (2, pointer.pointer_states[0].dim)
        # the dense Kronecker sum, entry for entry
        dense = sum(np.kron(p @ r0.matrix @ p, r.matrix)
                    for p, r in zip(tested.projectors, pointer.pointer_states))
        assert np.array_equal(joint.matrix, dense)
        assert vn_entropy(joint) == vn_entropy(DensityOperator(dense, joint.subsystem_dims))

    def test_sx_projectors_refused(self):
        # s_x pinches r0 to a non-diagonal state: no diagonal joint state exists
        pointer = eq.build_curie_weiss_pointer(8, 1.0, 0.5, reduced=True)
        plus = np.full((2, 2), 0.5, dtype=complex)
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
        tested = runs.TestedObservable((1.0, -1.0), (plus, minus))
        with pytest.raises(ValidationError, match="must be diagonal"):
            eq.final_joint_state(bloch_state((0.3, 0.2, 0.6)), tested, pointer)

    def test_marginal_is_the_pinched_state(self):
        pointer = eq.build_curie_weiss_pointer(8, 1.0, 0.5, reduced=True)
        tested = sz_observable()
        r0 = bloch_state((0.5, 0.2, 0.3))
        joint = eq.final_joint_state(r0, tested, pointer)
        marginal = partial_trace(joint, [0])
        pinched = sum(p @ r0.matrix @ p for p in tested.projectors)
        assert np.max(np.abs(marginal.matrix - pinched)) <= 1e-12


class TestMeanFieldRoot:
    @pytest.mark.parametrize("j", [0.5, 1.0, 2.0, 7.3])
    def test_matches_brentq_on_a_grid(self, j):
        brentq = pytest.importorskip("scipy.optimize").brentq
        # T/J stays 5% from T_C, where the root is ill-conditioned
        for ratio in (0.01, 0.1, 0.5, 0.8, 0.95, 1.05, 1.2, 3.0):
            t = ratio * j
            for field in (0.0, 1e-6, 1e-3, 0.1, 1.0, 50.0):
                if field == 0.0 and t >= j:
                    assert eq.meanfield_magnetization(j, t, field) == 0.0
                    continue
                got = eq.meanfield_magnetization(j, t, field)
                m = got[1] if field == 0.0 else got
                if field == 0.0:
                    assert got[0] == -m
                lo = 1e-8 if field == 0.0 else 0.0
                ref = brentq(eq._mf_residual, lo, 1.0, args=(j, t, field),
                             xtol=1e-15, rtol=8.9e-16)
                # brentq stops within its own tolerance of the root: a few ulp
                # for m of order 1, up to 1e-15 absolute for small m
                assert abs(m - ref) <= 1e-15 + 8.9e-16 * abs(ref) + 4 * math.ulp(ref), \
                    (j, t, field, m, ref)
                assert abs(eq._mf_residual(m, j, t, field)) <= 1e-12

    @pytest.mark.parametrize("t", [0.5, 0.8])
    def test_cli_points_unchanged(self, t):
        brentq = pytest.importorskip("scipy.optimize").brentq
        ref = brentq(eq._mf_residual, 1e-8, 1.0, args=(1.0, t, 0.0), xtol=1e-15, rtol=8.9e-16)
        assert eq.meanfield_magnetization(1.0, t) == (-ref, ref)

    def test_negative_field_mirrors(self):
        assert eq.meanfield_magnetization(1.0, 0.8, -0.1) == -eq.meanfield_magnetization(1.0, 0.8, 0.1)

    def test_free_energy_endpoints_are_finite_under_raise(self):
        with np.errstate(all="raise"):
            f = eq.free_energy_profile(1.0, 0.8, 0.2, [-1.0, 0.0, 1.0])
        assert np.array_equal(f, [-0.5 + 0.2, -0.8 * np.log(2.0), -0.5 - 0.2])


class TestNonFiniteInputs:
    @pytest.mark.parametrize("j, t", [(np.nan, 0.8), (1.0, np.nan), (np.inf, 0.8),
                                      (1.0, np.inf), (-np.inf, 0.8)])
    def test_non_finite_j_or_t_rejected(self, j, t):
        for call in (lambda: eq.meanfield_magnetization(j, t),
                     lambda: eq.g_threshold(j, t),
                     lambda: eq.free_energy_profile(j, t, 0.0, [0.0, 0.5])):
            with pytest.raises(ValidationError, match="finite"):
                call()

    @pytest.mark.parametrize("field", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_rejected(self, field):
        with pytest.raises(ValidationError, match="finite"):
            eq.meanfield_magnetization(1.0, 0.8, field)
        with pytest.raises(ValidationError, match="finite"):
            eq.free_energy_profile(1.0, 0.8, field, [0.0, 0.5])

    @pytest.mark.parametrize("j, t", [(np.nan, 0.8), (np.inf, 0.8), (1.0, np.nan),
                                      (1.0, np.inf)])
    def test_reduced_operators_reject_non_finite(self, j, t):
        with pytest.raises(ValidationError, match="finite"):
            eq.reduced_magnet_operators(10, j, t)


class TestReducedMirrorSymmetry:
    @pytest.mark.parametrize("n", [1, 2, 7, 200, 201])
    def test_spectrum_is_symmetric_under_m_to_minus_m(self, n):
        h_m, m_obs = eq.reduced_magnet_operators(n, 1.0, 0.8)
        h = np.diag(h_m.matrix).real
        m = np.diag(m_obs.matrix).real
        assert np.array_equal(h, h[::-1])
        assert np.array_equal(m, -m[::-1])

    def test_log_degeneracy_is_ln_binomial(self):
        from math import comb, log

        n, t = 60, 0.8
        h_m, _ = eq.reduced_magnet_operators(n, 0.0, t)
        want = [-t * log(comb(n, k)) for k in range(n + 1)]
        assert np.allclose(np.diag(h_m.matrix).real, want, rtol=1e-13, atol=1e-13)

    def test_opposite_sources_give_equal_partition_constants(self):
        pointer = eq.build_curie_weiss_pointer(200, 1.0, 0.5, reduced=True)
        lz_plus, lz_minus = pointer.log_partition_consts
        assert lz_plus == lz_minus


class TestRegistrationUnderRaise:
    def test_registration_defined_under_raise(self):
        # Gibbs weights below the normal range are rounding, not an error
        r0 = bloch_state((0.5, 0.2, 0.3))
        with np.errstate(all="raise"):
            for n in (1000, 10**6):
                pointer = eq.build_curie_weiss_pointer(n, 1.0, 0.5, reduced=True)
                joint = eq.final_joint_state(r0, sz_observable(), pointer)
                assert math.isfinite(vn_entropy(joint))
            n = 10**6
            h_m, m_obs = eq.reduced_magnet_operators(n, 1.0, 0.8)
            lim = eq.pointer_limit(h_m, Observable(diagonal=-m_obs.diagonal), 0.8,
                                   [0.02, 0.01], m_obs)
            assert np.all(np.isfinite(lim.values))
            sol = eq.maxent_state(eq.ConstraintSet(
                observables=(Observable(diagonal=m_obs.diagonal / n),), targets=(M_F_08,),
                temperature=0.8, hamiltonian=h_m))
            assert np.max(np.abs(sol.residuals)) <= 1e-10

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs for two BLAS threads")
    def test_window_independent_of_blas_threads(self):
        # 2^16 entries: past the size at which OpenBLAS splits a dot over threads
        code = ("from qmeas import equilibrium as eq; "
                "print(repr(eq.build_curie_weiss_pointer(16, 1.0, 0.5).window))")
        src = str(Path(__file__).resolve().parents[1] / "src")
        windows = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                 env=env, check=True)
            windows.append(out.stdout)
        assert windows[0] == windows[1]
