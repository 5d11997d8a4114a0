"""End-to-end checks, one test per headline requirement.

Each test states its target tolerance inline; the suite intentionally avoids
fixtures so every criterion reads as a standalone protocol.
"""

import math
import time

import numpy as np
import pytest

from qmeas import ambiguity as amb
from qmeas import contextuality as ctx
from qmeas import curie_weiss as cw
from qmeas import equilibrium as eq
from qmeas import oracle, runs
from qmeas.errors import ValidationError
from qmeas.qstate import Observable, bloch_state, qexpect, tensor, trace_distance

from conftest import random_density, random_hermitian

M_F = 0.7104117834878704  # root of m = tanh(1.25 m); pinned by the residual check


def test_criterion_01_gaussian_truncation_envelope():
    start = time.perf_counter()
    model = cw.build_model(10_000, 0.01, 0.0, 0, bloch_state((1, 0, 0)))
    tau = cw.truncation_time(model)
    grid = np.linspace(0.0, 2.0 * tau, 201)
    res = cw.transverse_expectations(model, grid)
    elapsed = time.perf_counter() - start
    gauss = np.exp(-((grid / tau) ** 2))
    assert np.max(np.abs(res.sx - gauss)) <= 1e-3
    assert elapsed < 1.0


def test_criterion_02_analytic_blocks_match_dense_oracle():
    start = time.perf_counter()
    subsets = [(0,), (0, 1), (0, 1, 2)]
    for n in (2, 4, 8, 10):
        model = cw.build_model(n, 1.0, 0.07, seed=n, r0=bloch_state((0.4, -0.5, 0.3)))
        times = np.linspace(0.0, 3.0, 200)
        res = cw.transverse_expectations(model, times)
        f_ref = cw.offdiag_factor(model, times)
        live = [s for s in subsets if len(s) <= n]
        cascades = {s: cw.cascade_correlation(model, len(s), s, times) for s in live}
        exp = oracle.grid_expectations(model, times, subsets=live)
        assert np.max(np.abs(exp["sx"] - res.sx)) <= 1e-10
        assert np.max(np.abs(exp["sy"] - res.sy)) <= 1e-10
        assert np.max(np.abs(exp["f"] - f_ref)) <= 1e-10
        for s, (ax, ay) in cascades.items():
            got_x, got_y = exp["cascade"][s]
            assert np.max(np.abs(got_x - ax)) <= 1e-10
            assert np.max(np.abs(got_y - ay)) <= 1e-10
    assert time.perf_counter() - start < 30.0


def test_criterion_03_recurrence_damping_statistics():
    n, rel = 400, 0.1
    k_const = n * (np.pi * rel) ** 2 / 2.0
    logs = {1: [], 2: []}
    for seed in range(20):
        model = cw.build_model(n, 1.0, rel, seed=seed, r0=bloch_state((1, 0, 0)))
        peaks = cw.recurrence_profile(model, 2)
        for nu, measured in zip(peaks.nu.tolist(), peaks.measured.tolist()):
            logs[nu].append(math.log(measured))
    for nu in (1, 2):
        target = -k_const * nu**2
        mean = float(np.mean(logs[nu]))
        assert abs(mean - target) <= 0.5 * abs(target)


def test_criterion_04_cascade_peak_times():
    model = cw.build_model(10_000, 0.01, 0.0, 0, bloch_state((1, 0, 0)))
    tau = cw.truncation_time(model)
    grid = np.arange(0.0, 2.5 * tau, 0.005 * tau)
    for k in (1, 2, 3):
        cx, cy = cw.cascade_correlation(model, k, tuple(range(k)), grid)
        t_star = grid[np.argmax(np.hypot(cx, cy))]
        assert abs(t_star - math.sqrt(k / 2.0) * tau) <= 0.02 * tau


def test_criterion_05_block_invariant_vs_transverse_decay():
    model = cw.build_model(11, 1.0, 0.0, 0, bloch_state((1, 0, 0)))
    tau = cw.truncation_time(model)
    times = np.linspace(0.0, 4.0 * tau, 200)
    rep = oracle.appendix_c_grid(model, times)
    assert rep.invariant_ok
    assert np.max(rep.invariant_deviation) <= 1e-12
    # with equal couplings the exact tail is s_x(4 tau) = cos(8 / sqrt(2N))^N:
    # 9.0e-4 at N = 8, -2.6e-10 at N = 11, and exp(-16) = 1.1e-7 as N -> inf,
    # so the 1e-7 bound holds only for 11 <= N <= 731; N = 11 is the
    # cheapest size that meets it
    assert abs(rep.sx[-1]) <= 1e-7


def test_criterion_06_born_weights_and_frequencies():
    tested = runs.sz_observable()
    p = runs.born_weights(bloch_state((0, 0, 0.6)), tested)
    assert abs(p[0] - 0.8) <= 1e-12
    assert abs(p[1] - 0.2) <= 1e-12
    split = runs.sample_runs(p, 100_000, seed=1)
    sigma = math.sqrt(0.16 / 100_000)
    assert abs(split.counts[0] / split.total - 0.8) <= 5.0 * sigma


def test_criterion_07_pointer_subensembles_factor():
    pointer = eq.build_curie_weiss_pointer(10, 1.0, 0.5, reduced=True)
    tested = runs.sz_observable()
    r0 = bloch_state((1, 0, 0))
    joint = eq.final_joint_state(r0, tested, pointer)
    for i in (0, 1):
        br = runs.subensemble_state(joint, pointer, i)
        assert abs(br.p - 0.5) <= 1e-12
        expected = tensor(runs.luders_branch(r0, tested, i).r,
                          pointer.pointer_states[i])
        assert trace_distance(br.delta, expected) <= 1e-8


def test_criterion_08_maxent_solver():
    rng = np.random.default_rng(8)
    solved = 0
    while solved < 20:
        dim = int(rng.integers(2, 17))
        k = int(rng.integers(1, 4))
        obs = [random_hermitian(dim, rng) for _ in range(k)]
        probe = random_density(dim, rng)
        targets = [qexpect(probe, o) for o in obs]
        try:
            cs = eq.ConstraintSet(observables=tuple(obs), targets=tuple(targets))
        except ValidationError:
            continue
        sol = eq.maxent_state(cs)
        assert np.max(np.abs(sol.residuals)) <= 1e-10
        vals, vecs = np.linalg.eigh(sol.state.matrix)
        log_d = (vecs * np.log(vals)) @ vecs.conj().T
        stationarity = log_d + sol.gamma * np.eye(dim)
        for lam, o in zip(sol.multipliers, obs):
            stationarity += lam * o.matrix
        assert np.max(np.abs(stationarity)) <= 1e-6
        solved += 1
    h = Observable(np.diag([0.0, 1.0]).astype(complex))
    sol = eq.maxent_state(eq.ConstraintSet(temperature=1.0, hamiltonian=h))
    pops = np.real(np.diag(sol.state.matrix))
    z = 1.0 + math.exp(-1.0)
    assert abs(pops[0] - 1.0 / z) <= 1e-8
    assert abs(pops[1] - math.exp(-1.0) / z) <= 1e-8


def test_criterion_09_meanfield_registration():
    m_up = max(eq.meanfield_magnetization(1.0, 0.8))
    assert abs(m_up - M_F) <= 1e-6
    assert abs(m_up - math.tanh(1.25 * m_up)) <= 1e-12
    grid = np.linspace(0.1, 0.9, 10)
    thresholds = [eq.g_threshold(1.0, float(t)) for t in grid]
    assert all(a > b for a, b in zip(thresholds, thresholds[1:]))


def test_criterion_10_chsh_and_joint_feasibility():
    state = ctx.singlet_state()
    c = ctx.chsh_value(state, *ctx.optimal_chsh_axes())
    assert abs(c - 2.828427124) <= 1e-9
    res = ctx.joint_distribution_feasible(ctx.table_from_state(state))
    assert not res.feasible
    assert res.witness.kind == "chsh"
    rng = np.random.default_rng(10)
    for _ in range(1000):
        table = ctx.CorrelatorTable(rng.uniform(-1.0, 1.0, size=(2, 2)))
        worst = max(abs(v) for _, v in ctx.chsh_variants(table))
        feasible = ctx.joint_distribution_feasible(table).feasible
        assert feasible == (worst <= 2.0 + 1e-9)


def test_criterion_11_dispersionless_parameter_counts():
    rng = np.random.default_rng(11)
    for n, k, expected in ((2, 1, 2), (2, 2, 1), (3, 2, 2), (4, 1, 10), (4, 4, 1)):
        r0 = random_density(n, rng, rank=k)
        fam = amb.dispersionless_family(r0)
        assert fam.param_count == expected
        assert fam.rank == k
        for obs in fam.basis:
            a = obs.matrix
            mean = np.trace(r0.matrix @ a).real
            variance = np.trace(r0.matrix @ a @ a).real - mean**2
            assert abs(variance) <= 1e-10


def test_criterion_12_decomposition_ambiguity():
    rep = amb.ambiguity_witness([0, 0, 0], [0, 0, 1], [1, 0, 0])
    assert rep.contradiction
    points = [rep.first.v1, rep.first.v2, rep.second.v1, rep.second.v2]
    for i in range(4):
        for j in range(i + 1, 4):
            assert np.max(np.abs(points[i] - points[j])) > 0.5
    assert np.max(np.abs(rep.overlaps[:2, 2:] - 0.5)) <= 1e-12
    for dec in (rep.first, rep.second):
        s1, s2 = dec.states()
        mix = dec.rho1 * s1.matrix + dec.rho2 * s2.matrix
        assert np.array_equal(mix, np.eye(2) / 2.0)


def test_pointer_limit_finite_size_trend():
    scales = [0.3, 0.25, 0.2, 0.15]
    errors = {}
    for n in (8, 10, 12):
        h_m, m_obs = eq.reduced_magnet_operators(n, 1.0, 0.8)
        source = Observable(-np.asarray(m_obs.matrix))
        lim = eq.pointer_limit(h_m, source, 0.8, scales, m_obs)
        assert not lim.converged  # desk sizes cannot reach the weak-source limit
        errors[n] = abs(lim.extrapolated - n * M_F) / n
    assert errors[8] > errors[10] > errors[12]
