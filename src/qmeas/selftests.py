"""Quick built-in checks behind `qmeas <command> --selftest`.

Each subcommand's check runs its layer on inputs whose answer is known in
closed form.  The CLI imports this module only when --selftest is given, so
an ordinary job does not pay for compiling these bodies.
"""
from __future__ import annotations

from .errors import SelftestError, ValidationError


def _check(cond, msg: str) -> None:
    """Selftest check; unlike assert it still runs under python -O."""
    if not cond:
        raise SelftestError(msg)


def _selftest_truncate():
    import numpy as np

    from . import curie_weiss, kernels
    from .qstate import bloch_state

    model = curie_weiss.build_model(4, 1.0, 0.0, 0, bloch_state((0, 0, 1)))
    res = curie_weiss.transverse_expectations(model, np.linspace(0, 2, 50))
    _check(np.max(np.abs(res.sx)) == 0.0 and np.max(np.abs(res.sy)) == 0.0,
           "an s_z eigenstate must show no transverse signal")
    _check(curie_weiss.truncation_time(curie_weiss.build_model(2, 1.0)) == 0.5,
           "tau must be 1/(g sqrt(2N)) = 0.5 at N = 2, g = 1")
    m = curie_weiss.build_model(6, 1.0)
    _check(curie_weiss.offdiag_factor(m, 0.0) == 1.0, "F(0) must be 1")
    # cos(pi/2) is ~6e-17 in floats, so the 6-factor product is ~5e-98
    _check(abs(curie_weiss.offdiag_factor(m, np.pi / 4.0)) < 1e-80,
           "F at cos(pi/2) must vanish to rounding")
    # small angles take the power-sum series; pi/4 above takes the kernel
    spread = curie_weiss.build_model(1000, 1.0, 0.05, 0)
    ts = np.array([0.1, 0.5, 1.0, 2.0]) * curie_weiss.truncation_time(spread)
    direct = kernels.trig_product_direct(2.0 * spread.couplings, ts)
    _check(np.max(np.abs(curie_weiss.offdiag_factor(spread, ts) / direct - 1.0)) <= 1e-12,
           "the small-angle series for F must match the direct product to 1e-12")
    # N = 2, equal couplings 0.7: F(t) = cos^2(1.4 t), so s_x(t) = s_x(0) F(t)
    ts = np.array([0.0, 0.3, 0.9, 1.7])
    pair = curie_weiss.build_model(2, 0.7, 0.0, 0, bloch_state((0.6, 0, 0)))
    _check(np.allclose(curie_weiss.transverse_expectations(pair, ts).sx,
                       0.6 * np.cos(1.4 * ts) ** 2, rtol=0, atol=1e-15),
           "s_x must be 0.6 cos^2(1.4 t) at N = 2, g = 0.7")


def _selftest_recur():
    import numpy as np

    from . import curie_weiss

    model = curie_weiss.build_model(16, 1.0, 0.0, 0)
    peaks = curie_weiss.recurrence_profile(model, 3)
    _check(np.all(np.abs(peaks.measured - 1.0) <= 1e-12), "equal couplings must recur fully")
    _check(np.all(peaks.predicted == 1.0), "equal couplings must predict full recurrence")
    _check(abs(peaks.time[0] - np.pi / 2.0) <= 1e-15, "the first recurrence must sit at pi/(2g)")


def _selftest_cascade():
    import numpy as np

    from . import curie_weiss

    model = curie_weiss.build_model(5, 1.0)
    cx, cy = curie_weiss.cascade_correlation(model, 2, (0, 3), 0.0)
    _check(cx == 0.0 and cy == 0.0, "cascade correlators must vanish at t = 0")
    # N = 2, equal couplings 0.7, r0 = +x, k = 1: (0, -sin(1.4 t) cos(1.4 t))
    ts = np.array([0.0, 0.3, 0.9, 1.7])
    cx, cy = curie_weiss.cascade_correlation(curie_weiss.build_model(2, 0.7), 1, (0,), ts)
    _check(np.allclose(cx, 0.0, rtol=0, atol=1e-15)
           and np.allclose(cy, -np.sin(1.4 * ts) * np.cos(1.4 * ts), rtol=0, atol=1e-15),
           "the k = 1 correlators must be (0, -sin(1.4 t) cos(1.4 t)) at N = 2, g = 0.7")
    try:
        curie_weiss.cascade_correlation(model, 2, (0, 0), 0.1)
    except ValidationError:
        pass
    else:
        raise SelftestError("repeated subset index must be rejected")


def _selftest_register():
    import numpy as np

    from . import equilibrium
    from .qstate import Observable

    _check(equilibrium.meanfield_magnetization(1.0, 1.5) == 0.0, "no magnetization above T_C")
    _check(abs(equilibrium.meanfield_magnetization(1.0, 0.5, 50.0) - 1.0) < 1e-6,
           "a strong field must saturate m")
    _check(equilibrium.g_threshold(1.0, 1.2) == 0.0, "no threshold field above T_C")
    grid = np.linspace(-0.9, 0.9, 7)
    f_plus = equilibrium.free_energy_profile(1.0, 0.8, 0.3, grid)
    f_mirror = equilibrium.free_energy_profile(1.0, 0.8, 0.3, -grid)
    _check(np.max(np.abs((f_plus - f_mirror) - (-2.0 * 0.3 * grid))) < 1e-12,
           "F(m) - F(-m) must be -2 h m")
    # <M/N> = m_F on 9 sectors: on diagonals, and rotated by the DFT into dense operators
    h_m, m_obs = equilibrium.reduced_magnet_operators(8, 1.0, 0.8)
    m_f = equilibrium.meanfield_magnetization(1.0, 0.8)[1]
    u = np.exp(2j * np.pi * np.outer(np.arange(9), np.arange(9)) / 9) / 3.0
    sols = [equilibrium.maxent_state(equilibrium.ConstraintSet(
        observables=(op(m_obs.diagonal / 8),), targets=(m_f,), temperature=0.8,
        hamiltonian=op(h_m.diagonal)))
        for op in (lambda d: Observable(diagonal=d), lambda d: Observable((u * d) @ u.conj().T))]
    _check(abs(float(sols[0].state.diagonal @ m_obs.diagonal) / 8 - m_f) <= 1e-10,
           "the diagonal maxent solve must meet <M/N> = m_F to 1e-10")
    _check(abs(sols[0].multipliers[0] - sols[1].multipliers[0]) <= 1e-12
           and abs(sols[0].gamma - sols[1].gamma) <= 1e-12,
           "the diagonal maxent solve must agree with the rotated dense solve")


def _selftest_finalstate():
    import numpy as np

    from . import equilibrium, runs
    from .qstate import bloch_state, tensor, trace_distance, vn_entropy

    pointer = equilibrium.build_curie_weiss_pointer(8, 1.0, 0.5, reduced=True)
    tested = runs.sz_observable()
    up = bloch_state((0, 0, 1))
    joint = equilibrium.final_joint_state(up, tested, pointer)
    expected = tensor(up, pointer.pointer_states[0])
    _check(trace_distance(joint, expected) <= 1e-12,
           "an s_z eigenstate must pass into its own pointer state")
    p = runs.born_weights(bloch_state((1, 0, 0)), tested)
    _check(np.allclose(p, [0.5, 0.5], rtol=0, atol=1e-15), "+x must split 1/2, 1/2")
    full = equilibrium.build_curie_weiss_pointer(8, 1.0, 0.5)
    _check(abs(full.window - pointer.window) <= 1e-9 * pointer.window
           and np.allclose(full.outcomes, pointer.outcomes, rtol=1e-12, atol=0.0)
           and abs(full.log_partition_consts[0] - pointer.log_partition_consts[0]) <= 1e-12,
           "the full 2^N pointer must agree with the (N+1)-sector one")
    # M_z marginal of the full pointer state: sum its diagonal over each sector
    full_m = full.pointer_obs.diagonal
    red_m = pointer.pointer_obs.diagonal
    marginal = [full.pointer_states[0].diagonal[full_m == m].sum() for m in red_m]
    _check(np.allclose(marginal, pointer.pointer_states[0].diagonal, rtol=0.0, atol=1e-13),
           "the full pointer's M_z marginal must be the reduced pointer state")
    # the full output derived from the sectors, against the 2^N joint state
    r0 = bloch_state((0.3, 0.2, 0.6))
    entropy, magnet_dim = equilibrium.full_representation_summary(
        equilibrium.final_joint_state(r0, tested, pointer))
    _check(abs(entropy - vn_entropy(equilibrium.final_joint_state(r0, tested, full))) <= 1e-12
           and magnet_dim == 256,
           "the entropy derived from the sectors must be the 2^N joint state's, on 256 states")


def _selftest_born():
    import numpy as np

    from . import runs
    from .qstate import bloch_state

    tested = runs.sz_observable()
    split = runs.sample_runs([1.0, 0.0], 100, 3)
    _check(split.counts == (100, 0), "p = (1, 0) must send every run to outcome 0")
    p = runs.born_weights(bloch_state((0, 0, 0.6)), tested)
    _check(np.allclose(p, [0.8, 0.2], rtol=0, atol=1e-15),
           "r0 = 0.6 z must give Born weights (0.8, 0.2)")
    again = runs.sample_runs([0.5, 0.5], 1000, 7)
    _check(again.counts == runs.sample_runs([0.5, 0.5], 1000, 7).counts,
           "a fixed seed must reproduce its counts")


def _selftest_reduce():
    import numpy as np

    from . import runs
    from .qstate import bloch_state, bloch_vector, trace_distance, vn_entropy

    tested = runs.sz_observable()
    plus_x = bloch_state((1, 0, 0))
    b = runs.luders_branch(plus_x, tested, 0)
    _check(trace_distance(b.r, bloch_state((0, 0, 1))) <= 1e-12,
           "the Luders branch of +x must be +z")
    pinched = runs.unread_reduction(bloch_state((0.3, 0.4, 0.5)), tested)
    _check(np.allclose(bloch_vector(pinched), [0, 0, 0.5], rtol=0, atol=1e-14),
           "the unread pinch must keep only the z component")
    mixed = runs.unread_reduction(plus_x, tested)
    _check(abs(vn_entropy(mixed) - np.log(2.0)) <= 1e-12, "pinching +x must give entropy ln 2")


def _selftest_ambiguity():
    import numpy as np

    from . import ambiguity

    dec = ambiguity.chord_decomposition((0, 0, 0), (0, 0, 1))
    _check(np.allclose(dec.v1, [0, 0, 1], rtol=0, atol=1e-15)
           and np.allclose(dec.v2, [0, 0, -1], rtol=0, atol=1e-15),
           "the z chord must end at the poles")
    _check(abs(dec.rho1 - 0.5) <= 1e-15, "the centre must split the z chord evenly")
    try:
        ambiguity.ambiguity_witness((0, 0, 0), (0, 0, 1), (0, 0, -1))
    except ValidationError:
        pass
    else:
        raise SelftestError("parallel chords must be rejected")


def _selftest_dispersionless():
    import numpy as np

    from . import ambiguity
    from .qstate import Observable, bloch_state, maximally_mixed

    z_up = bloch_state((0, 0, 1))
    sz = Observable(np.diag([1.0 + 0j, -1.0]))
    _check(ambiguity.is_dispersionless(z_up, sz), "+z must be dispersionless for s_z")
    _check(not ambiguity.is_dispersionless(maximally_mixed(2), sz),
           "the mixed state must not be dispersionless for s_z")
    fam = ambiguity.dispersionless_family(maximally_mixed(3))
    _check(fam.param_count == 1, "the maximally mixed qutrit must leave one certain parameter")


def _selftest_chsh():
    import numpy as np

    from . import contextuality

    state = contextuality.singlet_state()
    z = np.array([0.0, 0.0, 1.0])
    x = np.array([1.0, 0.0, 0.0])
    same = contextuality.pair_correlator(state, contextuality.DirectionPair(z, z))
    perp = contextuality.pair_correlator(state, contextuality.DirectionPair(z, x))
    _check(abs(same + 1.0) <= 1e-12 and abs(perp) <= 1e-12,
           "singlet correlators must be -1 along z, z and 0 along z, x")
    c = contextuality.chsh_value(state, *contextuality.optimal_chsh_axes())
    _check(abs(c - 2.0 * np.sqrt(2.0)) <= 1e-12, "the optimal CHSH value must be 2 sqrt 2")


def _selftest_feasible():
    import numpy as np

    from . import contextuality

    flat = contextuality.CorrelatorTable(np.zeros((2, 2)))
    res = contextuality.joint_distribution_feasible(flat)
    _check(res.feasible, "the zero table must be feasible")
    q = res.distribution.ravel()
    a_mat, b_vec = contextuality._feasibility_system(flat)
    _check(q.min() >= 0.0 and np.max(np.abs(a_mat @ q - b_vec)) <= 1e-12,
           "the zero table's distribution must be nonnegative and reproduce the table")
    # the deterministic assignment z = +1, x = -1, u = -1, v = +1 is vertex 6
    vertex = contextuality.CorrelatorTable(np.array([[-1.0, 1.0], [1.0, -1.0]]),
                                           np.array([1.0, -1.0]), np.array([-1.0, 1.0]))
    res = contextuality.joint_distribution_feasible(vertex)
    _check(res.feasible and np.array_equal(res.distribution.ravel(), np.eye(16)[6]),
           "a deterministic table must return its own vertex")
    # moments of a strictly positive joint: nonzero marginals, strictly inside
    inner = contextuality.CorrelatorTable(
        np.array([[-0.451917657447296, 0.1253192321045533],
                  [-0.14012006189081957, 0.43709122600856243]]),
        np.array([-0.12530641049228353, -0.43710404991622376]),
        np.array([-0.422774384657617, -0.9999870116425157]))
    res = contextuality.joint_distribution_feasible(inner)
    _check(res.feasible, "a table strictly inside the local polytope must be feasible")
    q = res.distribution.ravel()
    a_mat, b_vec = contextuality._feasibility_system(inner)
    _check(q.min() >= 0.0 and np.max(np.abs(a_mat @ q - b_vec)) <= 1e-12,
           "a table with marginals must get a nonnegative distribution that reproduces it")
    singlet_table = contextuality.table_from_state(contextuality.singlet_state())
    res2 = contextuality.joint_distribution_feasible(singlet_table)
    _check(not res2.feasible and res2.witness.kind == "chsh",
           "the singlet table must be refuted by a CHSH witness")


def _selftest_oracle_check():
    import numpy as np

    from . import curie_weiss, oracle
    from .qstate import bloch_state, partial_trace

    # equal couplings g = 1 at N = 2 and r0 = +x: F(t) = s_x(t) = cos(2t)^2
    model = curie_weiss.build_model(2, 1.0, 0.0, 0, bloch_state((1, 0, 0)))
    joint = oracle.joint_state(model, 0.0)
    _check(np.allclose(joint.matrix, np.kron(model.r0.matrix, np.eye(4) / 4.0),
                       rtol=0, atol=1e-15),
           "the initial joint state must be r0 (x) I/4")
    times = np.array([0.0, 0.3, 0.7])
    obs = oracle.grid_expectations(model, times)
    _check(np.max(np.abs(obs["f"] - np.cos(2.0 * times) ** 2)) <= 1e-12,
           "the grid's F must be cos(2t)^2 at N = 2")
    spin = partial_trace(oracle.joint_state(model, times[2]), [0]).matrix
    _check(abs(2.0 * spin[0, 1].real - obs["sx"][2]) <= 1e-12,
           "the joint state's s_x must match the grid's")


def _selftest_appc_report():
    import numpy as np

    from . import curie_weiss, oracle
    from .qstate import bloch_state

    model1 = curie_weiss.build_model(1, 1.0, 0.0, 0, bloch_state((1, 0, 0)))
    rep1 = oracle.appendix_c_grid(model1, [0.0, 0.1])
    _check(rep1.no_macroscopic_limit, "N = 1 must be flagged as having no macroscopic limit")
    model2 = curie_weiss.build_model(2, 1.0, 0.0, 0, bloch_state((1, 0, 0)))
    times = np.array([0.0, 0.3, 0.7])
    rep2 = oracle.appendix_c_grid(model2, times)
    _check(rep2.invariant_ok, "the block invariant must hold at N = 2")
    _check(np.max(np.abs(rep2.sx - np.cos(2.0 * times) ** 2)) <= 1e-12,
           "s_x must decay as cos(2t)^2 at N = 2")


SELFTESTS = {
    "truncate": _selftest_truncate,
    "recur": _selftest_recur,
    "cascade": _selftest_cascade,
    "register": _selftest_register,
    "finalstate": _selftest_finalstate,
    "born": _selftest_born,
    "reduce": _selftest_reduce,
    "ambiguity": _selftest_ambiguity,
    "dispersionless": _selftest_dispersionless,
    "chsh": _selftest_chsh,
    "feasible": _selftest_feasible,
    "oracle-check": _selftest_oracle_check,
    "appc-report": _selftest_appc_report,
}
