import json
import tracemalloc

import numpy as np
import pytest

from qmeas import cli
from qmeas import curie_weiss as cw
from qmeas import oracle
from qmeas.errors import GuardError, ValidationError
from qmeas.qstate import DensityOperator, bloch_state, partial_trace, vn_entropy


def spread_model(n, seed=3, r0=(0.4, -0.5, 0.3)):
    return cw.build_model(n, 1.0, 0.07, seed, bloch_state(r0))


def up_down(joint, model):
    """The bare up-down magnet block R_01 of a joint state: W_01 / r_01."""
    dim = 2**model.N
    return joint.matrix[:dim, dim:] / model.r0.matrix[0, 1]


SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SY = np.array([[0, -1j], [1j, 0]])


def dense_readings(model, t, subsets):
    """F, s_x, s_y, the cascade correlators and the Appendix C deviation of
    the dense joint state at time t: F and the deviation from the bare
    up-down block, the rest as tr(rho P) of Pauli products P."""
    joint = oracle.joint_state(model, t)
    dim = 2**model.N
    bits = np.arange(dim)
    block = up_down(joint, model)
    gram = block @ block.conj().T

    def expect(pauli, z):
        return np.sum(joint.matrix * np.kron(pauli, np.diag(z)).T).real

    ones = np.ones(dim)
    out = {"f": np.trace(block).real,
           "invariant_deviation": np.max(np.abs(gram - np.eye(dim) / dim**2)),
           "sx": expect(SX, ones), "sy": expect(SY, ones)}
    for s in subsets:
        z = np.prod([1.0 - 2.0 * ((bits >> n) & 1) for n in s], axis=0)
        out[s] = (expect(SX, z), expect(SY, z))
    return out


class TestJointBlocks:
    def test_initial_blocks_are_weighted_uniform(self):
        model = spread_model(4)
        joint = oracle.joint_state(model, 0.0).matrix.reshape(2, 16, 2, 16)
        for i in range(2):
            for j in range(2):
                w = model.r0.matrix[i, j]
                assert np.allclose(joint[i, :, j, :], w * np.eye(16) / 16, atol=1e-15)

    def test_hermiticity_pairing_exact(self):
        model = spread_model(5)
        m = oracle.joint_state(model, 0.83).matrix
        assert np.array_equal(m[32:, :32], m[:32, 32:].conj().T)

    def test_blocks_are_diagonal(self):
        # dephasing keeps every magnet-space block diagonal in the M_z basis
        joint = oracle.joint_state(spread_model(5), 0.83).matrix.reshape(2, 32, 2, 32)
        for i in range(2):
            for j in range(2):
                block = joint[i, :, j, :]
                assert np.array_equal(block, np.diag(np.diagonal(block)))

    def test_broken_pairing_rejected(self):
        # W_10 must be the conjugate transpose of W_01, not W_01 itself;
        # the joint state's Hermitian check refuses the swap
        m = oracle.joint_state(spread_model(4), 0.6).matrix.copy()
        m[16:, :16] = m[:16, 16:]
        with pytest.raises(ValidationError, match="not Hermitian"):
            DensityOperator(m, subsystem_dims=(2, 16))

    def test_eigenstate_input_drives_single_block(self):
        model = cw.build_model(4, 1.0, 0.0, 0, bloch_state((0, 0, 1)))
        m = oracle.joint_state(model, 0.47).matrix
        assert np.array_equal(m[:16, 16:], np.zeros((16, 16)))
        assert np.array_equal(m[16:, 16:], np.zeros((16, 16)))
        assert np.trace(m[:16, :16]).real == pytest.approx(1.0, abs=1e-12)

    def test_offdiag_trace_reproduces_analytic_factor(self):
        times = [0.15, 0.8, 2.1]
        for n in (2, 6, 10):
            model = spread_model(n)
            f = oracle.grid_expectations(model, times)["f"]
            assert np.max(np.abs(f - cw.offdiag_factor(model, times))) <= 1e-12


class TestReconstruction:
    def test_initial_product_form(self):
        model = spread_model(3)
        joint = oracle.joint_state(model, 0.0)
        expected = np.kron(model.r0.matrix, np.eye(8) / 8.0)
        assert np.allclose(joint.matrix, expected, atol=1e-15)

    def test_entropy_and_spectrum_constant(self):
        model = spread_model(4)
        s0 = None
        spec0 = None
        for t in np.linspace(0.0, 3.0, 7):
            joint = oracle.joint_state(model, t)
            s = vn_entropy(joint)
            spec = np.sort(np.linalg.eigvalsh(joint.matrix))
            if s0 is None:
                s0, spec0 = s, spec
            else:
                assert abs(s - s0) <= 1e-9
                assert np.max(np.abs(spec - spec0)) <= 1e-10

    def test_marginal_pinches_when_f_vanishes(self):
        model = spread_model(6)
        for t in (0.21, 1.3):
            marginal = partial_trace(oracle.joint_state(model, t), [0])
            f = cw.offdiag_factor(model, t)
            # transverse components scale with F(t); diagonals never move
            assert 2 * marginal.matrix[0, 1].real == pytest.approx(0.4 * f, abs=1e-12)
            assert marginal.matrix[0, 0].real == pytest.approx((1 + 0.3) / 2, abs=1e-12)


class TestCrossValidation:
    def test_analytic_observables_match_dense(self):
        # (3, 1) is a subset that is not a prefix, given out of order
        subsets = [(0,), (0, 1), (0, 1, 2), (3, 1)]
        for n in (2, 4, 5, 10, 12):
            model = spread_model(n)
            times = np.linspace(0.0, 2.5, 40)
            res = cw.transverse_expectations(model, times)
            cascades = {
                s: cw.cascade_correlation(model, len(s), s, times)
                for s in subsets if max(s) < n
            }
            exp = oracle.grid_expectations(model, times, subsets=list(cascades))
            assert np.max(np.abs(exp["sx"] - res.sx)) <= 1e-10
            assert np.max(np.abs(exp["sy"] - res.sy)) <= 1e-10
            for s, (ax, ay) in cascades.items():
                got_x, got_y = exp["cascade"][s]
                assert np.max(np.abs(got_x - ax)) <= 1e-10
                assert np.max(np.abs(got_y - ay)) <= 1e-10


class TestDenseGuard:
    def test_byte_guard_mentions_streaming(self):
        # the dense joint state takes 16 complex 4^N matrices: 1.07 GB at
        # N = 11, past the 1 GB byte budget; the refusal names the grid
        model = spread_model(11)
        with pytest.raises(GuardError) as err:
            oracle.joint_state(model, 0.1)
        assert "grid_expectations" in str(err.value)

    def test_diagonal_blocks_are_estimated_at_2_to_the_n(self):
        # 13 complex 2^N vectors: 872 MB at N = 22, where a 4^N estimate
        # would have asked for 2.8e14 B
        oracle.guard_spins(22)

    def test_model_size_guard(self):
        # 13 complex 2^N vectors pass the byte budget from N = 23; the
        # refusal comes before any 2^N array exists, on either entry point
        model = spread_model(23)
        for call in (oracle.grid_expectations, oracle.joint_state):
            tracemalloc.start()
            try:
                with pytest.raises(GuardError, match="dense oracle"):
                    call(model, 0.1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**23  # half of one float64 2^N vector

    def test_dense_reads_of_diagonal_blocks_are_guarded(self):
        # the joint state reads the diagonal blocks as dense 4^N matrices:
        # admitted at N = 10, refused from N = 11 before any 4^N array exists
        assert oracle.joint_state(spread_model(10), 0.1).dim == 2**11
        model = spread_model(11)
        tracemalloc.start()
        try:
            with pytest.raises(GuardError, match="joint state"):
                oracle.joint_state(model, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4**11  # a sixteenth of one complex 4^N matrix


class TestAppendixCReport:
    def test_invariant_holds_while_sx_decays(self):
        model = cw.build_model(8, 1.0, 0.0, 0, bloch_state((1, 0, 0)))
        tau = cw.truncation_time(model)
        times = np.linspace(0.0, 4 * tau, 200)
        rep = oracle.appendix_c_grid(model, times)
        assert rep.invariant_ok
        assert np.max(rep.invariant_deviation) <= 1e-12
        assert not rep.no_macroscopic_limit
        # physical decay coexists with the exact block invariant: the exact
        # value at 4*tau is cos^8(2*g*4*tau), far above the Gaussian estimate
        exact_tail = np.cos(2 * 4 * tau) ** 8
        assert rep.sx[-1] == pytest.approx(exact_tail, abs=1e-12)
        assert abs(rep.sx[-1]) > 1e-4
        assert set(rep.correlators) == {1, 2, 3}

    def test_single_spin_flagged(self):
        model = cw.build_model(1, 1.0, 0.0, 0, bloch_state((1, 0, 0)))
        rep = oracle.appendix_c_grid(model, np.linspace(0, 3, 20))
        assert rep.no_macroscopic_limit
        assert rep.invariant_ok

    def test_diagonal_r0_rejected(self):
        model = cw.build_model(3, 1.0, 0.0, 0, bloch_state((0, 0, 1)))
        with pytest.raises(ValidationError):
            oracle.appendix_c_grid(model, np.array([0.0]))


class TestTiles:
    SUBSETS = [(0,), (0, 1), (0, 1, 2), (3, 1)]

    @pytest.mark.parametrize("n", [8, 10])
    def test_tile_rows_bit_equal_single_time(self, n):
        # 2^13 / 2^N times share a tile; positions 0, 1 and rows - 1 of every
        # tile, and the partial last tile, give the one-time grid bit for bit
        model = spread_model(n)
        times = np.linspace(0.0, 2.5, 75)
        rows = oracle._TILE // 2**n
        grid = oracle.grid_expectations(model, times, self.SUBSETS, invariant=True)
        for idx in range(len(times)):
            if idx % rows in (0, 1, rows - 1) or idx == len(times) - 1:
                one = oracle.grid_expectations(model, times[idx:idx + 1], self.SUBSETS,
                                               invariant=True)
                for key in ("f", "sx", "sy", "invariant_deviation"):
                    assert np.array_equal(grid[key][idx:idx + 1], one[key])
                for s in self.SUBSETS:
                    for i in range(2):
                        assert np.array_equal(grid["cascade"][s][i][idx:idx + 1],
                                              one["cascade"][s][i])

    def test_grid_equals_its_halves(self):
        model = spread_model(10)
        times = np.linspace(0.0, 3.0, 61)
        whole = oracle.grid_expectations(model, times, self.SUBSETS, invariant=True)
        # 37 splits a tile of 8 times
        halves = [oracle.grid_expectations(model, part, self.SUBSETS, invariant=True)
                  for part in (times[:37], times[37:])]
        for key in ("f", "sx", "sy", "invariant_deviation"):
            joined = np.concatenate([h[key] for h in halves])
            assert np.max(np.abs(whole[key] - joined)) <= 1e-15
        for s in self.SUBSETS:
            for i in range(2):
                joined = np.concatenate([h["cascade"][s][i] for h in halves])
                assert np.max(np.abs(whole["cascade"][s][i] - joined)) <= 1e-15

    def test_grid_matches_streamed_blocks(self):
        # the grid against joint states built one time at a time, read as
        # Pauli-product expectations of the dense 2^(N+1)-square operator
        model = spread_model(7)
        times = np.linspace(0.0, 2.0, 23)
        grid = oracle.grid_expectations(model, times, self.SUBSETS, invariant=True)
        for idx, t in enumerate(times):
            one = dense_readings(model, t, self.SUBSETS)
            for key in ("f", "sx", "sy", "invariant_deviation"):
                assert grid[key][idx] == pytest.approx(one[key], abs=1e-15)
            for s in self.SUBSETS:
                assert grid["cascade"][s][0][idx] == pytest.approx(one[s][0], abs=1e-15)
                assert grid["cascade"][s][1][idx] == pytest.approx(one[s][1], abs=1e-15)

    def test_memory_stays_at_one_tile(self):
        # past one tile's temporaries, a grid adds only its output arrays
        model = spread_model(10)
        peaks = {}
        for points in (200, 2000):
            times = np.linspace(0.0, 3.0, points)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                oracle.grid_expectations(model, times, self.SUBSETS[:3], invariant=True)
                peaks[points] = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert peaks[2000] < 2**20
        # ten float64 output arrays grow by 1800 entries each
        assert peaks[2000] - peaks[200] < 16 * 8 * 1800

    @pytest.mark.parametrize("r0", [(0.4, -0.5, 0.3), (0.9, 0.1, 0.2), (0.3, 0.7, 0.1)])
    def test_time_zero_row_is_exact_under_raise(self, r0):
        # F comes from the bare phase sum, not from the weighted block
        # divided by its weight: no rounding at t = 0 for any r0
        model = spread_model(10, r0=r0)
        with np.errstate(all="raise"):
            obs = oracle.grid_expectations(model, [0.0, 0.4], self.SUBSETS, invariant=True)
        assert obs["f"][0] == 1.0
        assert obs["invariant_deviation"][0] == 0.0

    @pytest.mark.parametrize("n, points", [(10, 200), (16, 20)])
    def test_oracle_check_deviations_at_rounding(self, capsys, n, points):
        code = cli.main(["oracle-check", "--N", str(n), "--delta-g-rel", "0.1",
                         "--points", str(points)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["points"] == points
        assert max(out["max_abs_deviation"].values()) <= 1e-14

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError):
            oracle.grid_expectations(spread_model(4), [])

    def test_appendix_c_grid_matches_streamed_report(self):
        model = spread_model(7)
        times = np.linspace(0.0, 2.0, 30)
        rep = oracle.appendix_c_grid(model, times)
        assert rep.invariant_ok
        assert np.array_equal(rep.times, times)
        assert set(rep.correlators) == {1, 2, 3}
        prefixes = [(0,), (0, 1), (0, 1, 2)]
        for idx, t in enumerate(times):
            one = dense_readings(model, t, prefixes)
            assert rep.invariant_deviation[idx] == pytest.approx(one["invariant_deviation"],
                                                                 abs=1e-15)
            assert rep.sx[idx] == pytest.approx(one["sx"], abs=1e-15)
            for s in prefixes:
                assert rep.correlators[len(s)][idx] == pytest.approx(one[s][0], abs=1e-15)
        with pytest.raises(ValidationError):
            oracle.appendix_c_grid(cw.build_model(3, 1.0, 0.0, 0, bloch_state((0, 0, 1))),
                                   times)


def test_public_names():
    own = {name for name, obj in vars(oracle).items()
           if not name.startswith("_") and getattr(obj, "__module__", None) == oracle.__name__}
    assert own == {"AppendixCReport", "guard_spins", "grid_expectations",
                   "appendix_c_grid", "joint_state"}
