import json
import tracemalloc

import numpy as np
import pytest

from qmeas import cli
from qmeas import curie_weiss as cw
from qmeas import oracle
from qmeas.errors import GuardError, ValidationError
from qmeas.qstate import bloch_state, partial_trace, vn_entropy


def spread_model(n, seed=3, r0=(0.4, -0.5, 0.3)):
    return cw.build_model(n, 1.0, 0.07, seed, bloch_state(r0))


class TestSectorBlocks:
    def test_initial_blocks_are_weighted_uniform(self):
        model = spread_model(4)
        sb = oracle.sector_blocks_at(model, 0.0)
        dim = 2**4
        for (i, j), block in sb.blocks.items():
            w = sb.sector_weights[i, j]
            assert np.allclose(block, w * np.eye(dim) / dim, atol=1e-15)

    def test_hermiticity_pairing_exact(self):
        sb = oracle.sector_blocks_at(spread_model(5), 0.83)
        assert np.array_equal(sb.blocks[(1, 0)], sb.blocks[(0, 1)].conj().T)

    def test_eigenstate_input_drives_single_block(self):
        model = cw.build_model(4, 1.0, 0.0, 0, bloch_state((0, 0, 1)))
        sb = oracle.sector_blocks_at(model, 0.47)
        assert np.allclose(sb.blocks[(0, 1)], 0.0, atol=0.0)
        assert np.allclose(sb.blocks[(1, 1)], 0.0, atol=0.0)
        assert np.trace(sb.blocks[(0, 0)]).real == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_path_stores_vectors(self):
        sb = oracle.sector_blocks_at(spread_model(5), 0.83)
        d = sb.blocks.diag((0, 1))
        assert d.shape == (2**5,)
        assert np.array_equal(sb.blocks[(0, 1)], np.diag(d))

    def test_broken_vector_pairing_rejected(self):
        sb = oracle.sector_blocks_at(spread_model(4), 0.6)
        stored = {key: sb.blocks.diag(key) for key in sb.blocks}
        # W_10 must be the conjugate of W_01, not W_01 itself
        stored[(1, 0)] = stored[(0, 1)]
        with pytest.raises(ValidationError):
            oracle.SectorBlocks(time=sb.time, projectors=sb.projectors,
                                sector_weights=sb.sector_weights,
                                blocks=oracle.BlockMap(stored))

    def test_offdiag_trace_reproduces_analytic_factor(self):
        for n in (2, 6, 10):
            model = spread_model(n)
            for t in (0.15, 0.8, 2.1):
                sb = oracle.sector_blocks_at(model, t)
                f = oracle.block_expectations(sb)["f"]
                assert f == pytest.approx(cw.offdiag_factor(model, t), abs=1e-12)


class TestReconstruction:
    def test_initial_product_form(self):
        model = spread_model(3)
        sb = oracle.sector_blocks_at(model, 0.0)
        joint = oracle.reconstruct_joint(sb, model.r0)
        expected = np.kron(model.r0.matrix, np.eye(8) / 8.0)
        assert np.allclose(joint.matrix, expected, atol=1e-15)

    def test_entropy_and_spectrum_constant(self):
        model = spread_model(4)
        times = np.linspace(0.0, 3.0, 7)
        s0 = None
        spec0 = None
        for sb in oracle.iter_sector_blocks(model, times):
            joint = oracle.reconstruct_joint(sb, model.r0)
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
            sb = oracle.sector_blocks_at(model, t)
            marginal = partial_trace(oracle.reconstruct_joint(sb, model.r0), [0])
            f = cw.offdiag_factor(model, t)
            # transverse components scale with F(t); diagonals never move
            assert 2 * marginal.matrix[0, 1].real == pytest.approx(0.4 * f, abs=1e-12)
            assert marginal.matrix[0, 0].real == pytest.approx((1 + 0.3) / 2, abs=1e-12)

    def test_weight_mismatch_rejected(self):
        model = spread_model(3)
        sb = oracle.sector_blocks_at(model, 0.4)
        with pytest.raises(ValidationError):
            oracle.reconstruct_joint(sb, bloch_state((0, 0, 0.9)))


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
            for idx, sb in enumerate(oracle.iter_sector_blocks(model, times)):
                exp = oracle.block_expectations(sb, subsets=list(cascades))
                assert exp["sx"] == pytest.approx(res.sx[idx], abs=1e-10)
                assert exp["sy"] == pytest.approx(res.sy[idx], abs=1e-10)
                for s, (ax, ay) in cascades.items():
                    got_x, got_y = exp["cascade"][s]
                    assert got_x == pytest.approx(ax[idx], abs=1e-10)
                    assert got_y == pytest.approx(ay[idx], abs=1e-10)


class TestDenseGuard:
    def test_byte_guard_mentions_streaming(self):
        # diagonal blocks take 4 * 2^N * 16 B per point: 6000 points at
        # N = 12 need 1.57 GB, past the 1 GB byte budget
        model = spread_model(12)
        with pytest.raises(GuardError) as err:
            oracle.dense_joint_evolution(model, np.linspace(0, 1, 6000))
        assert "iter_sector_blocks" in str(err.value)

    def test_diagonal_blocks_are_estimated_at_2_to_the_n(self):
        # 33 MB of vector blocks; the 4^N estimate would have refused 34 GB
        blocks = oracle.dense_joint_evolution(spread_model(10), np.linspace(0, 1, 500))
        assert len(blocks) == 500
        assert blocks[-1].blocks.diag((0, 1)).shape == (2**10,)

    def test_model_size_guard(self):
        # 13 complex 2^N vectors pass the byte budget from N = 23; the
        # refusal comes before any 2^N array exists
        model = spread_model(23)
        tracemalloc.start()
        try:
            with pytest.raises(GuardError):
                oracle.sector_blocks_at(model, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**23  # half of one float64 2^N vector

    def test_dense_reads_of_diagonal_blocks_are_guarded(self):
        # a diagonal-path block is stored as its 2^N diagonal; reading it as
        # a dense 4^N matrix is refused from N = 13 (1.07 GB), reassembling
        # the joint state (16 such matrices) from N = 11
        sb = oracle.sector_blocks_at(spread_model(13), 0.1)
        assert sb.blocks.diag((0, 1)).shape == (2**13,)
        with pytest.raises(GuardError, match="diag"):
            sb.blocks[(0, 1)]
        model = spread_model(11)
        with pytest.raises(GuardError, match="block_expectations"):
            oracle.reconstruct_joint(oracle.sector_blocks_at(model, 0.1), model.r0)


class TestAppendixCReport:
    def test_invariant_holds_while_sx_decays(self):
        model = cw.build_model(8, 1.0, 0.0, 0, bloch_state((1, 0, 0)))
        tau = cw.truncation_time(model)
        times = np.linspace(0.0, 4 * tau, 200)
        rep = oracle.appendix_c_report(oracle.iter_sector_blocks(model, times))
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
        rep = oracle.appendix_c_report(oracle.iter_sector_blocks(model, np.linspace(0, 3, 20)))
        assert rep.no_macroscopic_limit
        assert rep.invariant_ok

    def test_diagonal_r0_rejected(self):
        model = cw.build_model(3, 1.0, 0.0, 0, bloch_state((0, 0, 1)))
        with pytest.raises(ValidationError):
            oracle.appendix_c_report(oracle.iter_sector_blocks(model, np.array([0.0])))


class TestTiles:
    SUBSETS = [(0,), (0, 1), (0, 1, 2), (3, 1)]

    @pytest.mark.parametrize("n", [8, 10])
    def test_tile_rows_bit_equal_single_time(self, n):
        # 2^13 / 2^N times share a tile; every position, the partial last
        # tile included, gives the one-time block bit for bit
        model = spread_model(n)
        times = np.linspace(0.0, 2.5, 75)
        rows = oracle._TILE // 2**n
        for idx, sb in enumerate(oracle.iter_sector_blocks(model, times)):
            if idx % rows in (0, 1, rows - 1) or idx == len(times) - 1:
                one = oracle.sector_blocks_at(model, times[idx])
                assert sb.time == one.time
                for key in ((0, 1), (1, 0)):
                    assert np.array_equal(sb.blocks.diag(key), one.blocks.diag(key))

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
        model = spread_model(9)
        times = np.linspace(0.0, 2.0, 23)
        grid = oracle.grid_expectations(model, times, self.SUBSETS)
        for idx, sb in enumerate(oracle.iter_sector_blocks(model, times)):
            one = oracle.block_expectations(sb, self.SUBSETS)
            for key in ("f", "sx", "sy"):
                assert grid[key][idx] == pytest.approx(one[key], abs=1e-15)
            for s in self.SUBSETS:
                assert grid["cascade"][s][0][idx] == pytest.approx(one["cascade"][s][0], abs=1e-15)
                assert grid["cascade"][s][1][idx] == pytest.approx(one["cascade"][s][1], abs=1e-15)

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
        model = spread_model(8)
        times = np.linspace(0.0, 2.0, 30)
        grid = oracle.appendix_c_grid(model, times)
        streamed = oracle.appendix_c_report(oracle.iter_sector_blocks(model, times))
        assert grid.invariant_ok and streamed.invariant_ok
        assert np.array_equal(grid.times, streamed.times)
        assert np.max(np.abs(grid.sx - streamed.sx)) <= 1e-15
        assert set(grid.correlators) == set(streamed.correlators) == {1, 2, 3}
        for k in grid.correlators:
            assert np.max(np.abs(grid.correlators[k] - streamed.correlators[k])) <= 1e-15
        with pytest.raises(ValidationError):
            oracle.appendix_c_grid(cw.build_model(3, 1.0, 0.0, 0, bloch_state((0, 0, 1))),
                                   times)
