import numpy as np
import pytest

from qmeas import curie_weiss as cw
from qmeas import equilibrium, oracle, qstate
from qmeas.errors import GuardError, ValidationError
from qmeas.qstate import bloch_state


class TestBuildModel:
    def test_equal_couplings_exact(self):
        model = cw.build_model(4, 1.0, 0.0, 0, bloch_state((1, 0, 0)))
        assert np.array_equal(model.couplings, np.ones(4))
        assert model.delta_g_rms == 0.0

    def test_seed_determinism(self):
        a = cw.build_model(50, 1.0, 0.05, seed=3)
        b = cw.build_model(50, 1.0, 0.05, seed=3)
        assert np.array_equal(a.couplings, b.couplings)

    def test_spread_is_exact_by_construction(self):
        model = cw.build_model(100, 1.0, 0.1, seed=7)
        dg = model.couplings - 1.0
        assert abs(dg.mean()) <= 1e-12
        assert np.sqrt(np.mean(dg**2)) == pytest.approx(0.1, rel=1e-12)

    def test_default_r0_is_plus_x(self):
        model = cw.build_model(2, 1.0)
        assert model.r0.matrix[0, 1] == pytest.approx(0.5)

    def test_nonpositive_coupling_rejected(self):
        # rms of 2g forces negative couplings for any draw of this size
        with pytest.raises(ValidationError):
            cw.build_model(100, 1.0, 2.0, seed=0)

    # 1e308 and 1e-320 are finite, but tau = 1/(g sqrt(20)) is 0 and inf
    @pytest.mark.parametrize("g", [np.inf, np.nan, -np.inf, 0.0, 1e308, 1e-320])
    def test_non_finite_or_nonpositive_g_rejected(self, g):
        with pytest.raises(ValidationError, match="finite and positive"):
            cw.build_model(10, g, 0.1, seed=0)

    @pytest.mark.parametrize("rel", [0.0, 0.1])
    def test_negative_seed_rejected(self, rel):
        with pytest.raises(ValidationError, match="seed must be non-negative"):
            cw.build_model(10, 1.0, rel, seed=-1)

    def test_analytic_size_cap(self):
        with pytest.raises(ValidationError):
            cw.build_model(10**7 + 1, 1.0)

    @pytest.mark.parametrize("n", [50, 3 * cw._POWER_BLOCK + 7])
    def test_in_place_draw_is_bit_equal_to_the_formula(self, n):
        g, rel, seed = 0.8, 0.05, 11
        draw = np.random.default_rng(seed).standard_normal(n)
        draw -= draw.mean()
        norm = float(np.sqrt(np.mean(draw**2)))
        want = g + draw * (rel * g / norm)
        assert np.array_equal(cw.build_model(n, g, rel, seed).couplings, want)


class TestModelValidation:
    """The zero-mean and RMS checks sum every block, the last partial one too."""

    N = 2 * cw._POWER_BLOCK + 3

    def _model(self, couplings, rms, g=1.0):
        return cw.CurieWeissModel(N=self.N, g=g, couplings=couplings, delta_g_rms=rms,
                                  seed=None, r0=bloch_state((1, 0, 0)))

    # nan and inf pass the zero-mean and RMS checks, whose comparisons are False
    @pytest.mark.parametrize("g", [np.nan, np.inf, 0.0, -1.0])
    def test_non_finite_or_nonpositive_g_rejected(self, g):
        with pytest.raises(ValidationError, match="finite and positive"):
            self._model(np.ones(self.N), 0.0, g)

    def test_nonzero_mean_rejected(self):
        c = np.ones(self.N)
        c[-1] += 1e-3  # mean deviation 1e-3/N, far above 1e-12 g
        rms = 1e-3 / np.sqrt(self.N)
        with pytest.raises(ValidationError, match="zero mean"):
            self._model(c, rms)

    def test_rms_mismatch_rejected(self):
        good = cw.build_model(self.N, 1.0, 0.05, 3)
        assert self._model(good.couplings.copy(), 0.05).delta_g_rms == 0.05
        with pytest.raises(ValidationError, match="delta_g_rms"):
            self._model(good.couplings.copy(), 0.05 * (1.0 + 1e-9))
        c = good.couplings.copy()
        c[-2:] += (1e-4, -1e-4)  # zero-sum change in the last block moves the RMS
        with pytest.raises(ValidationError, match="delta_g_rms"):
            self._model(c, 0.05)


@pytest.mark.parametrize("g", [1e-300, 1.0, 1e300])
@pytest.mark.parametrize("n", [2, 4, 1000])
@pytest.mark.parametrize("rel", [1e-20, 1e-15, 1e-8, 1e-5])
def test_small_spreads_are_accepted(rel, n, g):
    # storing g + dg_n rounds each deviation by up to half an ulp of g, so
    # the stored RMS of a small spread is checked on the scale of g; at a
    # tiny or huge g the deviations' squares must neither underflow nor
    # overflow
    model = cw.build_model(n, g, rel, 5)
    assert model.delta_g_rms == rel * g
    assert np.all(np.abs(model.couplings - g) <= (1e-12 + 10 * rel) * g)


class TestTruncationTime:
    def test_two_spin_value(self):
        assert cw.truncation_time(cw.build_model(2, 1.0)) == 0.5

    def test_large_model_value(self):
        tau = cw.truncation_time(cw.build_model(10_000, 0.01))
        assert tau == pytest.approx(0.70711, abs=5e-6)

    def test_quarter_scaling(self):
        t1 = cw.truncation_time(cw.build_model(100, 1.0))
        t4 = cw.truncation_time(cw.build_model(400, 1.0))
        assert t4 / t1 == pytest.approx(0.5, rel=1e-14)


class TestOffdiagFactor:
    def test_initial_value(self):
        assert cw.offdiag_factor(cw.build_model(6, 1.0), 0.0) == 1.0

    def test_equal_coupling_node(self):
        f = cw.offdiag_factor(cw.build_model(6, 1.0), np.pi / 4.0)
        assert abs(f) < 1e-80  # cos(pi/2) in floats is ~6e-17, not 0

    def test_gaussian_asymptote_at_tau(self):
        model = cw.build_model(10_000, 0.01)
        tau = cw.truncation_time(model)
        assert cw.offdiag_factor(model, tau) == pytest.approx(np.exp(-1.0), abs=2e-4)

    def test_bounded_by_one(self):
        model = cw.build_model(37, 1.0, 0.1, seed=5)
        f = cw.offdiag_factor(model, np.linspace(0, 20, 400))
        assert np.all(np.abs(f) <= 1.0)

    def test_periodicity_even_and_odd(self):
        # half period pi/2g flips every cosine: (-1)^N overall
        ts = np.linspace(0, 1.5, 60)
        even = cw.build_model(6, 1.0)
        f0 = cw.offdiag_factor(even, ts)
        f1 = cw.offdiag_factor(even, ts + np.pi / 2)
        assert np.allclose(f0, f1, atol=1e-10)
        odd = cw.build_model(7, 1.0)
        g0 = cw.offdiag_factor(odd, ts)
        g1 = cw.offdiag_factor(odd, ts + np.pi / 2)
        assert np.allclose(g0, -g1, atol=1e-10)
        assert np.allclose(g0, cw.offdiag_factor(odd, ts + np.pi), atol=1e-10)


class TestTransverseExpectations:
    def test_polarized_along_z_stays_silent(self):
        model = cw.build_model(4, 1.0, 0.0, 0, bloch_state((0, 0, 1)))
        res = cw.transverse_expectations(model, np.linspace(0, 2, 41))
        assert np.all(res.sx == 0.0)
        assert np.all(res.sy == 0.0)

    def test_single_spin_closed_form(self):
        model = cw.build_model(1, 1.0, 0.0, 0, bloch_state((1, 0, 0)))
        ts = np.linspace(0, 2 * np.pi, 97)
        res = cw.transverse_expectations(model, ts)
        assert np.allclose(res.sx, np.cos(2 * ts), atol=1e-12)
        # period pi*hbar/g for the single-cosine factor
        assert cw.offdiag_factor(model, 0.3) == pytest.approx(
            cw.offdiag_factor(model, 0.3 + np.pi), abs=1e-12)

    def test_gaussian_window(self):
        model = cw.build_model(10_000, 0.01, 0.0, 0, bloch_state((1, 0, 0)))
        tau = res_tau = cw.truncation_time(model)
        ts = np.linspace(0, 2 * tau, 201)
        res = cw.transverse_expectations(model, ts)
        assert res.tau == res_tau
        assert np.max(np.abs(res.sx - np.exp(-(ts / tau) ** 2))) <= 1e-3

    def test_initial_value_matches_r0(self):
        model = cw.build_model(10, 1.0, 0.0, 0, bloch_state((0.3, 0.4, 0.5)))
        res = cw.transverse_expectations(model, np.array([0.0]))
        assert res.sx[0] == pytest.approx(0.3, abs=1e-12)
        assert res.sy[0] == pytest.approx(0.4, abs=1e-12)


class TestRecurrences:
    def test_equal_couplings_fully_recur(self):
        model = cw.build_model(64, 1.0)
        peaks = cw.recurrence_profile(model, 3)
        np.testing.assert_allclose(np.abs(peaks.measured), 1.0, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(peaks.time, peaks.nu * np.pi / 2.0, rtol=1e-12, atol=0.0)

    def test_damping_against_prediction(self):
        # statistical formula: match within a factor 10, one seed
        model = cw.build_model(400, 1.0, 0.1, seed=11)
        peaks = cw.recurrence_profile(model, 1)
        predicted, measured = float(peaks.predicted[0]), float(peaks.measured[0])
        k = 0.5 * 400 * (np.pi * 0.1) ** 2
        assert predicted == pytest.approx(np.exp(-k), rel=1e-12)
        assert np.exp(-k) / 10 <= abs(measured) <= np.exp(-k) * 10

    def test_predicted_ratio_second_to_first(self):
        model = cw.build_model(400, 1.0, 0.1, seed=2)
        p1, p2 = cw.recurrence_profile(model, 2).predicted
        k = 0.5 * 400 * (np.pi * 0.1) ** 2
        assert p2 / p1 == pytest.approx(np.exp(-3 * k), rel=1e-9)

    def test_peaks_match_scalar_path(self):
        # the columns are vectorised; each peak equals the per-peak scalar
        # computation bit for bit (small K keeps 2000 predictions above 0)
        model = cw.build_model(1000, 1.0, 1e-5, seed=3)
        k = 0.5 * model.N * (np.pi * model.delta_g_rms / model.g) ** 2
        t_peaks = np.arange(1, 2001) * (np.pi / (2.0 * model.g))
        peaks = cw.recurrence_profile(model, 2000)
        assert peaks.nu.dtype.kind == "i" and peaks.nu.tolist() == list(range(1, 2001))
        for col in (peaks.nu, peaks.time, peaks.measured, peaks.predicted):
            assert col.shape == (2000,) and not col.flags.writeable
        for nu, time, predicted in zip(peaks.nu.tolist(), peaks.time.tolist(),
                                       peaks.predicted.tolist()):
            assert predicted > 0.0
            assert time == float(t_peaks[nu - 1])
            assert predicted == float(np.exp(-k * nu * nu))


class TestCascadeCorrelations:
    def test_no_initial_correlation(self):
        model = cw.build_model(20, 1.0, 0.0, 0, bloch_state((0.5, 0.5, 0.0)))
        for k in (1, 2, 3):
            cx, cy = cw.cascade_correlation(model, k, tuple(range(k)), np.array([0.0]))
            assert cx[0] == 0.0 and cy[0] == 0.0

    def test_small_time_growth_rate(self):
        # leading order: |corr| ~ |<s_y(0)>| * (sqrt(2) t / (sqrt(N) tau)) * exp(-t^2/tau^2)
        model = cw.build_model(10_000, 0.01, 0.0, 0, bloch_state((0, 1, 0)))
        tau = cw.truncation_time(model)
        ts = np.array([0.05, 0.1, 0.2]) * tau
        cx, _ = cw.cascade_correlation(model, 1, (0,), ts)
        predicted = (np.sqrt(2) * ts / (np.sqrt(10_000) * tau)) * np.exp(-(ts / tau) ** 2)
        assert np.allclose(np.abs(cx), predicted, rtol=2e-4)

    def test_envelope_peaks_at_sqrt_k_over_2(self):
        model = cw.build_model(10_000, 0.01, 0.0, 0, bloch_state((1, 0, 0)))
        tau = cw.truncation_time(model)
        ts = np.arange(0.0, 2.5 * tau, 0.005 * tau)
        for k in (1, 2, 3):
            cx, cy = cw.cascade_correlation(model, k, tuple(range(k)), ts)
            mag = np.hypot(cx, cy)
            t_star = ts[np.argmax(mag)]
            assert abs(t_star - np.sqrt(k / 2.0) * tau) <= 0.02 * tau

    def test_consecutive_k_ratio_is_tangent(self):
        model = cw.build_model(8, 1.0, 0.0, 0, bloch_state((0.6, 0.3, 0.0)))
        ts = np.array([0.05, 0.11, 0.23])
        mags = []
        for k in (1, 2, 3):
            cx, cy = cw.cascade_correlation(model, k, tuple(range(k)), ts)
            mags.append(np.hypot(cx, cy))
        for k in (0, 1):
            ratio = mags[k + 1] / mags[k]
            assert np.allclose(ratio, np.tan(2 * ts), rtol=1e-10)

    def test_subset_validation(self):
        model = cw.build_model(6, 1.0)
        ts = np.array([0.1])
        with pytest.raises(ValidationError):
            cw.cascade_correlation(model, 2, (0,), ts)
        with pytest.raises(ValidationError):
            cw.cascade_correlation(model, 2, (1, 1), ts)
        with pytest.raises(ValidationError, match="distinct"):
            cw.cascade_correlation(model, 3, (4, 1, 4), ts)
        with pytest.raises(ValidationError):
            cw.cascade_correlation(model, 2, (0, 6), ts)
        with pytest.raises(ValidationError, match="out of range"):
            cw.cascade_correlation(model, 2, (3, -1), ts)


class TestProductsNearTheSubnormalRange:
    # N = 1e5 at t = 26.585 tau: F is 2.1e-308 with equal couplings and
    # 3.6e-309 with a 5% spread, so <s_x(0)> F and the cascade coefficients
    # times their envelope land in the subnormal range
    T_OVER_TAU = 26.585

    def test_transverse_series_is_defined_under_raise(self):
        model = cw.build_model(100_000, 1.0, 0.0, 0, bloch_state((0.5, 0, 0)))
        t = np.array([self.T_OVER_TAU * cw.truncation_time(model)])
        with np.errstate(all="raise"):
            res = cw.transverse_expectations(model, t)
        with np.errstate(under="ignore"):
            expected = 0.5 * cw.offdiag_factor(model, t)[0]
        assert res.sx[0] == expected
        assert 0.0 < res.sx[0] < np.finfo(float).tiny
        assert res.sy[0] == 0.0

    @pytest.mark.parametrize("k", [1, 2])
    def test_cascade_is_defined_under_raise(self, k):
        model = cw.build_model(100_000, 1.0, 0.05, 0, bloch_state((0.5, 0, 0)))
        t = self.T_OVER_TAU * cw.truncation_time(model)
        subset = tuple(range(k))
        with np.errstate(all="raise"):
            got = cw.cascade_correlation(model, k, subset, t)
        with np.errstate(under="ignore"):
            expected = cw.cascade_correlation(model, k, subset, t)
        assert got == expected
        assert 0.0 < abs(got[0]) + abs(got[1]) < np.finfo(float).tiny


class TestJointOffdiagBlock:
    """The bare up-down block R(t) = W_01(t) / r_01 of the oracle's joint
    state, against this layer's closed forms."""

    @staticmethod
    def block(model, t):
        dim = 2**model.N
        return oracle.joint_state(model, t).matrix[:dim, dim:] / model.r0.matrix[0, 1]

    def test_magnetization_diagonal_is_the_qstate_one(self):
        # equilibrium's full pointer reads it from qstate, the oracle takes
        # its phase from per-spin factors instead, and the analytic layer
        # binds neither it nor the dense byte guard
        assert not hasattr(oracle, "weighted_magnetization_diag")
        assert equilibrium.weighted_magnetization_diag is qstate.weighted_magnetization_diag
        assert not hasattr(cw, "weighted_magnetization_diag")
        assert not hasattr(cw, "guard_bytes")

    def test_initial_block_is_uniform(self):
        model = cw.build_model(4, 1.0)
        block = self.block(model, 0.0)
        assert np.allclose(block, np.eye(16) / 16.0, atol=1e-15)

    def test_no_decay_invariant(self):
        model = cw.build_model(5, 1.0, 0.1, seed=9)
        for t in (0.3, 1.7):
            block = self.block(model, t)
            prod = block @ block.conj().T
            assert np.allclose(prod, np.eye(32) / 32.0**2, atol=1e-15)

    def test_trace_matches_offdiag_factor(self):
        model = cw.build_model(6, 1.0, 0.05, seed=4)
        for t in (0.2, 0.9, 2.4):
            tr = np.trace(self.block(model, t))
            assert np.real(tr) == pytest.approx(cw.offdiag_factor(model, t), abs=1e-12)
            assert abs(np.imag(tr)) <= 1e-12

    def test_dense_guard(self):
        with pytest.raises(GuardError):
            self.block(cw.build_model(13, 1.0), 0.1)


def test_default_time_grid_covers_recurrence_windows():
    model = cw.build_model(100, 1.0, 0.1, seed=1)
    base = cw.default_time_grid(model)
    tau = cw.truncation_time(model)
    assert base[0] == 0.0 and base[-1] == pytest.approx(4 * tau)
    assert base.size == 400
    with_windows = cw.default_time_grid(model, nu_max=2)
    assert with_windows.size > base.size
    t1 = np.pi / 2.0
    assert np.any(np.abs(with_windows - t1) < 3 * tau)
    assert np.all(np.diff(with_windows) > 0)
