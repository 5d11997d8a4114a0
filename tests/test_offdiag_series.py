"""The power-sum series for F(t) and the cascade envelopes, against
independent references: 40-digit mpmath, and the naive direct product."""
import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeas import curie_weiss as cw
from qmeas import kernels
from qmeas.qstate import bloch_state


def _rel(got, want):
    return float(np.max(np.abs(np.asarray(got) / np.asarray(want) - 1.0)))


def _switch_time(model, n_cos=None):
    """First time past which some point of F leaves the series for the kernel."""
    n = model.N if n_cos is None else n_cos
    return cw._series_radius(n) / float(np.max(2.0 * model.couplings))


def test_equal_couplings_match_mpmath_on_the_window():
    model = cw.build_model(1000, 1.0)
    grid = np.linspace(0.0, 4.0 * cw.truncation_time(model), 201)
    f = cw.offdiag_factor(model, grid)
    with mpmath.workdps(40):
        want = np.array([float(mpmath.cos(2 * mpmath.mpf(t)) ** 1000) for t in grid])
    assert _rel(f, want) <= 1e-13


@pytest.fixture(scope="module")
def spread_model():
    return cw.build_model(10**5, 1.0, 0.05, 7, bloch_state((1, 0, 0)))


def test_spread_model_offdiag_matches_direct_product(spread_model):
    model = spread_model
    grid = np.linspace(0.0, 4.0 * cw.truncation_time(model), 41)
    assert grid[-1] < _switch_time(model)  # the whole window takes the series
    want = kernels.trig_product_direct(2.0 * model.couplings, grid)
    assert _rel(cw.offdiag_factor(model, grid), want) <= 1e-12


@pytest.mark.parametrize("subset", [(31_415,), (0, 4_242, 99_999)])
def test_spread_model_cascade_matches_direct_product(spread_model, subset):
    model, k = spread_model, len(subset)
    grid = np.linspace(0.0, 4.0 * cw.truncation_time(model), 41)[1:]
    mask = np.zeros(model.N, dtype=bool)
    mask[list(subset)] = True
    env = kernels.trig_product_direct(2.0 * model.couplings, grid, sin_mask=mask)
    cx, cy = cw.cascade_correlation(model, k, subset, grid)
    # r0 = +x: odd k puts the envelope on s_y with sign -1 (k = 1), +1 (k = 3)
    assert np.all(cx == 0.0)
    assert _rel(cy, (-1.0) ** ((k + 1) // 2) * env) <= 1e-12


@pytest.mark.parametrize("rel", [0.0, 0.05])
def test_grid_straddling_the_switch_matches_direct_product(rel):
    model = cw.build_model(1000, 1.0, rel, 3)
    t_switch = _switch_time(model)
    grid = np.linspace(0.0, 2.0 * t_switch, 101)
    assert np.any(grid < t_switch) and np.any(grid > t_switch)
    want = kernels.trig_product_direct(2.0 * model.couplings, grid)
    assert _rel(cw.offdiag_factor(model, grid), want) <= 1e-12
    mask = np.zeros(model.N, dtype=bool)
    mask[:2] = True
    env = kernels.trig_product_direct(2.0 * model.couplings, grid[1:], sin_mask=mask)
    cx, _ = cw.cascade_correlation(model, 2, (0, 1), grid[1:])
    assert _rel(cx, -env) <= 1e-12  # k = 2, r0 = +x: with_sx = -envelope


def test_cascade_over_every_spin_is_the_sin_product():
    model = cw.build_model(6, 1.0, 0.1, 1)
    grid = np.linspace(0.0, 3.0, 37)
    sines = kernels.trig_product(2.0 * model.couplings, grid, sin_mask=np.ones(6, dtype=bool))
    cx, cy = cw.cascade_correlation(model, 6, range(6), grid)
    # k = 6, r0 = +x: with_sx = -envelope; the empty cos product is exactly 1
    assert np.array_equal(cx, -sines)
    assert np.all(cy == 0.0)


_PROPERTY_MODEL = cw.build_model(200, 1.0, 0.05, 5)
_PAST_SWITCH = 3.0 * _switch_time(_PROPERTY_MODEL)
_times = st.one_of(
    st.just(0.0),
    st.floats(min_value=5e-324, max_value=2.2250738585072014e-308),  # subnormals
    st.floats(min_value=0.0, max_value=_PAST_SWITCH),
)


@settings(max_examples=200, deadline=None)
@given(_times)
def test_series_and_kernel_property_under_raise(t):
    model = _PROPERTY_MODEL
    with np.errstate(all="raise"):
        f = cw.offdiag_factor(model, t)
        f_neg = cw.offdiag_factor(model, -t)
        (cx, _), (cx_neg, _) = (cw.cascade_correlation(model, 2, (3, 9), s) for s in (t, -t))
    assert np.isfinite(f) and np.isfinite(cx)
    assert f == f_neg
    assert cx == cx_neg  # an even number of odd sin factors
    assert abs(f) <= 1.0 and abs(cx) <= 1.0
    if t == 0.0:
        assert f == 1.0
    # the reference kernel runs outside errstate: numpy's raises on subnormal angles
    want = float(kernels.trig_product(2.0 * model.couplings, t)[0])
    if min(abs(f), abs(want)) > 1e-280:
        assert abs(f / want - 1.0) <= 1e-12


# ------------------------------------------------------------ recurrences


def _mp_recurrence(model, nu):
    """|prod_n cos(2 g_n t_nu)| at the exact t_nu = nu pi/(2g), 40 digits."""
    with mpmath.workdps(40):
        t = nu * mpmath.pi / (2 * mpmath.mpf(model.g))
        return float(mpmath.fprod(abs(mpmath.cos(2 * mpmath.mpf(float(c)) * t))
                                  for c in model.couplings))


def test_recurrences_past_the_radius_match_mpmath():
    model = cw.build_model(400, 0.7, 0.1, 2)
    peaks = cw.recurrence_profile(model, 4)
    # the deviation angles of the first peak already leave the series
    d_max = float(np.max(np.abs(model.couplings - model.g)))
    assert 2.0 * d_max * peaks.time[0] > cw._series_radius(model.N)
    for nu, measured in zip(peaks.nu.tolist(), peaks.measured.tolist()):
        assert abs(measured / _mp_recurrence(model, nu) - 1.0) <= 1e-12


def test_recurrence_series_at_large_n_matches_mpmath():
    model = cw.build_model(10**5, 1.0, 0.001, 7)
    peaks = cw.recurrence_profile(model, 4)
    d_max = float(np.max(np.abs(model.couplings - model.g)))
    assert 2.0 * d_max * peaks.time[-1] <= cw._series_radius(model.N)
    # the deepest peak has the largest deviation angles
    assert abs(peaks.measured[-1] / _mp_recurrence(model, 4) - 1.0) <= 1e-12


@pytest.mark.parametrize("n", [1, 16, 1000])
def test_zero_spread_recurs_exactly(n):
    model = cw.build_model(n, 0.3)
    with np.errstate(all="raise"):
        peaks = cw.recurrence_profile(model, 6)
    assert peaks.measured.tolist() == [1.0] * 6
    assert peaks.predicted.tolist() == [1.0] * 6


# ------------------------------------------------------------ small cascades


@pytest.mark.parametrize("n, case", [
    (12, "holds_max"),     # the subset holds the largest coupling
    (11, "all_but_one"),   # k = N - 1: one cos factor left
    (10, "all"),           # k = N: the empty cos product
])
def test_small_cascades_match_direct_product(n, case):
    model = cw.build_model(n, 1.0, 0.1, 4)
    top = int(np.argmax(model.couplings))
    subset = {"holds_max": (top, (top + 5) % n),
              "all_but_one": tuple(i for i in range(n) if i != top),
              "all": tuple(range(n))}[case]
    k = len(subset)
    # a grid to twice the series switch of the N - k cos factors
    t_switch = _switch_time(model, max(n - k, 1))
    grid = np.linspace(0.0, 2.0 * t_switch, 41)[1:]
    mask = np.zeros(n, dtype=bool)
    mask[list(subset)] = True
    env = kernels.trig_product_direct(2.0 * model.couplings, grid, sin_mask=mask)
    cos_part = kernels.trig_product_direct(2.0 * model.couplings[~mask], grid)
    cx, cy = cw.cascade_correlation(model, k, subset, grid)
    ex, ey = cw._cascade_coefficients(model.r0, k)
    np.testing.assert_allclose(cx, ex * env, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(cy, ey * env, rtol=1e-12, atol=0.0)
    got = cw._cos_product(model.couplings, grid, drop=np.sort(subset))
    series = grid <= t_switch
    assert np.all((got[series] >= 0.0) & (got[series] <= 1.0))
    assert _rel(got, cos_part) <= 1e-12
    if k == n:
        assert np.all(got == 1.0)


def test_cos_part_of_one_tiny_coupling_stays_at_most_one():
    # dropping all but a coupling 1e-9 times the largest leaves power sums
    # at the rounding level of the full ones; their difference must not
    # turn a log F term positive
    n, tiny = 1000, 7
    for seed in range(20):
        c = 1.0 + 0.1 * np.random.default_rng(seed).standard_normal(n)
        c[tiny] = 1e-9
        g = float(c.mean())
        model = cw.CurieWeissModel(N=n, g=g, couplings=c,
                                   delta_g_rms=float(np.sqrt(np.mean((c - g) ** 2))),
                                   seed=None, r0=bloch_state((1, 0, 0)))
        grid = np.linspace(0.0, cw._series_radius(1) / (2.0 * c.max()), 50)
        got = cw._cos_product(model.couplings, grid, drop=np.delete(np.arange(n), tiny))
        assert np.all((got >= 0.0) & (got <= 1.0)), seed
        # the subtraction leaves an error of about eps |log F| of all the factors
        np.testing.assert_allclose(got, np.cos(2e-9 * grid), rtol=1e-13, atol=0.0)
