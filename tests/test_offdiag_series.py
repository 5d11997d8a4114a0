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
