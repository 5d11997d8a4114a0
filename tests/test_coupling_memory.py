"""Peak traced memory of the analytic path, in units of one N-sized float array.

N = 2^20 + 5 spans several _POWER_BLOCK blocks and a partial one.  numpy
reports its data buffers to tracemalloc, so the traced peak counts every
N-sized temporary a call makes.
"""
import tracemalloc

import numpy as np
import pytest

from qmeas import curie_weiss as cw

N = 2**20 + 5
ARRAY = 8 * N  # bytes of one N-sized float64 array


def _traced_peak(fn):
    """Bytes that fn allocates at its peak beyond what is held when it starts."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - base, out


@pytest.fixture(scope="module")
def models():
    wide = cw.build_model(N, 1.0, 0.05, 7)  # truncation window: the series
    narrow = cw.build_model(N, 1.0, 0.001, 8)  # recurrence peaks: the series
    return wide, narrow


def test_build_model_holds_the_draw_and_one_temporary():
    peak, model = _traced_peak(lambda: cw.build_model(N, 1.0, 0.05, 7))
    assert model.couplings.size == N
    assert peak <= 2.25 * ARRAY, peak / ARRAY


def test_analytic_calls_allocate_no_n_sized_array(models):
    wide, narrow = models
    grid = np.linspace(0.0, 4.0 * cw.truncation_time(wide), 200)
    d_max = float(np.max(np.abs(narrow.couplings - narrow.g)))
    assert 2.0 * d_max * 4 * np.pi / 2.0 <= cw._series_radius(N)  # nu <= 4 stays on the series
    calls = {
        "offdiag_factor": lambda: cw.offdiag_factor(wide, grid),
        "cascade_correlation": lambda: cw.cascade_correlation(wide, 3, (5, N // 2, N - 1), grid),
        "recurrence_profile": lambda: cw.recurrence_profile(narrow, 4),
    }
    for name, call in calls.items():
        peak, _ = _traced_peak(call)
        assert peak <= 0.5 * ARRAY, (name, peak / ARRAY)
