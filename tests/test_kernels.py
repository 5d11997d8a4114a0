import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeas import kernels
from qmeas._kernels_py import _CHUNK
from qmeas._kernels_py import trig_product as py_trig_product
from qmeas.errors import ValidationError


def _reference_trig_product(coeffs, times, sin_mask=None):
    """Per-time loop over _CHUNK-sized coupling blocks: the tiled numpy
    kernel must reproduce it bit for bit."""
    out = np.empty(times.shape, dtype=np.float64)
    n = coeffs.size
    for j, t in enumerate(times):
        logmag = 0.0
        neg = 0
        zero = False
        for lo in range(0, n, _CHUNK):
            angles = coeffs[lo:lo + _CHUNK] * t
            vals = np.cos(angles)
            if sin_mask is not None:
                seg = sin_mask[lo:lo + _CHUNK]
                if seg.any():
                    np.copyto(vals, np.sin(angles), where=seg.astype(bool))
            if np.any(vals == 0.0):
                zero = True
                break
            neg ^= int(np.count_nonzero(vals < 0.0)) & 1
            logmag += float(np.log(np.abs(vals)).sum())
        if zero:
            out[j] = 0.0
        else:
            mag = math.exp(logmag)
            out[j] = -mag if neg else mag
    return out


def _random_case(rng, n, t_count):
    return rng.uniform(0.5, 1.5, size=n), rng.uniform(0.0, 3.0, size=t_count)


def test_log_domain_matches_direct_product(rng):
    # agreement holds wherever the direct product has not underflowed
    for n in (10, 100, 1000):
        coeffs, times = _random_case(rng, n, 200)
        lg = kernels.trig_product(coeffs, times)
        direct = kernels.trig_product_direct(coeffs, times)
        keep = np.abs(direct) > 1e-280
        assert keep.any()
        assert np.allclose(lg[keep], direct[keep], rtol=1e-12, atol=0.0)


def test_masked_zero_time_short_circuits(rng):
    coeffs = rng.uniform(0.5, 1.5, size=17)
    mask = np.zeros(17, dtype=np.uint8)
    mask[3] = 1
    out = kernels.trig_product(coeffs, np.array([0.0, 0.5]), mask)
    # sin(0) = 0 exactly, so the t = 0 product is an exact zero
    assert out[0] == 0.0
    assert out[1] != 0.0


def test_ten_million_factor_product():
    n = 10_000_000
    tau = 1.0 / (0.01 * np.sqrt(2 * n))
    out = kernels.trig_product(np.full(n, 0.02), np.array([tau]))
    # Gaussian regime: product of cos(2 g t) over N spins ~ exp(-t^2/tau^2)
    assert out[0] == pytest.approx(np.exp(-1.0), abs=2e-4)


def test_deep_underflow_yields_clean_zero():
    coeffs = np.full(3000, 2.0)
    t = np.array([0.5])
    assert 3000 * np.log(np.abs(np.cos(1.0))) < -745
    with np.errstate(all="raise"):
        assert kernels.trig_product(coeffs, t)[0] == 0.0
    # the naive product can stall on the smallest subnormal instead of 0
    assert kernels.trig_product_direct(coeffs, t)[0] <= 5e-324


def test_gradual_underflow_yields_subnormal():
    coeffs = np.full(3000, 2.0)
    t = np.array([0.3345])
    expected = math.exp(3000 * math.log(abs(math.cos(0.669))))
    assert 0.0 < expected < np.finfo(np.float64).tiny
    with np.errstate(all="raise"):
        assert kernels.trig_product(coeffs, t)[0] == pytest.approx(expected, rel=1e-6)


def test_empty_inputs():
    assert kernels.trig_product(np.ones(4), np.array([])).shape == (0,)
    # the empty product is 1
    assert np.array_equal(kernels.trig_product(np.array([]), np.array([0.5, 2.0])), [1.0, 1.0])


def test_shape_validation():
    with pytest.raises(ValidationError):
        kernels.trig_product(np.ones((2, 2)), np.array([0.0]))
    with pytest.raises(ValidationError):
        kernels.trig_product(np.ones(4), np.array([0.0]), np.zeros(3, dtype=np.uint8))


def test_default_backend_reported():
    # the benchmark probe records these names
    assert kernels.BACKEND == "pure-python"
    assert kernels.HAVE_COMPILED is False


def test_benchmark_probe_starts():
    # perfbench/probe.py imports qmeas names directly; a package change that
    # drops one of them would stop the benchmark before its first job
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run([sys.executable, str(root / "perfbench" / "probe.py")],
                         cwd=root, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert '"backend": "pure-python"' in out.stdout
    assert json.loads(out.stdout)["kernel_gate"]["ok"] is True


def _mask(rng, n, kind):
    if kind == "none":
        return None
    m = np.zeros(n, dtype=np.uint8)
    if kind == "dense":
        m[:] = rng.integers(0, 2, size=n)
    m[n // 2] = 1
    return m


@pytest.mark.parametrize("n", [1, 7, 1000, _CHUNK - 1, _CHUNK + 5])
@pytest.mark.parametrize("kind", ["none", "dense", "one"])
def test_tiled_kernel_matches_reference_bitwise(rng, n, kind):
    coeffs = rng.uniform(0.5, 1.5, size=n)
    k = 2 if n > 1000 else 20
    # full-range times, and times short enough that |F| stays above 1e-300
    # at any n unless sin factors pull it down
    times = np.concatenate([[0.0], rng.uniform(-3.0, 3.0, size=k),
                            rng.uniform(-1.0, 1.0, size=k) * 20.0 / math.sqrt(n)])
    mask = _mask(rng, n, kind)
    with np.errstate(all="raise"):
        got = py_trig_product(coeffs, times, mask)
        ref = _reference_trig_product(coeffs, times, mask)
    if kind != "dense" or n <= 1000:
        assert np.any(np.abs(ref) > 1e-300)
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))
    # the t = 0 row: sin(0) = 0 is an exact zero, cos(0) = 1 the identity
    assert got[0] == (1.0 if mask is None else 0.0)


def test_multi_tile_call_keeps_callers_errstate():
    # a multi-tile call, its last tile holding the subnormal angle coeffs * 1e-300
    coeffs = np.full(1000, 1e-10)
    times = np.linspace(0.1, 3.0, 3000)
    times[-1] = 1e-300
    assert coeffs.size * times.size > _CHUNK
    with np.errstate(all="raise"):
        with pytest.raises(FloatingPointError):
            py_trig_product(coeffs, times)
        with pytest.raises(FloatingPointError):
            kernels.trig_product(coeffs, times)
    with np.errstate(under="ignore"):
        assert np.array_equal(kernels.trig_product(coeffs, times), py_trig_product(coeffs, times))


_couplings = st.lists(st.floats(0.01, 3.0), min_size=1, max_size=300).map(np.array)
# no subnormal angles: an angle that underflows raises FloatingPointError
# under errstate(all="raise"), as test_multi_tile_call_keeps_callers_errstate pins
_times = st.just(0.0) | st.floats(1e-100, 20.0) | st.floats(-20.0, -1e-100)


@settings(max_examples=60, deadline=None)
@given(_couplings, _times)
def test_property_even_in_time(coeffs, t):
    with np.errstate(all="raise"):
        plus = kernels.trig_product(coeffs, np.array([t]))
        minus = kernels.trig_product(coeffs, np.array([-t]))
    assert np.array_equal(plus, minus)
    assert np.array_equal(np.signbit(plus), np.signbit(minus))


@settings(max_examples=60, deadline=None)
@given(_couplings, st.lists(_times, min_size=1, max_size=20), st.integers(0, 2**32 - 1))
def test_property_bounded_by_one(coeffs, times, seed):
    mask = np.random.default_rng(seed).integers(0, 2, size=coeffs.size)
    with np.errstate(all="raise"):
        out = kernels.trig_product(coeffs, np.array(times), mask)
    assert np.all(np.abs(out) <= 1.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2000), st.floats(0.01, 2.0), _times)
def test_property_equal_couplings_give_power(n, g, t):
    coeffs = np.full(n, 2.0 * g)
    with np.errstate(all="raise"):
        out = kernels.trig_product(coeffs, np.array([t]))[0]
    expected = float(np.cos(coeffs[:1] * t)[0]) ** n
    if abs(expected) > 1e-280:
        assert out == pytest.approx(expected, rel=1e-12, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(_couplings, st.integers(0, 2**32 - 1), st.lists(_times, max_size=10))
def test_property_zero_time_sin_column_is_exact_zero(coeffs, seed, times):
    mask = np.random.default_rng(seed).integers(0, 2, size=coeffs.size)
    mask[seed % coeffs.size] = 1
    with np.errstate(all="raise"):
        out = kernels.trig_product(coeffs, np.array([0.0, *times]), mask)
    assert out[0] == 0.0
    assert not np.signbit(out[0])
