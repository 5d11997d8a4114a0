"""Threaded entry point for the trig-product kernel in _kernels_py.

trig_product is the one place the kernel runs in parallel.  A call with more
than one tile of work (coeffs.size * times.size > _kernels_py._CHUNK) is split
into contiguous slices of times, run on up to max_workers() threads; numpy
releases the GIL while it computes.  Each time's result depends only on that
time, so the output is bit-identical for every thread count.  A call with at
most one tile stays on the calling thread.

Floating-point errors follow the caller's numpy errstate, in every worker
thread: under errstate(all="raise") a subnormal angle coeffs[n] * t raises
FloatingPointError (underflow), while a product that underflows in the log
domain still comes back as a clean subnormal or 0.0.  Callers that accept
tiny angles wrap the call in errstate(under="ignore"), as
curie_weiss.cascade_correlation does for its sine factors.
"""
from __future__ import annotations

import contextvars
import os

import numpy as np

from . import _kernels_py
from .errors import ValidationError

# one backend; kept as constants because the benchmark probe reads them
BACKEND = "pure-python"
HAVE_COMPILED = False


def max_workers() -> int:
    """Thread cap: QMEAS_THREADS when set (an integer >= 1), else min(8, cpus)."""
    raw = os.environ.get("QMEAS_THREADS", "").strip()
    if raw:
        try:
            cap = int(raw)
        except ValueError as exc:
            raise ValidationError("QMEAS_THREADS must be an integer") from exc
        if cap < 1:
            raise ValidationError("QMEAS_THREADS must be at least 1")
        return cap
    return min(8, os.cpu_count() or 1)


def _prepare(coeffs, times, sin_mask):
    c = np.ascontiguousarray(coeffs, dtype=np.float64)
    t = np.ascontiguousarray(np.atleast_1d(np.asarray(times, dtype=np.float64)))
    if c.ndim != 1:
        raise ValidationError("coeffs must be one-dimensional")
    if t.ndim != 1:
        raise ValidationError("times must be scalar or one-dimensional")
    if sin_mask is None:
        m = None
    else:
        m = np.ascontiguousarray(np.asarray(sin_mask, dtype=bool), dtype=np.uint8)
        if m.shape != c.shape:
            raise ValidationError("sin_mask must match coeffs in shape")
    return c, t, m


def trig_product(coeffs, times, sin_mask=None) -> np.ndarray:
    """prod_n f_n(coeffs[n]*t) for each t; f_n = sin where sin_mask else cos."""
    c, t, m = _prepare(coeffs, times, sin_mask)
    tiles = -(-(c.size * t.size) // _kernels_py._CHUNK)
    workers = min(max_workers(), tiles, t.size)
    if workers <= 1:
        return _kernels_py.trig_product(c, t, m)
    # concurrent.futures pulls in logging (~10 ms); only a tiled call pays for it
    from concurrent.futures import ThreadPoolExecutor

    step = -(-t.size // workers)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # numpy keeps errstate in a context variable that a pool thread does
        # not inherit: run each slice in a copy of the caller's context
        futures = [pool.submit(contextvars.copy_context().run, _kernels_py.trig_product,
                               c, t[lo:lo + step], m)
                   for lo in range(0, t.size, step)]
        return np.concatenate([f.result() for f in futures])


def trig_product_direct(coeffs, times, sin_mask=None) -> np.ndarray:
    """Reference direct product, with no log domain; for agreement checks."""
    c, t, m = _prepare(coeffs, times, sin_mask)
    return _kernels_py.trig_product_direct(c, t, m)
