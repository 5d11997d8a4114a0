"""Entry point for the trig-product kernel in _kernels_py: checks its inputs.

trig_product runs on the calling thread, one _kernels_py tile after another.
Floating-point errors follow the caller's numpy errstate: under
errstate(all="raise") a subnormal angle coeffs[n] * t raises
FloatingPointError (underflow), while a product that underflows in the log
domain still comes back as a clean subnormal or 0.0.  Callers that accept
tiny angles wrap the call in errstate(under="ignore"), as
curie_weiss.cascade_correlation does for its sine factors.
"""
from __future__ import annotations

import numpy as np

from . import _kernels_py
from .errors import ValidationError

# one backend; kept as constants because the benchmark probe reads them
BACKEND = "pure-python"
HAVE_COMPILED = False


def _prepare(coeffs, times, sin_mask):
    c = np.asarray(coeffs, dtype=np.float64)
    t = np.atleast_1d(np.asarray(times, dtype=np.float64))
    if c.ndim != 1:
        raise ValidationError("coeffs must be one-dimensional")
    if t.ndim != 1:
        raise ValidationError("times must be scalar or one-dimensional")
    m = None if sin_mask is None else np.asarray(sin_mask, dtype=bool)
    if m is not None and m.shape != c.shape:
        raise ValidationError("sin_mask must match coeffs in shape")
    return c, t, m


def trig_product(coeffs, times, sin_mask=None) -> np.ndarray:
    """prod_n f_n(coeffs[n]*t) for each t; f_n = sin where sin_mask else cos."""
    c, t, m = _prepare(coeffs, times, sin_mask)
    return _kernels_py.trig_product(c, t, m)


def trig_product_direct(coeffs, times, sin_mask=None) -> np.ndarray:
    """Reference direct product, with no log domain; for agreement checks."""
    c, t, m = _prepare(coeffs, times, sin_mask)
    return _kernels_py.trig_product_direct(c, t, m)
