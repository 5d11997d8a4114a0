"""The trig-product kernel, in numpy; qmeas.kernels validates its inputs.

Numpy's errstate applies as the caller set it: a subnormal angle raises under
errstate(all="raise"); the final exp never raises (see trig_product).
"""
from __future__ import annotations

import math

import numpy as np

# entries per (times x couplings) tile: an 8 MB float64 buffer per call
# even for 1e7 couplings; couplings are cut at multiples of _CHUNK into
# column blocks
_CHUNK = 1 << 20


def trig_product(coeffs: np.ndarray, times: np.ndarray, sin_mask=None) -> np.ndarray:
    """prod_n f_n(coeffs[n] * t) per time, f_n = sin where sin_mask else cos.

    Log-magnitude + sign evaluation: products over up to 1e7 factors neither
    underflow nor lose the sign; an exactly-zero factor short-circuits to 0.0.
    Works on tiles of at most _CHUNK angles, in place; sin is evaluated only
    on the masked columns.  Each row sums its log-magnitudes per column
    block, so a time's result does not depend on which other times share
    its tiles.
    """
    n, nt = coeffs.size, times.size
    out = np.empty(nt, dtype=np.float64)
    cols = min(n, _CHUNK)
    rows = max(1, min(nt, _CHUNK // max(cols, 1)))
    buf = np.empty(rows * cols, dtype=np.float64)
    negbuf = np.empty(rows * cols, dtype=bool)
    sin_cols = np.flatnonzero(sin_mask) if sin_mask is not None else np.empty(0, np.intp)
    for r0 in range(0, nt, rows):
        t = times[r0:r0 + rows]
        logmag = np.zeros(t.size)
        neg = np.zeros(t.size, dtype=np.intp)
        zero = np.zeros(t.size, dtype=bool)
        for lo in range(0, n, _CHUNK):
            c = coeffs[lo:lo + _CHUNK]
            tile = buf[:t.size * c.size].reshape(t.size, c.size)
            negs = negbuf[:tile.size].reshape(tile.shape)
            np.multiply.outer(t, c, out=tile)
            sc = sin_cols[(sin_cols >= lo) & (sin_cols < lo + c.size)] - lo
            sines = np.sin(tile[:, sc]) if sc.size else None
            np.cos(tile, out=tile)
            if sines is not None:
                tile[:, sc] = sines
            np.less(tile, 0.0, out=negs)
            neg += negs.sum(axis=1)
            np.abs(tile, out=tile)
            # an exact zero (sin at a zero angle) zeroes the row; set such
            # rows to 1.0 so that log raises no divide-by-zero flag
            z = np.fmin.reduce(tile, axis=1) == 0.0
            if z.any():
                tile[z] = 1.0
                zero |= z
            np.log(tile, out=tile)
            logmag += tile.sum(axis=1)
        # libm exp: below about -708 the result is a subnormal or 0.0, and
        # no floating-point flag is raised
        out[r0:r0 + t.size] = [
            0.0 if zr else (-math.exp(lm) if ng & 1 else math.exp(lm))
            for lm, ng, zr in zip(logmag.tolist(), neg.tolist(), zero.tolist())
        ]
    return out


def trig_product_direct(coeffs: np.ndarray, times: np.ndarray, sin_mask=None) -> np.ndarray:
    """Naive direct product, for agreement checks against the log-domain path."""
    out = np.empty(times.shape, dtype=np.float64)
    for j, t in enumerate(times):
        angles = coeffs * t
        vals = np.cos(angles)
        if sin_mask is not None:
            vals = np.where(sin_mask.astype(bool), np.sin(angles), vals)
        out[j] = float(np.prod(vals))
    return out
