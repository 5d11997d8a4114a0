"""Record what the benchmarked qmeas build runs on, and gate the kernel backends.

Prints one JSON object: interpreter and library versions, the kernel backend,
the CLI's worker cap, and the kernel agreement gate.  When both kernel
backends import, the compiled kernel must agree with the numpy fallback to
1e-11 relative on a fixed sample, and both are timed; when only one imports,
that is recorded instead of timing the fallback against itself.
"""
from __future__ import annotations

import json
import sys
import time

import numpy as np
import scipy

from qmeas import __version__, _kernels_py, cli, kernels

GATE_REL = 1e-11


def _best_of(fn, repeats=3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def kernel_gate() -> dict:
    if not kernels.HAVE_COMPILED:
        return {"backends": [kernels.BACKEND], "ok": True,
                "status": "one backend importable; agreement gate not applicable"}
    rng = np.random.default_rng(0)
    grid = np.linspace(0.0, 2.0, 50)
    worst, sizes = 0.0, []
    for n in (1_000, 100_000):
        c, t, m = kernels._prepare(2.0 * rng.normal(1.0, 0.05, size=n), grid, None)
        a = kernels.trig_product(c, t, m)
        b = _kernels_py.trig_product(c, t, m)
        worst = max(worst, float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300))))
        sizes.append({"n": n, "points": grid.size,
                      "compiled_s": _best_of(lambda: kernels.trig_product(c, t, m)),
                      "numpy_s": _best_of(lambda: _kernels_py.trig_product(c, t, m))})
    return {"backends": ["compiled", "pure-python"], "ok": worst <= GATE_REL,
            "max_rel_dev": worst, "gate_rel": GATE_REL, "timings": sizes}


def main() -> int:
    print(json.dumps({
        "qmeas": __version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "backend": kernels.BACKEND,
        "max_workers": cli._max_workers(),
        "kernel_gate": kernel_gate(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
