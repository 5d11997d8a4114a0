"""The benchmark's three CLI workloads and the checks on every job's output.

Each job is a qmeas argv plus a check.  The benchmark seed fixes every
``--seed`` value and every generated table; the program receives only argv.
Every check compares the output against a reference computed here from the
model's definition (never against another qmeas output); a check returns
None when the output is right and a one-line reason otherwise, and may raise
ValueError, KeyError, IndexError or TypeError on output it cannot read.
Why each workload was chosen is recorded in BENCHMARK.json.
"""
from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

@dataclass
class Job:
    argv: list
    check: Callable[[str], "str | None"]


# ------------------------------------------------------------ references


def couplings(n: int, g: float, rel: float, seed: int) -> np.ndarray:
    """g_n = g + dg_n: Gaussian draw from default_rng(seed), recentred to zero
    mean and rescaled to RMS rel*g (the model's stated coupling contract)."""
    if rel == 0.0:
        return np.full(n, g)
    draw = np.random.default_rng(seed).standard_normal(n)
    draw -= draw.mean()
    return g + draw * (rel * g / math.sqrt(float(np.mean(draw**2))))


def trig_product(coeffs: np.ndarray, t: float, n_sin: int = 0) -> float:
    """Direct prod_n f_n(coeffs[n] t), f_n = sin for the first n_sin factors."""
    ang = coeffs * t
    return float(np.prod(np.sin(ang[:n_sin])) * np.prod(np.cos(ang[n_sin:])))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b) or a == b


def _subsample(points: int, k: int = 9) -> np.ndarray:
    return np.unique(np.linspace(0, points - 1, k).round().astype(int))


def _csv_rows(text: str) -> tuple[list, np.ndarray]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    reader = csv.reader(io.StringIO("\n".join(lines)))
    header = next(reader, None)
    if header is None:
        raise ValueError("no CSV header")
    rows = np.array([[float(x) for x in r] for r in reader], dtype=np.float64)
    return header, rows


def meanfield_m(j: float, t: float) -> float:
    """Positive root of m = tanh(J m / T) by bisection (T < J)."""
    lo, hi = 1e-12, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - math.tanh(j * mid / t) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def spinodal_field(j: float, t: float) -> float:
    """Field at which the wrong-sign free-energy minimum disappears."""
    s = math.sqrt(1.0 - t / j)
    return j * s - t * math.atanh(s)


def _sector_weights(n: int, j: float, t: float, reduced: bool):
    """Magnetization sectors: values m_k, Gibbs weight per basis state, and
    degeneracy C(N, k) (folded into the weight when reduced)."""
    ks = np.arange(n + 1)
    m = (n - 2 * ks).astype(np.float64)
    log_c = np.array([math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                      for k in ks])
    energy = -(j / (2.0 * n)) * m**2
    if reduced:
        energy = energy - t * log_c
        deg = np.ones(n + 1)
    else:
        deg = np.exp(log_c)
    w = np.exp(-(energy - energy.min()) / t)
    return m, w, deg


def pointer_reference(n: int, j: float, t: float, reduced: bool) -> dict:
    """Window half-width (fixed point of 3 x the window std), outcomes and the
    entropy of sum_i (1/2) |i><i| (x) R_i for an x-polarized tested spin."""
    m, w, deg = _sector_weights(n, j, t, reduced)
    mf = meanfield_m(j, t)
    outcomes = (n * mf, -n * mf)

    def stats(center, half):
        mask = np.abs(m - center) <= half
        ww = w * deg * mask
        tot = ww.sum()
        mean = float((ww @ m) / tot)
        return mask, ww / tot, math.sqrt(max(float((ww @ m**2) / tot) - mean**2, 0.0))

    half = 2.0 * n * mf / 3.0
    for _ in range(16):
        new = 3.0 * max(max(stats(a, half)[2] for a in outcomes), 1e-12)
        done = abs(new - half) <= 1e-9 * max(1.0, half)
        half = new
        if done:
            break
    entropy = math.log(2.0)
    for a in outcomes:
        _, probs, _ = stats(a, half)
        sel = probs > 0
        per_state = probs[sel] / deg[sel]
        entropy += 0.5 * float(-(probs[sel] * np.log(per_state)).sum())
    return {"outcomes": outcomes, "window": half, "entropy": entropy,
            "magnet_dim": n + 1 if reduced else 2**n}


def pointer_limit_values(n: int, j: float, t: float, scales) -> list[float]:
    """<M> in the reduced Gibbs state of H_M + s * (-M) at each scale s."""
    m, w, _ = _sector_weights(n, j, t, reduced=True)
    logw = np.log(w)
    out = []
    for s in scales:
        lw = logw + s * m / t
        p = np.exp(lw - lw.max())
        out.append(float((p @ m) / p.sum()))
    return out


def _moment_map() -> np.ndarray:
    """Rows: E[a_i b_j] (zu, zv, xu, xv), <a_0>, <a_1>, <b_0>, <b_1>, sum, over
    the 16 outcomes (sa0, sa1, sb0, sb1) with index 0 -> +1, 1 -> -1."""
    sign = np.array([1.0, -1.0])
    g = np.array(list(itertools.product((0, 1), repeat=4)))
    a0, a1, b0, b1 = (sign[g[:, i]] for i in range(4))
    return np.array([a0 * b0, a0 * b1, a1 * b0, a1 * b1, a0, a1, b0, b1, np.ones(16)])


def chsh_variants(e) -> list[float]:
    """The 8 CHSH combinations: sign patterns with an odd number of minuses."""
    return [float(np.dot(s, e)) for s in itertools.product((1, -1), repeat=4)
            if np.prod(s) == -1]


# ------------------------------------------------------------ checks


def _series_check(n, rel, seed, points, kind, k=0, g=1.0, tmax_tau=4.0):
    c2 = 2.0 * couplings(n, g, rel, seed)
    tau = 1.0 / (g * math.sqrt(2.0 * n))
    grid = np.linspace(0.0, tmax_tau * tau, points)

    def check(text):
        header, rows = _csv_rows(text)
        if rows.shape[0] != points:
            return f"{rows.shape[0]} rows, expected {points}"
        if np.max(np.abs(rows[:, 0] - grid)) > 1e-15 * grid[-1]:
            return "time grid differs from linspace(0, tmax*tau, points)"
        for i in _subsample(points):
            t = grid[i]
            if kind == "truncate":
                f = trig_product(c2, t)
                want = (f, 0.0, math.exp(-((t / tau) ** 2)))
            else:
                # r0 = +x: r_ud = 1/2, (corr_sx, corr_sy) = 2 Re(i^k r_ud, i^(k+1) r_ud) * env
                env = trig_product(c2, t, n_sin=k)
                ph = (1j) ** k * 0.5
                want = (2.0 * ph.real * env, 2.0 * (1j * ph).real * env)
            for col, w in zip(header[1:], want):
                got = float(rows[i, header.index(col)])
                if not _close(got, w, 1e-10):
                    return f"{col}(t={t:.6g}) = {got!r}, reference {w!r}"
        return None

    return check


def _recur_check(n, rel, seed, seeds, nu_max, g=1.0):
    def check(text):
        header, rows = _csv_rows(text)
        if rows.shape[0] != seeds * nu_max:
            return f"{rows.shape[0]} rows, expected {seeds * nu_max}"
        k_damp = 0.5 * n * (math.pi * rel) ** 2
        for r, s in enumerate(range(seed, seed + seeds)):
            c2 = 2.0 * couplings(n, g, rel, s)
            for nu in range(1, nu_max + 1):
                row = rows[r * nu_max + nu - 1]
                t = nu * math.pi / (2.0 * g)
                want = (s, nu, t, abs(trig_product(c2, t)), math.exp(-k_damp * nu * nu))
                for col, got, w in zip(header, row.tolist(), want):
                    if not _close(got, w, 1e-10):
                        return f"{col} (seed {s}, nu {nu}) = {got!r}, reference {w!r}"
        return None

    return check


def _json_check(fn):
    return lambda text: fn(json.loads(text))


def _vec_close(got, want, tol) -> bool:
    return bool(np.max(np.abs(np.asarray(got, float) - np.asarray(want, float))) <= tol)


def _chsh(out):
    c = out["c"]
    return None if abs(c - 2.0 * math.sqrt(2.0)) <= 1e-12 else f"c = {c!r}, not 2*sqrt(2)"


def _feasible_check(corr, ma, mb):
    variants = chsh_variants(corr)
    expected = max(abs(v) for v in variants) <= 2.0

    def check(out):
        if out["feasible"] != expected:
            return f"verdict {out['feasible']}, Fine's theorem says {expected}"
        if not expected:
            w = out["witness"]
            want = max(abs(v) for v in variants)
            if w["kind"] != "chsh" or abs(w["value"] - want) > 1e-12:
                return f"witness {w!r}, expected chsh {want!r}"
            return None
        q = np.asarray(out["distribution"], float)
        target = np.concatenate([corr, ma, mb, [1.0]])
        if q.min() < -1e-12 or not _vec_close(_moment_map() @ q, target, 1e-9):
            return "distribution is negative or does not reproduce the table"
        return None

    return check


def _register_check(n, j, t, scales):
    mf = meanfield_m(j, t)
    h_c = spinodal_field(j, t)
    values = pointer_limit_values(n, j, t, scales)

    def check(out):
        if not _vec_close(out["m"], [-mf, mf], 1e-10):
            return f"m = {out['m']!r}, reference +-{mf!r}"
        # g_threshold is a bisection over a 40001-point m grid: 1e-4 resolution
        if abs(out["g_threshold"] - h_c) > 1e-4:
            return f"g_threshold = {out['g_threshold']!r}, spinodal {h_c!r}"
        got = out["pointer_limit"]["values"]
        if not all(_close(a, b, 1e-9) for a, b in zip(got, values)) or len(got) != len(values):
            return f"pointer_limit values {got!r}, reference {values!r}"
        return None

    return check


def _finalstate_check(n, j, t, reduced):
    ref = pointer_reference(n, j, t, reduced)

    def check(out):
        if not _vec_close(out["p"], [0.5, 0.5], 1e-15):
            return f"p = {out['p']!r}"
        if out["magnet_dim"] != ref["magnet_dim"]:
            return f"magnet_dim {out['magnet_dim']}, expected {ref['magnet_dim']}"
        if not all(_close(a, b, 1e-10) for a, b in zip(out["outcomes"], ref["outcomes"])):
            return f"outcomes {out['outcomes']!r}, reference {ref['outcomes']!r}"
        if not _close(out["window"], ref["window"], 1e-8):
            return f"window {out['window']!r}, reference {ref['window']!r}"
        if abs(out["entropy"] - ref["entropy"]) > 1e-8:
            return f"entropy {out['entropy']!r}, reference {ref['entropy']!r}"
        return None

    return check


def _born_check(runs, seed):
    def check(out):
        if sum(out["counts"]) != runs or out["total"] != runs or out["seed"] != seed:
            return f"counts {out['counts']!r} do not sum to {runs}"
        if not _vec_close(out["p"], [0.5, 0.5], 1e-15):
            return f"p = {out['p']!r}"
        return None

    return check


_REDUCE = {  # r0 = +x, tested observable s_z, outcome 0
    "unread": {"bloch": [0.0, 0.0, 0.0], "entropy": math.log(2.0)},
    "luders": {"bloch": [0.0, 0.0, 1.0], "p": 0.5},
    "von-neumann": {"bloch": [0.0, 0.0, 1.0], "entropy": 0.0},
}


def _reduce_check(mode):
    def check(out):
        for key, want in _REDUCE[mode].items():
            if not _vec_close(np.ravel(out[key]), np.ravel(want), 1e-12):
                return f"{mode}: {key} = {out[key]!r}, expected {want!r}"
        return None

    return check


def _ambiguity_check(v, d1, d2):
    def check(out):
        for name, d in (("first", d1), ("second", d2)):
            dec = out[name]
            v1, v2 = np.asarray(dec["v1"]), np.asarray(dec["v2"])
            if abs(dec["rho1"] + dec["rho2"] - 1.0) > 1e-12:
                return f"{name}: weights do not sum to 1"
            if not _vec_close(dec["rho1"] * v1 + dec["rho2"] * v2, v, 1e-12):
                return f"{name}: endpoints do not recompose v"
            if abs(np.linalg.norm(v1) - 1) > 1e-12 or abs(np.linalg.norm(v2) - 1) > 1e-12:
                return f"{name}: endpoints are not pure"
            if np.linalg.norm(np.cross(v1 - v2, d)) > 1e-12 * np.linalg.norm(d) * 2:
                return f"{name}: chord is not along its direction"
        if out["contradiction"] is not True:
            return "non-parallel chords must give a contradiction"
        return None

    return check


def _dispersionless_check(pops):
    n = len(pops)
    k = sum(1 for p in pops if p > 0)

    def check(out):
        want = {"dim": n, "rank": k, "param_count": (n - k) ** 2 + 1,
                "basis_size": (n - k) ** 2 + 1}
        for key, w in want.items():
            if out[key] != w:
                return f"{key} = {out[key]!r}, expected {w}"
        if abs(out["max_variance"]) > 1e-12:
            return f"max_variance {out['max_variance']!r} is not zero"
        return None

    return check


def _oracle_check(n, points):
    def check(out):
        if out["n"] != n or out["points"] != points:
            return f"n/points {out['n']}/{out['points']}, expected {n}/{points}"
        if out["pass_1e10"] is not True:
            return f"oracle deviations {out['max_abs_deviation']!r} exceed 1e-10"
        return None

    return check


def _appc_check(n, rel, seed, points, g=1.0):
    c2 = 2.0 * couplings(n, g, rel, seed)
    tau = 1.0 / (g * math.sqrt(2.0 * n))
    grid = np.linspace(0.0, 4.0 * tau, points)

    def check(text):
        header, rows = _csv_rows(text)
        if rows.shape[0] != points:
            return f"{rows.shape[0]} rows, expected {points}"
        dev = float(np.max(rows[:, header.index("invariant_deviation")]))
        if dev > 1e-12:
            return f"invariant deviation {dev:.3e} > 1e-12"
        sx = rows[:, header.index("sx")]
        for i in _subsample(points):
            want = trig_product(c2, grid[i])
            if abs(sx[i] - want) > 1e-10:
                return f"sx(t={grid[i]:.6g}) = {float(sx[i])!r}, reference {want!r}"
        return None

    return check


# ------------------------------------------------------------ workloads


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _fmt(x: float) -> str:
    return repr(float(x))


def _analytic_large(rng) -> list[Job]:
    s1, s2, s3 = _seed(rng), _seed(rng), _seed(rng)
    model = ["--N", "1000000", "--delta-g-rel", "0.05", "--points", "200"]
    return [
        Job(["truncate", *model, "--seed", str(s1)],
            _series_check(10**6, 0.05, s1, 200, "truncate")),
        Job(["cascade", *model, "--seed", str(s2), "--k", "3"],
            _series_check(10**6, 0.05, s2, 200, "cascade", k=3)),
        Job(["recur", "--N", "1000000", "--delta-g-rel", "0.001", "--nu-max", "4",
             "--seeds", "2", "--seed", str(s3)],
            _recur_check(10**6, 0.001, s3, 2, 4)),
    ]


def _dense_verify(rng) -> list[Job]:
    s1, s2 = _seed(rng), _seed(rng)
    return [
        Job(["oracle-check", "--N", "10", "--delta-g-rel", "0.1", "--seed", str(s1)],
            _json_check(_oracle_check(10, 200))),
        Job(["appc-report", "--N", "10", "--delta-g-rel", "0.1", "--seed", str(s2)],
            _appc_check(10, 0.1, s2, 200)),
        Job(["finalstate", "--N", "10"],
            _json_check(_finalstate_check(10, 1.0, 0.5, reduced=False))),
    ]


def _cli_mix(rng) -> list[Job]:
    # a Tsirelson-like table scaled into (2, 4] on one CHSH variant
    signs = [s for s in itertools.product((1, -1), repeat=4) if np.prod(s) == -1]
    bad = np.asarray(signs[int(rng.integers(0, 8))], float) * rng.uniform(0.75, 1.0)
    # a table with marginals, made from a strictly positive joint distribution
    q = rng.dirichlet(np.ones(16))
    moments = _moment_map() @ q
    corr, ma, mb = moments[:4], moments[4:6], moments[6:8]
    counts = rng.integers(1, 10, size=3)
    pops = list(counts / counts.sum())
    pops.insert(int(rng.integers(0, 4)), 0.0)
    v = rng.uniform(-0.4, 0.4, size=3)
    d1, d2 = rng.standard_normal(3), rng.standard_normal(3)
    s_born, s_t1, s_t2 = _seed(rng), _seed(rng), _seed(rng)
    scales = [0.5, 0.25, 0.125, 0.0625]
    join = lambda xs: ",".join(_fmt(x) for x in xs)  # noqa: E731
    jobs = [
        Job(["chsh"], _json_check(_chsh)),
        Job(["feasible", "--correlators=" + join(bad)],
            _json_check(_feasible_check(bad, np.zeros(2), np.zeros(2)))),
        Job(["feasible", "--correlators=" + join(corr), "--marginals-a=" + join(ma),
             "--marginals-b=" + join(mb)],
            _json_check(_feasible_check(corr, ma, mb))),
        Job(["register", "--N", "200"], _json_check(_register_check(200, 1.0, 0.8, scales))),
        Job(["finalstate", "--N", "200", "--reduced"],
            _json_check(_finalstate_check(200, 1.0, 0.5, reduced=True))),
        Job(["born", "--runs", "100000", "--seed", str(s_born)],
            _json_check(_born_check(100000, s_born))),
    ]
    for mode in ("unread", "luders", "von-neumann"):
        jobs.append(Job(["reduce", "--mode", mode], _json_check(_reduce_check(mode))))
    jobs += [
        Job(["ambiguity", "--v=" + join(v), "--d1=" + join(d1), "--d2=" + join(d2)],
            _json_check(_ambiguity_check(v, d1, d2))),
        Job(["dispersionless", "--populations=" + join(pops)],
            _json_check(_dispersionless_check(pops))),
        Job(["truncate", "--N", "10000", "--seed", str(s_t1)],
            _series_check(10**4, 0.0, s_t1, 400, "truncate")),
        Job(["truncate", "--N", "1000", "--points", "20000", "--seed", str(s_t2)],
            _series_check(1000, 0.0, s_t2, 20000, "truncate")),
    ]
    return jobs


WORKLOADS = {
    "analytic-large": _analytic_large,
    "dense-verify": _dense_verify,
    "cli-mix": _cli_mix,
}


def make_jobs(workload: str, seed: int) -> list[Job]:
    return WORKLOADS[workload](np.random.default_rng(seed))
