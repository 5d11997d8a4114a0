"""Property tests of CLI subcommands, run in process through cli.main."""
import contextlib
import io
import json
import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeas import cli, curie_weiss
from qmeas.errors import ValidationError

_BOUND = 1.0 + 1e-12

# entries accepted as in [-1, 1]: exact +-1 and 0, the refusal bound itself
# (1 + 1e-12) and the closed range; one drawn entry may be moved past the bound,
# up to 1.2 in size
inside = st.one_of(st.sampled_from([-1.0, 0.0, 1.0, _BOUND, -_BOUND]), st.floats(-1.0, 1.0))
outside = st.tuples(
    st.integers(0, 7), st.sampled_from([1.0, -1.0]),
    st.one_of(st.sampled_from([float(np.nextafter(_BOUND, 2.0)), 1.2]),
              st.floats(_BOUND, 1.2, exclude_min=True)))
sides = st.one_of(st.none(), st.lists(inside, min_size=2, max_size=2))

# outcome signs (sa0, sa1, sb0, sb1) of the 16 joint cells, as the JSON lists them
_SIGNS = np.array([[sa0, sa1, sb0, sb1] for sa0 in (1.0, -1.0) for sa1 in (1.0, -1.0)
                   for sb0 in (1.0, -1.0) for sb1 in (1.0, -1.0)])


def _refuse_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _run_checked(argv):
    """Exit code and stdout of one in-process run that warns nothing, exits 0
    with an empty stderr, or exits 2 with one stderr line and no stdout."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(argv)
    assert [str(w.message) for w in caught] == []
    assert code in (0, 2), (code, err)
    if code == 2:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("qmeas: ")
    else:
        assert err == ""
    return code, out


def _run_clean(argv):
    """Exit code and parsed JSON (None on exit 2) of a _run_checked run whose
    JSON is finite."""
    code, out = _run_checked(argv)
    return code, (json.loads(out, parse_constant=_refuse_constant) if code == 0 else None)


@settings(max_examples=300)
@given(corr=st.lists(inside, min_size=4, max_size=4), ma=sides, mb=sides,
       spoil=st.one_of(st.none(), outside))
def test_feasible_verdict_follows_the_facets(corr, ma, mb, spoil):
    if spoil is not None:
        index, sign, size = spoil
        side = [v for v in (corr, ma, mb) if v is not None]
        entries = [(v, k) for v in side for k in range(len(v))]
        target, k = entries[index % len(entries)]
        target[k] = sign * size
    argv = ["feasible", "--correlators=" + ",".join(map(repr, corr))]
    if ma is not None:
        argv.append("--marginals-a=" + ",".join(map(repr, ma)))
    if mb is not None:
        argv.append("--marginals-b=" + ",".join(map(repr, mb)))
    code, out, err = _run(argv)
    values = corr + (ma or []) + (mb or [])
    if any(abs(v) > _BOUND for v in values):
        assert code == 2
        return
    assert code == 0 and err == ""
    data = json.loads(out, parse_constant=_refuse_constant)
    e = np.array(corr).reshape(2, 2)
    ma, mb = np.array(ma or [0.0, 0.0]), np.array(mb or [0.0, 0.0])
    chsh = max(abs(e[0, 0] * s0 + e[0, 1] * s1 + e[1, 0] * s2 + e[1, 1] * s3)
               for s0, s1, s2, s3 in _SIGNS if s0 * s1 * s2 * s3 == -1)
    cell = min(0.25 * (1.0 + sa * ma[i] + sb * mb[j] + sa * sb * e[i, j])
               for i in range(2) for j in range(2) for sa in (1, -1) for sb in (1, -1))
    margin = min(2.0 - chsh, cell)
    if abs(margin) >= 1e-7:
        assert data["feasible"] == (margin > 0)
    if data["feasible"]:
        q = np.array(data["distribution"])
        assert q.shape == (16,) and q.min() >= 0.0
        sa, sb = _SIGNS[:, :2], _SIGNS[:, 2:]
        moments = (np.einsum("k,ki,kj->ij", q, sa, sb), q @ sa, q @ sb, q.sum())
        for got, want in zip(moments, (e, ma, mb, 1.0)):
            assert np.max(np.abs(got - want)) <= 1e-9
    else:
        witness = data["witness"]
        assert witness["kind"] in ("chsh", "pair_negativity")
        want = chsh if witness["kind"] == "chsh" else cell
        assert abs(witness["value"] - want) <= 1e-12


# vector components: the values that broke CLI commands before (non-finite,
# overflowing, subnormal, signed zero, just past the unit bound) and the range
# around the unit ball
component = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, _BOUND, math.nan, math.inf, -math.inf,
                     1e308, 1e-320]),
    st.floats(-1.2, 1.2))
vector = st.lists(component, min_size=3, max_size=3)
_NAMED = {"+x": (1.0, 0.0, 0.0), "-x": (-1.0, 0.0, 0.0), "+y": (0.0, 1.0, 0.0),
          "-y": (0.0, -1.0, 0.0), "+z": (0.0, 0.0, 1.0), "-z": (0.0, 0.0, -1.0)}


def _csv(v):
    return ",".join(map(repr, v))


def _norm(v):
    # as the program forms it: inf past the double range
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(v))


@settings(max_examples=150)
@given(r0=st.one_of(st.sampled_from(sorted(_NAMED)), vector),
       mode=st.sampled_from(["luders", "von-neumann", "unread"]), outcome=st.integers(-2, 3))
def test_reduce_exits_clean(r0, mode, outcome):
    v = _NAMED[r0] if isinstance(r0, str) else tuple(r0)
    argv = ["reduce", "--r0=" + (r0 if isinstance(r0, str) else _csv(r0)),
            f"--mode={mode}", f"--outcome={outcome}"]
    code, data = _run_clean(argv)
    if not all(math.isfinite(x) for x in v) or _norm(v) > _BOUND or (
            mode != "unread" and outcome not in (0, 1)):
        assert code == 2
        return
    sign = 1.0 if outcome == 0 else -1.0
    weight = 0.5 * (1.0 + sign * v[2])
    if mode == "luders" and weight <= 1e-12:
        # a branch of zero weight is refused; within rounding of zero either way
        assert code == 2 or weight > 0.0
        return
    assert code == 0
    bloch = np.array(data["bloch"])
    if mode == "unread":
        assert np.max(np.abs(bloch - [0.0, 0.0, v[2]])) <= 1e-12
        assert data["loss"] >= -1e-12 and data["gain"] >= -1e-12
        return
    assert data["outcome"] == outcome
    assert np.max(np.abs(bloch - [0.0, 0.0, sign])) <= 1e-9
    if mode == "luders":
        assert abs(data["p"] - weight) <= 1e-12
    else:
        assert abs(data["entropy"]) <= 1e-12


# a second direction parallel to the first: scaled by these factors, zero included
parallel = st.sampled_from([1.0, -1.0, 2.0, -0.5, 1e-300, 1e300, 0.0])


@settings(max_examples=150)
@given(v=vector, d1=vector, d2=st.one_of(vector, parallel))
def test_ambiguity_exits_clean(v, d1, d2):
    if not isinstance(d2, list):
        d2 = [d2 * x for x in d1]
    code, data = _run_clean(["ambiguity", "--v=" + _csv(v), "--d1=" + _csv(d1),
                             "--d2=" + _csv(d2)])
    arrays = [np.array(x) for x in (v, d1, d2)]
    if (not all(np.isfinite(a).all() for a in arrays)
            or _norm(v) >= 1.0 - 1e-12
            or not arrays[1].any() or not arrays[2].any()):
        assert code == 2
        return
    scaled = [d / np.max(np.abs(d)) for d in arrays[1:]]
    cross = float(np.linalg.norm(np.cross(*[s / np.linalg.norm(s) for s in scaled])))
    if cross <= 1e-9:
        # parallel, up to rounding in the unit directions
        assert code == 2 or cross > 1e-13
        return
    assert code == 0
    for chord in (data["first"], data["second"]):
        v1, v2 = np.array(chord["v1"]), np.array(chord["v2"])
        assert abs(np.linalg.norm(v1) - 1.0) <= 1e-12 and abs(np.linalg.norm(v2) - 1.0) <= 1e-12
        assert 0.0 <= chord["rho1"] <= 1.0 and abs(chord["rho1"] + chord["rho2"] - 1.0) <= 1e-12
        assert np.max(np.abs(chord["rho1"] * v1 + chord["rho2"] * v2 - arrays[0])) <= 1e-9
    overlaps = np.array(data["overlaps"])
    assert overlaps.shape == (4, 4) and np.all((overlaps >= -1e-12) & (overlaps <= 1.0 + 1e-12))


# grid options inside the ranges each command accepts, at sizes that keep an
# example to milliseconds, with g across 1e-300..1e300 and the grid end up to
# 1e307 tau.  A spoiler appended to argv overrides one option with a value it
# refuses.
spins = st.integers(1, 8)
spread = st.one_of(st.sampled_from([0.0, 0.1, 0.5]), st.floats(0.0, 0.9))
coupling = st.one_of(st.sampled_from([1.0, 1e-300, 1e300]),
                     st.floats(-300.0, 300.0).map(lambda e: 10.0**e))
tmax_tau = st.one_of(st.sampled_from([1e-300, 1e300, 1e307]), st.floats(0.01, 50.0),
                     st.floats(0.01, 1e307))
state = st.one_of(st.sampled_from(sorted(_NAMED)),
                  st.lists(st.floats(-0.57, 0.57), min_size=3, max_size=3))
spoiler = st.one_of(st.none(), st.sampled_from([
    "--delta-g-rel=1.0", "--delta-g-rel=-0.1", "--delta-g-rel=nan", "--tmax-tau=0.0",
    "--tmax-tau=-1.0", "--tmax-tau=nan", "--tmax-tau=inf", "--points=0", "--r0=nan,0,0",
    "--r0=1,1,0", "--r0=+w", "--seed=-1", "--g=0.0", "--g=inf"]))


def _refused(n, g, rel, seed, tmax=None, oracle=False):
    """Whether a run without a spoiler must exit 2: N = 1 with a spread, a
    draw with some g_n <= 0, and, given the grid end tmax (in units of tau),
    a doubled grid end or, with oracle, an oracle phase past the float
    range."""
    if n == 1 and rel > 0.0:
        return True
    try:
        model = curie_weiss.build_model(n, g, rel, seed)
    except ValidationError as exc:
        # the one refusal a draw in these ranges may meet
        assert "g_n <= 0" in str(exc)
        return True
    if tmax is None:
        return False
    t_end = tmax * float(curie_weiss.truncation_time(model))
    phase = 2.0 * sum(model.couplings.tolist()) * t_end if oracle else 0.0
    return not (math.isfinite(2.0 * t_end) and math.isfinite(phase))


def _largest_angle(n, g, rel, seed, tmax, points):
    """The largest angle 2 max(g_n) t on an accepted grid of points times
    from 0 to tmax tau."""
    if points == 1:
        return 0.0
    model = curie_weiss.build_model(n, g, rel, seed)
    t_end = tmax * float(curie_weiss.truncation_time(model))
    return 2.0 * float(model.couplings.max()) * t_end


def _model_argv(n, g, rel, seed, r0):
    return [f"--N={n}", f"--g={g!r}", f"--delta-g-rel={rel!r}", f"--seed={seed}",
            "--r0=" + (r0 if isinstance(r0, str) else _csv(r0))]


def _grid_rows(argv):
    """Exit code and JSON payload (None on exit 2) of a grid command run in
    both formats, whose CSV rows parse to the JSON rows' values exactly."""
    code, out_json = _run_checked(argv + ["--format=json"])
    code_csv, out_csv = _run_checked(argv + ["--format=csv"])
    assert code_csv == code
    if code == 2:
        return code, None
    data = json.loads(out_json, parse_constant=_refuse_constant)
    lines = out_csv.splitlines()
    assert lines[0].startswith("# qmeas ") and lines[1] == ",".join(data["columns"])
    assert [[float(x) for x in line.split(",")] for line in lines[2:]] == data["rows"]
    return code, data


@settings(max_examples=80)
@given(command=st.sampled_from(["truncate", "cascade", "appc-report"]), n=spins, g=coupling,
       rel=spread, seed=st.integers(0, 3), r0=state, tmax=tmax_tau,
       points=st.integers(1, 40), k=st.integers(1, 8), spoil=spoiler)
def test_grid_commands_exit_clean(command, n, g, rel, seed, r0, tmax, points, k, spoil):
    argv = [command, *_model_argv(n, g, rel, seed, r0), f"--tmax-tau={tmax!r}",
            f"--points={points}"]
    if command == "cascade":
        argv.append(f"--k={min(k, n)}")
    code, data = _grid_rows(argv + ([spoil] if spoil else []))
    refused = spoil is not None or _refused(n, g, rel, seed, tmax, command == "appc-report")
    assert code == (2 if refused else 0)
    if code == 2:
        return
    assert len(data["rows"]) == points
    assert data["rows"][0][0] == 0.0
    if command != "appc-report":
        assert all(abs(v) <= 1.0 for row in data["rows"] for v in row[1:])


@settings(max_examples=80)
@given(n=spins, g=coupling, rel=spread, seed=st.integers(0, 3), r0=state,
       nu_max=st.integers(1, 40), seeds=st.integers(1, 40),
       spoil=st.one_of(spoiler, st.sampled_from(["--nu-max=0", "--seeds=0"])))
def test_recur_exits_clean(n, g, rel, seed, r0, nu_max, seeds, spoil):
    seeds = min(seeds, 40 // nu_max)
    argv = ["recur", *_model_argv(n, g, rel, seed, r0), f"--nu-max={nu_max}",
            f"--seeds={seeds}"]
    # recur takes no grid
    if spoil and spoil.startswith(("--tmax-tau", "--points")):
        spoil = None
    code, data = _grid_rows(argv + ([spoil] if spoil else []))
    # every seed's draw must be accepted; the peak times stay finite for g >= 1e-300
    refused = spoil is not None or any(
        _refused(n, g, rel, s) for s in range(seed, seed + seeds))
    assert code == (2 if refused else 0)
    if code == 2:
        return
    assert [row[:2] for row in data["rows"]] == [
        [s, nu] for s in range(seed, seed + seeds) for nu in range(1, nu_max + 1)]
    assert all(0.0 <= v <= 1.0 for row in data["rows"] for v in row[3:])


@settings(max_examples=40)
@given(n=st.integers(1, 6), g=coupling, rel=spread, seed=st.integers(0, 3), r0=state,
       tmax=tmax_tau, points=st.integers(1, 40), spoil=spoiler)
def test_oracle_check_exits_clean(n, g, rel, seed, r0, tmax, points, spoil):
    argv = ["oracle-check", *_model_argv(n, g, rel, seed, r0), f"--tmax-tau={tmax!r}",
            f"--points={points}"] + ([spoil] if spoil else [])
    code, data = _run_clean(argv + ["--format=json"])
    assert _run_checked(argv + ["--format=csv"])[0] == code
    refused = spoil is not None or _refused(n, g, rel, seed, tmax, oracle=True)
    assert code == (2 if refused else 0)
    if code == 0:
        assert data["n"] == n and data["points"] == points
        # the angles 2 g_n t carry rounding of about 1e-16 of their size,
        # so the analytic layer and the oracle agree to 1e-10 only while
        # the largest stays near or below 1e4
        if _largest_angle(n, g, rel, seed, tmax, points) <= 1e4:
            assert data["pass_1e10"] is True
