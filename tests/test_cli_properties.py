"""Property tests of CLI subcommands, run in process through cli.main."""
import contextlib
import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeas import cli

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
