import argparse
import ast
import dataclasses
import functools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qmeas import _commands, cli, contextuality, curie_weiss, equilibrium, oracle
from qmeas.errors import ConvergenceError

# subprocesses import the package from this checkout, installed or not
SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

COMMANDS = ("truncate", "recur", "cascade", "register", "finalstate", "born",
            "reduce", "ambiguity", "dispersionless", "chsh", "feasible",
            "oracle-check", "appc-report")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_version_header(text: str) -> str:
    lines = text.splitlines()
    assert lines[0].startswith("# qmeas ")
    return "\n".join(lines[1:])


def flatten_json(obj, prefix=""):
    """(dotted key, leaf) pairs of a parsed JSON tree, in document order."""
    if isinstance(obj, dict):
        return [kv for k, v in obj.items() for kv in flatten_json(v, f"{prefix}{k}.")]
    if isinstance(obj, list):
        return [kv for i, v in enumerate(obj) for kv in flatten_json(v, f"{prefix}{i}.")]
    return [(prefix[:-1], obj)]


class TestConfig:
    def test_config_sections_all_apply(self, capsys, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\ncommand = truncate\n[model]\nn = 100\n[grid]\npoints = 7\n")
        code, out, _ = run_cli(capsys, "--config", str(path))
        assert code == 0
        assert len(strip_version_header(out).splitlines()) == 1 + 7

    def test_bad_ini_rejected(self, capsys, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("not an ini file [ at all")
        code, out, err = run_cli(capsys, "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("qmeas: config: bad config file")

    def test_undecodable_config_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "run.ini"
        path.write_bytes(b"[run]\ncommand = born\n[born]\nruns = 5\n\xff\n")
        code, out, err = run_cli(capsys, "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("qmeas: config: cannot read config")

    def test_bad_config_choice_exits_2(self, capsys, tmp_path):
        # a setting is checked by the command's parser, as the flag would be
        path = tmp_path / "run.ini"
        path.write_text("[run]\ncommand = reduce\n[reduce]\nmode = bogus\n")
        code = _exit_code(["--config", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--mode" in captured.err

    def test_bad_config_format_exits_before_the_run(self, capsys, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("the model must not be built")

        monkeypatch.setattr(curie_weiss, "build_model", refuse)
        path = tmp_path / "run.ini"
        path.write_text("[run]\ncommand = truncate\n[out]\nformat = xml\n")
        code = _exit_code(["--config", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--format" in captured.err

    def test_config_value_may_start_with_a_dash(self, capsys, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\ncommand = truncate\n[model]\nN = 10\nr0 = -x\npoints = 3\n")
        code, out, _ = run_cli(capsys, "--config", str(path))
        assert code == 0
        first = strip_version_header(out).splitlines()[1].split(",")
        assert (first[0], first[1]) == ("0", "-1")

    def test_config_supplies_defaults(self, capsys, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\ncommand = born\n[born]\nr0 = 0,0,0.6\nruns = 50\nseed = 9\n")
        code, out, _ = run_cli(capsys, "--config", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["total"] == 50
        assert data["seed"] == 9
        assert data["p"] == [pytest.approx(0.8), pytest.approx(0.2)]

    def test_flag_overrides_config(self, capsys, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\ncommand = born\n[born]\nruns = 50\nseed = 9\n")
        code, out, _ = run_cli(capsys, "born", "--config", str(path), "--runs", "75")
        assert code == 0
        data = json.loads(out)
        assert data["total"] == 75
        assert data["seed"] == 9

    def test_config_sets_uppercase_dest(self, capsys, tmp_path):
        # configparser reads `N = 20` as the key n; it must still set --N
        path = tmp_path / "run.ini"
        path.write_text("[run]\ncommand = finalstate\n[x]\nreduced = yes\nN = 20\n")
        code, out, _ = run_cli(capsys, "--config", str(path))
        assert code == 0
        assert json.loads(out)["magnet_dim"] == 21

    def test_no_command_has_dests_differing_only_in_case(self):
        # config keys reach the options case-insensitively
        for command, (add_options, _) in _commands._COMMANDS.items():
            parser = argparse.ArgumentParser()
            _commands._add_common(parser)
            add_options(parser)
            dests = {action.dest for action in parser._actions}
            assert len({d.lower() for d in dests}) == len(dests), command

    def test_config_path_after_equals_sign(self, capsys, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[born]\nruns = 5\n")
        code, out, _ = run_cli(capsys, "born", f"--config={path}")
        assert code == 0
        assert json.loads(out)["total"] == 5

    def test_missing_config_is_config_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "born", "--config",
                               str(tmp_path / "absent.ini"))
        assert code == 2
        assert "config" in err


class TestExitCodes:
    def test_validation_maps_to_2(self, capsys):
        code, _, err = run_cli(capsys, "truncate", "--N", "0", "--points", "5")
        assert code == 2
        assert err.startswith("qmeas: config:")

    def test_guard_maps_to_3(self, capsys):
        # the oracle's 2^N vectors pass the byte budget from N = 23; the
        # refusal comes before any 2^N array exists
        tracemalloc.start()
        try:
            code, _, err = run_cli(capsys, "oracle-check", "--N", "23", "--points", "5")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert err.startswith("qmeas: guard:")
        assert peak < 4 * 2**23  # half of one float64 2^N vector

    def test_recur_without_seeds_maps_to_2(self, capsys):
        code, _, err = run_cli(capsys, "recur", "--N", "100", "--seeds", "0")
        assert code == 2
        assert "--seeds" in err

    def test_unwritable_output_maps_to_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "chsh", "--out",
                               str(tmp_path / "no" / "such" / "dir" / "x.json"))
        assert code == 2
        assert err.startswith("qmeas: io:")

    @pytest.mark.parametrize("argv", [
        ("dispersionless", "--populations=nan,0.5,0.5"),
        ("feasible", "--correlators=nan,0,0,0"),
    ])
    def test_non_finite_input_maps_to_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("qmeas: config:") and "finite" in err

    @pytest.mark.parametrize("argv, name", [
        (("dispersionless", "--populations="), "populations"),
        (("register", "--N", "10", "--scales="), "scales"),
    ])
    def test_empty_list_refused_by_name(self, capsys, argv, name):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"qmeas: config: {name} needs at least one entry\n"

    @pytest.mark.parametrize("rank_tol", ["nan", "inf", "-1"])
    def test_bad_rank_tol_maps_to_2(self, capsys, rank_tol):
        code, out, err = run_cli(capsys, "dispersionless", f"--rank-tol={rank_tol}")
        assert code == 2
        assert out == ""
        assert err.startswith("qmeas: config:") and "rank_tol" in err

    @pytest.mark.parametrize("argv", [
        ("register", "--T", "nan"),
        ("register", "--J", "inf"),
        ("register", "--field=-inf"),
    ])
    def test_non_finite_register_input_maps_to_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("qmeas: config:") and "finite" in err

    @pytest.mark.parametrize("mode", ["luders", "von-neumann"])
    @pytest.mark.parametrize("outcome", ["5", "-1"])
    def test_reduce_outcome_out_of_range_maps_to_2(self, capsys, mode, outcome):
        # -1 must not pick the last outcome through negative indexing
        code, out, err = run_cli(capsys, "reduce", "--mode", mode, f"--outcome={outcome}")
        assert code == 2
        assert out == ""
        assert err.startswith("qmeas: config:") and "outcome" in err

    @pytest.mark.parametrize("command", ["truncate", "cascade", "oracle-check", "appc-report"])
    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_points_below_one_maps_to_2(self, capsys, monkeypatch, command, points):
        # zero points would pass oracle-check vacuously; the refusal comes
        # before any coupling is drawn
        def no_model(*args, **kwargs):
            raise AssertionError("build_model called before --points was checked")

        monkeypatch.setattr(curie_weiss, "build_model", no_model)
        code, out, err = run_cli(capsys, command, "--N", "2", f"--points={points}")
        assert code == 2
        assert out == ""
        assert err.startswith("qmeas: config:") and "--points" in err

    @pytest.mark.parametrize("command", ["truncate", "cascade", "oracle-check", "appc-report"])
    @pytest.mark.parametrize("tmax", ["nan", "inf", "0", "-1", "1.5e308"])
    def test_bad_tmax_tau_maps_to_2(self, capsys, monkeypatch, command, tmax):
        # nan and inf gave a non-finite grid only after the draw; -1 gave a
        # reversed grid and exit 0; 1.5e308 gave angles past the float range
        def no_model(*args, **kwargs):
            raise AssertionError("build_model called before --tmax-tau was checked")

        monkeypatch.setattr(curie_weiss, "build_model", no_model)
        code, out, err = run_cli(capsys, command, "--N", "2", f"--tmax-tau={tmax}")
        assert code == 2
        assert out == ""
        assert err.startswith("qmeas: config:") and "--tmax-tau" in err

    @pytest.mark.parametrize("command", ["oracle-check", "appc-report"])
    @pytest.mark.parametrize("n", ["23", "10000000"])
    def test_oracle_size_refused_before_model(self, capsys, monkeypatch, command, n):
        # the oracle's 2^N vectors are refused from N alone, before any
        # coupling or analytic series is drawn
        def no_model(*args, **kwargs):
            raise AssertionError("build_model called before the oracle's size guard")

        monkeypatch.setattr(curie_weiss, "build_model", no_model)
        code, out, err = run_cli(capsys, command, "--N", n, "--points", "5")
        assert code == 3
        assert out == ""
        assert err.startswith("qmeas: guard:") and "dense oracle" in err

    def test_full_finalstate_size_guard_maps_to_3(self, capsys):
        # the 2^N output is refused from N = 23, the full pointer's own limit,
        # although only the N + 1 sectors are built
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "finalstate", "--N", "23")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert out == ""
        assert err == ("qmeas: guard: full-representation pointer's 2^N vectors would "
                       "need ~1.1 GB, past the 1 GB budget; use reduced=True\n")
        assert peak < 4 * 2**23  # half of one float64 2^N vector

    @pytest.mark.parametrize("subset, message", [
        ("0,3,4", "exactly k indices"), ("0,12", "out of range"), ("0,x", "bad index list"),
    ], ids=["too-many", "out-of-range", "not-an-integer"])
    def test_bad_cascade_subset_maps_to_2(self, capsys, subset, message):
        code, out, err = run_cli(capsys, "cascade", "--N", "10", "--k", "2",
                                 "--subset", subset, "--points", "3")
        assert code == 2
        assert out == ""
        assert err.startswith("qmeas: config:") and message in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [("--nu-max", "100000000"),
                                      ("--nu-max", "1000", "--seeds", "10000000")],
                             ids=["nu-max", "seeds"])
    def test_recur_rows_refused_before_model(self, capsys, monkeypatch, argv):
        # nu_max * seeds peak rows are refused before any coupling is drawn
        def no_model(*args, **kwargs):
            raise AssertionError("build_model called before recur's size guard")

        monkeypatch.setattr(curie_weiss, "build_model", no_model)
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "recur", "--N", "100", *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert out == ""
        assert err.startswith("qmeas: guard:") and "--nu-max" in err
        assert peak < 2**20

    @pytest.mark.parametrize("command", ["truncate", "cascade", "oracle-check", "appc-report"])
    @pytest.mark.parametrize("points", ["10000000000", "100000000000000000000"])
    def test_grid_points_refused_before_model(self, capsys, monkeypatch, command, points):
        # the arrays of 1e10 points would need terabytes, and 1e20 points
        # overflowed linspace; both are refused before any draw
        def no_model(*args, **kwargs):
            raise AssertionError("build_model called before the --points size guard")

        monkeypatch.setattr(curie_weiss, "build_model", no_model)
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, command, "--N", "4", "--points", points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert out == ""
        assert err.startswith("qmeas: guard:") and "lower --points" in err
        assert len(err.splitlines()) == 1
        assert peak < 2**20

    @pytest.mark.parametrize("k", ["1000000000", "100000000000000000000"])
    def test_cascade_k_refused_before_listing_indices(self, capsys, monkeypatch, k):
        # cascade_correlation checks k <= N before it lists the subset; the
        # stand-in range fails as soon as anything iterates the k indices
        class Unlisted:
            def __init__(self, n):
                pass

            def __iter__(self):
                raise AssertionError("cascade listed its k indices before checking k")

        monkeypatch.setattr(_commands, "range", Unlisted, raising=False)
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "cascade", "--N", "4", "--points", "3", "--k", k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert err == "qmeas: config: k must be in [1, N]\n"
        assert peak < 2**20

    def test_born_runs_past_int64_maps_to_2(self, capsys):
        code, out, err = run_cli(capsys, "born", "--runs", "100000000000000000000")
        assert code == 2
        assert out == ""
        assert err == ("qmeas: config: at most 2^63 - 1 runs can be sampled, "
                       "got 100000000000000000000\n")

    def test_born_runs_at_int64_max(self, capsys):
        code, out, _ = run_cli(capsys, "born", "--runs", str(2**63 - 1))
        assert code == 0
        data = json.loads(out)
        assert data["total"] == 2**63 - 1 == sum(data["counts"])

    @pytest.mark.parametrize("argv", [("register",), ("finalstate", "--reduced"),
                                      ("finalstate",)],
                             ids=["register", "finalstate-reduced", "finalstate"])
    def test_sectors_refused_before_the_loop(self, capsys, monkeypatch, argv):
        # ln C(N, k) for N + 1 sectors is a Python loop: at N = 1e20 it ran
        # until stopped, growing a list; the byte guard on the sectors comes first
        def no_loop(n_spins):
            raise AssertionError("log_degeneracies called before the sector guard")

        monkeypatch.setattr(equilibrium, "log_degeneracies", no_loop)
        code, out, err = run_cli(capsys, *argv, "--N", "100000000000000000000")
        assert code == 3
        assert out == ""
        assert err.startswith("qmeas: guard: the N + 1 magnetization sectors would need")
        assert err.endswith("; lower N\n") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv, message", [
        (("born", "--r0", "bogus"), "r0 must be +x/-x/+y/-y/+z/-z or vx,vy,vz (got 'bogus')"),
        (("born", "--r0", "1,2"), "r0 must be +x/-x/+y/-y/+z/-z or vx,vy,vz (got '1,2')"),
        (("born", "--r0", "a,b,c"), "bad Bloch component in 'a,b,c'"),
        (("feasible", "--correlators", "1,2,3"),
         "correlators needs exactly 4 comma-separated entries"),
        (("feasible", "--correlators", "x,0,0,0"), "bad correlators list: 'x,0,0,0'"),
        (("recur", "--g", "1e-308", "--nu-max", "2"),
         "the recurrence peak time nu_max pi/(2g) must be finite"),
        (("born", "--config"), "--config needs a path"),
    ], ids=["r0-name", "r0-count", "r0-component", "correlators-count", "correlators-value",
            "recur-peak-time", "config-path"])
    def test_refusal_message(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"qmeas: config: {message}\n"

    @pytest.mark.parametrize("command", ["oracle-check", "appc-report"])
    def test_oracle_n_past_analytic_range_maps_to_2(self, capsys, command):
        # the size guard leaves such an N to build_model's range check, so
        # the exact integer 2^N is never formed
        code, out, err = run_cli(capsys, command, "--N", "100000000", "--points", "5")
        assert code == 2
        assert out == ""
        assert err.startswith("qmeas: config:") and "N must be in" in err

    def test_numerical_failure_maps_to_3(self, capsys, monkeypatch):
        def no_root(*args, **kwargs):
            raise ConvergenceError("no root in bracket")

        monkeypatch.setattr(equilibrium, "meanfield_magnetization", no_root)
        code, _, err = run_cli(capsys, "register")
        assert code == 3
        assert err.startswith("qmeas: numerical:")


class TestSelftests:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_selftest_passes(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--selftest")
        assert code == 0, err
        assert out.strip() == f"selftest {command}: PASS"

    def test_selftests_use_no_bare_assert(self):
        # python -O strips assert statements, which would turn every
        # selftest into an unconditional PASS
        from qmeas import selftests

        assert set(selftests.SELFTESTS) == set(COMMANDS)
        tree = ast.parse(Path(selftests.__file__).read_text(encoding="utf-8"))
        checked = set()
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_selftest_"):
                asserts = [n for n in ast.walk(fn) if isinstance(n, ast.Assert)]
                assert not asserts, f"{fn.name} uses assert"
                checked.add(fn.name)
        assert checked == {f.__name__ for f in selftests.SELFTESTS.values()}

    def test_failed_check_maps_to_1(self, capsys, monkeypatch):
        monkeypatch.setattr(contextuality, "chsh_value", lambda *a: 2.0)
        code, out, err = run_cli(capsys, "chsh", "--selftest")
        assert code == 1
        assert out == ""
        assert err.startswith("selftest chsh: FAIL")

    @pytest.mark.parametrize("fault", ["phase", "observables"])
    @pytest.mark.parametrize("command", ["oracle-check", "appc-report"])
    def test_oracle_selftests_see_a_fault(self, capsys, monkeypatch, command, fault):
        # "phase" rotates every phase by 0.01 rad, which keeps |R| and so the
        # invariant exact but moves F, s_x and the joint state; "observables"
        # shifts every grid reading, cascade pairs included, by 1e-9 and
        # leaves the joint state alone
        if fault == "phase":
            tiles = oracle._phase_tiles

            def rotated(model, times):
                for t, phase in tiles(model, times):
                    yield t, phase * np.exp(0.01j)

            monkeypatch.setattr(oracle, "_phase_tiles", rotated)
        else:
            expectations = oracle.grid_expectations

            def shifted(*args, **kwargs):
                obs = expectations(*args, **kwargs)
                out = {k: v + 1e-9 for k, v in obs.items() if k != "cascade"}
                out["cascade"] = {s: (x + 1e-9, y + 1e-9) for s, (x, y) in obs["cascade"].items()}
                return out

            monkeypatch.setattr(oracle, "grid_expectations", shifted)
        code, out, err = run_cli(capsys, command, "--selftest")
        assert code == 1
        assert out == ""
        assert err.startswith(f"selftest {command}: FAIL")

    @pytest.mark.parametrize("fault", [
        "finalstate", "born", "truncate", "cascade", "register-pair", "register-scalar",
        "register-pointer-limit", "finalstate-window", "reduce-luders", "recur", "ambiguity"])
    def test_selftests_see_a_fault(self, capsys, monkeypatch, fault):
        # finalstate: every ln C(N, k) scaled by 1 + 1e-6; born: the Born
        # weights moved by +-1e-6, inside numpy's default rtol of 1e-5;
        # truncate: s_x and s_x(0) scaled by 1.1; cascade: both correlators
        # scaled by 1.1; register: the paired or the single mean-field m
        # scaled by 1 + 1e-6, or the pointer-limit values by 1.01;
        # finalstate-window: the pointer window scaled by 1 + 1e-3, which
        # still passes PointerModel's checks; reduce: the Luders weight
        # scaled by 1 + 1e-3; recur: every cosine angle scaled by 1.001,
        # which leaves equal couplings' peaks at exactly 1; ambiguity: the
        # chord weights pulled apart by 1e-12 of their difference, which
        # leaves them 1/2 at the chord's centre and passes the decomposition's
        # own 1e-12 checks
        command = fault.split("-")[0]
        if fault in ("register-pair", "register-scalar"):
            magnetization = equilibrium.meanfield_magnetization
            paired = fault == "register-pair"

            def scaled(*args):
                m = magnetization(*args)
                if isinstance(m, tuple) == paired:
                    return tuple(v * (1.0 + 1e-6) for v in m) if paired else m * (1.0 + 1e-6)
                return m

            monkeypatch.setattr(equilibrium, "meanfield_magnetization", scaled)
        elif fault == "register-pointer-limit":
            limit = equilibrium.pointer_limit

            def shifted(*args):
                res = limit(*args)
                return dataclasses.replace(res, values=res.values * 1.01)

            monkeypatch.setattr(equilibrium, "pointer_limit", shifted)
        elif fault == "finalstate-window":
            build = equilibrium.build_curie_weiss_pointer

            def widened(*args, **kwargs):
                pointer = build(*args, **kwargs)
                return dataclasses.replace(pointer, window=pointer.window * (1.0 + 1e-3))

            monkeypatch.setattr(equilibrium, "build_curie_weiss_pointer", widened)
        elif fault == "reduce-luders":
            from qmeas import runs

            luders = runs.luders_branch

            def reweighted(*args):
                branch = luders(*args)
                return dataclasses.replace(branch, p=branch.p * (1.0 + 1e-3))

            monkeypatch.setattr(runs, "luders_branch", reweighted)
        elif command == "truncate":
            transverse = curie_weiss.transverse_expectations

            def scaled(*args):
                res = transverse(*args)
                return dataclasses.replace(res, sx=res.sx * 1.1, sx0=res.sx0 * 1.1)

            monkeypatch.setattr(curie_weiss, "transverse_expectations", scaled)
        elif command == "recur":
            cos_product = curie_weiss._cos_product
            monkeypatch.setattr(curie_weiss, "_cos_product",
                                lambda c, t, shift=0.0, drop=None:
                                cos_product(c, t * 1.001, shift, drop))
        elif command == "ambiguity":
            from qmeas import ambiguity

            chord = ambiguity.chord_decomposition

            def pulled(*args):
                dec = chord(*args)
                shift = 1e-12 * (dec.rho1 - dec.rho2)
                return dataclasses.replace(dec, rho1=dec.rho1 + shift, rho2=dec.rho2 - shift)

            monkeypatch.setattr(ambiguity, "chord_decomposition", pulled)
        elif command == "cascade":
            cascade = curie_weiss.cascade_correlation
            monkeypatch.setattr(curie_weiss, "cascade_correlation",
                                lambda *a: tuple(c * 1.1 for c in cascade(*a)))
        elif command == "finalstate":
            log_degeneracies = equilibrium.log_degeneracies
            monkeypatch.setattr(equilibrium, "log_degeneracies",
                                lambda n: log_degeneracies(n) * (1.0 + 1e-6))
        else:
            from qmeas import runs

            born_weights = runs.born_weights
            monkeypatch.setattr(runs, "born_weights",
                                lambda *a: born_weights(*a) + np.array([1e-6, -1e-6]))
        code, out, err = run_cli(capsys, command, "--selftest")
        assert code == 1
        assert out == ""
        assert err.startswith(f"selftest {command}: FAIL")


class TestOutputs:
    def test_truncate_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, "truncate", "--N", "50", "--points", "9",
                               "--tmax-tau", "2.0")
        assert code == 0
        body = strip_version_header(out).splitlines()
        assert body[0] == "t,sx,sy,gaussian_envelope"
        assert len(body) == 1 + 9
        first = [float(v) for v in body[1].split(",")]
        assert first[0] == 0.0
        assert first[1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("r0", ["+x", "+y"])
    def test_truncate_zeros_are_unsigned(self, capsys, r0):
        # the component r0 lacks is an exact zero in every row, and F < 0 in
        # some: it is +0.0 all the same, and the output prints 0, not -0
        argv = ["--N", "1", "--points", "5", "--tmax-tau", "8", "--r0", r0]
        code, out, _ = run_cli(capsys, "truncate", *argv, "--format", "json")
        assert code == 0
        model, grid = _commands._model_and_grid(_commands.parse("truncate", argv, {}))
        res = curie_weiss.transverse_expectations(model, grid)
        assert np.any(curie_weiss.offdiag_factor(model, grid) < 0.0)
        zero = res.sy if r0 == "+x" else res.sx
        assert np.all(zero == 0.0)
        printed = np.array(json.loads(out)["rows"])
        for col in (res.sx, res.sy, printed):
            assert not np.signbit(col[col == 0.0]).any()
        code, out, _ = run_cli(capsys, "truncate", *argv)
        assert code == 0
        assert "-0" not in strip_version_header(out).replace("\n", ",").split(",")

    def test_csv_determinism_modulo_header(self, capsys):
        _, out1, _ = run_cli(capsys, "truncate", "--N", "50", "--points", "9")
        _, out2, _ = run_cli(capsys, "truncate", "--N", "50", "--points", "9")
        assert strip_version_header(out1) == strip_version_header(out2)

    def test_born_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "born", "--r0", "0,0,0.6",
                               "--runs", "100000", "--seed", "1")
        assert code == 0
        data = json.loads(out)
        assert data["p"] == [pytest.approx(0.8, abs=1e-12),
                             pytest.approx(0.2, abs=1e-12)]
        assert data["counts"] == [80074, 19926]
        assert data["failed"] == [False, False]
        assert set(data) == {"p", "counts", "total", "seed", "z_scores",
                             "flagged", "failed"}

    def test_chsh_value(self, capsys):
        code, out, _ = run_cli(capsys, "chsh")
        assert code == 0
        data = json.loads(out)
        assert data["c"] == pytest.approx(2.8284271247461903, abs=1e-12)
        assert data["classical_bound"] == 2.0
        assert data["terms"]["e_xv"] == pytest.approx(-np.sqrt(2) / 2, abs=1e-12)

    def test_json_format_flag_on_csv_command(self, capsys):
        code, out, _ = run_cli(capsys, "truncate", "--N", "50", "--points", "5",
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["columns"] == ["t", "sx", "sy", "gaussian_envelope"]
        assert len(data["rows"]) == 5

    def test_out_file_written(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run_cli(capsys, "feasible", "--correlators", "0,0,0,0",
                               "--out", str(target))
        assert code == 0
        assert out == ""
        data = json.loads(target.read_text())
        assert data["feasible"] is True

    def test_feasible_witness_surfaces(self, capsys):
        code, out, _ = run_cli(capsys, "feasible", "--correlators",
                               "0.8,0.8,0.8,-0.8")
        assert code == 0
        data = json.loads(out)
        assert data["feasible"] is False
        assert data["witness"]["kind"] == "chsh"
        assert data["witness"]["value"] == pytest.approx(3.2, abs=1e-12)

    def test_register_reports_magnetization(self, capsys):
        code, out, _ = run_cli(capsys, "register", "--J", "1.0", "--T", "0.8")
        assert code == 0
        data = json.loads(out)
        assert sorted(data["m"]) == [pytest.approx(-0.7104117834878704, abs=1e-9),
                                     pytest.approx(0.7104117834878704, abs=1e-9)]
        assert data["g_threshold"] == pytest.approx(0.06224413545227514, abs=2e-6)

    @pytest.mark.parametrize("argv", [
        ("born",), ("register", "--N", "50"), ("finalstate",), ("reduce",),
        ("ambiguity",), ("dispersionless",), ("chsh",), ("feasible",),
        ("oracle-check", "--N", "4"),
    ])
    def test_csv_matches_json(self, capsys, argv):
        code_j, out_j, _ = run_cli(capsys, *argv, "--format", "json")
        code_c, out_c, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code_j == code_c == 0
        expected = flatten_json(json.loads(out_j))
        body = strip_version_header(out_c).splitlines()
        assert body[0] == "key,value"
        rows = [line.split(",", 1) for line in body[1:]]
        assert [k for k, _ in rows] == [k for k, _ in expected]
        for (key, text), (_, value) in zip(rows, expected):
            if isinstance(value, bool):
                assert text == str(value).lower(), key
            elif isinstance(value, int):
                assert int(text) == value, key
            elif isinstance(value, float):
                assert float(text) == value, key
            else:
                assert text == str(value), key

    def test_recur_rows_match_the_layer(self, capsys):
        code, out, _ = run_cli(capsys, "recur", "--N", "1000", "--delta-g-rel", "0.05",
                               "--nu-max", "3", "--seeds", "2", "--seed", "4")
        assert code == 0
        body = strip_version_header(out).splitlines()
        assert body[0] == "seed,nu,t_nu,measured,predicted"
        rows = [line.split(",") for line in body[1:]]
        assert [row[0] for row in rows] == ["4", "4", "4", "5", "5", "5"]
        for seed, chunk in ((4, rows[:3]), (5, rows[3:])):
            p = curie_weiss.recurrence_profile(curie_weiss.build_model(1000, 1.0, 0.05, seed), 3)
            for i, row in enumerate(chunk):
                assert row[1:] == [_commands._fmt(x) for x in
                                   (p.nu[i], p.time[i], p.measured[i], p.predicted[i])]

    def test_appc_report_columns_match_the_oracle(self, capsys):
        argv = ["--N", "6", "--delta-g-rel", "0.1", "--points", "9", "--seed", "2"]
        code, out, _ = run_cli(capsys, "appc-report", *argv)
        assert code == 0
        body = strip_version_header(out).splitlines()
        model, grid = _commands._model_and_grid(_commands.parse("appc-report", argv, {}))
        rep = oracle.appendix_c_grid(model, grid)
        series = {"t": rep.times, "invariant_deviation": rep.invariant_deviation,
                  "sx": rep.sx}
        series.update({f"cascade_{k}": v for k, v in sorted(rep.correlators.items())})
        assert body[0] == ",".join(series)
        columns = list(zip(*(line.split(",") for line in body[1:])))
        assert len(columns[0]) == 9
        for got, want in zip(columns, series.values(), strict=True):
            assert list(got) == [_commands._fmt(x) for x in want]

    def test_cascade_subset_matches_the_layer(self, capsys):
        from qmeas.qstate import bloch_state

        code, out, _ = run_cli(capsys, "cascade", "--N", "10", "--k", "2",
                               "--subset", "0,3", "--points", "3", "--format", "json")
        assert code == 0
        model = curie_weiss.build_model(10, 1.0, 0.0, 0, bloch_state((1, 0, 0)))
        grid = np.linspace(0.0, 4.0 * curie_weiss.truncation_time(model), 3)
        cx, cy = curie_weiss.cascade_correlation(model, 2, (0, 3), grid)
        assert json.loads(out)["rows"] == [list(r) for r in zip(grid.tolist(), cx.tolist(),
                                                                cy.tolist())]
        # +x has no y component, so at k = 2 every corr_sy is an exact zero,
        # and it is +0.0: the output prints 0, not -0
        assert np.all(cy == 0.0)
        printed = np.array(json.loads(out)["rows"])
        for col in (cx, cy, printed):
            assert not np.signbit(col[col == 0.0]).any()

    def test_full_finalstate_builds_no_full_pointer(self, capsys, monkeypatch):
        def no_full(*args, **kwargs):
            raise AssertionError("the 2^N magnet operators were built")

        monkeypatch.setattr(equilibrium, "magnet_operators", no_full)
        code, out, _ = run_cli(capsys, "finalstate", "--N", "10")
        assert code == 0
        assert json.loads(out)["magnet_dim"] == 2**10

    @pytest.mark.parametrize("n", [10, 16, 20])
    def test_full_finalstate_matches_the_full_pointer(self, capsys, n):
        from qmeas import runs
        from qmeas.qstate import bloch_state, vn_entropy

        code, out, _ = run_cli(capsys, "finalstate", "--N", str(n), "--r0", "0.3,0.2,0.6")
        assert code == 0
        data = json.loads(out)
        full = equilibrium.build_curie_weiss_pointer(n, 1.0, 0.5)
        joint = equilibrium.final_joint_state(bloch_state((0.3, 0.2, 0.6)),
                                              runs.sz_observable(), full)
        assert data["outcomes"] == list(full.outcomes)
        assert data["log_partition_consts"] == list(full.log_partition_consts)
        assert abs(data["window"] - full.window) <= 1e-12 * full.window
        assert abs(data["entropy"] - vn_entropy(joint)) <= 1e-12
        assert data["magnet_dim"] == 2**n

    def test_oracle_check_passes_past_twelve_spins(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-check", "--N", "16", "--delta-g-rel", "0.1",
                               "--points", "20")
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 16
        assert data["pass_1e10"] is True

    def test_csv_rows_render_as_fmt_join(self):
        # the one-format-per-row writer must read as _fmt on every value of
        # a float column
        rows = [[0, np.int64(3), -0.0, np.float64(-0.0)],
                [np.inf, -np.inf, np.float32(0.1), 1e300],
                [5e-324, np.float64(1.0) / 3.0, 12345678901234567, True]]
        columns = [(name, np.array(col)) for name, col in zip("abcd", zip(*rows))]
        assert all(col.dtype == np.float64 for _, col in columns)
        text = "".join(_commands._grid_rows(columns, csv=True))
        body = strip_version_header(text).splitlines()
        assert body == ["a,b,c,d"] + [",".join(_commands._fmt(x) for x in row)
                                      for row in rows]

    @pytest.mark.parametrize("seed", [2**53 + 1, 123456789012345678, 2**64 + 5])
    def test_recur_csv_seeds_print_exactly(self, capsys, seed):
        # float rounding printed 123456789012345678 and the next seed alike
        argv = ["recur", "--N", "4", "--delta-g-rel", "0.1", "--seed", str(seed),
                "--seeds", "2", "--nu-max", "1"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        rows = strip_version_header(out).splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [str(seed), str(seed + 1)]
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert [row[0] for row in json.loads(out)["rows"]] == [seed, seed + 1]

    @staticmethod
    def _layer_columns(command, argv):
        """(names, columns) of a grid command, from its layer's arrays."""
        args = _commands.parse(command, argv, {})
        if command == "recur":
            profiles = [curie_weiss.recurrence_profile(
                curie_weiss.build_model(args.N, args.g, args.delta_g_rel, seed), args.nu_max)
                for seed in range(args.seed, args.seed + args.seeds)]
            seeds = [seed for seed in range(args.seed, args.seed + args.seeds)
                     for _ in range(args.nu_max)]
            return ["seed", "nu", "t_nu", "measured", "predicted"], [seeds] + [
                np.concatenate([getattr(p, f) for p in profiles]).tolist()
                for f in ("nu", "time", "measured", "predicted")]
        model, grid = _commands._model_and_grid(args)
        if command == "truncate":
            res = curie_weiss.transverse_expectations(model, grid)
            env = res.sx0 * np.exp(-((grid / res.tau) ** 2))
            return ["t", "sx", "sy", "gaussian_envelope"], [
                grid.tolist(), res.sx.tolist(), res.sy.tolist(), env.tolist()]
        rep = oracle.appendix_c_grid(model, grid)
        ks = sorted(rep.correlators)
        return ["t", "invariant_deviation", "sx"] + [f"cascade_{k}" for k in ks], [
            rep.times.tolist(), rep.invariant_deviation.tolist(), rep.sx.tolist()] + [
            rep.correlators[k].tolist() for k in ks]

    @pytest.mark.parametrize("rows", [1, 4, 5, 9])
    @pytest.mark.parametrize("command", ["truncate", "recur", "appc-report"])
    def test_chunked_rows_match_one_dump(self, capsys, monkeypatch, command, rows):
        # 4-row chunks: one chunk, exactly one, one plus a row, two plus a row
        monkeypatch.setattr(_commands, "_CHUNK_ROWS", 4)
        if command == "recur":
            # 9 rows as three seeds of three peaks
            size = ["--nu-max", "3", "--seeds", "3"] if rows == 9 else ["--nu-max", str(rows)]
            argv = ["--N", "6", "--delta-g-rel", "0.2", "--seed", "3", *size]
        else:
            argv = ["--N", "4", "--delta-g-rel", "0.2", "--seed", "3", "--points", str(rows)]
        names, columns = self._layer_columns(command, argv)
        code, out, _ = run_cli(capsys, command, *argv, "--format", "json")
        assert code == 0
        rows_ = [list(r) for r in zip(*columns)]
        assert len(rows_) == rows
        assert out == json.dumps({"columns": names, "rows": rows_}, indent=2) + "\n"
        code, out, _ = run_cli(capsys, command, *argv, "--format", "csv")
        assert code == 0
        assert strip_version_header(out).splitlines() == [",".join(names)] + [
            ",".join(_commands._fmt(x) for x in row) for row in rows_]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", [
        ("truncate", "--N", "1000", "--delta-g-rel", "0.1", "--points"),
        ("cascade", "--N", "1000", "--k", "3", "--points"),
        ("recur", "--N", "100", "--delta-g-rel", "0.1", "--nu-max"),
        ("appc-report", "--N", "4", "--points"),
    ], ids=lambda argv: argv[0])
    def test_grid_output_bytes_per_point(self, capsys, tmp_path, argv, fmt):
        # rows are written a chunk at a time, so a grid's output holds no
        # per-row objects past one chunk; the whole-text writer held 337-974
        # bytes per point here
        points = 200_000
        out = str(tmp_path / "grid.txt")
        assert run_cli(capsys, *argv, "10", "--format", fmt, "--out", out)[0] == 0
        tracemalloc.start()
        try:
            code, _, _ = run_cli(capsys, *argv, str(points), "--format", fmt, "--out", out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 200 * points

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("qmeas ")


def _exit_code(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


class TestParser:
    def test_help_lists_every_command(self, capsys):
        assert _exit_code(["--help"]) == 0
        listing = capsys.readouterr().out.split("\ncommands:\n", 1)[1]
        helps = dict(line.split(None, 1) for line in listing.splitlines())
        assert list(helps) == list(COMMANDS)
        assert all(h.strip() for h in helps.values())

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_help_exits_0(self, capsys, command):
        assert _exit_code([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: qmeas {command} ")
        assert "--selftest" in out

    @pytest.mark.parametrize("argv, message", [(["nosuch"], "invalid choice"),
                                               ([], "required")], ids=["unknown", "bare"])
    def test_bad_command_exits_2(self, capsys, argv, message):
        assert _exit_code(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("argv, parsers", [(["--version"], 1), (["--help"], 1),
                                               (["chsh"], 2)], ids=["version", "help", "chsh"])
    def test_run_builds_only_its_parsers(self, capsys, monkeypatch, argv, parsers):
        # the top-level parser, plus the named command's own
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert _exit_code(argv) == 0
        assert len(built) == parsers


def test_cli_import_leaves_scipy_unloaded():
    # scipy costs about 0.3 s to import; no command loads it
    code = ("import sys\n"
            "from qmeas import cli\n"
            "try:\n"
            "    cli.main(['--version'])\n"
            "except SystemExit:\n"
            "    pass\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=SRC_ENV, check=True)
    version, loaded = out.stdout.splitlines()
    assert version.startswith("qmeas ")
    assert loaded == "[]"


def _run_and_list_modules(argv):
    # the child prints a repr, not JSON, so that the listing loads no json
    script = ("import contextlib, io, sys\n"
              "from qmeas import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    try:\n"
              f"        code = cli.main({argv!r})\n"
              "    except SystemExit as exc:\n"
              "        code = exc.code\n"
              "print([code, sorted(sys.modules)])\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=SRC_ENV, check=True)
    code, loaded = ast.literal_eval(out.stdout.splitlines()[-1])
    return code, set(loaded)


@functools.cache
def _argparse_baseline() -> set:
    # what the interpreter and its site hooks load next to argparse alone
    script = "import argparse, contextlib, io, sys\nprint(sorted(sys.modules))\n"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=SRC_ENV, check=True)
    return set(ast.literal_eval(out.stdout.splitlines()[-1]))


@pytest.mark.parametrize("argv, absent", [
    (["--version"], {"numpy", "dataclasses", "configparser", "json", "qmeas.selftests",
                     "qmeas._commands"}),
    (["chsh"], {"qmeas.curie_weiss", "qmeas.equilibrium", "qmeas.oracle", "qmeas.runs"}),
    (["born", "--runs", "1000"], {"qmeas.curie_weiss", "qmeas.contextuality"}),
    (["truncate", "--N", "1000", "--points", "50"],
     {"concurrent.futures", "qmeas.equilibrium", "qmeas.oracle"}),
    (["register", "--N", "200"], {"qmeas.curie_weiss"}),
    (["truncate", "--N", "1000", "--points", "20000"], {"concurrent.futures", "logging"}),
    (["cascade", "--N", "1000", "--points", "50", "--k", "3"], {"numpy.ma"}),
    (["oracle-check", "--N", "6", "--points", "20"], {"numpy.ma"}),
    (["finalstate", "--N", "10"], {"qmeas.curie_weiss", "qmeas.kernels"}),
    (["recur", "--N", "100", "--delta-g-rel", "0.1", "--format", "json"], {"json"}),
], ids=["version", "chsh", "born", "truncate", "register", "truncate-past-radius",
        "cascade", "oracle-check", "finalstate-full", "grid-json"])
def test_command_loads_only_its_layers(argv, absent):
    # the fixed cost of a job is the code that job runs
    code, loaded = _run_and_list_modules(argv)
    assert code == 0
    assert not (absent - _argparse_baseline()) & loaded


@pytest.mark.parametrize("argv", [
    ["recur", "--N", "1000", "--g", "inf"],
    ["cascade", "--N", "100", "--g", "nan", "--k", "1"],
    ["truncate", "--N", "10000000", "--delta-g-rel", "0.1", "--g", "inf"],
    ["recur", "--g", "1e-320", "--nu-max", "1", "--seeds", "2"],
    ["recur", "--N", "100", "--g", "1e-305", "--nu-max", "1000000"],
    ["cascade", "--N", "50", "--g", "1e308", "--points", "2", "--k", "2"],
    ["truncate", "--N", "2", "--delta-g-rel", "0.5", "--tmax-tau", "1.5e308",
     "--points", "2"],
    ["cascade", "--N", "2", "--g", "1e-10", "--tmax-tau", "1e300", "--points", "3"],
    ["truncate", "--N", "2", "--g", "1e-10", "--tmax-tau", "1e300", "--points", "3"],
    ["truncate", "--N", "2", "--g", "1e-10", "--delta-g-rel", "0.5", "--tmax-tau", "2e298",
     "--points", "3"],
    ["truncate", "--N", "1", "--g", "1.2e308", "--points", "3"],
    ["appc-report", "--N", "16", "--tmax-tau", "5e307", "--points", "2"],
    ["oracle-check", "--N", "16", "--tmax-tau", "5e307", "--points", "2"],
    ["appc-report", "--N", "16", "--g", "3e307", "--points", "2"],
], ids=["recur-inf", "cascade-nan", "truncate-1e7-inf", "recur-tiny-g", "recur-late-peak",
        "cascade-tau-0", "truncate-angle-inf", "cascade-grid-end-inf", "truncate-grid-end-inf",
        "truncate-doubled-end-inf", "truncate-rate-inf", "appc-phase-inf", "oracle-phase-inf",
        "appc-field-inf"])
def test_non_finite_coupling_maps_to_2(argv):
    # refused before any grid or oracle tile: no NaN or inf rows, and no
    # numpy RuntimeWarning from a non-finite coupling table, tau, peak time,
    # angle, grid end or oracle phase reaches stderr
    script = "import sys\nfrom qmeas.cli import main\nsys.exit(main())\n"
    out = subprocess.run([sys.executable, "-W", "default", "-c", script, *argv],
                         capture_output=True, text=True, env=SRC_ENV)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("qmeas: config:") and "finite" in out.stderr
    assert "Warning" not in out.stderr


def test_package_exports_resolve():
    import qmeas
    from qmeas import errors, qstate

    for name in qmeas.__all__:
        if name != "__version__":
            home = qstate if hasattr(qstate, name) else errors
            assert getattr(qmeas, name) is getattr(home, name), name
    star = {}
    exec("from qmeas import *", star)
    assert set(qmeas.__all__) <= set(star)
    assert set(qmeas.__all__) <= set(dir(qmeas))
    with pytest.raises(AttributeError):
        getattr(qmeas, "no_such_name")


@pytest.mark.parametrize("argv", [["register", "--N", "200"], ["finalstate", "--N", "10"]])
def test_registration_leaves_scipy_unloaded(argv):
    # the mean-field root and the pointer need numpy only
    code = ("import json, sys\n"
            "from qmeas import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=SRC_ENV, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == []


def test_feasible_leaves_scipy_unloaded():
    # the closed-form feasibility test needs numpy only: feasible,
    # infeasible (CHSH) and with-marginals tables in one interpreter
    tables = [["--correlators=0.5,0.5,0.5,-0.5"],
              ["--correlators=0.9,0.9,0.9,-0.9"],
              ["--correlators=0.3,0.3,0.3,0.3", "--marginals-a=0.1,0", "--marginals-b=0,-0.2"]]
    code = ("import contextlib, io, json, sys\n"
            "from qmeas import cli\n"
            "verdicts = []\n"
            f"for extra in {tables!r}:\n"
            "    buf = io.StringIO()\n"
            "    with contextlib.redirect_stdout(buf):\n"
            "        assert cli.main(['feasible', *extra]) == 0\n"
            "    verdicts.append(json.loads(buf.getvalue())['feasible'])\n"
            "print(json.dumps([verdicts,\n"
            "                  sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=SRC_ENV, check=True)
    verdicts, loaded = json.loads(out.stdout.splitlines()[-1])
    assert verdicts == [True, False, True]
    assert loaded == []


def test_no_selftest_loads_scipy():
    # every subcommand's selftest exercises its solver path on numpy alone
    code = ("import contextlib, io, json, sys\n"
            "from qmeas import cli\n"
            "for name in cli._CATALOG:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main([name, '--selftest']) == 0, name\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=SRC_ENV, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == []


def _run_subprocess(argv, cwd=None):
    script = "import sys\nfrom qmeas.cli import main\nsys.exit(main())\n"
    return subprocess.run([sys.executable, "-W", "default", "-c", script, *argv],
                          capture_output=True, text=True, env=SRC_ENV, cwd=cwd)


@pytest.mark.parametrize("argv", [
    ["born", "--conf", "r5.ini"],
    ["born", "--conf=r5.ini"],
    ["born", "--c", "r5.ini"],
    ["--con", "r5.ini"],
    ["born", "--confi=r5.ini", "--seed", "3"],
])
def test_config_prefix_loads_the_file(tmp_path, argv):
    # argparse takes any unambiguous prefix of --config; the file is read
    (tmp_path / "r5.ini").write_text("[run]\ncommand = born\n[born]\nruns = 5\n")
    out = _run_subprocess(argv, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["total"] == 5


@pytest.mark.parametrize("argv", [
    ["feasible", "--co", "r5.ini"],
    ["born", "--conf"],
    ["born", "--conf=absent.ini"],
])
def test_config_prefix_never_ignores_the_file(tmp_path, argv):
    # an ambiguous prefix (--co: --config or --correlators), a missing path
    # or an unreadable file exits 2 before any run
    (tmp_path / "r5.ini").write_text("[run]\ncommand = born\n[born]\nruns = 5\n")
    out = _run_subprocess(argv, cwd=tmp_path)
    assert out.returncode == 2
    assert out.stdout == ""


@pytest.mark.parametrize("argv", [
    ["finalstate", "--N", "2", "--J", "1e6", "--T", "1e-320"],
    ["register", "--J", "0.5", "--T", "1e-320", "--N", "1000"],
    ["finalstate", "--N", "8", "--J", "1e-12", "--T", "-0.0"],
], ids=["finalstate-subnormal-T", "register-subnormal-T", "finalstate-negative-zero-T"])
def test_temperature_refused_before_gibbs(argv):
    # 1/T must be finite before any Gibbs exponent is formed: the refusal
    # names T and no RuntimeWarning precedes it
    out = _run_subprocess(argv)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("qmeas: config:") and "T" in out.stderr
    assert "finite and positive" in out.stderr
    assert len(out.stderr.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["finalstate", "--J=1e308", "--T=7", "--N=8"],
    ["finalstate", "--J=1e308", "--T=7", "--N=8", "--reduced"],
    ["register", "--J=1e308", "--N=8"],
    ["register", "--T=1e308", "--N=8"],
    ["finalstate", "--J=2.5e307", "--T=1", "--N=8"],
    ["finalstate", "--J=1e300", "--T=1e-10", "--N=8", "--reduced"],
], ids=["finalstate-J", "finalstate-reduced-J", "register-J", "register-T",
        "finalstate-source", "finalstate-reduced-J-over-T"])
def test_magnet_energy_overflow_refused_before_gibbs(argv):
    # J N/2 (with T ln C(N, N/2) in the sector representation, and with the
    # source over T in the pointer) must be finite before any energy array is
    # formed: the refusal names J and N and no RuntimeWarning precedes it
    out = _run_subprocess(argv)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("qmeas: config:")
    assert "J = " in out.stderr and "N = 8" in out.stderr
    assert len(out.stderr.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["born", "--seed=-1"],
    ["truncate", "--delta-g-rel", "0.1", "--seed=-1"],
    ["cascade", "--delta-g-rel", "0.1", "--seed=-1"],
    ["recur", "--delta-g-rel", "0.1", "--seed=-1"],
    ["truncate", "--seed=-1"],
    ["oracle-check", "--seed=-1"],
], ids=["born", "truncate", "cascade", "recur", "truncate-no-draw", "oracle-check"])
def test_negative_seed_refused(argv):
    # one contract for every --seed, whether or not a draw is made
    out = _run_subprocess(argv)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == "qmeas: config: seed must be non-negative, got -1\n"


@pytest.mark.parametrize("flag, name", [("--d1=inf,0,0", "direction"), ("--v=nan,0,0", "v")])
def test_non_finite_ambiguity_input_refused_by_name(flag, name):
    out = _run_subprocess(["ambiguity", flag])
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith(f"qmeas: config: {name} [")
    assert "must be finite" in out.stderr
    assert len(out.stderr.splitlines()) == 1


@pytest.mark.parametrize("scales", ["nan", "inf", "1e308", "0.5,nan"])
def test_non_finite_scales_refused_before_the_source(scales):
    # s * max|M_z| must be finite before any scaled Observable is formed
    out = _run_subprocess(["register", "--N", "4", f"--scales={scales}"])
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("qmeas: config: scales")
    assert len(out.stderr.splitlines()) == 1
    assert "Warning" not in out.stderr


def test_overflowing_populations_refused_without_warning():
    out = _run_subprocess(["dispersionless", "--populations=1e308,1e308"])
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("qmeas: config: trace")
    assert len(out.stderr.splitlines()) == 1
    assert "Warning" not in out.stderr


def test_truncate_envelope_past_square_overflow_warns_nothing():
    # (t/tau)^2 overflows at the grid end; the envelope there is exactly 0
    out = _run_subprocess(["truncate", "--tmax-tau", "1e300", "--points", "20"])
    assert out.returncode == 0
    assert "Warning" not in out.stderr
    last = out.stdout.splitlines()[-1].split(",")
    assert float(last[3]) == 0.0


def test_recur_peak_past_half_the_float_range_is_finite():
    # the last peak t_nu is finite and 2 t_nu is not: the deviations are
    # doubled in its place
    out = _run_subprocess(["recur", "--N", "100", "--g", "1e-305", "--delta-g-rel", "0.1",
                           "--nu-max", "1000", "--format", "json"])
    assert out.returncode == 0
    assert out.stderr == ""
    rows = json.loads(out.stdout)["rows"]
    assert rows[-1][2] > 0.5 * sys.float_info.max
    assert all(0.0 <= row[3] <= 1.0 for row in rows)


def _freeze_count_at_exit(argv):
    # the child's own atexit handler is registered first, so it runs after
    # any hook main registers (handlers run last-in, first-out)
    script = ("import atexit, contextlib, gc, io, os\n"
              "atexit.register(lambda: os.write(1, b'freeze=%d' % gc.get_freeze_count()))\n"
              "from qmeas.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    try:\n"
              f"        main({argv!r})\n"
              "    except SystemExit:\n"
              "        pass\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=SRC_ENV, check=True)
    return int(out.stdout.rsplit("freeze=", 1)[1])


def test_named_command_freezes_the_heap_at_exit():
    assert _freeze_count_at_exit(["chsh"]) > 0


def test_version_leaves_before_the_exit_hook():
    assert _freeze_count_at_exit(["--version"]) == 0


def test_exit_hook_keeps_stdout_and_out_file(capsys, tmp_path):
    argv = ["truncate", "--N", "1000", "--points", "20000"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out.encode()
    path = tmp_path / "t.csv"
    script = "import sys\nfrom qmeas.cli import main\nsys.exit(main())\n"
    to_stdout, to_file = (subprocess.run([sys.executable, "-c", script, *argv, *extra],
                                         capture_output=True, env=SRC_ENV)
                          for extra in ([], ["--out", str(path)]))
    assert to_stdout.returncode == 0 and to_stdout.stdout == expected
    assert to_file.returncode == 0 and to_file.stdout == b""
    assert path.read_bytes() == expected


def test_repeated_main_registers_one_exit_hook(capsys, monkeypatch):
    import atexit
    import gc

    # the first call loads what chsh loads, with any handlers of its own
    assert cli.main(["chsh"]) == 0
    hooks = []
    monkeypatch.setattr(atexit, "register", hooks.append)
    monkeypatch.setattr(atexit, "unregister",
                        lambda fn: hooks.__setitem__(slice(None), [h for h in hooks if h != fn]))
    assert cli.main(["chsh"]) == 0
    assert cli.main(["chsh"]) == 0
    assert hooks == [gc.freeze]


def _threads_after(argv, blas_threads=None):
    """Threads of a fresh process after main(argv), from /proc/self/status."""
    script = ("import contextlib, io\n"
              "from qmeas.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    main({argv!r})\n"
              "with open('/proc/self/status') as fh:\n"
              "    print(next(l.split()[1] for l in fh if l.startswith('Threads:')))\n")
    env = {k: v for k, v in SRC_ENV.items() if k != "OPENBLAS_NUM_THREADS"}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True)
    return int(out.stdout.split()[-1])


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status")
def test_cli_run_keeps_blas_on_one_thread():
    # an explicit setting wins; where it gives no second thread, numpy's BLAS
    # starts no OpenBLAS worker here and there is nothing to pin
    if _threads_after(["chsh"], blas_threads=2) != 2:
        pytest.skip("numpy's BLAS starts no OpenBLAS worker thread here")
    assert _threads_after(["chsh"]) == 1


@pytest.mark.parametrize("n", [400, 100_000])
def test_finalstate_prints_log_partitions_past_z_overflow(capsys, n):
    # Z = exp(721) at N = 400 overflows double precision; ln Z stays finite
    def refuse(constant):
        raise ValueError(f"non-finite {constant} in the JSON")

    code, out, _ = run_cli(capsys, "finalstate", "--N", str(n), "--reduced")
    assert code == 0
    data = json.loads(out, parse_constant=refuse)
    lz_plus, lz_minus = data["log_partition_consts"]
    assert lz_plus == lz_minus and np.isfinite(lz_plus)
    m_f = equilibrium.meanfield_magnetization(1.0, 0.5)[1]
    assert data["outcomes"] == [n * m_f, -n * m_f]
