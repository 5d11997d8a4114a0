"""The subcommands: each one's options, its body, and the output writers.

qmeas.cli imports this module only once a command is named, on the command
line or in a --config file; `qmeas --version` and `qmeas --help` neither
compile it nor build any command's parser, and a run builds the parser of
its own command alone.  Each body imports numpy and the layers it runs
inside the function, so a command loads only its own layers, and calls them
through their module attributes (curie_weiss.build_model).

A --config file's settings reach a command as option tokens ahead of argv
(parse), so one argparse parser checks types and choices for both sources.
"""
import argparse
import math
import sys

from . import __version__
from .errors import ValidationError, guard_bytes

_NAMED_BLOCH = {
    "+x": (1.0, 0.0, 0.0), "-x": (-1.0, 0.0, 0.0),
    "+y": (0.0, 1.0, 0.0), "-y": (0.0, -1.0, 0.0),
    "+z": (0.0, 0.0, 1.0), "-z": (0.0, 0.0, -1.0),
}


def _parse_bloch(spec: str) -> tuple[float, float, float]:
    s = spec.strip()
    if s in _NAMED_BLOCH:
        return _NAMED_BLOCH[s]
    parts = s.split(",")
    if len(parts) != 3:
        raise ValidationError(f"r0 must be +x/-x/+y/-y/+z/-z or vx,vy,vz (got {spec!r})")
    try:
        v = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ValidationError(f"bad Bloch component in {spec!r}") from exc
    return v


def _parse_floats(spec: str, count: int | None = None, name: str = "value") -> list[float]:
    try:
        vals = [float(p) for p in spec.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"bad {name} list: {spec!r}") from exc
    if count is None and not vals:
        raise ValidationError(f"{name} needs at least one entry")
    if count is not None and len(vals) != count:
        raise ValidationError(f"{name} needs exactly {count} comma-separated entries")
    return vals


def _parse_ints(spec: str, name: str = "index") -> list[int]:
    try:
        return [int(p) for p in spec.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"bad {name} list: {spec!r}") from exc


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _emit(args, payload: dict, default_format: str) -> None:
    if (args.format or default_format) == "csv":
        text = _render_csv(payload)
    else:
        import json

        text = json.dumps(_jsonable(payload), indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _jsonable(obj):
    import numpy as np

    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _render_csv(payload: dict) -> str:
    lines = [f"# qmeas {__version__}"]
    if "columns" in payload and "rows" in payload:
        lines.append(",".join(payload["columns"]))
        # "%" converts each value as float(x) does, so a row reads as its
        # values through _fmt joined by commas
        row_fmt = ",".join(["%.17g"] * len(payload["columns"]))
        lines.extend([row_fmt % tuple(row) for row in payload["rows"]])
    else:
        lines.append("key,value")
        for k, v in _flatten_for_csv(_jsonable(payload)):
            lines.append(f"{k},{v}")
    return "\n".join(lines) + "\n"


def _flatten_for_csv(obj, prefix=""):
    """(key, text) pairs of a _jsonable tree; keys join the path with dots."""
    items = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            items.extend(_flatten_for_csv(v, f"{prefix}{k}."))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            items.extend(_flatten_for_csv(v, f"{prefix}{i}."))
    else:
        key = prefix[:-1]
        if isinstance(obj, bool):
            items.append((key, str(obj).lower()))
        elif isinstance(obj, float):
            items.append((key, _fmt(obj)))
        else:
            items.append((key, str(obj)))
    return items


def _model_and_grid(args):
    """The model and time grid of truncate, cascade, oracle-check and
    appc-report; --points, --tmax-tau and the largest angle are checked
    before any coupling is drawn."""
    import numpy as np

    from . import curie_weiss
    from .qstate import bloch_state

    if args.points < 1:
        raise ValidationError("--points must be at least 1")
    if not (math.isfinite(args.tmax_tau) and args.tmax_tau > 0.0):
        raise ValidationError("--tmax-tau must be finite and positive")
    # the draw's N deviations have RMS delta_g_rel * g < g, so none exceeds
    # sqrt(N) g and every g_n < g (1 + sqrt(N)); at t_end = tmax_tau * tau =
    # tmax_tau / (g sqrt(2N)) the largest angle 2 g_n t_end is then below
    # 2 sqrt(2) tmax_tau
    if not math.isfinite(2.0 * math.sqrt(2.0) * args.tmax_tau):
        raise ValidationError("the largest angle 2 max(g_n) t_end must be finite; "
                              "lower --tmax-tau")
    r0 = bloch_state(_parse_bloch(args.r0))
    model = curie_weiss.build_model(args.N, args.g, args.delta_g_rel, args.seed, r0)
    tau = curie_weiss.truncation_time(model)
    return model, np.linspace(0.0, args.tmax_tau * tau, args.points)


# ---------------------------------------------------------------- commands


def _cmd_truncate(args) -> dict:
    import numpy as np

    from . import curie_weiss

    model, grid = _model_and_grid(args)
    res = curie_weiss.transverse_expectations(model, grid)
    # (t/tau)^2 overflows past t/tau ~ 1.3e154; the envelope is exactly 0 long
    # before, so the ratio is capped where its square is still finite
    env = res.sx0 * np.exp(-(np.minimum(grid / res.tau, 1e154) ** 2))
    rows = list(zip(grid.tolist(), res.sx.tolist(), res.sy.tolist(), env.tolist()))
    return {"columns": ["t", "sx", "sy", "gaussian_envelope"], "rows": rows}


# bytes per recurrence peak alive when recur writes its output: its row and
# its text (tracemalloc at N = 100, nu_max * seeds = 1e5..3e5: 408-416 per
# peak for CSV, 876-887 for JSON, past about 7 MB of imports)
_RECUR_PEAK_BYTES = 900


def _cmd_recur(args) -> dict:
    if args.seeds < 1:
        raise ValidationError("--seeds must be at least 1")
    guard_bytes(_RECUR_PEAK_BYTES * args.nu_max * args.seeds, "recur's peak rows",
                "lower --nu-max or --seeds")
    # the last peak, nu_max pi / (2g); build_model refuses a g that is not
    # finite and positive
    if args.g > 0.0 and not math.isfinite(args.nu_max * math.pi / (2.0 * args.g)):
        raise ValidationError("the recurrence peak time nu_max pi/(2g) must be finite")
    import numpy as np

    from . import curie_weiss
    from .qstate import bloch_state

    r0 = bloch_state(_parse_bloch(args.r0))
    seeds = range(args.seed, args.seed + args.seeds)
    profiles = []
    # seeds run one after another; no model outlives its own profile, so
    # one coupling table at a time is held
    for seed in seeds:
        model = curie_weiss.build_model(args.N, args.g, args.delta_g_rel, seed, r0)
        profiles.append(curie_weiss.recurrence_profile(model, args.nu_max))
        del model
    columns = [np.concatenate([getattr(p, name) for p in profiles]).tolist()
               for name in ("nu", "time", "measured", "predicted")]
    seed_column = (seed for seed in seeds for _ in range(args.nu_max))
    rows = list(zip(seed_column, *columns))
    return {"columns": ["seed", "nu", "t_nu", "measured", "predicted"], "rows": rows}


def _cmd_cascade(args) -> dict:
    from . import curie_weiss

    model, grid = _model_and_grid(args)
    subset = _parse_ints(args.subset) if args.subset else list(range(args.k))
    cx, cy = curie_weiss.cascade_correlation(model, args.k, subset, grid)
    rows = list(zip(grid.tolist(), cx.tolist(), cy.tolist()))
    return {"columns": ["t", "corr_sx", "corr_sy"], "rows": rows}


def _cmd_register(args) -> dict:
    from . import equilibrium
    from .qstate import Observable

    m = equilibrium.meanfield_magnetization(args.J, args.T, args.field)
    out = {
        "j": args.J,
        "temperature": args.T,
        "field": args.field,
        "m": list(m) if isinstance(m, tuple) else m,
        "g_threshold": equilibrium.g_threshold(args.J, args.T),
    }
    if args.N:
        h_m, m_obs = equilibrium.reduced_magnet_operators(args.N, args.J, args.T)
        scales = _parse_floats(args.scales, name="scales")
        src = Observable(diagonal=-m_obs.diagonal)
        lim = equilibrium.pointer_limit(h_m, src, args.T, scales, m_obs)
        out["pointer_limit"] = {
            "scales": list(lim.scales),
            "values": list(lim.values),
            "extrapolated": lim.extrapolated,
            "converged": lim.converged,
            "message": lim.message,
        }
    return out


def _cmd_finalstate(args) -> dict:
    from . import equilibrium, runs
    from .qstate import bloch_state, vn_entropy

    # the sector pointer in either case: the full 2^N output is derived from it
    pointer = equilibrium.build_curie_weiss_pointer(args.N, args.J, args.T, reduced=True)
    if not args.reduced:
        equilibrium.guard_full_representation(args.N)
    tested = runs.sz_observable()
    r0 = bloch_state(_parse_bloch(args.r0))
    joint = equilibrium.final_joint_state(r0, tested, pointer)
    p = runs.born_weights(r0, tested)
    if args.reduced:
        entropy, magnet_dim = vn_entropy(joint), args.N + 1
    else:
        entropy, magnet_dim = equilibrium.full_representation_summary(joint)
    return {
        "outcomes": list(pointer.outcomes),
        "p": list(p),
        "window": pointer.window,
        "entropy": entropy,
        "log_partition_consts": list(pointer.log_partition_consts),
        "magnet_dim": magnet_dim,
    }


def _cmd_born(args) -> dict:
    from . import runs
    from .qstate import bloch_state

    r0 = bloch_state(_parse_bloch(args.r0))
    tested = runs.sz_observable()
    p = runs.born_weights(r0, tested)
    split = runs.sample_runs(p, args.runs, args.seed)
    rep = runs.frequency_report(split)
    return {
        "p": list(p),
        "counts": list(split.counts),
        "total": split.total,
        "seed": split.seed,
        "z_scores": rep["z"],
        "flagged": rep["flagged"],
        "failed": rep["failed"],
    }


def _cmd_reduce(args) -> dict:
    from . import runs
    from .qstate import bloch_state, bloch_vector, vn_entropy

    r0 = bloch_state(_parse_bloch(args.r0))
    tested = runs.sz_observable()
    if args.mode == "unread":
        state = runs.unread_reduction(r0, tested)
        loss, gain = runs.info_balance(r0, tested)
        return {
            "mode": "unread",
            "bloch": list(bloch_vector(state)),
            "entropy": vn_entropy(state),
            "loss": loss,
            "gain": gain,
        }
    if args.mode == "luders":
        branch = runs.luders_branch(r0, tested, args.outcome)
        return {
            "mode": "luders",
            "outcome": branch.index,
            "p": branch.p,
            "bloch": list(bloch_vector(branch.r)),
        }
    branch = runs.von_neumann_branch(tested, args.outcome)
    return {
        "mode": "von-neumann",
        "outcome": branch.index,
        "bloch": list(bloch_vector(branch.r)),
        "entropy": vn_entropy(branch.r),
    }


def _cmd_ambiguity(args) -> dict:
    from . import ambiguity

    v = _parse_floats(args.v, 3, "v")
    d1 = _parse_floats(args.d1, 3, "d1")
    d2 = _parse_floats(args.d2, 3, "d2")
    rep = ambiguity.ambiguity_witness(v, d1, d2)
    return {
        "first": {"v1": list(rep.first.v1), "v2": list(rep.first.v2),
                  "rho1": rep.first.rho1, "rho2": rep.first.rho2},
        "second": {"v1": list(rep.second.v1), "v2": list(rep.second.v2),
                   "rho1": rep.second.rho1, "rho2": rep.second.rho2},
        "overlaps": rep.overlaps,
        "contradiction": rep.contradiction,
    }


def _cmd_dispersionless(args) -> dict:
    import numpy as np

    from . import ambiguity
    from .qstate import DensityOperator

    pops = np.asarray(_parse_floats(args.populations, name="populations"))
    state = DensityOperator(np.diag(pops.astype(np.complex128)))
    fam = ambiguity.dispersionless_family(state, rank_tol=args.rank_tol)
    variances = [ambiguity.q_mean_variance(state, obs)[1] for obs in fam.basis]
    return {
        "dim": int(pops.size),
        "rank": fam.rank,
        "param_count": fam.param_count,
        "basis_size": len(fam.basis),
        "max_variance": max(variances),
    }


def _cmd_chsh(args) -> dict:
    from . import contextuality

    if args.state != "singlet":
        raise ValidationError("only --state singlet is defined")
    state = contextuality.singlet_state()
    z, x, u, v = contextuality.optimal_chsh_axes()
    table = contextuality.table_from_state(state)
    return {
        "c": contextuality.chsh_value(state, z, x, u, v),
        "terms": {
            "e_zu": float(table.correlators[0, 0]),
            "e_zv": float(table.correlators[0, 1]),
            "e_xu": float(table.correlators[1, 0]),
            "e_xv": float(table.correlators[1, 1]),
        },
        "classical_bound": 2.0,
    }


def _cmd_feasible(args) -> dict:
    import numpy as np

    from . import contextuality

    corr = np.asarray(_parse_floats(args.correlators, 4, "correlators")).reshape(2, 2)
    ma = _parse_floats(args.marginals_a, 2, "marginals_a") if args.marginals_a else None
    mb = _parse_floats(args.marginals_b, 2, "marginals_b") if args.marginals_b else None
    table = contextuality.CorrelatorTable(corr, ma, mb)
    res = contextuality.joint_distribution_feasible(table)
    out = {"feasible": res.feasible}
    if res.feasible:
        out["distribution"] = res.distribution.ravel()
    else:
        out["witness"] = {
            "kind": res.witness.kind,
            "value": res.witness.value,
            "bound": res.witness.bound,
            "detail": {k: list(v) if isinstance(v, tuple) else v
                       for k, v in res.witness.detail.items()},
        }
    return out


def _cmd_oracle_check(args) -> dict:
    import numpy as np

    from . import curie_weiss, oracle

    oracle.guard_spins(args.N)
    model, grid = _model_and_grid(args)
    subsets = [tuple(range(k)) for k in range(1, min(3, model.N) + 1)]
    res = curie_weiss.transverse_expectations(model, grid)
    obs = oracle.grid_expectations(model, grid, subsets)

    def worst(*pairs) -> float:
        return max(float(np.max(np.abs(got - want))) for got, want in pairs)

    dev = {"f": worst((obs["f"], curie_weiss.offdiag_factor(model, grid))),
           "sx": worst((obs["sx"], res.sx)),
           "sy": worst((obs["sy"], res.sy))}
    for s in subsets:
        ax, ay = curie_weiss.cascade_correlation(model, len(s), s, grid)
        ox, oy = obs["cascade"][s]
        dev[f"cascade_k{len(s)}"] = worst((ox, ax), (oy, ay))
    return {
        "n": model.N,
        "points": len(grid),
        "max_abs_deviation": dev,
        "pass_1e10": bool(max(dev.values()) <= 1e-10),
    }


def _cmd_appc_report(args) -> dict:
    from . import oracle

    oracle.guard_spins(args.N)
    model, grid = _model_and_grid(args)
    rep = oracle.appendix_c_grid(model, grid)
    cols = ["t", "invariant_deviation", "sx"]
    series = [rep.times.tolist(), rep.invariant_deviation.tolist(), rep.sx.tolist()]
    for k in sorted(rep.correlators):
        cols.append(f"cascade_{k}")
        series.append(rep.correlators[k].tolist())
    rows = list(zip(*series))
    return {"columns": cols, "rows": rows}


# ---------------------------------------------------------------- options


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="INI config file with defaults")
    p.add_argument("--out", default=None, help="output path (stdout if omitted)")
    p.add_argument("--format", default=None, choices=("csv", "json"))
    p.add_argument("--selftest", action="store_true",
                   help="run built-in checks and exit")


def _add_model(p: argparse.ArgumentParser, n_default: int = 100) -> None:
    p.add_argument("--N", type=int, default=n_default, help="magnet spin count")
    p.add_argument("--g", type=float, default=1.0, help="base coupling")
    p.add_argument("--delta-g-rel", dest="delta_g_rel", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--r0", default="+x", help="tested-spin Bloch vector or named axis")


def _add_grid(p: argparse.ArgumentParser, tmax: float = 4.0, points: int = 400) -> None:
    p.add_argument("--tmax-tau", dest="tmax_tau", type=float, default=tmax,
                   help="grid end in units of tau")
    p.add_argument("--points", type=int, default=points)


def _args_truncate(p):
    _add_model(p, n_default=10000)
    _add_grid(p)


def _args_recur(p):
    _add_model(p, n_default=400)
    p.add_argument("--nu-max", dest="nu_max", type=int, default=2)
    p.add_argument("--seeds", type=int, default=1, help="number of seeds from --seed up")


def _args_cascade(p):
    _add_model(p, n_default=10000)
    _add_grid(p)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--subset", default=None, help="comma list of magnet indices")


def _args_register(p):
    p.add_argument("--J", type=float, default=1.0)
    p.add_argument("--T", type=float, default=0.8)
    p.add_argument("--field", type=float, default=0.0)
    p.add_argument("--N", type=int, default=0, help="magnet size for the pointer limit")
    p.add_argument("--scales", default="0.5,0.25,0.125,0.0625")


def _args_finalstate(p):
    p.add_argument("--N", type=int, default=10)
    p.add_argument("--J", type=float, default=1.0)
    p.add_argument("--T", type=float, default=0.5)
    p.add_argument("--r0", default="+x")
    p.add_argument("--reduced", action="store_true",
                   help="report the (N+1)-sector representation")


def _args_born(p):
    p.add_argument("--r0", default="+x")
    p.add_argument("--runs", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)


def _args_reduce(p):
    p.add_argument("--r0", default="+x")
    p.add_argument("--mode", choices=("luders", "von-neumann", "unread"), default="unread")
    p.add_argument("--outcome", type=int, default=0)


def _args_ambiguity(p):
    p.add_argument("--v", default="0,0,0")
    p.add_argument("--d1", default="0,0,1")
    p.add_argument("--d2", default="1,0,0")


def _args_dispersionless(p):
    p.add_argument("--populations", default="0.5,0.3,0.2", help="diagonal state populations")
    p.add_argument("--rank-tol", dest="rank_tol", type=float, default=1e-10)


def _args_chsh(p):
    p.add_argument("--state", default="singlet")


def _args_feasible(p):
    p.add_argument("--correlators", default="0,0,0,0", help="e_zu,e_zv,e_xu,e_xv")
    p.add_argument("--marginals-a", dest="marginals_a", default=None)
    p.add_argument("--marginals-b", dest="marginals_b", default=None)


def _args_oracle(p):
    _add_model(p, n_default=8)
    _add_grid(p, points=200)


# name -> (options, body); qmeas.cli holds each command's help and format
_COMMANDS = {
    "truncate": (_args_truncate, _cmd_truncate),
    "recur": (_args_recur, _cmd_recur),
    "cascade": (_args_cascade, _cmd_cascade),
    "register": (_args_register, _cmd_register),
    "finalstate": (_args_finalstate, _cmd_finalstate),
    "born": (_args_born, _cmd_born),
    "reduce": (_args_reduce, _cmd_reduce),
    "ambiguity": (_args_ambiguity, _cmd_ambiguity),
    "dispersionless": (_args_dispersionless, _cmd_dispersionless),
    "chsh": (_args_chsh, _cmd_chsh),
    "feasible": (_args_feasible, _cmd_feasible),
    "oracle-check": (_args_oracle, _cmd_oracle_check),
    "appc-report": (_args_oracle, _cmd_appc_report),
}


def configure(argv: list[str]) -> tuple[list[str], dict]:
    """argv, led by the command the --config file names when argv names
    none, and the file's key = value settings (empty without --config)."""
    import configparser

    from .cli import names_config

    path = None
    for i, token in enumerate(argv):
        if not names_config(token):
            continue
        if "=" in token:
            path = token.split("=", 1)[1]
        elif i + 1 < len(argv):
            path = argv[i + 1]
        else:
            raise ValidationError("--config needs a path")
    if path is None:
        return argv, {}
    cp = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_string(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ValidationError(f"bad config file: {exc}") from exc
    named = not argv[0].startswith("-")
    command = argv[0] if named else cp.get("run", "command", fallback="")
    if not command:
        raise ValidationError("config file must name a command when none is given")
    if command not in _COMMANDS:
        raise ValidationError(f"unknown command {command!r} in config")
    settings = {}
    for name in cp.sections():
        if name != "run":
            settings.update(cp[name])
    return (argv if named else [command] + argv), settings


def parse(command: str, argv: list[str], settings: dict) -> argparse.Namespace:
    """The command's options from the config file's settings and argv, by
    the command's own parser.

    Each setting becomes its option's token ahead of argv, so argparse
    checks both alike and a flag in argv, parsed later, wins.  configparser
    lowercases keys, so `N = 20` arrives as n: settings match option dests
    case-insensitively (no command has two dests that differ only in case).
    """
    parser = argparse.ArgumentParser(prog=f"qmeas {command}")
    _add_common(parser)
    _COMMANDS[command][0](parser)
    tokens = []
    for action in parser._actions:
        raw = settings.get(action.dest.lower())
        if raw is None or isinstance(action, argparse._HelpAction):
            continue
        option = action.option_strings[0]
        if not isinstance(action, argparse._StoreTrueAction):
            tokens.append(f"{option}={raw}")
        elif raw.strip().lower() in ("1", "true", "yes", "on"):
            tokens.append(option)
    return parser.parse_args(tokens + argv)


def run(command: str, args: argparse.Namespace, default_format: str) -> None:
    _emit(args, _COMMANDS[command][1](args), default_format)
