"""Batch front end: configure an experiment, run it, emit CSV or JSON.

Subcommands cover the full pipeline: truncation series (truncate, recur,
cascade), registration thermodynamics (register, finalstate), run statistics
(born, reduce), decomposition geometry (ambiguity, dispersionless), Bell-type
checks (chsh, feasible), and dense-oracle verification (oracle-check,
appc-report).  A --config file supplies settings, which the command's own
parser checks exactly as it checks flags; flags override the file.  Every
subcommand accepts --selftest to run its quick built-in checks.

Exit codes: 0 success, 1 failed selftest check, 2 configuration error,
3 numerical guard tripped.

This module holds only the command table, the top-level parser, main and
the mapping from errors to exit codes: `qmeas --version` and `--help`
compile nothing else and build one parser, which takes the command name and
leaves its options unparsed.  Each command's options and body live in
qmeas._commands, loaded once a command is named; a run builds that
command's parser alone, and the body imports numpy and its own layers.  The
selftests (qmeas.selftests), configparser and json load only when
--selftest, --config or JSON output asks for them.

Once a command is named, main registers gc.freeze as an exit hook.  A
process that has imported numpy otherwise spends tens of milliseconds after
its output is written in the interpreter's final cyclic-GC collections over
numpy's objects.  Freezing moves every live object to the permanent
generation, which those collections skip; the atexit handlers, the flush of
stdout and stderr and module teardown by reference count all still run, and
--out files are closed by then.  --version, --help and a bad command exit
from the top-level parser before the hook is registered.

Every command runs on one thread, BLAS included.  numpy's OpenBLAS starts
its worker threads when numpy is imported, so main sets
OPENBLAS_NUM_THREADS=1 before any command imports numpy.  A value the
caller set still wins, and a process that imported numpy before calling
main keeps the threads it has.
"""
import argparse
import atexit
import gc
import os
import sys

from . import __version__
from .errors import GuardError, QmeasError, SelftestError, ValidationError


def _max_workers() -> int:
    # the kernel runs on one thread; perfbench/probe.py records this value
    return 1


# name -> (one-line help, default output format)
_CATALOG = {
    "truncate": ("transverse decay series", "csv"),
    "recur": ("recurrence peaks vs damping estimate", "csv"),
    "cascade": ("spin-magnet correlation cascade", "csv"),
    "register": ("mean-field magnetization and pointer limit", "json"),
    "finalstate": ("registered joint state summary", "json"),
    "born": ("Born weights and sampled frequencies", "json"),
    "reduce": ("branch and unread reductions", "json"),
    "ambiguity": ("two-chord decomposition witness", "json"),
    "dispersionless": ("certain-observable family of a state", "json"),
    "chsh": ("CHSH combination on the singlet", "json"),
    "feasible": ("joint-distribution feasibility of a table", "json"),
    "oracle-check": ("analytic vs dense-evolution deviations", "json"),
    "appc-report": ("block invariant vs observable decay", "csv"),
}


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser: --version, the command name, and the rest of
    argv left for the command's own parser."""
    parser = argparse.ArgumentParser(
        prog="qmeas",
        description="ideal quantum measurement simulator: truncation, registration, "
                    "run statistics,\nand verification tools",
        epilog="commands:\n" + "\n".join(f"  {name:<22}{help_line}"
                                         for name, (help_line, _) in _CATALOG.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"qmeas {__version__}")
    parser.add_argument("command", choices=_CATALOG, help="one of the commands below")
    rest = parser.add_argument("args", nargs=argparse.REMAINDER,
                               help="its options (qmeas <command> --help)")
    # a bare `qmeas` names only the missing command
    rest.required = False
    return parser


def names_config(token: str) -> bool:
    """Whether argparse reads token as --config: the option or any prefix of
    it that argparse accepts (--conf), alone or with =path."""
    name = token.split("=", 1)[0]
    return len(name) > 2 and "--config".startswith(name)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        settings = {}
        if any(names_config(token) for token in argv):
            from ._commands import configure

            argv, settings = configure(argv)
        top = build_parser().parse_args(argv)
        # skip the final GC sweep at exit (module docstring); unregister
        # first so that repeated in-process calls keep one hook
        atexit.unregister(gc.freeze)
        atexit.register(gc.freeze)
        from . import _commands

        args = _commands.parse(top.command, top.args, settings)
        if args.selftest:
            from .selftests import SELFTESTS

            try:
                SELFTESTS[top.command]()
            except SelftestError as exc:
                print(f"selftest {top.command}: FAIL {exc}", file=sys.stderr)
                return 1
            print(f"selftest {top.command}: PASS")
            return 0
        _commands.run(top.command, args, _CATALOG[top.command][1])
        return 0
    except GuardError as exc:
        print(f"qmeas: guard: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"qmeas: config: {exc}", file=sys.stderr)
        return 2
    except QmeasError as exc:
        print(f"qmeas: numerical: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"qmeas: io: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
