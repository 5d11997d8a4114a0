"""Run one qmeas command and fail if it exits non-zero or its peak RSS
passes a limit.

    python ci/peak_rss.py LIMIT_MB COMMAND [OPTIONS...]

The command runs as `python -m qmeas.cli COMMAND [OPTIONS...]` with stdout
discarded; its peak RSS is the child's ru_maxrss from os.wait4 (KiB on
Linux), so no /usr/bin/time is needed.
"""
import os
import subprocess
import sys


def main(argv: list[str]) -> int:
    limit_mb, command = float(argv[0]), argv[1:]
    child = subprocess.Popen([sys.executable, "-m", "qmeas.cli", *command],
                             stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    peak_mb = usage.ru_maxrss / 1024
    print(f"{' '.join(command)}: exit {code}, peak RSS {peak_mb:.0f} MB (limit {limit_mb:.0f})")
    return 0 if code == 0 and peak_mb <= limit_mb else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
