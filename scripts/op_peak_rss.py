#!/usr/bin/env python3
"""Peak memory and output digest of one `qps` command.

Runs the command in a fresh interpreter and prints that process's own peak
resident set size, read from VmHWM in /proc/self/status as it exits, and the
sha256 of its stdout.  A child's ru_maxrss, as its parent reads it from
wait4, is also raised to the parent's resident size at the fork, because the
kernel records the pre-exec address space in it; VmHWM is the exec'd
process's own.  The command's stderr passes through and its exit code is
returned.  Linux only; qps must be importable, for example with
PYTHONPATH=src.

Usage:
    python scripts/op_peak_rss.py wigner --q 0.0811 --n 150 --m 152 --grid-points 4096
"""

import hashlib
import os
import subprocess
import sys

#: run in the child: report VmHWM on a pipe at exit, then run the qps CLI
CHILD = """
import atexit, os, sys

def report(fd=int(sys.argv.pop(1))):
    with open("/proc/self/status") as status:
        hwm = next(line for line in status if line.startswith("VmHWM:"))
    os.write(fd, hwm.split()[1].encode())

atexit.register(report)
sys.argv[0] = "qps"
from qps.cli import main
main()
"""


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    read_end, write_end = os.pipe()
    with os.fdopen(read_end, "rb") as hwm:
        try:
            proc = subprocess.run(
                [sys.executable, "-c", CHILD, str(write_end), *sys.argv[1:]],
                stdout=subprocess.PIPE, pass_fds=(write_end,),
            )
        finally:
            os.close(write_end)
        hwm_kib = hwm.read()
    if not hwm_kib:
        sys.exit(f"qps ended with status {proc.returncode} before reporting VmHWM")
    print(f"peak_rss_mb {int(hwm_kib) / 1024.0:.2f}")
    print(f"stdout_sha256 {hashlib.sha256(proc.stdout).hexdigest()}")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
