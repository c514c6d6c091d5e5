"""Run one command and check its exit code, wall time and peak RSS against bounds.

    python tests/resource_guard.py --mb MB [--seconds S] [--exit CODE] [--stdout FILE] -- COMMAND...

Starts COMMAND with its stdout sent to FILE (discarded without one), kills
it once it has run S seconds, and waits for it with `os.wait4`, whose
`ru_maxrss` is the child's peak resident set (KiB on Linux).  Prints one
line, the command with its exit code, seconds and peak RSS in MB, and
exits with status 1, naming the bounds, if the exit code is not CODE
(default 0), the time exceeds S or the peak exceeds MB.  Like
`import_guard.py`, it is a script for the CI workflow, which pytest does
not collect.
"""

import argparse
import os
import subprocess
import sys
import threading
import time

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--mb", type=float, required=True, help="peak RSS bound, MB")
parser.add_argument("--seconds", type=float, help="wall time bound, s; the command is killed past it")
parser.add_argument("--exit", type=int, default=0, help="the expected exit code")
parser.add_argument("--stdout", help="file that receives the command's stdout")
parser.add_argument("command", nargs="+")
args = parser.parse_args()

with open(args.stdout or os.devnull, "w") as out:
    start = time.perf_counter()
    proc = subprocess.Popen(args.command, stdout=out)
    timer = threading.Timer(args.seconds, proc.kill) if args.seconds else None
    if timer:
        timer.start()
    _, status, usage = os.wait4(proc.pid, 0)
    if timer:
        timer.cancel()
seconds, peak_mb, code = time.perf_counter() - start, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status)
print(f"{' '.join(args.command)}: exit {code}, {seconds:.2f} s, peak RSS {peak_mb:.1f} MB")
if code != args.exit or (args.seconds and seconds > args.seconds) or peak_mb > args.mb:
    limit = f" within {args.seconds:g} s" if args.seconds else ""
    sys.exit(f"expected exit {args.exit}{limit} and a peak RSS of at most {args.mb:g} MB")
