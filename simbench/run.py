#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds simbench/main.exe from the sources of the checkout this file sits in
(dune, shared cache off, so nothing is read or written outside the checkout),
then runs it with the same arguments plus the source revision.  The last line
of standard output is the benchmark's JSON result; build output goes to
standard error.  Exits non-zero without a result when the build fails, for
example when the simulator's sources are missing.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "simbench", "main.exe")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def revision():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(args, timeout, **kw):
    """Run a child to completion; on timeout kill it and wait for it."""
    proc = subprocess.Popen(args, cwd=ROOT, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"simbench: {args[0]} timed out after {timeout} s", file=sys.stderr)
        return 1


def main():
    build = run(["dune", "build", "--root", ROOT, "--display=quiet", "--cache=disabled",
                 "./simbench/main.exe"], BUILD_TIMEOUT_S, stdout=sys.stderr)
    if build != 0 or not os.path.exists(EXE):
        print("simbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return run([EXE, *sys.argv[1:], "--revision", revision()], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
