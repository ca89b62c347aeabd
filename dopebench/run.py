#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 dopebench/run.py --workload <native_server|sim_sweep|traced_ops> \
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds a release tree under
$CARGO_TARGET_DIR/dopebench (default .bench_build/dopebench); later runs only
rebuild what changed. Build output goes to standard error, so the last line
of standard output is the benchmark's JSON result. Exits non-zero, printing
no result, when the build or the run fails.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_logged(cmd):
    """Runs a build step with its output on stderr; returns its exit code."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def build():
    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "dopebench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", HERE, "-B", build_dir,
                       "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_logged(["cmake", "--build", build_dir, "-j", jobs]) != 0:
        return None
    return os.path.join(build_dir, "dopebench")


def main():
    binary = build()
    if binary is None:
        print("dopebench: build failed", file=sys.stderr)
        return 1
    child = subprocess.Popen([binary] + sys.argv[1:])

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
