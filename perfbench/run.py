#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 perfbench/run.py --workload paper_city --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds the
library and the perfbench program from source (Release) into the directory
named by CARGO_TARGET_DIR, default `.bench_build`; later calls only rebuild
what changed. Build output goes to stderr. The program's stdout is passed
through unchanged: its last line is the JSON result. Exits non-zero, with
no result line, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures (once) and builds perfbench; returns the binary path."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    binary = build(build_dir)
    done = subprocess.run([binary] + sys.argv[1:])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
