#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload os2-hot --seed 1 --seconds 10 --trace 0

The build's output goes to standard error, so the last line of standard
output is the benchmark's JSON result.  See perfbench/README.md.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run me from the root of a source checkout "
                 "(no dune-project or lib/ here)")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    run = subprocess.run([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
