#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The build output goes to stderr, so the
benchmark's last stdout line stays the result object.  Exits non-zero,
printing no result, when the program cannot be built (for example in a
directory that holds only the benchmark).
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def main() -> int:
    # dune's shared cache lives outside the checkout; keep the build inside
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    try:
        run = subprocess.run([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
