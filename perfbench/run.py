#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; log lines, traces and scratch stores go to
<build>/perfbench-out. Build output is sent to stderr so that the
last line of stdout is the benchmark's JSON result. Exits non-zero,
without a result, when the sources cannot be built.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def step(command):
    """Run a build step with its output on stderr."""
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit("perfbench: build step failed: " + " ".join(command))


def main():
    build = build_dir()
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", build,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    step(["cmake", "--build", build, "--target", "perfbench",
          "-j", str(os.cpu_count() or 1)])

    out_dir = os.path.join(build, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    binary = os.path.join(build, "perfbench")
    result = subprocess.run([binary] + sys.argv[1:] +
                            ["--out-dir", out_dir])
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
