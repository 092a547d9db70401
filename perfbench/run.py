#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload kmeans|sql|serve_mix --seed N \
        --seconds S --trace 0|1

The benchmark program (perfbench/chopper_perf.cc) and the repository's
libraries are built with CMake in Release mode into the directory named by
CARGO_TARGET_DIR (default `.bench_build`), relative to the checkout root. Build output goes to
stderr, so the last line of stdout is the program's JSON result. Spans of a
traced run are written under `.bench_out/`.

Exits non-zero without a result when the build fails, e.g. when the
checkout holds no program sources.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configure (once) and build chopper_perf; returns its path or None."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                  "--target", "chopper_perf"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, "chopper_perf")


def main(argv):
    binary = build()
    if binary is None:
        return 1
    cmd = [binary] + argv + ["--out-dir", os.path.join(ROOT, ".bench_out")]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: chopper_perf exceeded %ds" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
