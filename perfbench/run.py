#!/usr/bin/env python3
"""Builds the SSB benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (which compiles the sources under src/) into
.bench_build/; later calls only rebuild what changed. Build output goes to
stderr, so the last line on stdout is the benchmark's JSON result. Traced
runs write their spans under .bench_build/traces/. Results are checked
against the reference digests in perfbench/golden/;

    python3 perfbench/run.py --workload <name> --regenerate 1 [--dbgen-seed <n>]

rewrites them from the reference executor. See perfbench/README.md.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "ssb_bench")
TRACE_DIR = os.path.join(BUILD_DIR, "traces")
GOLDEN_DIR = os.path.join(BENCH_DIR, "golden")


def build():
    """Configures (once) and builds ssb_bench; output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "ssb_bench",
                  "--parallel", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit(f"build step failed: {' '.join(step)}")


def main():
    build()
    os.makedirs(TRACE_DIR, exist_ok=True)
    command = [BINARY] + sys.argv[1:] + ["--trace-dir", TRACE_DIR,
                                         "--golden-dir", GOLDEN_DIR]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
