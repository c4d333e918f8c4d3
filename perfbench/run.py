#!/usr/bin/env python3
"""Builds the realrate library and the perfbench program from source, then runs it.

    python3 perfbench/run.py --workload web_farm --seed 99 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build goes to .bench_build/perfbench (a
Release build of ../src plus perfbench/src); build output goes to standard
error, so the last line of standard output is the program's JSON result.
--selftest builds and runs the benchmark's own tests instead.
"""
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    """Runs cmd to completion (killing it on timeout) and returns its exit code."""
    with subprocess.Popen(cmd, **kwargs) as proc:
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"perfbench: timed out after {timeout} s: {' '.join(cmd)}", file=sys.stderr)
            return 124


def build(bench_dir, build_dir, target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", target, "-j", jobs])
    for cmd in steps:
        if run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr) != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def main(argv):
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: the realrate sources (src/) are not in this checkout", file=sys.stderr)
        return 2
    build_dir = os.path.join(root, ".bench_build", "perfbench")

    if argv == ["--selftest"]:
        if not build(bench_dir, build_dir, "perfbench_test"):
            return 1
        return run(["ctest", "--test-dir", build_dir, "--output-on-failure"], RUN_TIMEOUT_S,
                   stdout=sys.stderr, stderr=sys.stderr)

    if not build(bench_dir, build_dir, "perfbench"):
        return 1
    sys.stdout.flush()
    return run([os.path.join(build_dir, "perfbench"), *argv], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
