#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR when set,
else .bench_build, and is reused while no source file is newer than the
binary. The benchmark's output passes through unchanged; its last line is
the JSON result. Exits non-zero, without a result, when the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_fresh", "serve_ingest", "engine_durable", "plan_lgm")
# Compile jobs: leaves a core free on a 4-core host.
BUILD_JOBS = "3"


def newest_source_mtime():
    newest = 0.0
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, _, files in os.walk(top):
            for name in files:
                if name.endswith((".cc", ".h", ".txt")):
                    newest = max(newest,
                                 os.path.getmtime(os.path.join(dirpath, name)))
    return newest


def build(build_dir):
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources (src/) not found; "
                 "run from a full checkout")
    if os.path.isfile(binary) and os.path.getmtime(binary) >= newest_source_mtime():
        return binary
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", BUILD_JOBS, "--target",
         "perfbench"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    work_dir = os.path.join(build_dir, "work")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        done = subprocess.run(cmd, timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: workload timed out")
    finally:
        _remove_durable_dirs(work_dir)
    sys.exit(done.returncode)


def _remove_durable_dirs(work_dir):
    """Drops the durable run directories; keeps the span dumps."""
    if not os.path.isdir(work_dir):
        return
    for name in os.listdir(work_dir):
        path = os.path.join(work_dir, name)
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)


if __name__ == "__main__":
    main()
