#!/usr/bin/env python3
"""Builds and runs the SQLoop repository benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload pr_sync --seed 1 --seconds 20 --trace 0

The benchmark program (perfbench.cpp) is compiled, together with the SQLoop
libraries from ../src, into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) on first use. All files the run writes -- spill
pages, checkpoints, the trace -- stay under that build directory. The last
line of stdout is the result object {"correct", "attempted", "failed",
"metrics"}; see README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pr_sync", "sssp_asyncp", "pr_spill")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# The benchmark process itself must end well inside the 180 s a run may
# take; a hung execution is killed rather than left running.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no SQLoop sources at %s/src; nothing to build"
                 % ROOT)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)

    scratch = os.path.join(build_dir, "run-%d" % os.getpid())
    os.makedirs(scratch)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    # The buffer pool puts its spill files under TMPDIR.
    env = dict(os.environ, TMPDIR=scratch)
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    sys.stdout.write(proc.stdout)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.exit("perfbench: the benchmark printed no result (exit %d)"
                 % proc.returncode)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
