#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload plan-cold --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. Builds the Klotski libraries, the
`perfbench` workload runner and the `klotski_served` daemon from source in
Release (build tree: $CARGO_TARGET_DIR, else .bench_build), runs one
workload, and prints its report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status: 0 when every output matched its oracle; non-zero, without the
JSON line, when the sources are missing, the build fails, the build is not
Release or the runner fails; 1, after the JSON line, when an oracle failed.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("plan-cold", "whatif-sweep", "serve-mixed", "replan-faults")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170
# glibc malloc keeps freed memory instead of trimming it back to the kernel
# (and serves allocations up to 32 MiB from the heap), for the runner and the
# daemon it spawns. Otherwise the workloads' allocate-and-free pattern faults
# the same pages in again and again, and on a shared VM the cost of those
# faults drifts with the host's memory pressure.
MALLOC_TUNABLES = ("glibc.malloc.trim_threshold=17179869184:"
                   "glibc.malloc.mmap_threshold=33554432:"
                   "glibc.malloc.top_pad=67108864")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds the runner and the daemon."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs,
         "--target", "perfbench", "klotski_served"],
        check=True, stdout=sys.stderr)


def source_digest(root):
    """SHA-256 over the sources the benchmark builds (the checkout need not
    be a git repository, so this stands in for the commit)."""
    digest = hashlib.sha256()
    for top in ("src", "tools", os.path.relpath(BENCH_DIR, root)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none (not a git checkout)"
    out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def check_result(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a positive integer")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"}:
            raise ValueError(f"metric {name} malformed")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(BENCH_DIR)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"no Klotski sources under {root}/src; run from a full checkout")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(build_dir)
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    cmd = [
        os.path.join(build_dir, "perfbench"),
        f"--workload={args.workload}", f"--seed={args.seed}",
        f"--seconds={args.seconds}", f"--trace={args.trace}",
        f"--served={os.path.join(build_dir, 'klotski_served')}",
        f"--data-dir={os.path.join(BENCH_DIR, 'data')}",
        f"--out-dir={os.path.join(build_dir, 'out')}",
    ]
    # Own process group, so a timeout also stops the daemon the runner spawned.
    env = dict(os.environ, GLIBC_TUNABLES=MALLOC_TUNABLES)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, process_group=0, env=env)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(stderr)
    lines = stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"runner exited {proc.returncode}")
    try:
        result = check_result(lines[-1])
    except ValueError as e:
        fail(f"malformed result line: {e}")

    for line in lines[:-1]:
        print(line)
    print(f"stamp: build={BUILD_TYPE} nproc={os.cpu_count()} "
          f"commit={commit(root)} sources={source_digest(root)} "
          f"transport=loopback")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
