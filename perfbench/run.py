#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark driver (see README.md).

Run from the root of the repository:

    python3 perfbench/run.py --workload oltp-zipf --seed 1 --seconds 10 --trace 0

The driver is compiled from source into the build directory named by
$CARGO_TARGET_DIR (default `.bench_build`), under `perfbench/`. The build
log goes to standard error; the driver's report and its final JSON line go
to standard output. `--policy SPEC` overrides the replacement policy
(default LRU-2). With `--trace 1` the sampled spans are written to
`<build dir>/spans-<workload>-<seed>.tsv`.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The first run also builds (configure + compile within 900 s); every run
# must end within 180 s otherwise.
CONFIGURE_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 720
RUN_TIMEOUT_S = 170


def run_logged(cmd, timeout):
    """Runs `cmd` with its output on stderr; returns True on success."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print("timed out: " + " ".join(cmd), file=sys.stderr)
        return False
    return proc.returncode == 0


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", HERE, "-B", build_dir,
                           "-DCMAKE_BUILD_TYPE=Release"], CONFIGURE_TIMEOUT_S):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_logged(["cmake", "--build", build_dir, "--target",
                       "e2e_driver", "-j", jobs], BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--policy", default="LRU-2")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    root = os.path.abspath(os.path.join(target, "perfbench"))
    build_dir = os.path.join(root, "build")
    os.makedirs(root, exist_ok=True)
    if not build(build_dir):
        print("build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "e2e_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--policy", args.policy]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            root, "spans-%s-%d.tsv" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("driver timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print("driver failed with code %d" % proc.returncode, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
