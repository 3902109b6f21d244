#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <npb-is|npb-cg|kv-open> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It configures and builds
perfbench/ (the simulator library compiled from src/ plus the benchmark program)
into $CARGO_TARGET_DIR, or .bench_build when that is unset, and then
runs the program with the same arguments. Build output goes to stderr;
the program's last line of stdout is the JSON result. A traced run also
writes its spans to spans-<workload>-<seed>.json in the build
directory. See perfbench/NOTES.md for what is measured.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configure and build incrementally; True on success."""
    # Keep the compiler's temporary files inside the build directory.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    cfg = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cfg += ["-G", "Ninja"] if shutil.which("ninja") else []
    if subprocess.call(cfg, stdout=sys.stderr, env=env) != 0:
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
           "-j", jobs]
    return subprocess.call(cmd, stdout=sys.stderr, env=env) == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            build_dir, "spans-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
