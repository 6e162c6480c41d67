#!/usr/bin/env python3
"""Build and run the online admission-service benchmark.

    python3 svcbench/run.py --workload calm_m64 --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
svcbench/ (the scheduler library from src/ plus svcbench.cpp, Release)
into $CARGO_TARGET_DIR, default .bench_build, under the root; later runs
only rebuild what changed. Build output goes to stderr, so the last
stdout line is the benchmark's JSON result. Exits non-zero, printing no
result, when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def git_commit():
    """The checkout's commit, read from .git without running git."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git_dir, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def build():
    """Configure (once) and build; returns the binary path or None."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "svcbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "svcbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        print("svcbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--commit", git_commit(),
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
