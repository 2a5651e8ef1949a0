#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the perfbench binary from the sources of this checkout (Release,
into .bench_build/perfbench) and runs one workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Build output goes to stderr; the binary's stdout is passed through, so the
last stdout line is the result JSON object. The exit code is the binary's
(non-zero when an output check failed or the sources are missing).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("synth-d64-l2", "sweep-d64-l4-fine", "campaign-mix")


def git_commit():
    """Commit of the checkout, read from .git without running git (which
    would search parent directories); "unknown" outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def run_seconds():
    """run_seconds of BENCHMARK.json, the default run length."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return float(json.load(f)["run_seconds"])


def build():
    marker = os.path.join(ROOT, "src", "core", "include", "vinoc", "core",
                          "synthesis.hpp")
    if not os.path.isfile(marker):
        print("perfbench: vinoc sources not found beside perfbench/",
              file=sys.stderr)
        sys.exit(2)
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, env=env, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j",
                    str(os.cpu_count() or 1)], stdout=sys.stderr, env=env,
                   check=True)
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--pins", os.path.join(HERE, "pins.txt"), "--work-dir", WORK_DIR,
           "--commit", git_commit()]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
