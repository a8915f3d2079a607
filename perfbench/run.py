#!/usr/bin/env python3
"""Builds and runs the SOFE benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The library and the driver are built from
source into .bench_build/perfbench (a no-op when up to date), then the
driver runs one workload.  Its stdout is passed through; the last line is
the JSON result.  The exit code is the driver's: nonzero when the build
fails, a correctness check fails, or the result line is missing.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "sofe_perfbench")


def build():
    """Configures and builds quietly; the log goes to stderr on failure."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        # A build tree configured from another checkout cannot be reused.
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                shutil.rmtree(BUILD)
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", "3"],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("build failed: %s\n" % " ".join(cmd))
            return False
    return True


def source_id():
    """Git commit when the checkout is a repository, plus a digest of src/."""
    commit = "none"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "git:%s src-sha256:%s" % (commit, digest.hexdigest()[:16])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not build():
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--source-id", source_id()]
    if args.trace == 1:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file",
                os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or sorted(result) != ["attempted", "correct", "failed",
                                                          "metrics"]:
        sys.stderr.write("benchmark exited with code %d and no result line\n" % proc.returncode)
        return proc.returncode or 2
    # A failed correctness check still reports its result ("correct": false).
    print(lines[-1])
    sys.stdout.flush()
    if proc.returncode != 0 or result["correct"] is not True:
        sys.stderr.write("benchmark exited with code %d\n" % proc.returncode)
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
