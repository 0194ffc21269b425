#!/usr/bin/env python3
"""Builds and runs the OMQ benchmark.

Run from the repository root:

    python3 omqbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures an optimized build of omqbench/ (which compiles ../src) under
.bench_build/omqbench, runs the omqbench binary, and passes its output
through with the result JSON as the last line. Before that line it prints
the host block (nproc, build type, compiler, git revision, source digest)
and a FLAG line when this run's backend picks differ from the first run
recorded in this checkout. Exits non-zero, printing no result, when the
build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "omqbench")
BINARY = os.path.join(BUILD, "omqbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"omqbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "omqbench",
                  "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return False
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return False
    return os.path.exists(BINARY)


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout may not
    be a git repository, so this identifies the code that was measured)."""
    h = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def check_picks(workload, picks_line):
    """Compares this run's picks with the first run's in this checkout;
    returns a FLAG line, or None when they agree (or this is the first)."""
    picks = json.loads(picks_line[len("picks "):])
    path = os.path.join(BUILD, f"first-picks-{workload}.json")
    if not os.path.exists(path):
        with open(path, "w") as f:
            json.dump(picks, f, sort_keys=True)
        return None
    with open(path) as f:
        first = json.load(f)
    if first == picks:
        return None
    diff = {k: (first.get(k), picks.get(k))
            for k in sorted(set(first) | set(picks))
            if first.get(k) != picks.get(k)}
    return "FLAG backend picks differ from the first run: " + json.dumps(diff)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()

    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out",
                os.path.join(BUILD, f"trace-{args.workload}-{args.seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(done.stdout)
        log(f"run failed with exit code {done.returncode}")
        return done.returncode or 1

    print(f"host git_rev={git_rev()} src_digest={source_digest()}")
    for line in lines[:-1]:
        print(line)
        if line.startswith("picks "):
            flag = check_picks(args.workload, line)
            if flag:
                print(flag)
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
