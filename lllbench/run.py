#!/usr/bin/env python3
"""End-to-end benchmark of the lll program.

Run from the root of a checkout:

    python3 lllbench/run.py --workload serve-hot --seed 1 --seconds 30 --trace 0

Builds the program from ../src and the harness in this directory into
.bench_build/ (an optimised CMake build; the first run compiles everything),
then runs one workload with the harness, lllbench. It prints a table
of every metric with its unit and sample count, and as its last line one
JSON object with the keys correct, attempted, failed and metrics.

    --workload  serve-hot | serve-churn | docgen
    --seed      input seed (same seed, same inputs)
    --seconds   measured seconds
    --trace     0: end-to-end metrics; 1: the traced per-layer run
    --self-check
                instead of measuring, check that the answer checks bite:
                every workload is run briefly with one expected answer
                corrupted and must report a failure.
"""

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "lllbench")
WORKDIR = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ("serve-hot", "serve-churn", "docgen")
RUN_TIMEOUT_S = 170


def die_with_parent():
    """Makes the child get SIGKILL when this process dies."""
    libc = ctypes.CDLL(None, use_errno=True)
    pr_set_pdeathsig = 1
    libc.prctl(pr_set_pdeathsig, signal.SIGKILL)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("lllbench: no program sources at %s/src" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "lllbench", "lll_serverd"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("lllbench: build failed: %s" % " ".join(cmd))


def run_harness(workload, seed, seconds, trace, corrupt=False):
    """Runs the harness; returns (exit code, stdout text)."""
    cmd = [os.path.join(BUILD, "lllbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--serverd", os.path.join(BUILD, "lll", "server", "lll_serverd"),
           "--workdir", os.path.join(WORKDIR, workload)]
    if corrupt:
        cmd.append("--corrupt-expected")
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          preexec_fn=die_with_parent) as child:
        try:
            out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            return 124, ""
    return child.returncode, out


def self_check():
    ok = True
    for workload in WORKLOADS:
        code, out = run_harness(workload, 1, 4, False, corrupt=True)
        lines = out.strip().splitlines()
        result = json.loads(lines[-1]) if code == 0 and lines else None
        bites = (result is not None and result["failed"] >= 1
                 and not result["correct"])
        print("self-check %-12s corrupted answer %s (failed %s of %s)" % (
            workload, "detected" if bites else "NOT DETECTED",
            result and result["failed"], result and result["attempted"]))
        ok = ok and bites
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.self_check:
        return self_check()
    code, out = run_harness(args.workload, args.seed, args.seconds,
                            args.trace == 1)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        print("lllbench: harness exited with %d" % code, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
