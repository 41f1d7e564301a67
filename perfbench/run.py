#!/usr/bin/env python3
"""Builds and runs the lambda-ssa repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --check-references | --write-references

Builds perfbench/ (and with it the compiler library from src/) in Release
mode under .bench_build/, runs one workload in one single-threaded process
and passes its output through. The last line printed is one JSON object with
the keys correct, attempted, failed and metrics; --trace 1 also writes a
Chrome trace and a self-time table under .bench_out/. See README.md here.
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
OUT_DIR = os.path.join(ROOT, ".bench_out")
REFERENCES = os.path.join(HERE, "references.tsv")
WORKLOADS = ("paper_run", "higher_order_run", "compile_corpus")
# A run must end within 180 s; the first one in a checkout also builds.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once and builds; an up-to-date tree costs a second."""
    steps = []
    configured = any(os.path.exists(os.path.join(BUILD_DIR, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "2"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(cmd))
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace")[-6000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "lzbench")


def declared_metrics(trace):
    """The metric names BENCHMARK.json declares for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-references", action="store_true",
                        help="recompute the pinned oracle answers and diff")
    parser.add_argument("--write-references", action="store_true",
                        help="regenerate perfbench/references.tsv")
    args = parser.parse_args()

    binary = build()
    if args.check_references or args.write_references:
        flag = ("--write-references" if args.write_references
                else "--check-references")
        sys.exit(subprocess.run([binary, flag, REFERENCES]).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--refs", REFERENCES, "--out", OUT_DIR]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    lines = done.stdout.decode(errors="replace").splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if lines else "")
        fail("lzbench exited with code %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("lzbench printed no result line")
    got = set(result["metrics"])
    want = declared_metrics(args.trace)
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(want - got), sorted(got - want)))
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
