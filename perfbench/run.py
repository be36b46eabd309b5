#!/usr/bin/env python3
"""Builds the benchmark against the library in src/ and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload batch-wide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --quick            # every workload briefly, all checks on
    python3 perfbench/run.py --self-test        # the oracle's checks reject wrong answers

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
its log is perfbench-build.log there. Each workload runs in its own process,
whose last line of standard output is one JSON object: correct, attempted,
failed and metrics. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["batch-wide", "batch-shared", "serve-mixed", "serve-sharded"]
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds hcbench; returns its path or exits with 1."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "hcbench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL).returncode
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                sys.stderr.write(tail + "\nperfbench: build failed (%s)\n" % log_path)
                sys.exit(1)
    return os.path.join(out, "hcbench")


def run(binary, args):
    """Runs hcbench, passing its stderr through; returns (rc, stdout)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stdin=subprocess.DEVNULL, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out\n" % " ".join(args))
        return 1, ""
    return proc.returncode, proc.stdout


def quick(binary, seed):
    """Every workload briefly on a small instance, all checks on."""
    ok = True
    for workload in WORKLOADS:
        rc, out = run(binary, ["--workload", workload, "--seed", str(seed),
                               "--seconds", "1", "--trace", "0", "--quick"])
        lines = out.strip().splitlines()
        if rc != 0 or not lines:
            print("%-14s exit %d, no result" % (workload, rc))
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"] and result["failed"] == 0
        print("%-14s correct=%s attempted=%d failed=%d" % (
            workload, str(result["correct"]).lower(), result["attempted"],
            result["failed"]))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (args.quick or args.self_test or args.workload):
        parser.error("one of --workload, --quick or --self-test is required")

    binary = build()
    if args.self_test:
        return run(binary, ["--self-test"])[0]
    if args.quick:
        return quick(binary, args.seed)
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-dir", os.path.join(build_dir(), "traces")]
    rc, out = run(binary, cmd)
    sys.stdout.write(out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
