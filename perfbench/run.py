#!/usr/bin/env python3
"""Build the E-Sharing benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; later runs only rebuild what changed. The benchmark's
stdout is passed through; its last line is the JSON verdict.

Steadiness self-check (prints each end-to-end metric's median, quartiles and
spread against the bound in BENCHMARK.json):

    python3 perfbench/run.py --steady K --workload NAME [--seed N] [--seconds S]

runs the workload K times with seeds N, N+1, ... and is how the bounds were
set. Use a seed not used while tuning (the README names one) to check a
claim.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def run_quiet(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: command failed: %s\n" % " ".join(cmd))
    return proc.returncode == 0


def build():
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_quiet(cmd):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_quiet(["cmake", "--build", out, "--target", "perfbench",
                      "-j", jobs]):
        return None
    return os.path.join(out, "perfbench")


def run_once(binary, workload, seed, seconds, trace, capture):
    work = os.path.join(os.path.dirname(build_dir()), "run")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work]
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1, None
    return proc.returncode, out


def steady(binary, args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for k in range(args.steady):
        seed = args.seed + k
        code, out = run_once(binary, args.workload, seed, args.seconds, 0,
                             True)
        if code != 0:
            return code
        verdict = json.loads(out.strip().splitlines()[-1])
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, verdict["correct"], verdict["attempted"],
            verdict["failed"]), flush=True)
        for line in out.splitlines():
            if line.startswith("CHECK FAILED"):
                print("  " + line, flush=True)
        for name, m in verdict["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print("\n%-18s %14s %14s %14s %8s %8s  %s" % (
        "metric", "q1", "median", "q3", "spread", "bound", "verdict"))
    # A spread within the bound passes; within a third of it leaves margin
    # for a second set of runs.
    ok = True
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name, 0.0)
        if spread <= bound / 3:
            verdict = "ok"
        elif spread <= bound:
            verdict = "within bound, thin margin"
        else:
            verdict = "OVER BOUND"
            ok = False
        print("%-18s %14.6g %14.6g %14.6g %8.4f %8.3f  %s" % (
            name, q1, med, q3, spread, bound, verdict))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", type=int, default=0)
    args = p.parse_args()
    binary = build()
    if binary is None:
        return 1
    if args.steady:
        return steady(binary, args)
    code, _ = run_once(binary, args.workload, args.seed, args.seconds,
                       args.trace, False)
    return code


if __name__ == "__main__":
    sys.exit(main())
