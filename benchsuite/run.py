#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md).

  python3 benchsuite/run.py --workload W --seed N [--seconds S] [--trace 0|1]
      One workload in its own process.  Prints the metric lines, then,
      as the last line, one JSON object with the keys correct,
      attempted, failed and metrics.

  python3 benchsuite/run.py [--seed N] [--trace 0|1]
      Every workload, one after another, each in its own process.
      Prints every metric with its unit; exits non-zero if any output
      check fails.

  python3 benchsuite/run.py --smoke [--binary PATH]
      Shrunk windows: each workload twice on seed 1 and once on seed 2,
      plus one traced run.  Checks that every run verifies, that the two
      seed-1 runs agree on every simulated metric, and that the metric
      names match BENCHMARK.json.

The benchmark binary is built from source with CMake into the directory
named by CARGO_TARGET_DIR (default .bench_build), relative to the
repository root.
"""

import argparse
import concurrent.futures
import fcntl
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "benchsuite")
WORKLOADS = ["fleet_read", "fleet_write", "stream", "degraded"]
# End-to-end metrics in simulated time: a pure function of the seed.
SIMULATED = {"lat_p50_ms", "lat_p99_ms", "goodput_MBps", "max_rate_ops"}
# Printed by the binary but carried in attempted/failed, not metrics.
TOTALS = {"attempted", "failed", "fail_frac"}
RUN_TIMEOUT_S = 170


def build():
    """Configure and build the benchmark; returns the binary's path."""
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"))
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", SOURCE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"] + gen,
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", out, "--target", "raid2_suite",
                        "-j", str(min(4, os.cpu_count() or 1))],
                       check=True, stdout=sys.stderr)
    return os.path.join(out, "raid2_suite")


def run_one(binary, workload, seed, seconds, trace, smoke=False):
    """Run one workload; returns (exit code, verified, metrics) where
    metrics maps name -> (value, unit)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    metrics = {}
    verified = False
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == workload:
            metrics[parts[1]] = (float(parts[2]), parts[3])
        elif line == "verify=ok":
            verified = True
    return proc.returncode, verified, metrics


def print_lines(workload, metrics):
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} {value!r} {unit}")


def contract_run(args, binary):
    code, verified, metrics = run_one(binary, args.workload, args.seed,
                                      args.seconds, args.trace)
    print_lines(args.workload, metrics)
    if "attempted" not in metrics or "failed" not in metrics:
        return 1
    failed = int(metrics["failed"][0])
    result = {
        "correct": code == 0 and verified and failed == 0,
        "attempted": int(metrics["attempted"][0]),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items() if n not in TOTALS},
    }
    print(json.dumps(result))
    return 0


def suite_run(args, binary):
    ok = True
    for workload in WORKLOADS:
        code, verified, metrics = run_one(binary, workload, args.seed,
                                          args.seconds, args.trace)
        print_lines(workload, metrics)
        good = code == 0 and verified
        print(f"{workload} verify={'ok' if good else 'fail'}")
        ok = ok and good
    return 0 if ok else 1


def smoke_run(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    jobs = [(w, seed, 0) for w in WORKLOADS for seed in (1, 1, 2)]
    jobs += [(w, 1, 1) for w in WORKLOADS]
    with concurrent.futures.ThreadPoolExecutor(4) as pool:
        results = list(pool.map(
            lambda j: run_one(binary, j[0], j[1], 0, j[2], smoke=True),
            jobs))
    errors = []
    for (workload, seed, trace), (code, verified, metrics) in zip(jobs,
                                                                  results):
        tag = f"{workload} seed {seed} trace {trace}"
        if code != 0 or not verified:
            errors.append(f"{tag}: exit {code}, verified {verified}")
        names = set(metrics) - TOTALS
        if names != want[trace]:
            errors.append(f"{tag}: metrics {sorted(names ^ want[trace])} "
                          "differ from BENCHMARK.json")
    for i, workload in enumerate(WORKLOADS):
        a, b = results[3 * i][2], results[3 * i + 1][2]
        for name in SIMULATED:
            if a.get(name) != b.get(name):
                errors.append(f"{workload}: {name} differs between two "
                              f"seed-1 runs: {a.get(name)} vs {b.get(name)}")
    for e in errors:
        print(e, file=sys.stderr)
    print(f"smoke: {len(jobs)} runs, {len(errors)} errors")
    return 1 if errors else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--binary", help="use this binary instead of building")
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be >= 0")

    try:
        binary = args.binary or build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1
    if args.smoke:
        return smoke_run(binary)
    if args.workload:
        return contract_run(args, binary)
    return suite_run(args, binary)


if __name__ == "__main__":
    sys.exit(main())
