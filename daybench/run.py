#!/usr/bin/env python3
"""Builds the simulator from source and runs one benchmark workload.

    python3 daybench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 daybench/run.py --self-test

Run from the root of a checkout. The first run configures and builds three
CMake trees under .bench_build/ (see README.md "Builds"); later runs reuse
them. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; diagnostics go to standard error.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")

# name -> (CMAKE_BUILD_TYPE, VODB_AUDIT, VODB_PROF)
BUILDS = {
    # The measured build of the unchecked workloads: checking and
    # profiling compiled out.
    "release": ("Release", "OFF", "OFF"),
    # Their traced runs: the same build with the profiling scopes.
    "release-prof": ("Release", "OFF", "ON"),
    # The repository's default build: audits and profiling compiled in.
    "checked": ("RelWithDebInfo", "ON", "ON"),
}

BUILD_TIMEOUT_S = 840
RUN_GRACE_S = 150


def fail(msg):
    print(f"daybench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_all():
    """Configures and builds every tree; a no-op when they are current."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {ROOT}/src")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "daybench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for name, (build_type, audit, prof) in BUILDS.items():
            tree = os.path.join(BUILD_ROOT, "daybench-" + name)
            if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
                run_build(["cmake", "-S", HERE, "-B", tree, *generator,
                           "-DCMAKE_BUILD_TYPE=" + build_type,
                           "-DVODB_AUDIT=" + audit, "-DVODB_PROF=" + prof])
            run_build(["cmake", "--build", tree, "-j", jobs, "--target",
                       "daybench", "daybench_selftest"])


def run_build(cmd):
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail("build failed: " + " ".join(cmd))


def binary(build, name="daybench"):
    return os.path.join(BUILD_ROOT, "daybench-" + build, name)


def run_daybench(build, args, timeout):
    """Runs the benchmark binary; returns its final JSON object."""
    cmd = [binary(build), *args]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        fail(f"exit code {proc.returncode}: " + " ".join(cmd))
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines:
        fail("no result from " + " ".join(cmd))
    return json.loads(lines[-1])


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--self-test", action="store_true",
                   help="show that every correctness check can fail")
    a = p.parse_args()
    if not a.self_test and None in (a.workload, a.seed, a.seconds, a.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    if not a.self_test and (a.seed < 0 or not 1 <= a.seconds <= 3600):
        p.error("--seed must be >= 0 and --seconds in [1, 3600]")
    return a


def main():
    a = parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_all()
    if a.self_test:
        return subprocess.run([binary("release", "daybench_selftest")]).returncode

    if a.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {a.workload}")
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    # The binary knows which build runs the workload in this mode.
    plan = run_daybench("release", [*args, "--plan", "1"], RUN_GRACE_S)
    res = run_daybench(plan["build"], args, a.seconds + RUN_GRACE_S)
    correct = bool(res["correct"])
    for msg in res["failures"]:
        print(f"daybench: check failed: {msg}", file=sys.stderr)

    if a.trace:
        # The traced run must be a pure observer: one untraced round of the
        # same input, in the unchecked build, gives the same outputs.
        ref = run_daybench("release",
                           ["--workload", plan["inputs_of"], "--seed",
                            str(a.seed), "--seconds", "1", "--trace", "0",
                            "--rounds", "1"], RUN_GRACE_S)
        if ref["digest"] != res["digest"] or not ref["correct"]:
            correct = False
            print("daybench: traced outputs differ from the untraced run",
                  file=sys.stderr)

    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in res["metrics"]:
            fail(f"metric {m['name']} missing from the run")
        metrics[m["name"]] = {"value": res["metrics"][m["name"]],
                              "unit": m["unit"]}
    r = res["round"]
    print(f"daybench: {a.workload} seed {a.seed}: {res['rounds']} rounds in "
          f"{res['measured_s']:.1f} s; per round {r['reads']} reads, "
          f"{r['starvations']} buffer underflows ({r['fixed_reads']} reads and "
          f"{r['fixed_starvations']} underflows on the fixed day), "
          f"{r['arrivals']} arrivals, "
          f"{r['capacity_rejections']} rejected for capacity, "
          f"{r['memory_rejections']} for memory; digest {res['digest']}"
          + (f"; {res['speedup']:.2f}x a one-worker round" if res["speedup"]
             else ""), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
