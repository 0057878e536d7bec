#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (one workload per call).

    python3 nbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 nbench/run.py --selftest

Run from the repository root. The first call configures and builds
nbench/ (and the library from src/) into .bench_build/nbench; later
calls rebuild incrementally. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Traced runs write their
spans to .bench_build/nbench-traces/<workload>-seed<n>.json (Chrome
trace-event format). Exits non-zero when the build fails, a
correctness check fails, or the result does not list exactly the
metrics BENCHMARK.json names.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
NBENCH_BUILD = os.path.join(BUILD, "nbench")
RUN_TIMEOUT_S = 175


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("run.py: no repository sources next to nbench/ "
                 "(run from a full checkout)")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    if not os.path.isfile(os.path.join(NBENCH_BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "nbench"), "-B",
               NBENCH_BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", NBENCH_BUILD, "--target", target,
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(NBENCH_BUILD, target)


def expected_metrics(trace):
    """(name -> unit) of the mode's list in BENCHMARK.json, if any."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Problems with the final JSON line (empty list when sound)."""
    try:
        res = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    if not isinstance(res, dict) or \
            set(res) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys are not correct/attempted/failed/metrics"]
    want = expected_metrics(trace)
    if want is None:
        return []
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    return ["metric %s: got unit %r, BENCHMARK.json says %r"
            % (k, got.get(k), want.get(k))
            for k in sorted(set(want) | set(got))
            if got.get(k) != want.get(k)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the helper self-tests")
    args = ap.parse_args()

    try:
        if args.selftest:
            return subprocess.run([build("nbench_selftest")]).returncode
        if not args.workload:
            ap.error("--workload is required")
        exe = build("nbench")
    except (subprocess.CalledProcessError, OSError) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 1

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    # Cross-run checks compare runs of one binary only: a rebuild
    # starts a fresh state directory.
    st = os.stat(exe)
    state = os.path.join(BUILD, "nbench-state",
                         "%d-%d" % (st.st_mtime_ns, st.st_size))
    os.makedirs(state, exist_ok=True)
    cmd += ["--state-dir", state]
    if args.trace:
        traces = os.path.join(BUILD, "nbench-traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    problems = check_result(lines[-1], args.trace) if proc.stdout else \
        ["no output"]
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    for p in problems:
        print("run.py: %s" % p, file=sys.stderr)
    if proc.returncode != 0:
        return proc.returncode if proc.returncode > 0 else 1
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
