#!/usr/bin/env python3
"""Builds ct_bench from this checkout and runs one workload.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR/ct_bench
(default .bench_build/ct_bench). ct_bench's own report goes to stdout; the
last stdout line is one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": float, "unit": str}}}

holding BENCHMARK.json's end_to_end metrics (--trace 0) or its per_layer
metrics (--trace 1). A traced run spends half of --seconds untraced and half
traced, since the traced-pass metrics need both. Exits non-zero without a
result line when the checkout cannot be built or ct_bench does not report.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "ct_bench", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "ct_bench")


def catalog(binary):
    """Metric name -> (unit, direction, workload scope) from `ct_bench --list`."""
    out = subprocess.run([binary, "--list", "--seed", "1"], check=True,
                         capture_output=True, text=True).stdout
    table = {}
    for line in out.splitlines():
        fields = line.split()
        if fields and fields[0] == "metric":
            table[fields[1]] = (fields[2], fields[3], fields[6])
    return table


def check_benchmark(bench, table):
    for group in ("end_to_end", "per_layer"):
        for m in bench[group]:
            row = table.get(m["name"])
            if row is None:
                fail("BENCHMARK.json names %s, which ct_bench does not print" % m["name"])
            unit, better, scope = row
            if scope != "all" or unit != m["unit"] or better != m["better"]:
                fail("BENCHMARK.json's %s disagrees with ct_bench --list" % m["name"])


def run(binary, args, out_path, trace_path):
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds / 2 if args.trace else args.seconds),
               "--out", out_path]
    if args.trace:
        command += ["--trace", trace_path]
    # Own process group, so a timeout also stops the workload's forked children.
    proc = subprocess.Popen(command, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("ct_bench did not finish within %d s" % RUN_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at %s/src; run from a full checkout" % ROOT)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload " + args.workload)

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "ct_bench")
    binary = build(build_dir)
    check_benchmark(bench, catalog(binary))

    out_path = os.path.join(build_dir, "result-%s-%d.json" % (args.workload, os.getpid()))
    trace_path = os.path.join(build_dir, "trace.json")  # ct_bench adds the workload name
    code = run(binary, args, out_path, trace_path)
    if not os.path.exists(out_path):
        fail("ct_bench exited %d without a result" % code)
    with open(out_path) as f:
        result = json.load(f)["workloads"][0]
    os.remove(out_path)

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail("ct_bench did not report %s on %s" % (m["name"], args.workload))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": code == 0 and result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
