#!/usr/bin/env python3
"""Compares two sets of ct_bench runs, e.g. a parent commit (A) and a change (B).

    python3 bench/e2e/compare.py A_DIR B_DIR [--all]

Each directory holds ct_bench --out JSON files, one per run. Runs pair up by
sorted file name (A's i-th with B's i-th), so name them by round when the
two sides were interleaved. For every (workload, metric) the table gives
each side's median and quartiles and B's change against A. Verdicts, with
the bound the repository's BENCHMARK.json fixes for the metric:

  regression  B's median is worse than A's by more than the bound (and,
              when A's spread exceeds the bound, every B run is worse
              than every A run)
  unresolved  A's own spread (quartile distance / median) exceeds the
              bound and the runs do not separate
  gain        B wins at least 9 of every 10 pairs (ties count for neither)
              and the medians differ by more than A's quartile distance
  same        none of the above

--all adds the layer metrics (no bound: only 'gain' or '-'). Exits 1 when
any end-to-end metric regressed.
"""

import argparse
import glob
import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "BENCHMARK.json")


def load(directory):
    """[(file, {workload: {metric: value}})] in sorted file order."""
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            doc = json.load(f)
        runs.append({w["name"]: {k: v["value"] for k, v in w["metrics"].items()}
                     for w in doc["workloads"]})
    if not runs:
        sys.exit("compare.py: no *.json runs in " + directory)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a, b, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    a1, am, a3 = quartiles(a)
    _, bm, _ = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(bm - am) > (a3 - a1) and sign * (bm - am) > 0:
        return "gain"
    if bound is None:
        return "-"
    worse = am != 0 and sign * (bm - am) / abs(am) < -bound
    spread = (a3 - a1) / abs(am) if am else 0.0
    if spread > bound:
        if min(sign * y for y in b) > max(sign * x for x in a):
            return "same"
        if worse and max(sign * y for y in b) < min(sign * x for x in a):
            return "regression"
        return "unresolved"
    return "regression" if worse else "same"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("a_dir")
    parser.add_argument("b_dir")
    parser.add_argument("--all", action="store_true", help="also compare layer metrics")
    args = parser.parse_args()

    with open(BENCHMARK) as f:
        bench = json.load(f)
    metrics = [(m["name"], m["better"], m["bound"]) for m in bench["end_to_end"]]
    if args.all:
        metrics += [(m["name"], m["better"], None) for m in bench["per_layer"]]
    a_runs, b_runs = load(args.a_dir), load(args.b_dir)

    print("| workload | metric | A median [q1, q3] | B median [q1, q3] | B/A | bound | verdict |")
    print("|---|---|---|---|---|---|---|")
    regressed = False
    for w in [w["name"] for w in bench["workloads"]]:
        for name, better, bound in metrics:
            a = [r[w][name] for r in a_runs if name in r.get(w, {})]
            b = [r[w][name] for r in b_runs if name in r.get(w, {})]
            if not a or not b:
                continue
            v = verdict(a, b, better, bound)
            regressed = regressed or v == "regression"
            aq, bq = quartiles(a), quartiles(b)
            ratio = "%.3f" % (bq[1] / aq[1]) if aq[1] else "-"
            print("| %s | %s | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %s | %s | %s |" % (
                w, name, aq[1], aq[0], aq[2], bq[1], bq[0], bq[2], ratio,
                "-" if bound is None else "%g" % bound, v))
    print("\nruns: A=%d B=%d, pairs=%d" % (len(a_runs), len(b_runs), min(len(a_runs), len(b_runs))))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
