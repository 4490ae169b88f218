#!/usr/bin/env python3
"""Steadiness check for the rsskv benchmark.

Runs each workload as two sets of runs of the same build, each run with
its own seed, and prints for every end-to-end metric in BENCHMARK.json
the per-set median and quartiles, the spread (interquartile distance over
the median), and whether the two sets agree within the metric's bound:
each set's spread within the bound and the two medians apart by no more
than the bound, as a share of the first. Set 1 uses seeds 101..., set 2
seeds 1101....

Run from the repository root:

    python3 rssperf/steady.py --runs 10

Exits 1 if any run fails (a run with a failed operation fails) or any
metric disagrees.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"run failed: {' '.join(args)} (exit {p.returncode})")
    res = json.loads(lines[-1])
    if not res["correct"]:
        raise SystemExit(f"run reported incorrect output: {' '.join(args)}")
    return res


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ok = True
    for w in [w["name"] for w in bench["workloads"]]:
        sets = []
        for s in range(2):
            runs = []
            for i in range(opts.runs):
                seed = 101 + 1000 * s + i
                runs.append(run_once(bench["command"], w, seed, bench["run_seconds"]))
                m = runs[-1]["metrics"]
                print(f"{w} set {s + 1} run {i + 1}/{opts.runs} seed {seed}: " + " ".join(
                    f"{k}={m[k]['value']:.4g}" for k in sorted(m)), file=sys.stderr)
            sets.append(runs)
        print(f"\n{w}:")
        print(f"  {'metric':<20} {'bound':>6}  " + "  ".join(
            f"{'set' + str(s + 1) + ' median [q1, q3] spread':>44}" for s in range(2)) + "  verdict")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cols, meds, good = [], [], True
            for runs in sets:
                med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in runs])
                meds.append(med)
                cols.append(f"{med:>12.4f} [{q1:>10.4f}, {q3:>10.4f}] {spread:>6.1%}")
                if spread > bound:
                    good = False
            if abs(meds[1] - meds[0]) / meds[0] > bound:
                good = False
            ok = ok and good
            print(f"  {name:<20} {bound:>6.2f}  " + "  ".join(cols) + ("  ok" if good else "  OUT OF BOUND"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
