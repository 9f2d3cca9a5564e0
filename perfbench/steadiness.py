#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py [--runs 10] [--seconds 10]
                                    [--workloads select_storm,aq_churn]
                                    [--seed 1] [--same-seed]

Runs every workload --runs times through perfbench/run.py, alternating
the workload order from one round to the next (forward, then reversed),
with seed --seed + round unless --same-seed. For each workload and
metric it prints the median, the quartiles (statistics.quantiles, n=4),
the interquartile spread as a share of the median, the largest deviation
from the median, and that spread against the metric's bound in
BENCHMARK.json. Exits 1 if any run fails or reports correct=false.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        return {m["name"]: m["bound"] for m in spec["end_to_end"]}, \
            spec["run_seconds"], [w["name"] for w in spec["workloads"]]
    except FileNotFoundError:
        return {}, 10, ["select_storm", "aq_monitor", "aq_churn"]


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit("%s failed:\n%s" % (" ".join(cmd), proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    bound_of, run_seconds, all_workloads = bounds()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=run_seconds)
    ap.add_argument("--workloads", default=",".join(all_workloads))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true")
    args = ap.parse_args()
    workloads = args.workloads.split(",")

    values = {w: {} for w in workloads}
    ok = True
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else workloads[::-1]
        seed = args.seed if args.same_seed else args.seed + r
        for w in order:
            result = run(w, seed, args.seconds)
            ok = ok and result["correct"]
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print("round %d %-12s seed %d correct=%s %s" % (
                r, w, seed, result["correct"], " ".join(
                    "%s=%.6g" % (k, m["value"])
                    for k, m in result["metrics"].items())), flush=True)

    print()
    print("%-12s %-16s %12s %12s %12s %8s %8s %8s" % (
        "workload", "metric", "median", "q1", "q3", "iqr/med", "maxdev",
        "/bound"))
    for w in workloads:
        for name, v in values[w].items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            maxdev = max(abs(x - med) for x in v) / med if med else float("nan")
            bound = bound_of.get(name)
            print("%-12s %-16s %12.6g %12.6g %12.6g %8.4f %8.4f %8s" % (
                w, name, med, q1, q3, spread, maxdev,
                "%.2f" % (spread / bound) if bound else "-"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
