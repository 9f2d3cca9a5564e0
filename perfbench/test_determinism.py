#!/usr/bin/env python3
"""The benchmark's own test: outputs do not depend on the thread count.

    python3 perfbench/test_determinism.py [--seed 1] [--workloads ...]

Runs one repetition of each workload at Config::runtime_threads 1 and 2
and requires the same digest, deterministic counts and virtual-time
latency samples from both, and no oracle violation. With a seed listed in
expected_digests.json the digest must also equal the committed one.
Exits 0 when every workload passes.
"""
import argparse
import sys

import run


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    args = ap.parse_args()
    run.build()
    failures = 0
    for workload in args.workloads.split(","):
        reps = [run.run_rep(workload, args.seed, threads=t) for t in (1, 2)]
        problems = run.check(reps, workload, args.seed)
        print("%-12s seed %d digest %s (1 thread) %s (2 threads): %s" % (
            workload, args.seed, reps[0]["digest"], reps[1]["digest"],
            "ok" if not problems else "; ".join(problems)))
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
