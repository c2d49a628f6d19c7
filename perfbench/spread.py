#!/usr/bin/env python3
"""Run perfbench over several seeds and report each metric's spread.

Usage, from the repository root:
    python3 perfbench/spread.py --workload <name> --seeds 1,2,3,4,5 \
        [--seconds 20] [--trace 0] [--holdout <seed>]

For every metric prints the median over the seeds and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, beside the bound BENCHMARK.json gives it. With
--holdout, one more run on a seed not in --seeds is compared with those
medians: each end-to-end metric must be no worse than the median by
more than its bound. Exits non-zero on a failed run or a held-out
metric outside its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-4000:])
        raise SystemExit("perfbench: seed %s failed (exit %d)" %
                         (seed, out.returncode))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--holdout", type=int)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    values = {}
    for seed in args.seeds.split(","):
        for k, v in run(args.workload, seed, seconds, args.trace).items():
            values.setdefault(k, []).append(v)
    medians = {}
    print("%s, %d seeds, %d s:" % (args.workload, len(args.seeds.split(",")),
                                   seconds))
    for k, vs in values.items():
        med = statistics.median(vs)
        medians[k] = med
        spread = 0.0
        if len(vs) >= 2 and med:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / abs(med)
        bound = metrics.get(k, {}).get("bound")
        print("  %-36s median %-14.6g spread %6.3f  bound %s" %
              (k, med, spread, "-" if bound is None else bound))

    if args.holdout is None:
        return 0
    held = run(args.workload, args.holdout, seconds, args.trace)
    ok = True
    print("held-out seed %d:" % args.holdout)
    for k, v in held.items():
        m = metrics.get(k, {})
        med = medians.get(k)
        if "bound" not in m or not med:
            continue
        worse = (v - med) / med if m["better"] == "lower" else (med - v) / med
        within = worse <= m["bound"]
        ok &= within
        print("  %-36s %-14.6g vs median %-14.6g worse by %6.3f  %s" %
              (k, v, med, worse, "ok" if within else "OUTSIDE bound"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
