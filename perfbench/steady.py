#!/usr/bin/env python3
"""Steadiness check of the repository benchmark.

Runs every workload of BENCHMARK.json once per seed through perfbench/run.py
(untraced, for run_seconds), and the whole matrix twice. For every
end-to-end metric it prints, per set, the median and quartiles over the
seeds and the quartile spread (q3 - q1) / median next to the metric's
bound, and the shift of the second set's median from the first's (positive
means worse).

    python3 perfbench/steady.py [--seeds 1-10] [--out results.jsonl]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seeds = parse_seeds(args.seeds)

    # results[set][workload] -> list of metric dicts
    results = [{w: [] for w in workloads} for _ in range(SETS)]
    out = open(args.out, "a") if args.out else None
    for s in range(SETS):
        for seed in seeds:
            for w in workloads:
                r = run_once(w, seed, seconds)
                results[s][w].append(r["metrics"])
                if out:
                    out.write(json.dumps({"set": s, "workload": w, "seed": seed,
                                          "metrics": r["metrics"]}) + "\n")
                    out.flush()
                print(f"set {s} seed {seed} {w}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()),
                    file=sys.stderr)

    worst_spread = (0.0, "")
    worst_shift = (-float("inf"), "")
    for w in workloads:
        print(f"\n{w}  ({len(seeds)} seeds x {SETS} sets, {seconds} s runs)")
        print(f"  {'metric':<14}{'set':>4}{'q1':>11}{'median':>11}{'q3':>11}"
              f"{'spread':>9}{'bound':>7}{'spr/bnd':>9}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for s in range(SETS):
                values = [r[name]["value"] for r in results[s][w]]
                q1, _, q3 = statistics.quantiles(values, n=4)
                med = statistics.median(values)
                medians.append(med)
                rel = (q3 - q1) / med if med else float("inf")
                worst_spread = max(worst_spread, (rel / bound, f"{w} {name}"))
                print(f"  {name:<14}{s + 1:>4}{q1:>11.5g}{med:>11.5g}{q3:>11.5g}"
                      f"{rel:>9.4f}{bound:>7.2f}{rel / bound:>9.3f}")
            shift = (medians[1] - medians[0]) / medians[0]
            if m["better"] == "higher":
                shift = -shift
            worst_shift = max(worst_shift, (shift / bound, f"{w} {name}"))
            print(f"  {name:<14} shift {shift:+.4f} ({shift / bound:+.3f} of bound)")
    print(f"\nworst spread/bound: {worst_spread[0]:.3f} ({worst_spread[1]})")
    print(f"worst shift/bound:  {worst_shift[0]:+.3f} ({worst_shift[1]})")


if __name__ == "__main__":
    main()
