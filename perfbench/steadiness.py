#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs the benchmark command once per (workload, seed) from the repository
root and reports, per workload and end-to-end metric, the median, the
first and third quartiles (statistics.quantiles, n=4) and their distance
as a share of the median, next to the metric's bound.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads study,study_journal] [--out runs.jsonl]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seeds_arg, required=True)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", help="append every run's result line to this JSONL file")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            began = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.time() - began
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            lines = proc.stdout.splitlines()
            host = next((l[5:] for l in lines if l.startswith("host ")), "{}")
            rates = next((l.split("pass_rates ")[1] for l in lines if "pass_rates " in l), "")
            print(f"{workload} seed {seed} wall {wall:.1f}s correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                  + f" passes {rates} host {host}", flush=True)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed, "wall_s": wall,
                                        "result": result, "host": json.loads(host)}) + "\n")
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            print(f"  {workload:<15} {name:<14} n={len(vals)} median {med:.4g} "
                  f"q1 {q1:.4g} q3 {q3:.4g} spread {spread:.4f} bound {bounds[name]} "
                  f"{'ok' if spread < bounds[name] / 3 else 'WIDE'}", flush=True)


if __name__ == "__main__":
    main()
