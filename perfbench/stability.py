#!/usr/bin/env python3
"""Run-to-run stability of the benchmark, and the host it ran on.

Runs the benchmark command from BENCHMARK.json once per seed on each
workload, untraced, and reports for every end-to-end metric the median
and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to
the metric's bound. With --sim-check it also makes two traced runs at
each of two seeds and requires the sim.* counts to repeat exactly.

Run from the repository root:

    python3 perfbench/stability.py --runs 10 --out perfbench/stability.json
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    host = next((json.loads(l[5:]) for l in lines if l.startswith("host ")), {})
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"{workload} seed {seed}: checks failed")
    return result, host


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="seeds per workload")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--sim-check", action="store_true",
                    help="also check that sim.* counts repeat at a fixed seed")
    ap.add_argument("--out", help="write the record to this JSON file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    record = {"seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in names:
        values = {m: [] for m in bounds}
        for seed in seeds:
            result, host = run_once(bench["command"], name, seed, bench["run_seconds"], 0)
            record["host"] = host
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        rows = {}
        for m, v in values.items():
            rows[m] = {"median": statistics.median(v), "spread": spread(v),
                       "bound": bounds[m], "values": v}
            flag = "" if m == "setup_s" or rows[m]["spread"] <= bounds[m] / 3 else "  <-- above bound/3"
            print(f"{name:11s} {m:15s} median {rows[m]['median']:12.6g}  "
                  f"spread {rows[m]['spread']:7.4f}  bound {bounds[m]}{flag}", flush=True)
        record["workloads"][name] = {"end_to_end": rows}

        if args.sim_check:
            sim = {}
            for seed in (seeds[0], seeds[-1]):
                counts = []
                for _ in range(2):
                    result, _ = run_once(bench["command"], name, seed, bench["run_seconds"], 1)
                    counts.append({k: v["value"] for k, v in result["metrics"].items()
                                   if k.startswith("sim.")})
                if counts[0] != counts[1]:
                    raise SystemExit(f"{name} seed {seed}: sim counts differ: {counts}")
                sim[str(seed)] = counts[0]
                print(f"{name:11s} seed {seed}: sim.* repeat exactly {counts[0]}", flush=True)
            record["workloads"][name]["sim_counts"] = sim

    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
