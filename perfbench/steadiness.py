#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports how steady it is.

    python3 perfbench/steadiness.py --workloads paper_city,flex_tail \
        --seeds 1-10 [--seconds 10] [--out perfbench/baseline.json]
    python3 perfbench/steadiness.py --workloads serve_city --repeat-counters 1

Run from the repository root. For each workload and seed it runs
perfbench/run.py once (untraced), then prints per end-to-end metric the
median, the quartiles (Python's statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median, against the metric's bound in BENCHMARK.json: a spread
above the bound fails the check, one above a third of it is flagged.
With --out the raw values and the summary are written as JSON (the format
of perfbench/baseline.json). Exits 1 when a run fails or is incorrect, or
a spread exceeds its bound.

With --repeat-counters SEED it instead makes two traced runs per workload
with that seed and checks that every deterministic work counter (the
`work.*` per-layer metrics) repeats exactly.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None, None
    traffic = None
    for line in lines:
        if line.startswith("traffic "):
            traffic = json.loads(line[len("traffic "):])
    return json.loads(lines[-1]), traffic


def repeat_counters(workloads, seed, seconds):
    ok = True
    for workload in workloads:
        counters = []
        for _ in range(2):
            result, _ = run_once(workload, seed, seconds, trace=1)
            if result is None or not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: traced run failed")
                return 1
            counters.append({k: v["value"] for k, v in
                             result["metrics"].items()
                             if k.startswith("work.")})
        same = counters[0] == counters[1]
        ok = ok and same
        print(f"{workload} seed {seed}: work counters "
              f"{'repeat exactly' if same else 'DIFFER'}: {counters[0]}")
        if not same:
            print(f"  second run: {counters[1]}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--repeat-counters", type=int, default=None)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    if args.repeat_counters is not None:
        return repeat_counters(args.workloads.split(","),
                               args.repeat_counters, seconds)

    ok = True
    summary = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        traffic = None
        for seed in seeds:
            result, seen = run_once(workload, seed, seconds)
            if result is None or not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: run failed or incorrect")
                ok = False
                continue
            traffic = traffic or seen
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
        rows = {}
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "ok"
            if spread > bounds[name] / 3:
                flag = "WIDE"
            if spread > bounds[name] and name != "setup_s":
                flag = "FAIL"
                ok = False
            print(f"  {workload:<11} {name:<12} median {med:10.4f}  "
                  f"q1 {q1:10.4f}  q3 {q3:10.4f}  spread {spread:6.3f}  "
                  f"bound {bounds[name]:.2f}  {flag}")
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": spread, "values": vals}
        summary["workloads"][workload] = {"metrics": rows,
                                          "traffic_first_seed": traffic}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
