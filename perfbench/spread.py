#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads serve_hot,plan_cold]
        [--held-out 1001] [--out perfbench/results/record.json]

For every workload and end-to-end metric this prints the median, the
quartiles (Python's statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json, and
flags spreads above a third of the bound.  With --out it writes the run
record: host cores, OCaml version, commit, run length, and per metric
the sample count, median and quartiles, plus the held-out seed's
results when --held-out is given.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: wrong answers")
    return {k: v["value"] for k, v in result["metrics"].items()}


def describe(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def tool_version(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True).stdout.strip()
    except OSError:
        return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--held-out", type=int, default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    seconds = spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    record = {
        "host_cores": os.cpu_count(),
        "machine": platform.machine(),
        "ocaml_version": tool_version(["ocamlfind", "ocamlopt", "-version"]),
        "commit": tool_version(["git", "-C", ROOT, "describe", "--always", "--dirty"])
        or "unknown",
        "run_seconds": seconds,
        "seeds": seeds_of(args.seeds),
        "workloads": {},
    }
    worst = 0.0
    for w in workloads:
        runs = []
        for seed in record["seeds"]:
            runs.append(run_once(w, seed, seconds))
            print(f"{w} seed {seed}: " + ", ".join(f"{k}={v:.4g}" for k, v in runs[-1].items()),
                  flush=True)
        stats = {k: describe([r[k] for r in runs]) for k in runs[0]}
        entry = {"metrics": stats}
        if args.held_out is not None:
            entry["held_out"] = {"seed": args.held_out,
                                 "metrics": run_once(w, args.held_out, seconds)}
        record["workloads"][w] = entry
        print(f"\n{w}:")
        for k, s in stats.items():
            bound = bounds.get(k)
            flag = ""
            if bound is not None:
                worst = max(worst, s["spread"] / bound)
                flag = "  > bound/3" if s["spread"] > bound / 3 else ""
            print(f"  {k:14s} median {s['median']:10.4g}  q1 {s['q1']:10.4g}  "
                  f"q3 {s['q3']:10.4g}  spread {s['spread']:.3f}"
                  + (f"  bound {bound}" if bound is not None else "") + flag)
        print(flush=True)
    print(f"largest spread / bound: {worst:.3f}")
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
