#!/usr/bin/env python3
"""Runs the benchmark on several seeds and summarises each metric.

    python3 perfbench/seeds.py --workload trace --seeds 1-10 [--trace 1] [--json out.json]

Run from the repository root. For every metric it prints the median, the
first and third quartiles (statistics.quantiles, n=4) and the quartile
spread as a share of the median, which is how a metric's run-to-run
spread is judged against its bound in BENCHMARK.json. With --json it also
writes the per-seed values and the summary, the shape perfbench/BASELINE.json
records.
"""

import argparse
import json
import statistics
import subprocess
import sys

COMMAND = ["cargo", "run", "--release", "--quiet", "--offline",
           "--manifest-path", "perfbench/Cargo.toml", "--"]


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(COMMAND + args, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-4000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"seed {seed}: incorrect\n{out.stderr[-4000:]}")
    return result


def summarise(values):
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--json", help="write per-seed values and the summary here")
    a = p.parse_args()

    per_seed = {}
    units = {}
    for seed in seed_list(a.seeds):
        result = run(a.workload, seed, a.seconds, a.trace)
        print(f"seed {seed}: attempted {result['attempted']}, failed {result['failed']}",
              flush=True)
        for name, m in result["metrics"].items():
            per_seed.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    summary = {name: dict(summarise(v), unit=units[name]) for name, v in per_seed.items()}
    for name, s in summary.items():
        print(f"{name:38s} {s['unit']:11s} median {s['median']:<14.6g} "
              f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f}")
    if a.json:
        with open(a.json, "w") as f:
            json.dump({"workload": a.workload, "seeds": seed_list(a.seeds),
                       "seconds": a.seconds, "trace": a.trace,
                       "summary": summary, "per_seed": per_seed}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
