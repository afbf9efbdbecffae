#!/usr/bin/env python3
"""Runs the benchmark over several seeds and prints each end-to-end metric's
median and quartile spread (the distance between the first and third
quartile as a share of the median) next to its bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload fleet-batch --seeds 1-5

Run from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
        last = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={last['correct']} attempted={last['attempted']} failed={last['failed']}",
              flush=True)
        for name, m in last["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- over a third of the bound"
        print(f"{name:28s} median {med:12.6g}  spread {spread:7.4f}  bound {bound}{flag}")


if __name__ == "__main__":
    main()
