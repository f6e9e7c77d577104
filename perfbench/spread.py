#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

The spread is the distance between the first and third quartile of the
per-seed values (``statistics.quantiles(values, n=4)``) as a share of
their median -- the figure each end-to-end metric's bound in
``BENCHMARK.json`` is compared against.

    python3 perfbench/spread.py --workload paper_steady --seeds 1-5
    python3 perfbench/spread.py --workload burst_cca_mpl1024 --seeds 1,7,9 --trace 1

Each run uses the command ``BENCHMARK.json`` names, from the repository
root, one run at a time.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        line = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            line.append(f"{name}={m['value']:.6g}")
        print(f"seed {seed}: " + " ".join(line), flush=True)

    print(f"\n{'metric':<30} {'median':>14} {'spread':>8} {'bound/3':>8}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        bound = bounds.get(name)
        third = f"{bound / 3:.4f}" if bound else ""
        flag = " <-- wide" if bound and name != "setup_s" and spread > bound / 3 else ""
        print(f"{name:<30} {med:>14.6g} {spread:>8.4f} {third:>8}{flag}")


if __name__ == "__main__":
    main()
