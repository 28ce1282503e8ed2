#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload runtime_small --seeds 1-10
    python3 perfbench/spread.py --workload desim_scale --seeds 1-5 --trace 1

For every metric it prints the median over the seeds, min, quartiles and
max, and the distance between the first and third quartile as a share of
the median (Python's ``statistics.quantiles(values, n=4)``). For an
end-to-end metric it also prints the bound from ``BENCHMARK.json`` and
flags a spread above a third of it. The command run is the one
``BENCHMARK.json`` names, so the figures are exactly what that command
reports.
Exits 1 if a run fails or a checked spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values, failed = {}, False
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        t0 = time.monotonic()
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        wall = time.monotonic() - t0
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            print(f"seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
            failed = True
            continue
        if len(lines) > 1:
            print(f"seed {seed}: {lines[-2]}")
        result = json.loads(lines[-1])
        print(f"seed {seed}: {wall:.1f} s, correct={result['correct']}, "
              f"attempted={result['attempted']}, failed={result['failed']}")
        failed |= not result["correct"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"\n{'metric':44} {'median':>12} {'min':>12} {'q1':>12} {'q3':>12} "
          f"{'max':>12} {'iqr/med':>8} {'bound':>6}")
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        rel = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name) if args.trace == 0 else None
        flag = ""
        if bound is not None and name != "setup_s":
            if rel > bound:
                flag, failed = " OVER BOUND", True
            elif rel > bound / 3:
                flag = " above bound/3"
        print(f"{name:44} {med:12.6g} {min(v):12.6g} {q1:12.6g} {q3:12.6g} "
              f"{max(v):12.6g} {rel:8.4f} {bound if bound is not None else '':>6}{flag}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
