"""Run one workload under several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload paper-register --seeds 1-10

For every metric it prints the median over seeds and the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a share
of the median, next to the metric's bound from BENCHMARK.json. Every run
measures BENCHMARK.json's ``run_seconds``, the length the bounds are set for.
Runs are made one after another from the repository root; pass
``--out FILE`` to keep each run's JSON result and printed report lines.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    results = []
    for seed in seed_list(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        line = json.loads(lines[-1])
        line["seed"] = seed
        line["report"] = [ln for ln in lines[:-1] if not ln.startswith("env.")]
        results.append(line)
        values = {k: round(v["value"], 4) for k, v in line["metrics"].items()
                  if k in bounds or args.trace}
        print(f"seed {seed}: correct={line['correct']} attempted={line['attempted']} "
              f"failed={line['failed']} {values if not args.trace else ''}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
    if len(results) < 2:
        return 0
    print(f"{'metric':48s} {'median':>12s} {'iqr/median':>10s} {'bound':>6s}")
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:48s} {med:12.6g} {share:10.4f} {bound if bound is not None else '':>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
