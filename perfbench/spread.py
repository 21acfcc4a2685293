#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the repository root::

    python3 perfbench/spread.py --workloads etc-pama-1m,serve-pama --seeds 1-10

Runs ``perfbench/run.py --trace 0`` once per seed and workload, then
prints, per metric, the median and the interquartile range as a share of
the median (``statistics.quantiles(values, n=4)``) next to a third of
the metric's bound in ``BENCHMARK.json``.  Raw results are appended to
``.perfbench_work/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    log = ROOT / ".perfbench_work" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seeds_of(args.seeds):
            out = subprocess.run(
                [*bench["command"], "--workload", workload, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {out.returncode}\n"
                      f"{out.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            with log.open("a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     **result}) + "\n")
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect\n{out.stderr}",
                      file=sys.stderr)
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload} ({len(seeds_of(args.seeds))} seeds)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            limit = bounds[name] / 3
            flag = "" if name == "setup_s" or spread < limit else "  WIDE"
            ok = ok and not flag
            print(f"  {name:18s} median {med:12.4f}  spread {spread:7.4f}"
                  f"  (bound/3 {limit:.4f}){flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
