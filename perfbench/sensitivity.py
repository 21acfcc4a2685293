#!/usr/bin/env python3
"""Layer sensitivity self-test: does each workload measure its layers?

Usage, from the repository root::

    python3 perfbench/sensitivity.py [--seed 1] [--seconds 10]

For one public function per headline layer, the test adds a fixed
busy-wait from outside (``run.py --inject``) and checks two things:

* on the workload that uses the layer, ``throughput_ops_s`` falls by
  what the traced call count predicts: per operation, the injected
  delay times the calls per operation, added to the baseline's time
  per operation.  The delay is wall time, so it is scaled by the
  injected runs' machine-speed factor like every other timing (see
  ``speed.py``).  The measured drop must be within ``TOLERANCE`` of the
  predicted drop;
* on each workload that bypasses the layer, throughput stays within
  the benchmark's own ``throughput_ops_s`` bound.

Baseline and injected runs alternate ``PAIRS`` times and are compared
by their medians.  Results go to ``.perfbench_work/sensitivity.json``.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: injection -> (delay in microseconds, workload that uses it, the
#: traced metric giving its calls per operation, workloads bypassing it)
CASES = {
    "resolve_pressure": (60.0, "etc-pama-1m",
                         "core.resolve_pressure_calls_per_row",
                         ("serve-pama",)),
    "bloom_access": (20.0, "var-bloom-64k",
                     "bloom.segment_access_calls_per_row",
                     ("etc-pama-1m",)),
    "decode_feed": (500.0, "serve-pama", "server.reqs_per_read",
                    ("etc-pama-1m", "var-bloom-64k")),
}
#: allowed relative error of the measured drop against the predicted one
TOLERANCE = 0.3
#: baseline/injected run pairs per workload and injection
PAIRS = 2


def run(workload: str, seed: int, seconds: int, trace: int = 0,
        inject: str | None = None) -> dict:
    """Metric values of one run, plus an untraced run's machine-speed
    ``factor`` (the median over its phases)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{out.stderr}")
    result = json.loads(lines[-1])
    values = {k: m["value"] for k, m in result["metrics"].items()}
    if not trace:
        values["factor"] = float(
            re.search(r"speed factor ([0-9.]+)\)\n", out.stderr).group(1))
    return values


def throughputs(workload: str, args, inject: str
                ) -> tuple[list[float], list[float], list[float]]:
    """Baseline and injected throughputs, alternating ``PAIRS`` times,
    and the injected runs' machine-speed factors."""
    baseline, injected, factors = [], [], []
    for i in range(PAIRS):
        order = [(None, baseline), (inject, injected)]
        if i % 2:
            order.reverse()
        for spec, sink in order:
            values = run(workload, args.seed, args.seconds, inject=spec)
            sink.append(values["throughput_ops_s"])
            if spec:
                factors.append(values["factor"])
    return baseline, injected, factors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    args.seconds = args.seconds or bench["run_seconds"]
    bound = next(m["bound"] for m in bench["end_to_end"]
                 if m["name"] == "throughput_ops_s")

    report = []
    ok = True
    for name, (delay_us, user, count_metric, bypass) in CASES.items():
        inject = f"{name}:{delay_us:g}"
        traced = run(user, args.seed, args.seconds, trace=1)
        calls_per_op = traced[count_metric]
        if name == "decode_feed":  # one feed() per socket read
            calls_per_op = 1.0 / calls_per_op
        base, hurt, factors = throughputs(user, args, inject)
        thr0, thr1 = statistics.median(base), statistics.median(hurt)
        delay = delay_us * 1e-6 * statistics.median(factors)
        predicted = 1.0 / (1.0 / thr0 + calls_per_op * delay)
        error = ((thr0 - thr1) - (thr0 - predicted)) / (thr0 - predicted)
        passed = abs(error) <= TOLERANCE
        ok = ok and passed
        report.append({"inject": inject, "workload": user, "role": "uses",
                       "calls_per_op": calls_per_op, "baseline": base,
                       "injected": hurt, "predicted": predicted,
                       "drop_error": error, "passed": passed})
        print(f"{inject:24s} {user:14s} uses    baseline {thr0:9.0f} "
              f"injected {thr1:9.0f} predicted {predicted:9.0f} "
              f"({calls_per_op:.4f} calls/op)  drop error {error:+.2f}  "
              f"{'ok' if passed else 'FAIL'}", flush=True)
        for other in bypass:
            base, hurt, _ = throughputs(other, args, inject)
            thr0, thr1 = statistics.median(base), statistics.median(hurt)
            change = (thr1 - thr0) / thr0
            passed = abs(change) <= bound
            ok = ok and passed
            report.append({"inject": inject, "workload": other,
                           "role": "bypasses", "baseline": base,
                           "injected": hurt, "change": change,
                           "passed": passed})
            print(f"{inject:24s} {other:14s} bypass  baseline {thr0:9.0f} "
                  f"injected {thr1:9.0f} change {change:+.3f} (bound "
                  f"{bound})  {'ok' if passed else 'FAIL'}", flush=True)
    out = ROOT / ".perfbench_work" / "sensitivity.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print("sensitivity self-test:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
