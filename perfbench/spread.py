"""Run-to-run spread of the benchmark over several seeds.

    python3 perfbench/spread.py --workload long_session --seeds 1-10

Runs `run.py --trace 0` for BENCHMARK.json's run_seconds once per seed, one
after another, and prints each run's metrics, then per metric the median,
the first and third quartiles and (Q3 - Q1) / median, flagged when it
exceeds a third of the metric's bound, plus the share of failed operations.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    results = []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=True,
        ).stdout
        result = json.loads(out.strip().split("\n")[-1])
        results.append(result)
        values = " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct {result['correct']} attempted {result['attempted']} "
              f"failed {result['failed']} {values}", flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        flag = ""
        if spread > bounds[name] / 3:
            flag = f"  > bound/3 ({bounds[name] / 3:.3f})"
        print(f"{name:<32} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.3f}{flag}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
