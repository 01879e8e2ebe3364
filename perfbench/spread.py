"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads infer events --seeds 1 2 3 4 5 [--trace 0]

For every workload and metric it prints the median, the quartiles, and the
spread (q3 - q1) / median as ``statistics.quantiles(values, n=4)`` gives
them, next to the metric's bound from ``BENCHMARK.json``.  Each run is a
separate process, exactly as the benchmark is run, for the ``run_seconds``
of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from benchlib import quartile_spread

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric.get("bound") for metric in spec["end_to_end"]}

    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append(result)
            values = {name: round(metric["value"], 4)
                      for name, metric in result["metrics"].items()}
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"wall={result['wall_s']:.1f}s {values}", flush=True)
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs]
            if len(values) < 2:
                continue
            spread = quartile_spread(values)
            bound = bounds.get(name)
            print(f"  {workload:9s} {name:24s} median={spread['median']:.6g} "
                  f"q1={spread['q1']:.6g} q3={spread['q3']:.6g} "
                  f"spread={spread['spread']:.4f}"
                  + (f" bound={bound} (spread/bound={spread['spread'] / bound:.2f})"
                     if bound else ""), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
