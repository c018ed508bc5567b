"""Steadiness mode: run one workload N times and summarise each metric.

For every metric of the runs it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``, next to the metric's bound from
``BENCHMARK.json``; below them the same for the raw (unscaled)
wall-clock figures of the provenance line, for comparison.  The bounds there were set from this output: a
bound must stay well above the spread seen across seeds.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload compile-cold --runs 10
    python3 perfbench/steady.py --workload serve-mixed --runs 5 --first-seed 100 --trace 1
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import common

#: Raw wall-clock figures of the provenance line, summarised for comparison.
RAW = ("raw_setup_s", "raw_op_p50_s", "raw_op_p90_s", "calibration_median_s", "steal_share")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=common.ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"seed {seed} failed ({done.returncode}):\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("# provenance "):
            info = json.loads(line[len("# provenance "):])
            result["raw"] = {name: {"value": info[name], "unit": "s"}
                             for name in RAW if name in info}
    return result


def summarise(results: list[dict], bounds: dict, key: str = "metrics") -> list[str]:
    lines = [f"{'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
             f"{'bound':>7}  verdict"]
    for name in results[0].get(key, {}):
        values = [r[key][name]["value"] for r in results]
        unit = results[0][key][name]["unit"]
        mid = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
        spread = (q3 - q1) / mid if mid else float("inf") if q3 != q1 else 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound is not None and name != "setup_s":
            verdict = "steady" if spread < bound / 3 else (
                "within bound" if spread <= bound else "TOO WIDE")
        lines.append(f"{name:<32} {mid:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
                     f"{'' if bound is None else bound:>7}  {verdict} [{unit}]")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(args.workload, seed, seconds, args.trace)
        results.append(result)
        values = " ".join(f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()
                          if name in bounds)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)
    print(f"\n{args.workload}: {args.runs} runs of {seconds}s, trace={args.trace}")
    for line in summarise(results, bounds):
        print(line)
    if args.trace == 0:
        print("raw wall clock, for comparison (not gated):")
        for line in summarise(results, {}, key="raw")[1:]:
            print(line)
    return 0 if all(r["correct"] and r["failed"] == 0 for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
