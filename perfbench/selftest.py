"""Self-test of the benchmark at tiny size.

Checks, for every workload in ``BENCHMARK.json`` and store-warm:

- ``run.py --tiny`` prints a result line with exactly the keys
  ``correct``, ``attempted``, ``failed`` and ``metrics``, reports no
  failure, and prints every end-to-end (``--trace 0``) or per-layer
  (``--trace 1``) metric with the unit ``BENCHMARK.json`` gives it;

and, once:

- a corrupted expected latency and a corrupted start-cycle digest are
  both caught (``correct`` false, two failed operations);
- in a directory holding only ``BENCHMARK.json`` and ``perfbench/``
  the benchmark exits non-zero without printing a result.

Usage (from the repository root; takes about three minutes)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import common

RUN = ["perfbench/run.py", "--seed", "3", "--seconds", "1"]
#: Workloads ``run.py`` accepts beyond those of BENCHMARK.json (README.md).
EXTRA_WORKLOADS = ("store-warm",)


def run(args: list[str], cwd: Path = common.ROOT) -> tuple[int, list[str]]:
    done = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)
    return done.returncode, done.stdout.strip().splitlines()


def result_of(lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    return result


def check_metrics(result: dict, wanted: list[dict], label: str) -> None:
    printed = result["metrics"]
    names = [m["name"] for m in wanted]
    if sorted(printed) != sorted(names):
        raise AssertionError(f"{label}: metrics {sorted(set(printed) ^ set(names))} "
                             "printed but not in BENCHMARK.json, or the reverse")
    for metric in wanted:
        entry = printed[metric["name"]]
        if entry["unit"] != metric["unit"] or not isinstance(entry["value"], (int, float)):
            raise AssertionError(f"{label}: {metric['name']} printed as {entry}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{label}: correct={result['correct']} "
                             f"failed={result['failed']} attempted={result['attempted']}")


def corrupted_expected_is_caught(scratch: Path) -> None:
    expected = common.load_expected()
    first, second = (common.pair_key(m, x) for m, x in common.MIX_PAIRS[:2])
    expected["entries"][first]["latency_cycles"] += 1
    expected["entries"][second]["starts_sha256"] = "0" * 64
    path = scratch / "corrupt-expected.json"
    path.write_text(json.dumps(expected))
    code, lines = run(RUN + ["--workload", "compile-cold", "--trace", "0", "--tiny",
                             "--expected", str(path)])
    result = result_of(lines)
    if code != 0 or result["correct"] or result["failed"] != 2:
        raise AssertionError(f"corrupted expected values not caught: {result}")


def fails_without_source(scratch: Path) -> None:
    bare = scratch / "bare"
    shutil.copy(common.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(common.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines = run(RUN + ["--workload", "compile-cold", "--trace", "0"], cwd=bare)
    if code == 0 or (lines and lines[-1].startswith("{")):
        raise AssertionError(f"bare directory: exit {code}, output {lines[-1:]}")


def main() -> int:
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    for workload in [w["name"] for w in bench["workloads"]] + list(EXTRA_WORKLOADS):
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            label = f"{workload} --trace {trace}"
            code, lines = run(RUN + ["--workload", workload, "--trace", str(trace), "--tiny"])
            if code != 0:
                raise AssertionError(f"{label}: exit {code}")
            check_metrics(result_of(lines), wanted, label)
            print(f"ok  {label}", flush=True)
    common.OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=common.OUT_DIR) as tmp:
        scratch = Path(tmp)
        (scratch / "bare").mkdir()
        corrupted_expected_is_caught(scratch)
        print("ok  corrupted expected values are caught", flush=True)
        fails_without_source(scratch)
        print("ok  fails in a directory without the source tree", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
