#!/usr/bin/env python
"""Columnar set-graph kernels vs the pure-Python reference paths.

Measures the Stage IV hot loops that run on the CSR set graph of
:mod:`repro.core.kernels`:

* **single-image** — FINEST-granularity dynamic cross-layer scheduling
  (what ``schedule_stage`` runs per config point: the scheduler plus
  its validation pass, for each engine);
* **batch** — the pipelined batch scheduler at ``--batch`` inferences,
  measured symmetrically to the single-image workload: each engine's
  scheduler plus its validator (``assert_batch_schedule`` for the
  reference, the vectorized array checks for the kernels);
* **stage2** — Stage II itself: the per-set reference walk
  (``determine_dependencies(..., use_index=False)``) vs the array pass
  that writes the CSR directly, with a flag that both produced the same
  ``indptr``/``indices`` array for array (edge order included).

Methodology: every (workload, engine) measurement runs in a **fresh
subprocess** with the collector in its default state, so one engine's
heap (the reference allocates one ``SetTask`` plus dict entries per
scheduled set; at batch 32 that is hundreds of thousands of objects)
never inflates the other's collection pauses.  Within a process the
timing is best-of-``--repeats`` with a collection before each run.

The one-time assembly of the kernel-side columns (reverse CSR,
per-gid columns and their list views) is timed separately
(``csr_build_s``): it is built once per compile and shared by the
static/dynamic/batch schedulers and the simulator replay.  The
headline ``speedup`` compares steady-state scheduling work
(reference / kernel); ``speedup_incl_build`` charges the whole
assembly to a single kernel run.

Writes ``BENCH_kernels.json`` (repo root by default) — the first entry
of the repo's recorded perf trajectory — and exits non-zero when the
kernels miss their bar: faster-than-reference in ``--quick`` mode
(the CI smoke gate), the acceptance thresholds (>= 5x single-image,
>= 10x batch) in full mode.  Both modes also fail when the Stage II
array pass is not faster than the reference walk or its edges differ.

Usage::

    python benchmarks/bench_kernels.py            # full: tinyyolov3, batch 32
    python benchmarks/bench_kernels.py --quick    # CI smoke: tinyyolov4, batch 8
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)


def best_of(fn, repeats: int) -> float:
    """Minimum wall-clock seconds of ``repeats`` runs of ``fn``.

    The collector stays *enabled* — collection pressure from per-set
    object churn is part of what the columnar kernels eliminate — but
    each run starts from a collected heap.
    """
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _compile(model: str):
    from repro.arch import paper_case_study
    from repro.core import ScheduleOptions, compile_model
    from repro.frontend import preprocess
    from repro.mapping import minimum_pe_requirement
    from repro.models import build

    canonical = preprocess(build(model), quantization=None).graph
    min_pes = minimum_pe_requirement(canonical, paper_case_study(1).crossbar)
    arch = paper_case_study(min_pes + 16)
    return compile_model(canonical, arch, ScheduleOptions(), assume_canonical=True)


def run_worker(spec: dict) -> None:
    """Measure one (workload, engine) pair; print a JSON result line."""
    from repro.core import (
        cross_layer_schedule_batch,
        cross_layer_schedule_dynamic,
        csr_batch_schedule,
        csr_dynamic_schedule,
    )
    from repro.core import SetGraphArrays, determine_dependencies
    from repro.verify import assert_batch_schedule, assert_schedule

    compiled = _compile(spec["model"])
    dependencies = compiled.dependencies
    mapped = compiled.mapped
    repeats = spec["repeats"]
    batch_size = spec["batch"]
    result = {
        "num_sets": dependencies.num_sets(),
        "num_edges": dependencies.edge_count(),
        "num_layers": len(dependencies.sets),
    }

    if spec["workload"] == "stage2":
        use_index = spec["engine"] == "csr"  # the array pass; else the reference walk
        built = []
        result["seconds"] = best_of(
            lambda: built.append(
                determine_dependencies(mapped, compiled.sets, use_index=use_index)
            ),
            repeats,
        )
        csr = built[-1].arrays
        result["csr_sha256"] = hashlib.sha256(
            csr.indptr.astype("<i8").tobytes() + csr.indices.astype("<i8").tobytes()
        ).hexdigest()
        print(json.dumps(result))
        return

    if spec["engine"] == "csr":
        started = time.perf_counter()
        arrays = SetGraphArrays.from_csr(
            dependencies.sets, dependencies.arrays.indptr, dependencies.arrays.indices
        )
        arrays.as_lists()
        result["build_s"] = time.perf_counter() - started
        if spec["workload"] == "single":
            fn = lambda: csr_dynamic_schedule(arrays)  # noqa: E731
        else:
            fn = lambda: csr_batch_schedule(  # noqa: E731
                arrays, batch_size, validate=True
            )
    else:
        if spec["workload"] == "single":
            fn = lambda: assert_schedule(  # noqa: E731
                cross_layer_schedule_dynamic(mapped, dependencies), dependencies
            )
        else:

            def fn() -> None:
                result_batch = cross_layer_schedule_batch(
                    mapped, dependencies, batch_size, engine="python"
                )
                assert_batch_schedule(result_batch, dependencies)

    result["seconds"] = best_of(fn, repeats)
    print(json.dumps(result))


def measure(model: str, workload: str, engine: str, batch: int, repeats: int) -> dict:
    """Run one measurement in a fresh subprocess and parse its result."""
    spec = {
        "model": model,
        "workload": workload,
        "engine": engine,
        "batch": batch,
        "repeats": repeats,
    }
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker", json.dumps(spec)],
        capture_output=True,
        text=True,
        check=True,
        cwd=str(REPO_ROOT),
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench_model(model: str, batch_size: int, repeats: int) -> dict:
    """Benchmark both engines on one model; returns the JSON record."""
    results = {
        # The single-image measurement is milliseconds long: give it
        # more repeats so best-of is robust to scheduler jitter.
        (workload, engine): measure(
            model,
            workload,
            engine,
            batch_size,
            repeats * 4 if workload == "single" else repeats,
        )
        for workload in ("single", "batch", "stage2")
        for engine in ("python", "csr")
    }
    sample = results[("single", "csr")]
    build_s = max(
        results[("single", "csr")]["build_s"], results[("batch", "csr")]["build_s"]
    )

    def section(workload: str) -> dict:
        python_s = results[(workload, "python")]["seconds"]
        csr_s = results[(workload, "csr")]["seconds"]
        return {
            "python_s": round(python_s, 6),
            "csr_s": round(csr_s, 6),
            "speedup": round(python_s / csr_s, 2),
            "speedup_incl_build": round(python_s / (csr_s + build_s), 2),
        }

    record = {
        "model": model,
        "num_sets": sample["num_sets"],
        "num_edges": sample["num_edges"],
        "num_layers": sample["num_layers"],
        "csr_build_s": round(build_s, 6),
        "single_image": section("single"),
        "batch": {"batch_size": batch_size, **section("batch")},
        "stage2": {
            "reference_s": round(results[("stage2", "python")]["seconds"], 6),
            "array_pass_s": round(results[("stage2", "csr")]["seconds"], 6),
            "speedup": round(
                results[("stage2", "python")]["seconds"]
                / results[("stage2", "csr")]["seconds"],
                2,
            ),
            "identical_edges": results[("stage2", "python")]["csr_sha256"]
            == results[("stage2", "csr")]["csr_sha256"],
        },
    }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: tinyyolov4 at batch 8, fewer repeats, gate only "
             "on csr-not-slower-than-python",
    )
    parser.add_argument(
        "--model", default=None,
        help="override the benchmark model (default: tinyyolov3, "
             "or tinyyolov4 with --quick)",
    )
    parser.add_argument("--batch", type=int, default=None, metavar="N",
                        help="batch size (default: 32, or 8 with --quick)")
    parser.add_argument("--repeats", type=int, default=None, metavar="N",
                        help="timing repeats, best-of (default: 5, 2 quick)")
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_kernels.json"),
        help="output JSON path (default: repo-root BENCH_kernels.json)",
    )
    parser.add_argument("--no-check", action="store_true",
                        help="record timings without gating on thresholds")
    parser.add_argument("--worker", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker is not None:
        run_worker(json.loads(args.worker))
        return 0

    model = args.model or ("tinyyolov4" if args.quick else "tinyyolov3")
    batch_size = args.batch or (8 if args.quick else 32)
    repeats = args.repeats or (2 if args.quick else 5)

    record = {
        "benchmark": "scheduling-kernels",
        "mode": "quick" if args.quick else "full",
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
        "workloads": [bench_model(model, batch_size, repeats)],
    }

    out_path = Path(args.out)
    out_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    workload = record["workloads"][0]
    single = workload["single_image"]
    batch = workload["batch"]
    print(
        f"{model}: {workload['num_sets']} sets, {workload['num_edges']} edges "
        f"(CSR column build {workload['csr_build_s'] * 1e3:.1f} ms)"
    )
    print(
        f"  single-image dynamic: python {single['python_s'] * 1e3:8.1f} ms | "
        f"csr {single['csr_s'] * 1e3:7.1f} ms | {single['speedup']:.1f}x"
    )
    print(
        f"  batch-{batch['batch_size']:<2} pipeline:    "
        f"python {batch['python_s'] * 1e3:8.1f} ms | "
        f"csr {batch['csr_s'] * 1e3:7.1f} ms | {batch['speedup']:.1f}x"
    )
    stage2 = workload["stage2"]
    print(
        f"  stage II:             "
        f"python {stage2['reference_s'] * 1e3:8.1f} ms | "
        f"csr {stage2['array_pass_s'] * 1e3:7.1f} ms | {stage2['speedup']:.1f}x "
        f"(edges {'identical' if stage2['identical_edges'] else 'DIFFER'})"
    )
    print(f"wrote {out_path}")

    if args.no_check:
        return 0
    if not stage2["identical_edges"] or stage2["speedup"] <= 1.0:
        print(
            "FAIL: the Stage II array pass differs from the reference walk "
            "or is not faster",
            file=sys.stderr,
        )
        return 1
    if args.quick:
        ok = single["speedup"] >= 1.0 and batch["speedup"] >= 1.0
        if not ok:
            print("FAIL: csr engine slower than the python reference", file=sys.stderr)
        return 0 if ok else 1
    ok = single["speedup"] >= 5.0 and batch["speedup"] >= 10.0
    if not ok:
        print(
            "FAIL: below acceptance thresholds (>= 5x single-image, >= 10x batch)",
            file=sys.stderr,
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
