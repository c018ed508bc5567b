"""Generate ``expected.json``: the reference outputs the benchmark checks.

Every (model, architecture, configuration) a workload can draw is
compiled here through the repository's reference paths, not the fast
path the benchmark times: Stage II by the all-pairs scan
(``determine_dependencies(..., use_index=False)``) and Stage III/IV by
the pure-Python scheduler (``ScheduleOptions(engine="python")``).
Each entry records the latency in cycles, the set and dependency-edge
counts, and a digest of every set's start cycle.  Entries the benchmark
compiles whole also record the digest of the artifact JSON (without
timings and diagnostics) from the default ``Session`` path, so a later
run can show the artifact repeats bit for bit.

Usage (from the repository root; takes a few minutes)::

    python3 perfbench/oracle.py            # rewrite perfbench/expected.json
    python3 perfbench/oracle.py --check    # recompute, compare, write nothing
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import common


def reference(canonical, arch, mapping: str, scheduling: str):
    """Compile through the reference stage paths: (schedule, sets, deps)."""
    from repro.core import (
        ScheduleOptions,
        determine_dependencies,
        duplication_stage,
        schedule_stage,
        sets_stage,
    )

    options = ScheduleOptions(mapping=mapping, scheduling=scheduling, engine="python")
    mapped = canonical
    if mapping == "wdup":
        mapped = duplication_stage(canonical, arch, options)[1].graph
    sets = sets_stage(mapped, options.granularity)
    deps = None
    if scheduling == "clsa-cim":
        deps = determine_dependencies(mapped, sets, use_index=False)
    return schedule_stage(mapped, sets, deps, options), sets, deps


def entry(canonical, base_pes: int, model: str, x: int, config: str, whole: bool) -> dict:
    from repro import Session, paper_case_study
    from repro.core import ScheduleOptions

    _, mapping, scheduling, _ = next(c for c in common.SWEEP_CONFIGS if c[0] == config)
    arch = paper_case_study(base_pes + x)
    schedule, sets, deps = reference(canonical, arch, mapping, scheduling)
    record = {
        "model": model,
        "x": x,
        "config": config,
        "num_pes": arch.num_pes,
        "latency_cycles": int(schedule.makespan),
        "num_sets": sum(len(rects) for rects in sets.values()),
        "dep_edges": common.dep_edges(deps),
        "starts_sha256": common.starts_digest(schedule),
    }
    if whole:
        options = ScheduleOptions(mapping=mapping, scheduling=scheduling)
        compiled = Session(arch, cache=False).compile(canonical, options, assume_canonical=True)
        record["artifact_sha256"] = common.artifact_digest(compiled)
        if compiled.latency_cycles != record["latency_cycles"]:
            print(f"  WARNING {model} x={x}: default path disagrees with reference",
                  file=sys.stderr)
    return record


def generate() -> dict:
    from repro import minimum_pe_requirement, paper_case_study, preprocess
    from repro.models import benchmark_by_name, build

    wanted: list[tuple[str, int, str, bool]] = []
    wanted += [(m, x, "wdup+xinf", True) for m, x in common.MIX_PAIRS]
    wanted += [(m, x, "wdup+xinf", True) for m, x in common.SERVE_COLD_PAIRS]
    for model in common.SWEEP_MODELS:
        for config, _, _, uses_x in common.SWEEP_CONFIGS:
            for x in common.SWEEP_XS_POOL if uses_x else (0,):
                wanted.append((model, x, config, False))

    canonicals, pe_min, sweep_base = {}, {}, {}
    entries: dict[str, dict] = {}
    for model, x, config, whole in wanted:
        if model not in canonicals:
            canonicals[model] = preprocess(build(model), quantization=None).graph
            pe_min[model] = minimum_pe_requirement(
                canonicals[model], paper_case_study(1).crossbar
            )
        key = common.pair_key(model, x, config)
        if key in entries:
            continue
        # The compile workloads use the computed PE_min; the sweep grid
        # uses the Table II value (identical for the sweep models).
        base = pe_min[model]
        if not whole:
            base = sweep_base.setdefault(model, benchmark_by_name(model).min_pes)
        started = time.perf_counter()
        entries[key] = entry(canonicals[model], base, model, x, config, whole)
        print(f"  {key}: {entries[key]['latency_cycles']} cycles "
              f"({time.perf_counter() - started:.1f}s)", file=sys.stderr)
    return {
        "about": "Reference outputs of perfbench (see perfbench/oracle.py).",
        "pe_min": pe_min,
        "entries": entries,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed file; write nothing")
    args = parser.parse_args(argv)
    common.use_checkout()
    fresh = generate()
    if args.check:
        same = fresh == common.load_expected()
        print("expected.json matches" if same else "expected.json DIFFERS")
        return 0 if same else 1
    with open(common.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(fresh, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(fresh['entries'])} entries to {common.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
