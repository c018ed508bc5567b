"""The repository's benchmark: one workload, one seed, every metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 15 --trace 0

Workloads: compile-cold, sweep-grid, store-warm, serve-mixed (see
``README.md``).  With ``--trace 0`` the last line of standard output is
one JSON object carrying the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` it carries the per-layer metrics, taken from a
separate traced run that also writes a Chrome trace under
``perfbench/out/`` and prints a self-time summary per layer.  Times of
the end-to-end metrics are seconds at the reference host speed (see
``common.SpeedGauge``); the raw wall-clock figures are in the
provenance line.  Lines
before the last one start with ``#`` and carry provenance, the sample
count and any failed checks.  Every output is checked against
``expected.json`` (see ``oracle.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import sys
import time
from pathlib import Path

import common

PASSES = ("preprocess", "tile", "mapping", "place", "sets", "deps", "schedule")
#: No run measures longer than this, whatever the sample count.  Runs
#: stop on their sample minimum long before it; the cap only bounds a
#: run on a pathologically slow host.
MAX_WINDOW_S = 90.0


def parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("compile-cold", "sweep-grid", "store-warm", "serve-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: one set-up, one round")
    parser.add_argument("--expected", type=Path, default=common.EXPECTED_PATH,
                        help="reference outputs to check against")
    return parser.parse_args(argv)


def source_digest() -> str:
    """sha256 over the ``src/repro`` tree (provenance without git)."""
    digest = hashlib.sha256()
    for path in sorted((common.SRC / "repro").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".cfg"):
            digest.update(str(path.relative_to(common.SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str:
    head = common.ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (common.ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def provenance(args, window: float) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "run_seconds": args.seconds,
        "measured_seconds": round(window, 3),
    }


def end_to_end(workload, setup: list[float], out) -> dict:
    latencies = out.latencies or [0.0]
    rss = common.peak_rss_mb() + getattr(workload, "server_peak_mb", 0.0)
    return {
        "setup_s": (common.median(setup), "s"),
        "op_p50_s": (common.median(latencies), "s"),
        "op_p90_s": (common.p90(latencies), "s"),
        "ops_per_s": (out.ops_per_s(), "1/s"),
        "success_rate": (1.0 - out.failed / max(1, out.attempted), "fraction"),
        "peak_rss_mb": (rss, "MB"),
    }


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def per_layer(workload, out, tracer, overhead_share: float) -> dict:
    spans = [s for s in tracer.spans if not s.remote]

    def durations(*names):
        return [s.duration for s in spans if s.name in names]

    def remote(name):
        return [s.duration for s in tracer.spans if s.remote and s.name == name]

    self_of = tracer.self_time_per_span()
    metrics = {}
    ops = max(1, len(out.timings))
    for name in PASSES:
        metrics[f"core.pass.{name}_s"] = (sum(t.get(name, 0.0) for t in out.timings) / ops, "s")
    metrics["core.sets"] = (out.sets, "count")
    metrics["core.dep_edges"] = (out.dep_edges, "count")
    for name in ("determine_dependencies", "set_graph_arrays", "schedule_kernel"):
        metrics[f"core.kernel.{name}_s"] = (_mean(durations(f"core.kernel.{name}")), "s")
    metrics["sim.evaluate_s"] = (_mean(durations("sim.evaluate")), "s")

    memory, store_hits, misses = out.cache
    lookups = memory + store_hits + misses
    metrics["cache.memory_hits"] = (memory, "count")
    metrics["cache.store_hits"] = (store_hits, "count")
    metrics["cache.misses"] = (misses, "count")
    metrics["cache.hit_ratio"] = ((memory + store_hits) / lookups if lookups else 0.0, "fraction")

    gets = [s for s in spans if s.name == "store.get"]
    puts = [s for s in spans if s.name == "store.put"]
    sizes = _entry_sizes({s.args["root"] for s in gets + puts})
    store = {
        "store.get_s": (_mean(s.duration for s in gets), "s"),
        "store.gets": (len(gets), "count"),
        "store.put_s": (_mean(s.duration for s in puts), "s"),
        "store.puts": (sum(s.args["wrote"] for s in puts), "count"),
        "store.bytes_read": (sum(sizes.get(s.args["digest"], 0) for s in gets
                                 if s.args["hit"]), "bytes"),
        "store.bytes_written": (sum(sizes.get(s.args["digest"], 0) for s in puts
                                    if s.args["wrote"]), "bytes"),
        "store.corrupt": (sum(s.args["corrupt"] for s in gets), "count"),
    }
    metrics.update(store)

    metrics["exec.pool_start_s"] = (0.0, "s")
    metrics["exec.overhead_s"] = (0.0, "s")
    metrics["exec.attempts"] = (0, "count")
    metrics["exec.degraded"] = (out.degraded, "count")

    requests = tracer.named("request")
    http = [i for i, s in enumerate(tracer.spans)
            if not s.remote and s.name in ("http.submit", "http.result")]
    encodes = [s for s in spans if s.name == "wire.encode_job"]
    decodes = [s for s in spans if s.name == "wire.decode_result"]
    metrics["wire.encode_s"] = (_mean(s.duration for s in encodes), "s")
    metrics["wire.decode_s"] = (_mean(s.duration for s in decodes), "s")
    metrics["wire.request_bytes"] = (_mean(s.args["bytes"] for s in encodes), "bytes")
    metrics["wire.result_bytes"] = (_mean(s.args["bytes"] for s in decodes), "bytes")
    metrics["http.request_s"] = (_mean(self_of[i] for i in http), "s")
    metrics["http.requests_per_job"] = (len(http) / len(requests) if requests else 0.0, "count")
    metrics["client.poll_sleep_s"] = (
        sum(durations("client.poll_sleep")) / len(requests) if requests else 0.0, "s")
    metrics["service.queue_wait_s"] = (_mean(remote("service.queue_wait")), "s")
    metrics["service.run_s"] = (_mean(remote("service.run")), "s")

    units = {name: unit for name, (_, unit) in metrics.items()}
    for name, value in workload.extra_layer_metrics(out).items():
        metrics[name] = (value, units[name])

    residue, wall = tracer.unattributed(workload.op_name, workload.remote_share)
    metrics["trace.unattributed_share"] = (residue / wall if wall else 0.0, "fraction")
    metrics["trace.overhead_share"] = (overhead_share, "fraction")
    return metrics


def _entry_sizes(roots) -> dict:
    """digest -> entry bytes, from each store's publish journal."""
    from repro.store import ArtifactStore

    sizes = {}
    for root in roots:
        for record in ArtifactStore(root).index():
            sizes[record["digest"]] = record.get("bytes", 0)
    return sizes


def report_trace(workload, tracer, out, overhead_share: float, path: Path) -> None:
    """Print the per-layer self-time summary and residue of a traced run."""
    from tracing import layer_of

    by_layer: dict[str, float] = {}
    for name, seconds in tracer.self_times().items():
        by_layer[layer_of(name)] = by_layer.get(layer_of(name), 0.0) + seconds
    remote: dict[str, float] = {}
    for span in tracer.spans:
        if span.remote:
            remote[span.name] = remote.get(span.name, 0.0) + span.duration
    wall = sum(s.duration for s in tracer.named(workload.op_name))
    print(f"# trace {workload.name}: {len(tracer.spans)} spans, "
          f"{len(tracer.named(workload.op_name))} {workload.op_name} ops, "
          f"{wall:.3f}s in ops -> {path}")
    print("# self time per layer (in-process spans):")
    for layer, seconds in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print(f"#   {layer:<28} {seconds:9.4f} s  {seconds / wall if wall else 0:6.1%}")
    if remote:
        print("# remote time (envelopes / job status; overlaps the ops above):")
        for name, seconds in sorted(remote.items(), key=lambda kv: -kv[1]):
            print(f"#   {name:<28} {seconds:9.4f} s")
    residue, op_wall = tracer.unattributed(workload.op_name, workload.remote_share)
    print(f"# unattributed residue: {residue:.4f} s of {op_wall:.4f} s "
          f"({residue / op_wall if op_wall else 0:.1%})")
    print(f"# tracing overhead: {overhead_share:+.1%} mean op latency vs an untraced round")


def main(argv=None) -> int:
    args = parse(argv)
    # A terminated run still stops its server child and pools.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    common.use_checkout()
    import workloads

    expected = common.load_expected(args.expected)
    workload = workloads.WORKLOADS[args.workload](args.seed, expected)
    seconds, min_samples = args.seconds, workload.min_samples
    if args.tiny:
        workloads.SETUP_REPEATS = 1
        seconds, min_samples = 0.0, 1
    # Every run measures at least the sample minimum, in whole rounds,
    # so a slow host measures the same work as a fast one.
    cap = MAX_WINDOW_S
    tracer = None
    try:
        setup_spans = workload.setup()
        workload.warm_up()
        overhead_share = 0.0
        if args.trace:
            from tracing import Tracer

            # The first round after set-up runs slower (allocator and
            # page-cache growth); the overhead baseline is the second.
            first = workload.run(0.0, 1, cap)
            untraced = workload.run(0.0, 1, cap)
            untraced.add_failures(first)
            tracer = Tracer()
            workload.trace(tracer)
        workload.seen.clear()
        started = time.perf_counter()
        out = workload.run(seconds, min_samples, cap)
        window = time.perf_counter() - started
        if tracer is not None:
            tracer.uninstall()
            base = _mean(untraced.latencies)
            overhead_share = _mean(out.latencies) / base - 1.0 if base else 0.0
            out.add_failures(untraced)
        setup = [out.gauge.scaled(start, end, overall=True) for start, end in setup_spans]
        if args.trace:
            metrics = per_layer(workload, out, tracer, overhead_share)
        else:
            metrics = end_to_end(workload, setup, out)
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.release()

    info = provenance(args, window)
    raw = out.raw_latencies or [0.0]
    setup_raw = [end.wall - start.wall for start, end in setup_spans]
    info.update(samples=len(out.latencies), attempted=out.attempted, failed=out.failed,
                wrong=out.wrong, degraded=out.degraded,
                error_rate=out.failed / max(1, out.attempted),
                setup_samples_s=[round(s, 4) for s in setup],
                raw_setup_samples_s=[round(s, 4) for s in setup_raw],
                raw_setup_s=round(common.median(setup_raw), 4),
                raw_op_p50_s=round(common.median(raw), 5),
                raw_op_p90_s=round(common.p90(raw), 5),
                calibration_median_s=round(out.gauge.median_s(), 6),
                steal_share=round(out.steal_share, 4),
                calibration_samples=len(out.gauge.seconds))
    print("# provenance " + json.dumps(info, sort_keys=True))
    for note in out.notes:
        print(f"# check: {note}")
    if tracer is not None:
        path = common.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write_chrome(path, info)
        report_trace(workload, tracer, out, overhead_share, path)
    result = {
        "correct": out.wrong == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
