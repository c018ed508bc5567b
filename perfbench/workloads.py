"""The four benchmark workloads.

Each workload is a closed loop driven by one load-generating process,
through the public API only: ``Session``/``CompiledModel``,
``ArtifactStore``, ``repro serve`` + ``Client``.  A workload runs its
seeded input sequence in whole *rounds* (every input of the pool once,
in a seeded order) until the run length and the minimum sample count
are both reached, so every seed measures the same work in another
order.  Output checks run outside the timed region.  Every time is
scaled to the reference host speed by a :class:`common.SpeedGauge`
sampled between operations.

compile-cold   one caller, ``Session(arch, cache=False).compile``
sweep-grid     the Fig. 7 grid on a fresh process-pool ``Session``
store-warm     ``Session(arch, store_path=warm)``: every stage from disk
serve-mixed    ``repro serve`` child + one ``Client``, 4 warm reads : 1 cold write
"""

from __future__ import annotations

import gc
import json
import random
import shutil
import subprocess
import sys
import tempfile
import time
import weakref
from typing import Any, Optional

import common
from tracing import SleepTracer, Tracer

#: Set-up is repeated this many times per run; setup_s is the median.
#: With 3, serve-mixed's setup_s moved 30% between seeds.
SETUP_REPEATS = 5
#: Operations a run times at least (a p90 needs 10 samples above it).
MIN_SAMPLES = 100
#: Gauge samples before each sweep: a sweep's cells are scaled by the
#: samples taken before it and before the next one.
SWEEP_GAUGE_SAMPLES = 5
#: Process-pool / server concurrency (the benchmark box has 2 cores).
WORKERS = 2
#: serve-mixed has one client: two clients sharing the two cores with
#: the server moved p50/p90 by 13-18% between seeds (IQR over median).
#: serve-mixed round: every warm pair once plus this many cold writes,
#: interleaved 4 warm : 1 cold.
SERVE_COLD_PER_ROUND = 3
#: Client poll interval.  The client's default 0.2 s rounds every
#: latency up to a 0.2 s step, so p50/p90 jump between steps from seed
#: to seed; at 10 ms the latency follows the server's work.
POLL_S = 0.01
#: Server-side result retention.  The default (an hour) would keep
#: every compiled model of the run in the server (about 1 GB).
RESULT_TTL_S = 5


class Outcome:
    """What one measured window produced."""

    def __init__(self) -> None:
        self.gauge = common.SpeedGauge()
        #: (start, end) of every completed operation, and of every
        #: stretch the caller spent waiting on operations.
        self.intervals: list[tuple[common.Stamp, common.Stamp]] = []
        self.waits: list[tuple[common.Stamp, common.Stamp]] = []
        #: Filled by :meth:`finish`: operation latencies and waiting
        #: time at the reference speed, and the raw latencies.
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.busy = 0.0
        #: Share of the waiting time the hypervisor ran other guests.
        self.steal_share = 0.0
        self.attempted = 0
        self.errors = 0
        self.wrong = 0
        self.degraded = 0
        self.notes: list[str] = []
        #: Pass timings of every operation (or cell) that reported them.
        self.timings: list[dict[str, float]] = []
        self.cache = [0, 0, 0]  # memory hits, store hits, misses
        self.sets = 0
        self.dep_edges = 0
        #: sweep-grid: attempts summed over cells; per-sweep overhead.
        self.attempts = 0
        self.overheads: list[float] = []
        #: serve-mixed: ``GET /v1/stats`` before and after the window.
        self.server_stats: tuple[dict, dict] = ({}, {})

    def record(self, start: common.Stamp, end: common.Stamp, waited: bool = True) -> None:
        """One completed operation; ``waited``: the caller waited on it."""
        self.intervals.append((start, end))
        if waited:
            self.waits.append((start, end))

    def finish(self) -> "Outcome":
        """Scale the recorded intervals to the reference speed."""
        self.gauge.sample()
        scaled = self.gauge.scaled
        self.raw_latencies = [end.wall - start.wall for start, end in self.intervals]
        stolen = sum(end.stolen - start.stolen for start, end in self.waits)
        waited = sum(end.wall - start.wall for start, end in self.waits)
        self.steal_share = stolen / waited if waited else 0.0
        self.latencies = [scaled(start, end) for start, end in self.intervals]
        self.busy = sum(scaled(start, end) for start, end in self.waits)
        return self

    def fail(self, kind: str, note: str) -> None:
        setattr(self, kind, getattr(self, kind) + 1)
        if len(self.notes) < 20:
            self.notes.append(note)

    @property
    def failed(self) -> int:
        return self.errors + self.wrong + self.degraded

    def add_failures(self, other: "Outcome") -> None:
        """Count ``other``'s operations and failures in this outcome."""
        self.attempted += other.attempted
        self.errors += other.errors
        self.wrong += other.wrong
        self.degraded += other.degraded
        self.notes += other.notes

    def ops_per_s(self) -> float:
        """Completed operations per second of waiting on them."""
        return len(self.latencies) / self.busy if self.busy else 0.0


def _import_repro() -> None:
    """Import ``repro`` in a fresh interpreter (a user's first step)."""
    subprocess.run(
        [sys.executable, "-c", "import repro"], env=common.child_env(), cwd=common.ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )


class Workload:
    """Base: seeded inputs, repeated set-up, checks against expected.json."""

    name = ""
    models: tuple[str, ...] = ()
    min_samples = MIN_SAMPLES
    #: Span name of one operation (the unit of latency).
    op_name = "op"
    #: Share of remote (worker/server) time that counts as attributed
    #: in the residue: workers run beside the driver, the server runs
    #: while the client already waits in an attributed span.
    remote_share = 0.0

    def __init__(self, seed: int, expected: dict) -> None:
        self.expected = expected["entries"]
        self.pe_min_expected = expected["pe_min"]
        self.rng = random.Random(seed)
        self.tracer: Optional[Tracer] = None
        self.seen: set[str] = set()
        self._scratch: list[str] = []

    # -- set-up --------------------------------------------------------

    def setup(self) -> list[tuple[common.Stamp, common.Stamp]]:
        """Run set-up SETUP_REPEATS times; setup_s is their median.

        Returns each set-up's (start, end).  They are scaled by the
        measured run's gauge: samples taken between set-ups would fall
        while the kernel still tears down the last one's server and
        store, which moved serve-mixed's setup_s by 25% between seeds.
        """
        # This process's own imports are not set-up (the import is timed
        # in a fresh interpreter); made here, they would land in the
        # first set-up only and make it an outlier.
        import repro.analysis.sweep  # noqa: F401
        import repro.exec  # noqa: F401
        import repro.models  # noqa: F401
        import repro.service  # noqa: F401

        spans = []
        for _ in range(SETUP_REPEATS):
            self.release()
            gc.collect()
            started = common.stamp()
            _import_repro()
            self.prepare()
            spans.append((started, common.stamp()))
        return spans

    def prepare(self) -> None:
        """Build and preprocess this workload's graphs."""
        from repro import minimum_pe_requirement, paper_case_study, preprocess
        from repro.models import build

        self.graphs = {m: preprocess(build(m), quantization=None).graph for m in self.models}
        crossbar = paper_case_study(1).crossbar
        self.pe_min = {m: minimum_pe_requirement(g, crossbar) for m, g in self.graphs.items()}
        for model, pes in self.pe_min.items():
            if pes != self.pe_min_expected[model]:
                raise RuntimeError(f"{model}: PE_min {pes} != {self.pe_min_expected[model]}")

    def scratch_dir(self, prefix: str) -> str:
        path = tempfile.mkdtemp(prefix=prefix, dir=str(common.OUT_DIR / "tmp"))
        self._scratch.append(path)
        return path

    def release(self) -> None:
        """Stop what set-up started and delete its scratch files."""
        while self._scratch:
            shutil.rmtree(self._scratch.pop(), ignore_errors=True)

    def warm_up(self) -> None:
        """Untimed first calls, so lazy imports are not measured."""

    def trace(self, tracer: Tracer) -> None:
        """Install this workload's wrappers on ``tracer``."""
        self.tracer = tracer
        wrap_core(tracer)

    # -- checks --------------------------------------------------------

    def check_compiled(self, out: Outcome, key: str, compiled: Any, label: str) -> None:
        """Check one compiled model: cheaply always, deeply once per key."""
        if self.check_result(out, key, compiled, label) and key not in self.seen:
            self.seen.add(key)
            self.check_deep(out, key, compiled, label)

    def check_result(self, out: Outcome, key: str, compiled: Any, label: str) -> bool:
        """Latency, set count and PE count against the reference entry."""
        want = self.expected.get(key)
        if want is None:
            out.fail("wrong", f"{label}: no expected entry {key}")
            return False
        problems = []
        if compiled.latency_cycles != want["latency_cycles"]:
            problems.append(f"latency {compiled.latency_cycles} != {want['latency_cycles']}")
        if common.num_sets(compiled) != want["num_sets"]:
            problems.append(f"sets {common.num_sets(compiled)} != {want['num_sets']}")
        if compiled.arch.num_pes != want["num_pes"]:
            problems.append(f"PEs {compiled.arch.num_pes} != {want['num_pes']}")
        if problems:
            out.fail("wrong", f"{label}: " + "; ".join(problems))
        return not problems

    def check_deep(self, out: Outcome, key: str, compiled: Any, label: str) -> None:
        """Start-cycle and artifact digests, edge count, static verifier."""
        from repro import verify_compiled

        want = self.expected[key]
        problems = []
        if common.starts_digest(compiled.schedule) != want["starts_sha256"]:
            problems.append("per-set start cycles differ")
        if common.artifact_digest(compiled) != want["artifact_sha256"]:
            problems.append("artifact JSON sha256 differs")
        if compiled.dependencies is not None and (
            common.dep_edges(compiled.dependencies) != want["dep_edges"]
        ):
            problems.append("dependency edge count differs")
        report = verify_compiled(compiled)
        if not report.ok:
            problems.append(f"verifier: {report.summary()}")
        if problems:
            out.fail("wrong", f"{label}: " + "; ".join(problems))
            return
        out.sets += common.num_sets(compiled)
        out.dep_edges += common.dep_edges(compiled.dependencies)

    # -- the measured loop ------------------------------------------------

    def run(self, seconds: float, min_samples: int, cap: float) -> Outcome:
        raise NotImplementedError

    def extra_layer_metrics(self, out: Outcome) -> dict[str, float]:
        return {}


def wrap_core(tracer: Tracer) -> None:
    """Wrap the compiler passes, kernels and simulator entry points."""
    from repro.core import passes, pipeline
    from repro.sim import energy, metrics
    from repro.store import ArtifactStore

    for cls in (passes.PreprocessPass, passes.TilePass, passes.MappingPass,
                passes.PlacementPass, passes.SetsPass, passes.DependenciesPass,
                passes.SchedulePass):
        tracer.wrap(cls, "run", f"core.pass.{cls.name}")
    tracer.wrap(pipeline, "determine_dependencies", "core.kernel.determine_dependencies")
    tracer.wrap(pipeline, "set_graph_arrays", "core.kernel.set_graph_arrays")
    tracer.wrap(passes, "set_graph_arrays", "core.kernel.set_graph_arrays")
    tracer.wrap(pipeline, "csr_dynamic_schedule", "core.kernel.schedule_kernel")
    tracer.wrap(pipeline, "csr_static_schedule", "core.kernel.schedule_kernel")
    tracer.wrap(pipeline, "tile_graph", "core.kernel.tile_graph")
    tracer.wrap(metrics, "evaluate", "sim.evaluate")
    tracer.wrap(energy, "estimate_energy", "sim.estimate_energy")
    note = _StoreNote()
    tracer.wrap(ArtifactStore, "get", "store.get", note=note)
    tracer.wrap(ArtifactStore, "put", "store.put", note=note)


class _StoreNote:
    """Span arguments of one store call: hit, digest, and the writes and
    corrupt reads this call added (store counters are per instance)."""

    def __init__(self) -> None:
        self.last: "weakref.WeakKeyDictionary[Any, tuple[int, int]]" = (
            weakref.WeakKeyDictionary()
        )

    def __call__(self, args: tuple, result: Any) -> dict:
        from repro.store import codec_for, key_digest

        store, stage, key = args[0], args[1], args[2]
        writes, corrupt = self.last.get(store, (0, 0))
        self.last[store] = (store.writes, store.corrupt)
        codec = codec_for(stage)
        return {
            "root": store.root,
            "hit": bool(result[0]) if isinstance(result, tuple) else bool(result),
            "wrote": store.writes - writes,
            "corrupt": store.corrupt - corrupt,
            "digest": None if codec is None else key_digest(key, codec.version),
        }


def _stop_when(out: Outcome, started: float, seconds: float, min_samples: int,
               cap: float) -> bool:
    """Whether a run that has finished a round is done."""
    samples = len(out.intervals)
    elapsed = time.perf_counter() - started
    if elapsed >= cap:
        out.notes.append(f"stopped at the {cap:.0f}s cap with {samples} samples")
        return True
    return elapsed >= seconds and samples >= min_samples


# ---------------------------------------------------------------------------
# compile-cold and store-warm


class CompileCold(Workload):
    """One caller compiling the seeded (model, PE_min + x) mix uncached."""

    name = "compile-cold"
    models = common.MIX_MODELS
    op_name = "compile"
    #: 5 rounds: with 4, p50 moved 9% between seeds.
    min_samples = 125

    def session(self, arch: Any) -> Any:
        from repro import Session

        return Session(arch, cache=False)

    def compile_once(self, out: Outcome, model: str, x: int, index: int) -> None:
        from repro import paper_case_study

        arch = paper_case_study(self.pe_min[model] + x)
        tracer = self.tracer
        out.gauge.settle_and_sample()
        span = tracer.begin(self.op_name, op=f"{model}+{x}#{index}") if tracer else None
        started = common.stamp()
        try:
            session = self.session(arch)
            compiled = session.compile(self.graphs[model], assume_canonical=True)
        except Exception as exc:  # a failed compile is counted, not fatal
            if span is not None:
                tracer.end(span)
            out.attempted += 1
            out.fail("errors", f"{model}+{x}: {type(exc).__name__}: {exc}")
            return
        ended = common.stamp()
        if span is not None:
            tracer.end(span)
        out.attempted += 1
        out.record(started, ended)
        out.timings.append(dict(compiled.timings))
        self.after_compile(out, session, compiled, model, x)

    def after_compile(self, out: Outcome, session: Any, compiled: Any, model: str,
                      x: int) -> None:
        self.check_compiled(out, common.pair_key(model, x), compiled, f"{model}+{x}")

    def warm_up(self) -> None:
        scratch = Outcome()
        for model in self.models:
            self.compile_once(scratch, model, common.PAPER_XS[0], -1)
        self.seen.clear()

    def run(self, seconds: float, min_samples: int, cap: float) -> Outcome:
        out = Outcome()
        sequence = common.rounds(common.MIX_PAIRS, self.rng)
        started = time.perf_counter()
        index = 0
        while True:
            for model, x in next(sequence):
                self.compile_once(out, model, x, index)
                index += 1
            if _stop_when(out, started, seconds, min_samples, cap):
                return out.finish()


def warm_store(path: str, pe_min: dict, pairs) -> None:
    """Compile ``pairs`` once into the store at ``path`` (process pool).

    Jobs name their model, so workers build and preprocess the raw
    graph and the store also holds the preprocess stage a server-side
    compile looks up first.
    """
    from repro import Session, paper_case_study
    from repro.exec import EvaluateJob, make_executor

    jobs = [EvaluateJob(graph=model, arch=paper_case_study(pe_min[model] + x),
                        want_energy=False) for model, x in pairs]
    executor = make_executor("process", jobs=WORKERS)
    try:
        with Session(paper_case_study(1), store_path=path, executor=executor) as session:
            for result in session.map(jobs, ordered=False):
                if not result.ok:
                    raise RuntimeError(f"warming {result.key}: {result.error}")
    finally:
        executor.shutdown(wait=True)


class StoreWarm(CompileCold):
    """The compile-cold mix, every stage served by a warmed disk store."""

    name = "store-warm"

    def prepare(self) -> None:
        super().prepare()
        self.store_dir = self.scratch_dir("warm-store-")
        warm_store(self.store_dir, self.pe_min, common.MIX_PAIRS)

    def session(self, arch: Any) -> Any:
        from repro import Session

        return Session(arch, store_path=self.store_dir)

    def after_compile(self, out: Outcome, session: Any, compiled: Any, model: str,
                      x: int) -> None:
        cache = session.cache
        out.cache[0] += cache.memory_hits
        out.cache[1] += cache.store_hits
        out.cache[2] += cache.misses
        if cache.misses:
            out.fail("errors", f"{model}+{x}: {cache.misses} cache miss(es) on a warm store")
            return
        super().after_compile(out, session, compiled, model, x)


# ---------------------------------------------------------------------------
# sweep-grid


class SweepGrid(Workload):
    """The Fig. 7 grid on a fresh process-pool Session per sweep."""

    name = "sweep-grid"
    models = common.SWEEP_MODELS
    #: 16 sweeps, 8 pairs of halves (a sweep is one pool start): with
    #: 12, p50 and p90 moved 9% between seeds; with 16, 2-3%.
    min_samples = 16 * 20
    op_name = "sweep"
    remote_share = 1.0 / WORKERS

    def trace(self, tracer: Tracer) -> None:
        from repro.exec import ProcessExecutor

        super().trace(tracer)
        tracer.wrap(ProcessExecutor, "prepare", "exec.pool_prepare")
        tracer.wrap(ProcessExecutor, "submit", "exec.submit")

    def sweep_once(self, out: Outcome, xs: tuple[int, ...], index: int) -> None:
        from repro import Session, paper_case_study
        from repro.analysis.sweep import ConfigPoint
        from repro.exec import SweepJob, make_executor

        tracer = self.tracer
        op = f"sweep#{index}"
        out.gauge.settle_and_sample(SWEEP_GAUGE_SAMPLES)
        span = tracer.begin(self.op_name, op=op) if tracer else None
        started = common.stamp()
        arrivals = []
        executor = make_executor("process", jobs=WORKERS)
        try:
            with Session(paper_case_study(1), executor=executor) as session:
                # Unordered: each cell streams back when it finishes.
                job = SweepJob(benchmarks=self.models, xs=xs)
                for result in session.map(job, ordered=False):
                    arrivals.append((common.stamp(), result))
        except Exception as exc:
            out.attempted += 1
            out.fail("errors", f"sweep {xs}: {type(exc).__name__}: {exc}")
            return
        finally:
            executor.shutdown(wait=True)
            if span is not None:
                tracer.end(span)
        ended = common.stamp()
        wall = ended.wall - started.wall
        out.waits.append((started, ended))
        worker_time = 0.0
        for arrived, result in arrivals:
            out.attempted += 1
            point = result.value
            if not result.ok or not isinstance(point, ConfigPoint):
                out.fail("errors", f"cell {result.key}: {result.error}")
                continue
            out.record(started, arrived, waited=False)
            out.timings.append(dict(result.timings))
            out.cache[0] += result.cache_memory_hits
            out.cache[1] += result.cache_store_hits
            out.cache[2] += result.cache_misses
            out.attempts += result.attempts
            baseline = point.config == "layer-by-layer"
            if not baseline:
                worker_time += sum(result.timings.values())
                if tracer is not None:
                    busy = sum(result.timings.values())
                    tracer.add_remote("exec.worker_passes", arrived.wall - busy, arrived.wall, op,
                                      cell=result.key, backend=result.backend)
            if not baseline and (result.backend != "process" or result.attempts != 1):
                out.fail("degraded", f"cell {result.key}: backend={result.backend} "
                                     f"attempts={result.attempts}")
                continue
            key = common.pair_key(point.benchmark, point.extra_pes, point.config)
            want = self.expected.get(key)
            if want is None or point.metrics.latency_cycles != want["latency_cycles"] or (
                point.metrics.num_pes != want["num_pes"]
            ):
                out.fail("wrong", f"cell {key}: latency {point.metrics.latency_cycles}")
        cells = 2 + 2 * len(xs)
        if len(arrivals) != cells * len(self.models):
            out.fail("errors", f"sweep {xs}: {len(arrivals)} cells streamed")
        driver = sum(
            sum(r.timings.values()) for _, r in arrivals
            if isinstance(r.value, ConfigPoint) and r.value.config == "layer-by-layer"
        )
        out.overheads.append(wall - driver - worker_time / WORKERS)

    def run(self, seconds: float, min_samples: int, cap: float) -> Outcome:
        out = Outcome()
        halves = common.sweep_xs_pairs(self.rng)
        started = time.perf_counter()
        index = 0
        while True:
            for xs in next(halves):
                self.sweep_once(out, xs, index)
                index += 1
            if _stop_when(out, started, seconds, min_samples, cap):
                out.gauge.sample(SWEEP_GAUGE_SAMPLES - 1)
                return out.finish()

    def extra_layer_metrics(self, out: Outcome) -> dict[str, float]:
        tracer = self.tracer
        sweeps = tracer.named("sweep")
        pool_start = []
        for sweep in sweeps:
            inside = [s for s in tracer.spans if s.op == sweep.op and not s.remote]
            prepares = [s for s in inside if s.name == "exec.pool_prepare"]
            submits = [s for s in inside if s.name == "exec.submit"]
            first = min(submits, key=lambda s: s.start) if submits else None
            pool_start.append(sum(s.duration for s in prepares)
                              + (first.duration if first else 0.0))
        return {
            "exec.pool_start_s": common.median(pool_start),
            "exec.overhead_s": common.median(out.overheads),
            "exec.attempts": out.attempts,
            "exec.degraded": out.degraded,
        }


# ---------------------------------------------------------------------------
# serve-mixed


class ServeMixed(Workload):
    """``repro serve`` child; one closed-loop client, 4 warm : 1 cold."""

    name = "serve-mixed"
    models = common.SERVE_MODELS
    op_name = "request"
    #: 8 rounds: every cold pair once.
    min_samples = 120

    def __init__(self, seed: int, expected: dict) -> None:
        super().__init__(seed, expected)
        self.server: Optional[subprocess.Popen] = None
        self.server_peak_mb = 0.0
        self._cold = list(common.SERVE_COLD_PAIRS)
        self.rng.shuffle(self._cold)

    def prepare(self) -> None:
        super().prepare()
        # Requests name zoo models; the client needs only PE_min.  Kept,
        # the graphs would make the collection before each request slow.
        self.graphs = {}
        store = self.scratch_dir("serve-store-")
        warm_store(store, self.pe_min, common.SERVE_WARM_PAIRS)
        self.server = self.start_server(store)

    def start_server(self, store: str) -> subprocess.Popen:
        from repro.service import Client

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--jobs", str(WORKERS), "--store", store,
             "--result-ttl", str(RESULT_TTL_S)],
            env=common.child_env(), cwd=common.ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        line = proc.stdout.readline() if proc.stdout else ""
        if not line.startswith("serving on "):
            proc.kill()
            proc.wait(timeout=30)
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.url = line.split("serving on ", 1)[1].strip()
        self.client = Client(self.url, timeout=60.0)
        self.client.health()
        return proc

    def release(self) -> None:
        if self.server is not None:
            self.server_peak_mb = max(self.server_peak_mb,
                                      common.process_peak_rss_mb(self.server.pid))
            self.server.terminate()
            try:
                self.server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait(timeout=30)
            if self.server.stdout is not None:
                self.server.stdout.close()
            self.server = None
        super().release()

    def trace(self, tracer: Tracer) -> None:
        from repro.service import Client, client

        super().trace(tracer)
        tracer.wrap(client, "encode_job", "wire.encode_job",
                    note=lambda args, result: {"bytes": len(json.dumps(result))})
        tracer.wrap(client, "decode_result", "wire.decode_result",
                    note=lambda args, result: {"bytes": len(json.dumps(args[0]))})
        tracer.wrap(Client, "submit_job", "http.submit")
        tracer.wrap(Client, "result", "http.result")
        tracer.replace(client, "time", SleepTracer(tracer, "client.poll_sleep"))

    def request_once(self, out: Outcome, model: str, x: int, cold: bool, index: int) -> None:
        from repro import paper_case_study

        arch = paper_case_study(self.pe_min[model] + x)
        tracer = self.tracer
        op = f"{'cold' if cold else 'warm'}:{model}+{x}#{index}"
        out.gauge.settle_and_sample()
        span = tracer.begin(self.op_name, op=op) if tracer else None
        started = common.stamp()
        try:
            handle = self.client.compile(model, arch=arch)
            result = handle.result(timeout=120, poll=POLL_S)
        except Exception as exc:
            if span is not None:
                tracer.end(span)
            out.attempted += 1
            out.fail("errors", f"{op}: {type(exc).__name__}: {exc}")
            return
        ended = common.stamp()
        if span is not None:
            tracer.end(span)
        out.attempted += 1
        if not result.ok:
            out.fail("errors", f"{op}: {result.error}")
            return
        out.record(started, ended)
        out.timings.append(dict(result.timings))
        out.cache[0] += result.cache_memory_hits
        out.cache[1] += result.cache_store_hits
        out.cache[2] += result.cache_misses
        if tracer is not None:
            status = self.client.status(handle.id)
            shift = tracer.clock_offset
            if status.get("started_at") and status.get("finished_at"):
                tracer.add_remote("service.queue_wait", status["submitted_at"] + shift,
                                  status["started_at"] + shift, op)
                tracer.add_remote("service.run", status["started_at"] + shift,
                                  status["finished_at"] + shift, op)
        if not cold and result.cache_misses:
            out.fail("errors", f"{op}: warm read missed the store {result.cache_misses}x")
        self.check_compiled(out, common.pair_key(model, x), result.value, op)

    def warm_up(self) -> None:
        scratch = Outcome()
        model, x = common.SERVE_WARM_PAIRS[0]
        self.request_once(scratch, model, x, False, -1)
        self.seen.clear()

    def requests(self):
        """The seeded request stream, one round per list."""
        for warm in common.rounds(common.SERVE_WARM_PAIRS, self.rng):
            step = len(warm) // SERVE_COLD_PER_ROUND
            round_ = []
            for i, pair in enumerate(warm):
                round_.append((pair, False))
                if (i + 1) % step == 0 and self._cold:
                    round_.append((self._cold.pop(), True))
            yield round_

    def run(self, seconds: float, min_samples: int, cap: float) -> Outcome:
        out = Outcome()
        stats_before = self.client.stats()
        started = time.perf_counter()
        index = 0
        for round_ in self.requests():
            for (model, x), cold in round_:
                self.request_once(out, model, x, cold, index)
                index += 1
            if _stop_when(out, started, seconds, min_samples, cap):
                break
        out.server_stats = (stats_before, self.client.stats())
        self.server_peak_mb = max(self.server_peak_mb,
                                  common.process_peak_rss_mb(self.server.pid))
        return out.finish()

    def extra_layer_metrics(self, out: Outcome) -> dict[str, float]:
        before, after = out.server_stats

        def delta(*path: str) -> float:
            a, b = before, after
            for part in path:
                a, b = a.get(part, {}), b.get(part, {})
            return float((b or 0) - (a or 0))

        return {
            "store.gets": delta("store", "session", "hits") + delta("store", "session", "misses"),
            "store.puts": delta("store", "session", "writes"),
            "store.corrupt": delta("store", "session", "corrupt"),
            "store.bytes_written": delta("store", "total_bytes"),
        }


WORKLOADS = {cls.name: cls for cls in (CompileCold, SweepGrid, StoreWarm, ServeMixed)}
