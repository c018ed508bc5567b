"""Shared definitions of the benchmark: paths, input pools, digests, stats.

Everything here is imported by the driver (``run.py``), the oracle
generator (``oracle.py``) and the tools around them, so the input
pools the workloads draw from and the expected values that check them
are defined in one place.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Iterable, NamedTuple, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space of one checkout: traces, temporary stores, tmp files.
OUT_DIR = BENCH_DIR / "out"
EXPECTED_PATH = BENCH_DIR / "expected.json"

#: The paper's extra-PE values (``repro.analysis.sweep.PAPER_XS``);
#: restated so the pools below can be built before ``repro`` imports.
PAPER_XS = (4, 8, 16, 32)

#: compile-cold / store-warm mix: every (model, x) pair is drawn once
#: per round, in a seeded order, so each seed measures the same work.
#: x = 2 joins the paper's values to make 25 pairs: with equal counts
#: per pair, p50 and p90 then fall in the middle of one pair's samples
#: (rank fractions 12.5/25 and 22.5/25) instead of on the edge between
#: two pairs of different cost, where they would jump between runs.
MIX_MODELS = ("tinyyolov3", "tinyyolov4", "resnet50", "vgg16", "resnet152")
MIX_XS = (2,) + PAPER_XS
MIX_PAIRS = tuple((model, x) for model in MIX_MODELS for x in MIX_XS)
#: serve-mixed warm reads: three mid-size models at the paper's values.
#: tinyyolov3 and resnet152 are left out: their results take 0.3-0.8 s
#: to ship, so with them p90 fell among a few large, noisy reads
#: and moved 30% between seeds.
SERVE_MODELS = ("tinyyolov4", "resnet50", "vgg16")
SERVE_WARM_PAIRS = tuple((model, x) for model in SERVE_MODELS for x in PAPER_XS)

#: sweep-grid: two models; each pair of sweeps splits this pool of
#: extra-PE values into two halves of four, so every pair of sweeps
#: covers the same cells.
SWEEP_MODELS = ("tinyyolov3", "tinyyolov4")
SWEEP_XS_POOL = (2, 4, 6, 8, 12, 16, 24, 32)
#: The splits the seed picks from: the ones whose halves hold the same
#: number of sets within 4% (``num_sets`` of the wdup and wdup+xinf
#: cells in expected.json), so both sweeps of a pair take as long.
SWEEP_SPLITS = (
    ((2, 6, 12, 32), (4, 8, 16, 24)),
    ((2, 12, 16, 24), (4, 6, 8, 32)),
    ((2, 4, 12, 32), (6, 8, 16, 24)),
    ((2, 8, 12, 32), (4, 6, 16, 24)),
    ((2, 8, 16, 24), (4, 6, 12, 32)),
    ((2, 4, 16, 32), (6, 8, 12, 24)),
    ((2, 6, 8, 32), (4, 12, 16, 24)),
)

#: serve-mixed cold writes: arch offsets the warm reads never use, on
#: two of its models, each requested once.  A run of 120 requests is
#: 8 rounds of 12 warm reads and 3 cold writes, so it uses all 24
#: pairs: every seed writes the same compiles, in another order.
SERVE_COLD_MODELS = ("tinyyolov4", "resnet50")
SERVE_COLD_XS = tuple(x for x in range(1, 15) if x not in PAPER_XS)
SERVE_COLD_PAIRS = tuple((m, x) for m in SERVE_COLD_MODELS for x in SERVE_COLD_XS)

#: Sweep grid configurations (``repro.analysis.sweep.grid_tasks``) as
#: (config, mapping, scheduling, uses x).
SWEEP_CONFIGS = (
    ("layer-by-layer", "none", "layer-by-layer", False),
    ("xinf", "none", "clsa-cim", False),
    ("wdup", "wdup", "layer-by-layer", True),
    ("wdup+xinf", "wdup", "clsa-cim", True),
)


def use_checkout() -> None:
    """Import ``repro`` from this checkout's ``src`` and keep every
    temporary file inside the checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["XDG_CACHE_HOME"] = str(tmp / "xdg")
    tempfile.tempdir = str(tmp)


def child_env() -> dict[str, str]:
    """Environment of child interpreters: this checkout's ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_SERVER_URL", None)
    env.pop("REPRO_STORE_PATH", None)
    return env


# ---------------------------------------------------------------------------
# seeded input sequences


def rounds(pool: Sequence[Any], rng: random.Random) -> Iterable[list[Any]]:
    """Endless seeded permutations of ``pool`` (one per round)."""
    while True:
        order = list(pool)
        rng.shuffle(order)
        yield order


def sweep_xs_pairs(rng: random.Random) -> Iterable[tuple[tuple[int, ...], ...]]:
    """Endless seeded picks from :data:`SWEEP_SPLITS`, halves in seeded order."""
    while True:
        halves = list(rng.choice(SWEEP_SPLITS))
        rng.shuffle(halves)
        yield tuple(halves)


# ---------------------------------------------------------------------------
# expected values and digests


def pair_key(model: str, x: int, config: str = "wdup+xinf") -> str:
    """Key of one (model, PE_min + x, configuration) in expected.json."""
    return f"{model}|{x}|{config}"


def load_expected(path: Path = EXPECTED_PATH) -> dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def starts_digest(schedule: Any) -> str:
    """sha256 over every set's (layer, set index, start cycle), sorted."""
    import numpy as np

    cols = schedule.columns()
    names = np.asarray(cols.layers, dtype=object)[cols.layer_id]
    order = np.lexsort((cols.set_index, names.astype(str)))
    digest = hashlib.sha256()
    for name, index, start in zip(
        names[order].tolist(), cols.set_index[order].tolist(), cols.start[order].tolist()
    ):
        digest.update(f"{name}:{index}:{start};".encode())
    return digest.hexdigest()


def artifact_digest(compiled: Any) -> str:
    """sha256 of the artifact JSON without its run provenance.

    ``timings`` are wall-clock and ``diagnostics`` note which passes a
    cached or uncached session skipped; neither is compiler output.
    """
    record = json.loads(compiled.to_json())
    record.pop("timings", None)
    record.pop("diagnostics", None)
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def dep_edges(dependencies: Any) -> int:
    return 0 if dependencies is None else int(dependencies.edge_count())


def num_sets(compiled: Any) -> int:
    return sum(len(rects) for rects in compiled.sets.values())


# ---------------------------------------------------------------------------
# statistics


def p90(values: Sequence[float]) -> float:
    """The 90th percentile, interpolated between the closest ranks."""
    if len(values) < 2:
        return float(values[0])
    return float(statistics.quantiles(values, n=10, method="inclusive")[-1])


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


# ---------------------------------------------------------------------------
# host speed


#: Median CPU time of :func:`_calibration_kernel` on the reference box
#: when it was quiet.  An operation's time t is reported as
#: t * REFERENCE / c, with c the kernel's local median: seconds at the
#: reference speed.
REFERENCE_CALIBRATION_S = 0.009
#: Calibration samples nearest an interval that set its speed.
SPEED_WINDOW = 9
_TICKS_PER_S = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


class Stamp(NamedTuple):
    """A point in time: wall clock, and steal time so far."""

    wall: float
    #: Seconds each virtual CPU has so far waited while the hypervisor
    #: ran other guests (mean over CPUs).
    stolen: float


def _stolen_seconds() -> float:
    """Mean steal time per CPU from ``/proc/stat`` (0 where unknown)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            lines = [line.split() for line in handle if line.startswith("cpu")]
    except OSError:
        return 0.0
    per_cpu = [int(f[8]) for f in lines if f[0] != "cpu" and len(f) > 8]
    return sum(per_cpu) / len(per_cpu) / _TICKS_PER_S if per_cpu else 0.0


def stamp() -> Stamp:
    return Stamp(time.perf_counter(), _stolen_seconds())


class _Node:
    __slots__ = ("key", "name", "kids")

    def __init__(self, key: int, name: str) -> None:
        self.key = key
        self.name = name
        self.kids: list["_Node"] = []


_ARRAYS: list[Any] = []


def _calibration_arrays() -> list[Any]:
    """A fixed 3.2 MB array and random indices into it (more than one
    core's L2 cache, so the kernel feels shared-cache contention)."""
    if not _ARRAYS:
        import numpy as np

        rng = np.random.default_rng(0)
        _ARRAYS.extend((rng.integers(0, 1 << 30, 400_000), rng.integers(0, 400_000, 100_000)))
    return _ARRAYS


def _calibration_kernel() -> int:
    """Fixed work shaped like a compiler pass: allocate objects, bucket
    them in dicts, link them, sort with key functions; then sort and
    gather numpy arrays.  It uses nothing from ``repro``, so no change
    to the program moves it."""
    values, picks = _calibration_arrays()
    order = values[:20_000].argsort(kind="stable")
    gathered = values[picks]
    nodes = [_Node(i, str(i)) for i in range(4000)]
    buckets: dict[int, list[_Node]] = {}
    for node in nodes:
        buckets.setdefault(node.key % 97, []).append(node)
    for i in range(1, len(nodes)):
        nodes[(i * 7919) % i].kids.append(nodes[i])
    total = 0
    for bucket in buckets.values():
        bucket.sort(key=lambda n: (len(n.kids), n.name))
        total += sum(len(n.kids) for n in bucket)
    return total + int(order[0]) + int(gathered[-1])


class SpeedGauge:
    """The host's speed, sampled between operations.

    The benchmark box is a few virtual CPUs of a shared host.  Two
    things make the same work take longer there from one minute to the
    next: the hypervisor runs other guests on our CPUs (steal time,
    counted in ``/proc/stat``), and when our CPUs do run, they run
    slower (shared cores and caches), in CPU time as much as in wall
    time.  An operation's time is therefore its wall time minus the
    steal time that passed during it, scaled by the reference kernel
    time over the CPU time of :func:`_calibration_kernel` measured
    around it (the median of the :data:`SPEED_WINDOW` nearest samples:
    wide enough that the kernel's own jitter, about 10% a sample, does
    not become the operation's).
    """

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.seconds: list[float] = []

    def settle_and_sample(self, count: int = 1) -> None:
        """Collect garbage, so the operation that follows does not pay
        for its predecessors' garbage, then :meth:`sample`."""
        import gc

        gc.collect()
        self.sample(count)

    def sample(self, count: int = 1) -> None:
        """Time the kernel ``count`` times, each after an untimed call
        that refills the caches the program's work evicted.  The garbage
        collector is paused, so the program's heap does not enter it."""
        import gc

        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                _calibration_kernel()
                started, cpu = time.perf_counter(), time.thread_time()
                _calibration_kernel()
                cpu = time.thread_time() - cpu
                self.stamps.append((started + time.perf_counter()) / 2)
                self.seconds.append(cpu)
        finally:
            if enabled:
                gc.enable()

    def scale(self, start: float, end: float) -> float:
        """Reference kernel time over the local kernel time around
        ``[start, end]`` (wall clock)."""
        if not self.seconds:
            raise RuntimeError("the speed gauge holds no samples")
        middle = (start + end) / 2
        at = bisect.bisect_left(self.stamps, middle)
        lo = max(0, at - SPEED_WINDOW // 2)
        hi = min(len(self.stamps), lo + SPEED_WINDOW)
        lo = max(0, hi - SPEED_WINDOW)
        return REFERENCE_CALIBRATION_S / statistics.median(self.seconds[lo:hi])

    def scaled(self, start: Stamp, end: Stamp, overall: bool = False) -> float:
        """Seconds from ``start`` to ``end`` at the reference speed, by
        the samples around the interval or (``overall``) by all."""
        ran = max(end.wall - start.wall - (end.stolen - start.stolen), 0.0)
        if overall:
            return ran * REFERENCE_CALIBRATION_S / self.median_s()
        return ran * self.scale(start.wall, end.wall)

    def median_s(self) -> float:
        return median(self.seconds)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of a live process, in MB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0
