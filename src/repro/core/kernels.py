"""Columnar scheduling kernels: CSR set graphs + array-backed schedules.

At the paper's "maximum achievable" granularity (one OFM row per set) a
single darknet model already produces thousands of sets, and the batch
extension multiplies that by the batch size.  The reference schedulers
in :mod:`repro.core.cross_layer` / :mod:`repro.core.batch` and the
zero-cost replay of :mod:`repro.sim.engine` walk ``dict[(str, int)]``
structures and allocate one frozen :class:`~repro.core.schedule.SetTask`
per set — pure interpreter overhead at scale.

The kernels here run on the set graph in columnar form
(:class:`~repro.core.dependencies.SetGraphArrays`), which Stage II
emits directly:

* a **global dense set-id space**: set ``(layer, set_index)`` becomes
  ``gid = offsets[layer_id] + set_index``, with per-gid ``layer_of`` /
  ``set_index`` / ``area`` / rect-coordinate columns;
* a **CSR** of the data dependencies (``indptr`` / ``indices`` over
  predecessor gids) plus the **reverse CSR** (``rindptr`` /
  ``rindices`` over consumer gids) for event-driven wake-ups.

The arrays live on the
:class:`~repro.core.dependencies.DependencyGraph` (and are cached on
the :class:`~repro.core.passes.CompilationContext`), so the static
scheduler, the dynamic list scheduler, the batch pipeline scheduler
and the simulator replay all share them; only a graph built from a
``deps`` dict is lowered, once.

Engine selection is a compile option:
``ScheduleOptions(engine="csr")`` (the default) runs the kernels here;
``engine="python"`` selects the reference implementations.  Both
engines produce **identical schedules point-wise** (asserted in tests);
the kernels self-validate with vectorized dependency/resource checks.

Event-ordering note: the reference schedulers break ties in their event
heaps by *layer name* (string comparison).  The kernels reproduce that
exactly by ordering on each layer's lexicographic rank (``lex_rank``),
so even tie-heavy schedules match the reference set-for-set.
"""

from __future__ import annotations

import heapq
from bisect import insort

import numpy as np

from .dependencies import DependencyGraph, SetGraphArrays
from .schedule import Schedule, ScheduleColumns

#: Scheduling engine option names (``ScheduleOptions.engine``).
ENGINES = ("csr", "python")


def set_graph_arrays(dependency_graph: DependencyGraph) -> SetGraphArrays:
    """The CSR form of ``dependency_graph``.

    Stage II builds it directly; a graph built from a ``deps`` dict
    (the reference walk, an artifact load) lowers it once on first use.
    Either way the schedulers, the batch extension, the simulator
    replay and the energy model share one instance per graph.
    """
    return dependency_graph.arrays


# ---------------------------------------------------------------------------
# schedule assembly + vectorized validation
# ---------------------------------------------------------------------------


def _columns_from(
    arrays: SetGraphArrays,
    emit: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    image: np.ndarray | None = None,
    per_row: bool = False,
) -> ScheduleColumns:
    """Columns for gids emitted in ``emit`` order.

    ``start``/``end`` are indexed by gid unless ``per_row`` is set, in
    which case they are already aligned with ``emit`` (batch schedules
    emit each gid once per image).
    """
    row_start = start if per_row else start[emit]
    row_end = end if per_row else end[emit]
    return ScheduleColumns(
        layers=arrays.layers,
        layer_id=arrays.layer_of[emit],
        set_index=arrays.set_index[emit],
        start=row_start,
        end=row_end,
        image=(
            np.zeros(len(emit), dtype=np.int32)
            if image is None
            else np.asarray(image, dtype=np.int32)
        ),
        r0=arrays.r0[emit],
        c0=arrays.c0[emit],
        r1=arrays.r1[emit],
        c1=arrays.c1[emit],
    )


# ---------------------------------------------------------------------------
# Stage IV: static (fixed Stage III order) scheduler
# ---------------------------------------------------------------------------


def csr_static_schedule(
    arrays: SetGraphArrays,
    order: dict[str, list[int]],
    policy: str = "clsa-cim",
    validate: bool = True,
) -> Schedule:
    """Vectorized earliest-feasible-start schedule (static Stage III order).

    The per-layer recurrence ``end_i = max(end_{i-1}, ready_i) + a_i``
    unrolls to a prefix form: with ``S_i = sum_{k<=i} a_k``,

    ``end_i = S_i + cummax_i(ready_i - S_{i-1})``

    so each layer is one gather (predecessor ends), one segmented max
    (``maximum.reduceat`` over the CSR), a permutation into Stage III
    order, and a ``cumsum`` + ``cummax`` — no Python-level inner loop.
    """
    n = arrays.num_sets
    start = np.zeros(n, dtype=np.int64)
    end = np.full(n, -1, dtype=np.int64)
    emit = np.empty(n, dtype=np.int64)
    offsets = arrays.offsets
    indptr = arrays.indptr
    indices = arrays.indices
    pos = 0
    for lid, layer in enumerate(arrays.layers):
        lo = int(offsets[lid])
        hi = int(offsets[lid + 1])
        if lo == hi:
            continue
        k = hi - lo
        edge_lo = int(indptr[lo])
        edge_hi = int(indptr[hi])
        ready = np.zeros(k, dtype=np.int64)
        if edge_hi > edge_lo:
            pred_end = end[indices[edge_lo:edge_hi]]
            if pred_end.min() < 0:
                raise AssertionError(
                    f"a dependency of layer {layer!r} is not yet scheduled; "
                    "the set graph is not in topological layer order"
                )
            local_ptr = indptr[lo:hi] - edge_lo
            seg_counts = np.diff(np.append(local_ptr, edge_hi - edge_lo))
            bounded = np.minimum(local_ptr, pred_end.size - 1)
            ready = np.where(
                seg_counts > 0, np.maximum.reduceat(pred_end, bounded), 0
            )
        perm = np.asarray(order[layer], dtype=np.int64)
        areas = arrays.area[lo:hi][perm]
        cum = np.cumsum(areas)
        layer_end = cum + np.maximum.accumulate(ready[perm] - (cum - areas))
        gids = lo + perm
        end[gids] = layer_end
        start[gids] = layer_end - areas
        emit[pos : pos + k] = gids
        pos += k
    if validate:
        from ..verify.hazards import assert_arrays_schedule

        assert_arrays_schedule(arrays, start, end)
    return Schedule(policy=policy, columns=_columns_from(arrays, emit, start, end))


# ---------------------------------------------------------------------------
# Stage IV: dynamic (ready-order) list scheduler
# ---------------------------------------------------------------------------


def csr_dynamic_schedule(
    arrays: SetGraphArrays,
    policy: str = "clsa-cim",
    validate: bool = True,
) -> Schedule:
    """Event-driven list scheduling over integer heaps.

    Semantically identical to
    :func:`repro.core.cross_layer.cross_layer_schedule_dynamic` but runs
    on flat int lists indexed by gid: no tuple-keyed dicts, no per-set
    dataclass allocation, and consumer wake-ups walk the reverse CSR.
    """
    columns, start, end, _ = _run_dynamic(arrays)
    if validate:
        from ..verify.hazards import assert_arrays_schedule

        assert_arrays_schedule(arrays, start, end)
    return Schedule(policy=policy, columns=columns)


def _run_dynamic(
    arrays: SetGraphArrays,
) -> tuple[ScheduleColumns, np.ndarray, np.ndarray, np.ndarray]:
    """The shared dynamic event loop; returns (columns, start, end, emit).

    Hot-loop notes: event tuples are ``(end, lex_rank, gid)`` — at most
    one event per layer is ever outstanding, so ``(end, lex_rank)`` is
    unique among live events and orders pops exactly like the reference
    scheduler's ``(end, layer_name, set_index)`` heap; the gid rides
    along as payload so nothing is re-derived on pop.  Starts are
    inlined; outside the wake loop every layer with a non-empty ready
    queue is busy (each push is followed by a start attempt), so a
    newly ready set whose layer is idle with an empty queue starts
    directly, skipping both ready-heap operations.
    """
    lists = arrays.as_lists()
    n = arrays.num_sets
    num_layers = arrays.num_layers
    offsets = lists["offsets"]
    layer_of = lists["layer_of"]
    set_of = lists["set_index"]
    area = lists["area"]
    remaining = lists["indegree"].copy()
    consumers = lists["consumers"]
    lex = lists["lex"]

    ready: list[list[int]] = [[] for _ in range(num_layers)]
    layer_free = [0] * num_layers
    layer_busy = [False] * num_layers
    start = [0] * n
    end = [0] * n
    emit: list[int] = []
    emit_append = emit.append
    events: list[tuple[int, int, int]] = []
    heappush = heapq.heappush
    heappop = heapq.heappop

    for gid in range(n):
        if remaining[gid] == 0:
            heappush(ready[layer_of[gid]], set_of[gid])
    for lid in range(num_layers):
        queue = ready[lid]
        if queue:
            si = heappop(queue)
            gid = offsets[lid] + si
            e = area[gid]
            end[gid] = e
            emit_append(gid)
            layer_busy[lid] = True
            layer_free[lid] = e
            heappush(events, (e, lex[lid], gid))

    while events:
        now, rank, gid = heappop(events)
        lid = layer_of[gid]
        for consumer in consumers[gid]:
            left = remaining[consumer] - 1
            remaining[consumer] = left
            if left == 0:
                clid = layer_of[consumer]
                if layer_busy[clid]:
                    heappush(ready[clid], set_of[consumer])
                else:
                    free = layer_free[clid]
                    s = now if now > free else free
                    e = s + area[consumer]
                    start[consumer] = s
                    end[consumer] = e
                    emit_append(consumer)
                    layer_busy[clid] = True
                    layer_free[clid] = e
                    heappush(events, (e, lex[clid], consumer))
        queue = ready[lid]
        if queue:
            nsi = heappop(queue)
            ngid = offsets[lid] + nsi
            free = layer_free[lid]
            s = now if now > free else free
            e = s + area[ngid]
            start[ngid] = s
            end[ngid] = e
            emit_append(ngid)
            layer_free[lid] = e
            heappush(events, (e, rank, ngid))
        else:
            layer_busy[lid] = False

    if len(emit) != n:  # pragma: no cover - guards dependency cycles
        raise AssertionError(
            f"dynamic kernel placed {len(emit)} of {n} sets; "
            "the set dependency graph is cyclic or disconnected"
        )
    start_arr = np.asarray(start, dtype=np.int64)
    end_arr = np.asarray(end, dtype=np.int64)
    emit_arr = np.asarray(emit, dtype=np.int64)
    columns = _columns_from(arrays, emit_arr, start_arr, end_arr)
    return columns, start_arr, end_arr, emit_arr


# ---------------------------------------------------------------------------
# batch pipeline scheduler
# ---------------------------------------------------------------------------


def csr_batch_schedule(
    arrays: SetGraphArrays,
    batch_size: int,
    policy: str | None = None,
    validate: bool = True,
) -> tuple[Schedule, list[tuple[int, int]]]:
    """Batched event-driven scheduler; returns (schedule, image spans).

    Semantics match
    :func:`repro.core.batch.cross_layer_schedule_batch`: ready sets are
    served earliest-image-first, tie-broken by set index; every image
    carries the full set graph; all images of a layer share its PEs.
    Batched state lives in flat ``image * n + gid`` arrays.

    ``validate=True`` (the default, matching the single-image
    schedulers) runs the vectorized dependency/exclusivity checks of
    the static verifier before returning.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    lists = arrays.as_lists()
    n = arrays.num_sets
    num_layers = arrays.num_layers
    total = n * batch_size
    offsets = lists["offsets"]
    layer_of = lists["layer_of"]
    set_of = lists["set_index"]
    area = lists["area"]
    indegree = lists["indegree"]
    # Per-image state lists: the wake loop indexes them by bare gid
    # after one per-event lookup, instead of computing image * n + gid
    # for every edge of every event.
    remaining = [indegree.copy() for _ in range(batch_size)]
    starts = [[0] * n for _ in range(batch_size)]
    ends = [[0] * n for _ in range(batch_size)]
    consumers = lists["consumers"]
    lex = lists["lex"]

    # Ready sets are served earliest-image-first, tie-broken by set
    # index.  One queue per (layer, image) keeps each backlog small (a
    # layer's single-image backlog instead of its whole cross-batch
    # backlog); ``hint`` tracks each layer's lowest image with queued
    # sets — it only moves forward on pops and is reset by a push with
    # a lower image, so the forward scan is amortized O(1).  Each
    # queue is a sorted list consumed from a head index: row-major
    # production makes sets ready in (mostly) ascending set-index
    # order, so pushes are O(1) appends with a rare ``insort``
    # fallback, and pops take the head element — same min-pop
    # semantics as a heap without the sift costs.  Event tuples are
    # (end, image, lex_rank, gid): one live event per layer makes the
    # (end, image, lex_rank) prefix unique, so pops order like the
    # reference's (end, image, layer_name, set_index) heap.
    ready: list[list[list[int]]] = [
        [[] for _ in range(batch_size)] for _ in range(num_layers)
    ]
    heads: list[list[int]] = [[0] * batch_size for _ in range(num_layers)]
    pending = [0] * num_layers
    hint = [0] * num_layers
    layer_free = [0] * num_layers
    layer_busy = [False] * num_layers
    emit: list[int] = []  # emission-ordered slots (image * n + gid)
    emit_append = emit.append
    events: list[tuple[int, int, int, int]] = []
    heappush = heapq.heappush
    heappop = heapq.heappop

    for gid in range(n):  # ascending gid => ascending si per queue
        if indegree[gid] == 0:
            lid = layer_of[gid]
            si = set_of[gid]
            queues = ready[lid]
            for image in range(batch_size):
                queues[image].append(si)
            pending[lid] += batch_size
    for lid in range(num_layers):
        if pending[lid]:
            queues = ready[lid]
            head = heads[lid]
            image = hint[lid]
            while head[image] >= len(queues[image]):
                image += 1
            hint[lid] = image
            queue = queues[image]
            pos = head[image]
            si = queue[pos]
            if pos + 1 == len(queue):
                queues[image] = []
                head[image] = 0
            else:
                head[image] = pos + 1
            pending[lid] -= 1
            gid = offsets[lid] + si
            e = area[gid]
            ends[image][gid] = e
            emit_append(image * n + gid)
            layer_busy[lid] = True
            layer_free[lid] = e
            heappush(events, (e, image, lex[lid], gid))

    while events:
        now, image, rank, gid = heappop(events)
        lid = layer_of[gid]
        rem = remaining[image]
        for consumer in consumers[gid]:
            left = rem[consumer] - 1
            rem[consumer] = left
            if left == 0:
                clid = layer_of[consumer]
                if layer_busy[clid]:
                    queue = ready[clid][image]
                    si = set_of[consumer]
                    if not queue or si > queue[-1]:
                        queue.append(si)
                    else:
                        insort(queue, si, heads[clid][image])
                    pending[clid] += 1
                    if image < hint[clid]:
                        hint[clid] = image
                else:
                    free = layer_free[clid]
                    s = now if now > free else free
                    e = s + area[consumer]
                    starts[image][consumer] = s
                    ends[image][consumer] = e
                    emit_append(image * n + consumer)
                    layer_busy[clid] = True
                    layer_free[clid] = e
                    heappush(events, (e, image, lex[clid], consumer))
        if pending[lid]:
            queues = ready[lid]
            head = heads[lid]
            nimage = hint[lid]
            while head[nimage] >= len(queues[nimage]):
                nimage += 1
            hint[lid] = nimage
            queue = queues[nimage]
            pos = head[nimage]
            nsi = queue[pos]
            if pos + 1 == len(queue):
                queues[nimage] = []
                head[nimage] = 0
            else:
                head[nimage] = pos + 1
            pending[lid] -= 1
            ngid = offsets[lid] + nsi
            free = layer_free[lid]
            s = now if now > free else free
            e = s + area[ngid]
            starts[nimage][ngid] = s
            ends[nimage][ngid] = e
            emit_append(nimage * n + ngid)
            layer_free[lid] = e
            heappush(events, (e, nimage, rank, ngid))
        else:
            layer_busy[lid] = False

    if len(emit) != total:  # pragma: no cover - cycle guard
        raise AssertionError(f"batch kernel placed {len(emit)} of {total} sets")

    slots = np.asarray(emit, dtype=np.int64)
    image_arr = (slots // n).astype(np.int32) if n else slots.astype(np.int32)
    emit_arr = slots % n if n else slots
    start_all = np.asarray(starts, dtype=np.int64).reshape(total)
    end_all = np.asarray(ends, dtype=np.int64).reshape(total)
    if validate:
        from ..verify.hazards import assert_batch_arrays_schedule

        assert_batch_arrays_schedule(arrays, batch_size, start_all, end_all)
    columns = _columns_from(
        arrays,
        emit_arr,
        start_all[slots],
        end_all[slots],
        image=image_arr,
        per_row=True,
    )
    spans = (
        []
        if n == 0
        else [
            (
                int(start_all[image * n : (image + 1) * n].min()),
                int(end_all[image * n : (image + 1) * n].max()),
            )
            for image in range(batch_size)
        ]
    )
    name = policy if policy is not None else f"clsa-cim-batch{batch_size}"
    return Schedule(policy=name, columns=columns), spans

# ---------------------------------------------------------------------------
# simulator replay (zero-cost path)
# ---------------------------------------------------------------------------


def csr_replay(
    arrays: SetGraphArrays, policy: str
) -> tuple[Schedule, dict[str, int], int]:
    """Zero-cost discrete-event replay on the columnar arrays.

    Returns ``(schedule, per_layer_stall, events_processed)``.  The
    replay is the dynamic list scheduler (identical semantics to the
    reference engine without a cost model); stalls are computed in one
    vectorized pass over the layer-contiguous gid slices.
    """
    columns, start, end, _ = _run_dynamic(arrays)
    stalls: dict[str, int] = {}
    offsets = arrays.offsets
    for lid, layer in enumerate(arrays.layers):
        lo = int(offsets[lid])
        hi = int(offsets[lid + 1])
        if lo == hi:
            continue
        busy = int(arrays.area[lo:hi].sum())
        stalls[layer] = int(end[lo:hi].max()) - int(start[lo:hi].min()) - busy
    return Schedule(policy=policy, columns=columns), stalls, arrays.num_sets
