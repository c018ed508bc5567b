"""Stage IV of CLSA-CIM: cross-layer scheduling (Sec. IV-4).

The cross-layer scheduler assigns every OFM set its *earliest feasible
start*: a set may begin once (a) the previous set of the same layer has
released the layer's PEs (resource dependency, Stage III order) and
(b) every required predecessor set has completed (data dependency,
Stage II).  Because set-level data dependencies always point from
topologically earlier base layers to later ones, a single pass over the
layers in graph topological order — visiting each layer's sets in
intra-layer order — computes the optimal start times directly.

Non-base operations (bias, activation, pooling, ...) execute on the
tiles' GPEUs and are modeled as free, matching the paper's latency
model; the optional NoC/GPEU cost model in :mod:`repro.sim.noc_cost`
relaxes this assumption.
"""

from __future__ import annotations

import heapq

from ..ir.graph import Graph
from .dependencies import DependencyGraph, SetRef
from .schedule import Schedule, SetTask


def cross_layer_schedule(
    graph: Graph,
    dependency_graph: DependencyGraph,
    order: dict[str, list[int]],
) -> Schedule:
    """Stage IV: earliest-feasible-start schedule of all sets.

    Parameters
    ----------
    graph:
        Canonical, possibly duplication-rewritten model.
    dependency_graph:
        Stage II output over the same graph.
    order:
        Stage III output: per-layer execution order of set indices.

    Returns
    -------
    Schedule
        One :class:`SetTask` per OFM set; makespan is the inference
        latency in cycles.
    """
    sets = dependency_graph.sets
    end_of: dict[SetRef, int] = {}
    schedule = Schedule(policy="clsa-cim")
    for layer in graph.base_layers():
        pe_free_at = 0  # the layer's PEs become available at this cycle
        for position, set_index in enumerate(order[layer]):
            rect = sets[layer][set_index]
            data_ready = 0
            for ref in dependency_graph.deps[(layer, set_index)]:
                if ref not in end_of:
                    raise AssertionError(
                        f"dependency {ref} of ({layer}, {set_index}) not yet "
                        "scheduled; the graph is not in topological order"
                    )
                data_ready = max(data_ready, end_of[ref])
            start = max(pe_free_at, data_ready)
            end = start + rect.area
            schedule.tasks.append(
                SetTask(
                    layer=layer,
                    set_index=set_index,
                    rect=rect,
                    start=start,
                    end=end,
                )
            )
            end_of[(layer, set_index)] = end
            pe_free_at = end
    return schedule


def cross_layer_schedule_dynamic(
    graph: Graph,
    dependency_graph: DependencyGraph,
) -> Schedule:
    """Stage IV with ready-order (dynamic) intra-layer sequencing.

    Instead of a fixed Stage III order, each layer greedily executes
    whichever of its sets has all data dependencies satisfied (ties
    broken row-major).  This matters with weight duplication: a
    producer's stripes emit rows in parallel, so a consumer bound to
    strict row-major order would stall on one stripe's tail while other
    stripes' data sits ready.  Ready-order sequencing rate-matches
    producer and consumer and realizes the paper's *maximum achievable*
    utilization (Sec. V); the static variant remains available as an
    ablation (``ScheduleOptions(order_mode='static')``).

    Implementation: discrete-event list scheduling.  Every set keeps a
    countdown of unfinished dependencies; completed sets wake their
    consumers; an idle layer starts its lowest-indexed ready set.
    """
    sets = dependency_graph.sets
    remaining: dict[SetRef, int] = {}
    consumers: dict[SetRef, list[SetRef]] = {}
    for ref, preds in dependency_graph.deps.items():
        remaining[ref] = len(preds)
        for pred in preds:
            consumers.setdefault(pred, []).append(ref)

    ready: dict[str, list[int]] = {layer: [] for layer in sets}  # min-heaps of set ids
    layer_free: dict[str, int] = {layer: 0 for layer in sets}
    layer_busy: dict[str, bool] = {layer: False for layer in sets}
    events: list[tuple[int, str, int]] = []  # (end time, layer, set index)
    schedule = Schedule(policy="clsa-cim")

    def try_start(layer: str, now: int) -> None:
        if layer_busy[layer] or not ready[layer]:
            return
        set_index = heapq.heappop(ready[layer])
        rect = sets[layer][set_index]
        start = max(now, layer_free[layer])
        end = start + rect.area
        schedule.tasks.append(
            SetTask(layer=layer, set_index=set_index, rect=rect, start=start, end=end)
        )
        layer_busy[layer] = True
        layer_free[layer] = end
        heapq.heappush(events, (end, layer, set_index))

    for (layer, set_index), count in remaining.items():
        if count == 0:
            heapq.heappush(ready[layer], set_index)
    for layer in sets:
        try_start(layer, 0)

    while events:
        now, layer, set_index = heapq.heappop(events)
        layer_busy[layer] = False
        for consumer in consumers.get((layer, set_index), ()):  # wake dependents
            remaining[consumer] -= 1
            if remaining[consumer] == 0:
                heapq.heappush(ready[consumer[0]], consumer[1])
                try_start(consumer[0], now)
        try_start(layer, now)

    scheduled = len(schedule.tasks)
    total = dependency_graph.num_sets()
    if scheduled != total:  # pragma: no cover - guards dependency cycles
        raise AssertionError(
            f"dynamic scheduler placed {scheduled} of {total} sets; "
            "the set dependency graph is cyclic or disconnected"
        )
    return schedule
