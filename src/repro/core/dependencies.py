"""Stage II of CLSA-CIM: determine dependencies (Sec. IV-2).

For every OFM set of every base layer, compute which OFM sets of
predecessor base layers must be finished before the set can start.
The set's required IFM region is obtained from the layer's backward
region rule, then propagated further backwards along the non-base
layer path (pooling, padding, activation, concat, ...) until base
layers (or graph inputs) are reached; any predecessor set intersecting
the propagated region becomes a data dependency.

This realizes the paper's P/Q relations (each OFM set can influence
multiple IFM sets and vice versa) without a separate forward pass.

Stage II emits the set graph in CSR form (:class:`SetGraphArrays`):
every set gets a dense global id, and the predecessors of a set are
one slice of a flat index array.  :func:`determine_dependencies` builds
it in one array pass per base layer: each non-base producer path is
walked once, applying every op's region rule
(:meth:`~repro.ir.ops.Op.input_bounds`) to all of the layer's sets at
once, and since Stage I sets are row-major grids, the producer sets a
region meets form a block found by ``searchsorted`` over the
producer's band edges (:class:`SetGrid`).  The per-set walk
(:func:`set_dependencies` over :func:`trace_to_base`) is the reference
(``use_index=False``); sets that are not grids take it too.  The
``(layer, set index)`` dict of :attr:`DependencyGraph.deps` is a view
built from the arrays on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..ir.graph import Graph
from ..ir.ops import Input, Op
from ..ir.tensor import Bounds, Rect, RectColumns

#: A (layer name, set index) pair identifying one scheduling set.
SetRef = tuple[str, int]


@dataclass(frozen=True)
class SetGraphArrays:
    """The set graph in columnar (CSR) form.

    Attributes
    ----------
    layers:
        Base layer names in Stage I order (graph topological order).
    offsets:
        ``int64[L+1]``; layer ``l`` owns gids ``[offsets[l], offsets[l+1])``,
        with ``gid - offsets[l]`` equal to the set index within the layer.
    layer_of / set_index / area / r0 / c0 / r1 / c1:
        Per-gid columns (layer id, intra-layer set index, pixel count,
        and the set rectangle's coordinates).
    indptr / indices:
        CSR of the data-dependency edges: the predecessors of ``gid``
        are ``indices[indptr[gid]:indptr[gid+1]]``.
    rindptr / rindices:
        Reverse CSR: the consumers of ``gid``, ascending.
    lex_rank:
        Per layer id, the layer's rank when names are sorted
        lexicographically (tie-break parity with the reference
        schedulers' string-keyed event heaps).
    """

    layers: tuple[str, ...]
    offsets: np.ndarray
    layer_of: np.ndarray
    set_index: np.ndarray
    area: np.ndarray
    r0: np.ndarray
    c0: np.ndarray
    r1: np.ndarray
    c1: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    rindptr: np.ndarray
    rindices: np.ndarray
    lex_rank: np.ndarray

    @staticmethod
    def from_csr(
        sets: dict[str, Sequence[Rect]], indptr: np.ndarray, indices: np.ndarray
    ) -> "SetGraphArrays":
        """The set graph of Stage I ``sets`` with edges ``indptr/indices``.

        Raises ``ValueError`` when the CSR does not fit the sets:
        ``indptr`` must be ``0``-based, non-decreasing, one longer than
        the set count and end at ``len(indices)``; every index must name
        a set.
        """
        layers, offsets, coords = _set_columns(sets)
        return _assemble(layers, offsets, coords, indptr, indices)

    @property
    def num_sets(self) -> int:
        """Total sets (the size of the global gid space)."""
        return len(self.layer_of)

    @property
    def num_layers(self) -> int:
        """Number of base layers."""
        return len(self.layers)

    @property
    def num_edges(self) -> int:
        """Total data-dependency edges."""
        return len(self.indices)

    def gid(self, layer: str, set_index: int) -> int:
        """Global set id of ``(layer, set_index)``."""
        return int(self.offsets[self.layers.index(layer)]) + set_index

    def deps_dict(self) -> dict[SetRef, list[SetRef]]:
        """Predecessor lists keyed by ``(layer, set index)``, in gid order."""
        refs = list(
            zip(
                [self.layers[lid] for lid in self.layer_of.tolist()],
                self.set_index.tolist(),
            )
        )
        indptr = self.indptr.tolist()
        indices = self.indices.tolist()
        return {
            ref: [refs[pred] for pred in indices[indptr[gid] : indptr[gid + 1]]]
            for gid, ref in enumerate(refs)
        }

    def as_lists(self) -> dict[str, list]:
        """Plain-list views of the hot columns (memoized).

        The event-driven kernels index per element, where Python lists
        beat NumPy scalar indexing by an order of magnitude; the
        conversion is done once per set graph, not per schedule.
        """
        cached = getattr(self, "_lists", None)
        if cached is None:
            rindptr = self.rindptr.tolist()
            rindices = self.rindices.tolist()
            cached = {
                "offsets": self.offsets.tolist(),
                "layer_of": self.layer_of.tolist(),
                "set_index": self.set_index.tolist(),
                "area": self.area.tolist(),
                "indegree": np.diff(self.indptr).tolist(),
                # Per-gid consumer tuples: slicing rindices per event in
                # the hot loops would allocate a fresh list each time.
                "consumers": [
                    tuple(rindices[rindptr[gid] : rindptr[gid + 1]])
                    for gid in range(len(self.layer_of))
                ],
                "lex": self.lex_rank.tolist(),
            }
            object.__setattr__(self, "_lists", cached)
        return cached


def _set_columns(
    sets: dict[str, Sequence[Rect]],
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """``(layers, offsets, coords)``: the gid space of Stage I ``sets``.

    ``coords`` is ``int64[n, 4]`` of ``(r0, c0, r1, c1)`` per gid: the
    layers' :class:`~repro.ir.tensor.RectColumns` concatenated, with
    columns built per ``Rect`` only for hand-built lists.
    """
    layers = tuple(sets)
    columns = [RectColumns.of(sets[layer]).coords for layer in layers]
    counts = np.asarray([len(layer_coords) for layer_coords in columns], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    coords = np.concatenate(columns) if columns else np.zeros((0, 4), dtype=np.int64)
    return layers, offsets, coords


def _assemble(
    layers: tuple[str, ...],
    offsets: np.ndarray,
    coords: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
) -> SetGraphArrays:
    """Per-gid columns and the reverse CSR around a checked forward CSR."""
    n = int(offsets[-1])
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    if indptr.shape != (n + 1,) or indices.ndim != 1:
        raise ValueError(f"CSR shape does not fit {n} sets")
    if indptr[0] != 0 or indptr[-1] != len(indices) or np.any(np.diff(indptr) < 0):
        raise ValueError("CSR indptr is not a 0-based non-decreasing edge count")
    if len(indices) and (indices.min() < 0 or indices.max() >= n):
        raise ValueError(f"CSR index out of range for {n} sets")

    counts = np.diff(offsets)
    layer_of = np.repeat(np.arange(len(layers), dtype=np.int32), counts)
    set_index = (np.arange(n, dtype=np.int64) - offsets[:-1].repeat(counts)).astype(np.int32)
    area = (coords[:, 2] - coords[:, 0]) * (coords[:, 3] - coords[:, 1])

    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    rindices = rows[np.argsort(indices, kind="stable")]
    rindptr = np.concatenate(([0], np.cumsum(np.bincount(indices, minlength=n)))).astype(
        np.int64
    )

    lex_rank = np.empty(len(layers), dtype=np.int32)
    for rank, lid in enumerate(sorted(range(len(layers)), key=lambda i: layers[i])):
        lex_rank[lid] = rank

    return SetGraphArrays(
        layers=layers,
        offsets=offsets,
        layer_of=layer_of,
        set_index=set_index,
        area=area,
        r0=np.ascontiguousarray(coords[:, 0], dtype=np.int32),
        c0=np.ascontiguousarray(coords[:, 1], dtype=np.int32),
        r1=np.ascontiguousarray(coords[:, 2], dtype=np.int32),
        c1=np.ascontiguousarray(coords[:, 3], dtype=np.int32),
        indptr=indptr,
        indices=indices,
        rindptr=rindptr,
        rindices=rindices,
        lex_rank=lex_rank,
    )


def _lower(sets: dict[str, Sequence[Rect]], deps: dict[SetRef, list[SetRef]]) -> SetGraphArrays:
    """The CSR form of a dict-built dependency graph."""
    layers, offsets, coords = _set_columns(sets)
    base = {layer: int(offsets[lid]) for lid, layer in enumerate(layers)}
    indptr = [0]
    indices: list[int] = []
    for layer in layers:
        for si in range(len(sets[layer])):
            refs = deps.get((layer, si))
            if refs is None:
                raise KeyError(
                    f"dependency graph has no entry for set ({layer!r}, {si}); "
                    "run determine_dependencies() over the same Stage I sets"
                )
            indices.extend(base[ref_layer] + ref_si for ref_layer, ref_si in refs)
            indptr.append(len(indices))
    return _assemble(layers, offsets, coords, np.asarray(indptr), np.asarray(indices))


class DependencyGraph:
    """Set-level data dependencies of a model.

    Attributes
    ----------
    sets:
        Stage I output: per-layer OFM set rectangles.
    arrays:
        The set graph in CSR form.  Stage II builds it directly; a
        graph built from a ``deps`` dict lowers it on first use.
    deps:
        Per (layer, set index), the list of predecessor sets that must
        complete first; sets reading only the graph input have an empty
        list.  A view of :attr:`arrays` built on first use, unless the
        graph was built from the dict.
    """

    def __init__(
        self,
        sets: dict[str, Sequence[Rect]],
        deps: Optional[dict[SetRef, list[SetRef]]] = None,
        arrays: Optional[SetGraphArrays] = None,
    ) -> None:
        self.sets = sets
        self._deps: Optional[dict[SetRef, list[SetRef]]] = (
            {} if deps is None and arrays is None else deps
        )
        self._arrays: Optional[SetGraphArrays] = arrays

    @property
    def deps(self) -> dict[SetRef, list[SetRef]]:
        if self._deps is None:
            assert self._arrays is not None
            self._deps = self._arrays.deps_dict()
        return self._deps

    @property
    def arrays(self) -> SetGraphArrays:
        if self._arrays is None:
            self._arrays = _lower(self.sets, self.deps)
        return self._arrays

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DependencyGraph):
            return NotImplemented
        return self.sets == other.sets and self.deps == other.deps

    def predecessors(self, layer: str, set_index: int) -> list[SetRef]:
        """Data dependencies of one set."""
        return self.deps[(layer, set_index)]

    def num_sets(self) -> int:
        """Total scheduling sets across all layers."""
        return sum(len(rects) for rects in self.sets.values())

    def _fan_in(self) -> np.ndarray:
        if self._deps is None:
            return np.diff(self.arrays.indptr)
        return np.asarray([len(edges) for edges in self._deps.values()], dtype=np.int64)

    def edge_count(self) -> int:
        """Total dependency edges."""
        return int(self._fan_in().sum())

    def fan_in_stats(self) -> tuple[float, int]:
        """(mean, max) dependencies per set — the paper's P relation."""
        counts = self._fan_in()
        if not len(counts):
            return (0.0, 0)
        return (int(counts.sum()) / len(counts), int(counts.max()))


def trace_to_base(
    graph: Graph,
    tensor_name: str,
    rect: Rect,
    shapes: dict | None = None,
) -> list[tuple[str, Rect]]:
    """Propagate a required region backwards to base-layer producers.

    Starting from ``rect`` of the tensor produced by ``tensor_name``,
    walk producer-wards through non-base operators, transforming the
    region with each op's backward rule.  Recursion stops at base
    layers and graph inputs.  Returns ``(base layer name, region)``
    pairs; regions clipped to empty are dropped (e.g. a region that
    falls entirely into explicit padding).

    ``shapes`` may be supplied to avoid repeated shape-table lookups in
    hot loops; it must be ``graph.infer_shapes()`` of the same graph.
    """
    if rect.is_empty():
        return []
    op = graph[tensor_name]
    if op.is_base or isinstance(op, Input):
        return [(tensor_name, rect)] if op.is_base else []
    if shapes is None:
        shapes = graph.infer_shapes()
    input_shapes = [shapes[p] for p in op.inputs]
    regions = op.input_regions(rect, input_shapes, shapes[tensor_name])
    results: list[tuple[str, Rect]] = []
    for producer, region in zip(op.inputs, regions):
        results.extend(trace_to_base(graph, producer, region, shapes))
    return results


def set_dependencies(
    graph: Graph,
    sets: dict[str, Sequence[Rect]],
    layer: str,
    set_index: int,
    shapes: dict | None = None,
) -> list[SetRef]:
    """Stage II for a single set: its predecessor set references.

    The reference walk: every producer region from
    :func:`trace_to_base` is intersected with every set of its base
    layer.
    """
    op = graph[layer]
    if shapes is None:
        shapes = graph.infer_shapes()
    out_shape = shapes[layer]
    input_shapes = [shapes[p] for p in op.inputs]
    rect = sets[layer][set_index]
    needed = op.input_regions(rect, input_shapes, out_shape)
    refs: list[SetRef] = []
    seen: set[SetRef] = set()
    for producer, region in zip(op.inputs, needed):
        for base_layer, base_rect in trace_to_base(graph, producer, region, shapes):
            for pred_index, pred_rect in enumerate(sets[base_layer]):
                if pred_rect.intersects(base_rect):
                    ref = (base_layer, pred_index)
                    if ref not in seen:
                        seen.add(ref)
                        refs.append(ref)
    return refs


@dataclass(frozen=True)
class SetGrid:
    """Band edges of one layer's sets when they tile a row-major grid.

    Set ``i * (len(cols) - 1) + j`` is the cell
    ``[rows[i], rows[i+1]) x [cols[j], cols[j+1])``.
    """

    rows: np.ndarray
    cols: np.ndarray

    @staticmethod
    def of(coords: np.ndarray) -> Optional["SetGrid"]:
        """The grid of ``coords`` (``[n, 4]`` of r0, c0, r1, c1), or
        ``None`` unless they are non-empty cells in row-major order."""
        n = len(coords)
        if n == 0:
            return None
        r0, c0, r1, c1 = coords.T
        ncols = int(np.argmax(r0 != r0[0])) or n
        if n % ncols:
            return None
        rows = np.append(r0[::ncols], r1[-1])
        cols = np.append(c0[:ncols], c1[ncols - 1])
        if np.any(np.diff(rows) <= 0) or np.any(np.diff(cols) <= 0):
            return None
        nrows = n // ncols
        cells = np.stack(
            (
                np.repeat(rows[:-1], ncols),
                np.tile(cols[:-1], nrows),
                np.repeat(rows[1:], ncols),
                np.tile(cols[1:], nrows),
            ),
            axis=1,
        )
        return SetGrid(rows, cols) if np.array_equal(coords, cells) else None

    def hits(self, regions: Bounds, alive: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The sets each region meets, as ``(region row, set index)``.

        Pairs come in (region row, row-major set) order; rows whose
        ``alive`` entry is false meet nothing.
        """
        rows, cols = self.rows, self.cols
        row_lo = rows[1:].searchsorted(regions.r0, "right")
        height = rows[:-1].searchsorted(regions.r1) - row_lo
        col_lo = cols[1:].searchsorted(regions.c0, "right")
        width = cols[:-1].searchsorted(regions.c1) - col_lo
        count = np.where(alive & (height > 0) & (width > 0), height * width, 0)
        owner = np.repeat(np.arange(len(count)), count)
        local = np.arange(len(owner)) - np.repeat(count.cumsum() - count, count)
        if len(cols) == 2:  # stripes: one set per row band
            return owner, row_lo[owner] + local
        step = width[owner]
        index = (row_lo[owner] + local // step) * (len(cols) - 1) + col_lo[owner] + local % step
        return owner, index


def _narrow(region: Bounds, alive: np.ndarray) -> tuple[Bounds, np.ndarray]:
    """``region`` as full columns, and ``alive`` minus its empty rows."""
    if not isinstance(region.r0, np.ndarray):  # a whole-map rule: one region for all
        region = Bounds(*(np.full(len(alive), col) for col in region))
    return region, alive & region.nonempty()


def _trace_columns(
    graph: Graph,
    name: str,
    region: Bounds,
    alive: np.ndarray,
    shapes: dict,
    paths: list[tuple[str, Bounds, np.ndarray]],
) -> None:
    """:func:`trace_to_base` for a column of regions at once.

    Appends ``(base layer, regions, alive)`` per producer path in the
    reference's DFS order.  A row stays alive while every region on its
    path is non-empty (the reference drops a path at its first empty
    region); ``alive`` already accounts for ``region``.
    """
    op = graph[name]
    if op.is_base:
        paths.append((name, region, alive))
        return
    if isinstance(op, Input):
        return
    input_shapes = [shapes[p] for p in op.inputs]
    for producer, sub in zip(op.inputs, op.input_bounds(region, input_shapes, shapes[name])):
        sub_alive = alive
        if sub is not region:  # elementwise ops pass the region through
            sub, sub_alive = _narrow(sub, alive)
            if not sub_alive.any():
                continue
        _trace_columns(graph, producer, sub, sub_alive, shapes, paths)


def _array_pass(graph: Graph, sets: dict[str, Sequence[Rect]]) -> Optional[SetGraphArrays]:
    """Stage II in one array pass per base layer, writing the CSR.

    Returns ``None`` when the per-set reference must run instead: the
    sets are not the graph's base layers in order, some layer's sets
    are not a row-major grid, or an op overrides the one-rectangle
    :meth:`~repro.ir.ops.Op.input_regions` rule.
    """
    if list(sets) != graph.base_layers():
        return None
    if any(type(op).input_regions is not Op.input_regions for op in graph):
        return None
    layers, offsets, coords = _set_columns(sets)
    grids: dict[str, SetGrid] = {}
    by_layout: dict[bytes, Optional[SetGrid]] = {}  # layers partitioned alike share a grid
    for lid, layer in enumerate(layers):
        layer_coords = coords[offsets[lid] : offsets[lid + 1]]
        layout = layer_coords.tobytes()
        if layout not in by_layout:
            by_layout[layout] = SetGrid.of(layer_coords)
        grid = by_layout[layout]
        if grid is None:
            return None
        grids[layer] = grid
    first_gid = {layer: int(offsets[lid]) for lid, layer in enumerate(layers)}
    total = int(offsets[-1])
    shapes = graph.infer_shapes()

    counts = [np.zeros(0, dtype=np.int64)]
    pieces = [np.zeros(0, dtype=np.int64)]
    for lid, layer in enumerate(layers):
        lo, hi = int(offsets[lid]), int(offsets[lid + 1])
        op = graph[layer]
        paths: list[tuple[str, Bounds, np.ndarray]] = []
        needed = op.input_bounds(
            Bounds(*coords[lo:hi].T), [shapes[p] for p in op.inputs], shapes[layer]
        )
        for producer, region in zip(op.inputs, needed):
            region, alive = _narrow(region, np.ones(hi - lo, dtype=bool))
            if alive.any():
                _trace_columns(graph, producer, region, alive, shapes, paths)
        owners, gids = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        found: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]] = {}
        for base_layer, region, alive in paths:
            # Paths through elementwise chains (residual adds) often share
            # one region and grid: look each combination up once.
            grid = grids[base_layer]
            key = (id(grid), id(region), id(alive))
            if key not in found:
                found[key] = grid.hits(region, alive)
            owner, index = found[key]
            owners.append(owner)
            gids.append(index + first_gid[base_layer])
        owner = np.concatenate(owners)
        gid = np.concatenate(gids)
        if len(paths) > 1:
            # (path, set) order -> (set, path) order.
            order = np.argsort(owner, kind="stable")
            owner, gid = owner[order], gid[order]
            if len({base_layer for base_layer, _, _ in paths}) < len(paths):
                # Two paths reach one producer: keep each edge's first.
                _, first = np.unique(owner * total + gid, return_index=True)
                first.sort()
                owner, gid = owner[first], gid[first]
        counts.append(np.bincount(owner, minlength=hi - lo))
        pieces.append(gid)
    indptr = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
    return _assemble(layers, offsets, coords, indptr, np.concatenate(pieces))


def determine_dependencies(
    graph: Graph, sets: dict[str, Sequence[Rect]], use_index: bool = True
) -> DependencyGraph:
    """Stage II: the full set-level dependency graph.

    Runs the array pass; ``use_index=False`` (or sets that are not
    row-major grids) runs the per-set reference walk instead.  Both
    produce the same edges in the same order.
    """
    if use_index:
        arrays = _array_pass(graph, sets)
        if arrays is not None:
            return DependencyGraph(sets=sets, arrays=arrays)
    shapes = graph.infer_shapes()
    deps = {
        (layer, set_index): set_dependencies(graph, sets, layer, set_index, shapes)
        for layer in graph.base_layers()
        for set_index in range(len(sets[layer]))
    }
    return DependencyGraph(sets=sets, deps=deps)


def layer_level_dependencies(graph: Graph) -> dict[str, list[str]]:
    """Base-layer-level predecessors (whole-OFM granularity).

    This is the dependency view of layer-by-layer inference: a layer
    may start only after every base layer feeding it (through any
    non-base path) has completed its entire OFM.
    """
    shapes = graph.infer_shapes()
    result: dict[str, list[str]] = {}
    for layer in graph.base_layers():
        op = graph[layer]
        input_shapes = [shapes[p] for p in op.inputs]
        needed = op.input_regions(shapes[layer].full_rect(), input_shapes, shapes[layer])
        preds: list[str] = []
        seen: set[str] = set()
        for producer, region in zip(op.inputs, needed):
            for base_layer, _ in trace_to_base(graph, producer, region, shapes):
                if base_layer not in seen:
                    seen.add(base_layer)
                    preds.append(base_layer)
        result[layer] = preds
    return result
