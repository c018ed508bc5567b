"""Per-stage artifact codecs over the versioned serialization vocabulary.

Every pipeline stage the store can persist gets one :class:`StageCodec`
pairing an ``encode`` (stage value → JSON-compatible payload) with a
``decode``.  The payload formats ride the existing
:mod:`repro.ir.serialize` vocabulary wherever one exists (graphs,
architectures, duplication solutions, rewrites, row-form schedules);
the two stage values that format never stored standalone — per-layer
tilings and placements — get small codecs here.  Placements store
their tilings explicitly: unlike the compiled-artifact loader, a store
decode has no mapped graph in hand to recompute them from.

The three set-level stages hold one entry per scheduling set, so they
are stored as packed integer arrays rather than JSON lists, all
through one pack/unpack pair: Stage I sets (``sets``, v2) as their
coordinate columns, the Stage II set graph (``deps``, v2) as those
columns plus its CSR, and columnar schedules (``schedule``, v2) column
by column.  Decoding the sets gives back
:class:`~repro.ir.tensor.RectColumns` without building a ``Rect`` per
set, and every decoder checks the structure it reads.

Each codec carries a ``version`` that is folded into the entry's
content address (see :func:`repro.store.keys.key_digest`), so bumping
a codec orphans only that stage's entries.

Stages without a codec here (third-party mapping rules keyed through
``ctx.cached``) simply stay memory-only.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..ir.serialize import (
    _SCHEDULE_COLUMNS,
    _duplication_from_dict,
    _duplication_to_dict,
    _rewrite_from_dict,
    _rewrite_to_dict,
    arch_from_dict,
    arch_to_dict,
    graph_from_dict,
    graph_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)
from ..ir.tensor import Rect, RectColumns

__all__ = ["CODECS", "StageCodec", "codec_for"]


@dataclass(frozen=True)
class StageCodec:
    """(encode, decode, version) of one persistable pipeline stage."""

    stage: str
    version: int
    encode: Callable[[Any], dict[str, Any]]
    decode: Callable[[dict[str, Any]], Any]


# -- graphs (preprocess) ----------------------------------------------------


def _encode_graph(value: Any) -> dict[str, Any]:
    return {"graph": graph_to_dict(value, include_params=True)}


def _decode_graph(payload: dict[str, Any]) -> Any:
    return graph_from_dict(payload["graph"])


# -- tilings (tile) ---------------------------------------------------------


def _encode_tilings(value: Any) -> dict[str, Any]:
    return {
        "tilings": {
            layer: {
                "lowering": {
                    "layer": tiling.lowering.layer,
                    "kernel_rows": tiling.lowering.kernel_rows,
                    "kernel_cols": tiling.lowering.kernel_cols,
                    "num_mvms": tiling.lowering.num_mvms,
                    "ofm_shape": list(tiling.lowering.ofm_shape.hwc),
                },
                "pe_grid": list(tiling.pe_grid),
            }
            for layer, tiling in value.items()
        }
    }


def _decode_tilings(payload: dict[str, Any]) -> Any:
    from ..ir.tensor import Shape
    from ..mapping.im2col import GemmLowering
    from ..mapping.tiling import LayerTiling

    return {
        layer: LayerTiling(
            lowering=GemmLowering(
                layer=record["lowering"]["layer"],
                kernel_rows=int(record["lowering"]["kernel_rows"]),
                kernel_cols=int(record["lowering"]["kernel_cols"]),
                num_mvms=int(record["lowering"]["num_mvms"]),
                ofm_shape=Shape.from_tuple(record["lowering"]["ofm_shape"]),
            ),
            pe_grid=(int(record["pe_grid"][0]), int(record["pe_grid"][1])),
        )
        for layer, record in payload["tilings"].items()
    }


# -- duplication solution + rewrite (wdup) ----------------------------------


def _encode_wdup(value: Any) -> dict[str, Any]:
    duplication, rewrite = value
    return {
        "duplication": _duplication_to_dict(duplication),
        "graph": graph_to_dict(rewrite.graph, include_params=True),
        "rewrite": _rewrite_to_dict(rewrite),
    }


def _decode_wdup(payload: dict[str, Any]) -> Any:
    mapped = graph_from_dict(payload["graph"])
    return (
        _duplication_from_dict(payload["duplication"]),
        _rewrite_from_dict(payload["rewrite"], mapped),
    )


# -- placement (place) ------------------------------------------------------


def _encode_placement(value: Any) -> dict[str, Any]:
    return {
        "arch": arch_to_dict(value.arch),
        "pe_ranges": {
            layer: list(pe_range) for layer, pe_range in value.pe_ranges.items()
        },
        **_encode_tilings(value.tilings),
    }


def _decode_placement(payload: dict[str, Any]) -> Any:
    from ..mapping.placement import Placement

    return Placement(
        arch=arch_from_dict(payload["arch"]),
        pe_ranges={
            layer: (int(start), int(end))
            for layer, (start, end) in payload["pe_ranges"].items()
        },
        tilings=_decode_tilings(payload),
    )


# -- packed arrays -----------------------------------------------------------
#
# The three set-level stages store their integer columns packed (base64
# of little-endian int32, or int64 for cycle counts) instead of one JSON
# list per set.  Decoding checks the structure, so a well-formed but
# wrong payload raises and is quarantined like a corrupt one.


def _pack(array: Any, dtype: str = "<i4") -> str:
    return base64.b64encode(np.asarray(array, dtype=dtype).tobytes()).decode("ascii")


def _unpack(text: str, dtype: str = "<i4") -> Any:
    return np.frombuffer(base64.b64decode(text, validate=True), dtype=dtype)


def _pack_sets(sets: dict[str, Sequence[Rect]]) -> dict[str, Any]:
    """Stage I sets as ``layers``, per-layer ``counts`` and packed ``rects``."""
    columns = [RectColumns.of(rects).coords for rects in sets.values()]
    return {
        "layers": list(sets),
        "counts": [len(coords) for coords in columns],
        "rects": _pack(np.concatenate(columns) if columns else np.zeros((0, 4))),
    }


def _unpack_sets(payload: dict[str, Any]) -> dict[str, RectColumns]:
    """The inverse of :func:`_pack_sets`: one :class:`RectColumns` per layer."""
    layers, counts = payload["layers"], payload["counts"]
    rects = _unpack(payload["rects"]).astype(np.int64).reshape(-1, 4)
    if (
        len(layers) != len(counts)
        or len(set(layers)) != len(layers)
        or not all(isinstance(count, int) and count >= 0 for count in counts)
        or sum(counts) != len(rects)
    ):
        raise ValueError("set counts do not match the rectangles")
    bounds = np.cumsum([0, *counts]).tolist()
    return {
        layer: RectColumns(rects[lo:hi])
        for layer, lo, hi in zip(layers, bounds, bounds[1:])
    }


# -- Stage II dependencies (deps) -------------------------------------------
#
# The sets plus the CSR of the set graph.


def _encode_deps(value: Any) -> dict[str, Any]:
    arrays = value.arrays
    return {
        **_pack_sets(value.sets),
        "indptr": _pack(arrays.indptr),
        "indices": _pack(arrays.indices),
    }


def _decode_deps(payload: dict[str, Any]) -> Any:
    from ..core.dependencies import DependencyGraph, SetGraphArrays

    sets = _unpack_sets(payload)
    arrays = SetGraphArrays.from_csr(
        sets, _unpack(payload["indptr"]), _unpack(payload["indices"])
    )
    return DependencyGraph(sets=sets, arrays=arrays)


# -- schedule ---------------------------------------------------------------
#
# Columnar schedules (the CSR kernels' output) store each column packed;
# row-form schedules (layer-by-layer) keep their JSON record.


def _column_dtype(name: str) -> str:
    """Cycle counts (``start``/``end``) need 64 bits; ids and coordinates fit 32."""
    return "<i8" if name in ("start", "end") else "<i4"


def _encode_schedule(value: Any) -> dict[str, Any]:
    if not value.has_columns:
        return {"schedule": schedule_to_dict(value)}
    cols = value.columns()
    return {
        "policy": value.policy,
        "layers": list(cols.layers),
        "columns": {
            name: _pack(getattr(cols, name), _column_dtype(name))
            for name in _SCHEDULE_COLUMNS
        },
    }


def _decode_schedule(payload: dict[str, Any]) -> Any:
    from ..core.schedule import Schedule, ScheduleColumns

    if "schedule" in payload:
        return schedule_from_dict(payload["schedule"])
    layers = tuple(payload["layers"])
    columns = {}
    for name in _SCHEDULE_COLUMNS:
        dtype = _column_dtype(name)
        columns[name] = _unpack(payload["columns"][name], dtype).astype(np.dtype(dtype).type)
    rows = len(columns["start"])
    if any(len(column) != rows for column in columns.values()):
        raise ValueError("schedule columns differ in length")
    layer_id = columns["layer_id"]
    if rows and (layer_id.min() < 0 or layer_id.max() >= len(layers)):
        raise ValueError("schedule layer id out of range")
    return Schedule(
        policy=payload["policy"], columns=ScheduleColumns(layers=layers, **columns)
    )


#: Stage name → codec, for every stage the pipeline caches.
CODECS: dict[str, StageCodec] = {
    codec.stage: codec
    for codec in (
        StageCodec("preprocess", 1, _encode_graph, _decode_graph),
        StageCodec("tile", 1, _encode_tilings, _decode_tilings),
        StageCodec("wdup", 1, _encode_wdup, _decode_wdup),
        StageCodec("place", 1, _encode_placement, _decode_placement),
        StageCodec("sets", 2, _pack_sets, _unpack_sets),
        StageCodec("deps", 2, _encode_deps, _decode_deps),
        StageCodec("schedule", 2, _encode_schedule, _decode_schedule),
    )
}


def codec_for(stage: str) -> Optional[StageCodec]:
    """The codec of ``stage``, or ``None`` (entry stays memory-only)."""
    return CODECS.get(stage)
