"""Per-stage artifact codecs over the versioned serialization vocabulary.

Every pipeline stage the store can persist gets one :class:`StageCodec`
pairing an ``encode`` (stage value → JSON-compatible payload) with a
``decode``.  The payload formats ride the existing
:mod:`repro.ir.serialize` vocabulary wherever one exists (graphs,
architectures, sets, schedules, duplication solutions, rewrites); the
two stage values that format never stored standalone — per-layer
tilings and placements — get small codecs here.  Placements store
their tilings explicitly: unlike the compiled-artifact loader, a store
decode has no mapped graph in hand to recompute them from.  The Stage
II set graph is stored as packed integer arrays (its CSR form), not
as JSON lists.

Each codec carries a ``version`` that is folded into the entry's
content address (see :func:`repro.store.keys.key_digest`), so bumping
a codec orphans only that stage's entries.

Stages without a codec here (third-party mapping rules keyed through
``ctx.cached``) simply stay memory-only.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from ..ir.serialize import (
    _duplication_from_dict,
    _duplication_to_dict,
    _rewrite_from_dict,
    _rewrite_to_dict,
    _sets_from_dict,
    _sets_to_dict,
    arch_from_dict,
    arch_to_dict,
    graph_from_dict,
    graph_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)

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


# -- Stage I sets (sets) ----------------------------------------------------


def _encode_sets(value: Any) -> dict[str, Any]:
    return {"sets": _sets_to_dict(value)}


def _decode_sets(payload: dict[str, Any]) -> Any:
    return _sets_from_dict(payload["sets"])


# -- Stage II dependencies (deps) -------------------------------------------
#
# Version 2 stores the set graph as packed arrays (base64 of little-endian
# int32): the set rectangles per layer and the CSR, instead of one JSON
# list per set.  Decoding checks the structure, so a well-formed but
# wrong payload is quarantined like a corrupt one.


def _pack(array: Any) -> str:
    return base64.b64encode(np.asarray(array, dtype="<i4").tobytes()).decode("ascii")


def _unpack(text: str) -> Any:
    return np.frombuffer(base64.b64decode(text, validate=True), dtype="<i4")


def _encode_deps(value: Any) -> dict[str, Any]:
    arrays = value.arrays
    return {
        "layers": list(arrays.layers),
        "counts": np.diff(arrays.offsets).tolist(),
        "rects": _pack(np.stack((arrays.r0, arrays.c0, arrays.r1, arrays.c1), axis=1)),
        "indptr": _pack(arrays.indptr),
        "indices": _pack(arrays.indices),
    }


def _decode_deps(payload: dict[str, Any]) -> Any:
    from ..core.dependencies import DependencyGraph, SetGraphArrays
    from ..ir.tensor import Rect

    layers, counts = payload["layers"], payload["counts"]
    rows = _unpack(payload["rects"]).reshape(-1, 4).tolist()
    if len(layers) != len(counts) or min(counts, default=0) < 0 or sum(counts) != len(rows):
        raise ValueError("deps payload: set counts do not match the rectangles")
    sets: dict[str, list[Rect]] = {}
    start = 0
    for layer, count in zip(layers, counts):
        sets[layer] = [Rect(*row) for row in rows[start : start + count]]
        start += count
    arrays = SetGraphArrays.from_csr(
        sets, _unpack(payload["indptr"]), _unpack(payload["indices"])
    )
    return DependencyGraph(sets=sets, arrays=arrays)


# -- schedule ---------------------------------------------------------------


def _encode_schedule(value: Any) -> dict[str, Any]:
    return {"schedule": schedule_to_dict(value)}


def _decode_schedule(payload: dict[str, Any]) -> Any:
    return schedule_from_dict(payload["schedule"])


#: Stage name → codec, for every stage the pipeline caches.
CODECS: dict[str, StageCodec] = {
    codec.stage: codec
    for codec in (
        StageCodec("preprocess", 1, _encode_graph, _decode_graph),
        StageCodec("tile", 1, _encode_tilings, _decode_tilings),
        StageCodec("wdup", 1, _encode_wdup, _decode_wdup),
        StageCodec("place", 1, _encode_placement, _decode_placement),
        StageCodec("sets", 1, _encode_sets, _decode_sets),
        StageCodec("deps", 2, _encode_deps, _decode_deps),
        StageCodec("schedule", 1, _encode_schedule, _decode_schedule),
    )
}


def codec_for(stage: str) -> Optional[StageCodec]:
    """The codec of ``stage``, or ``None`` (entry stays memory-only)."""
    return CODECS.get(stage)
