"""Graph rewrite applying weight duplication (Fig. 4 of the paper).

A base layer with duplication factor ``d`` is replaced by ``d``
duplicate layers, each computing a disjoint spatial slab of the OFM
(balanced cuts along OW by default, or OH).  Each duplicate reads its
required IFM slab through an explicit :class:`Slice` (the paper's
``tf.slice``) — slabs may overlap depending on kernel and stride — and
the slab outputs are re-assembled with a :class:`ConcatSpatial` (the
paper's ``tf.keras.layers.Concatenate``).

Why column (width) cuts by default: with cross-layer scheduling, OFM
rows are the forwarding granularity (sets stream row-major).  Cutting
along the width keeps every duplicate producing *every* row, so global
row ``r`` completes after ``(r+1) * OW / d`` cycles — rows finish in
order, at ``d`` times the un-duplicated rate, and downstream layers
pipeline without waiting for any duplicate to finish its whole slab.
Cutting along the height would make each stripe's final rows available
only when that stripe completes, serializing consumers of stripe
boundaries (measurably worse; see the ablation benchmark).

The rewrite is semantics-preserving: duplicates share the original
weight tensors and the concatenated output is numerically identical to
the un-duplicated layer (verified by the functional tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.graph import Graph, GraphError
from ..ir.ops import ConcatSpatial, Conv2D, Slice
from ..ir.tensor import Shape, split_extent
from .duplication import DuplicationSolution


class RewriteError(ValueError):
    """Raised when a duplication rewrite cannot be applied."""


@dataclass
class DuplicatedLayer:
    """Bookkeeping for one duplicated base layer."""

    original: str
    #: Cut axis: ``'width'`` or ``'height'``.
    axis: str = "width"
    duplicates: list[str] = field(default_factory=list)
    slices: list[str] = field(default_factory=list)
    concat: str = ""
    #: OFM ranges [(lo, hi), ...] along the cut axis, per duplicate.
    ranges: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class RewriteReport:
    """Result of :func:`apply_duplication`."""

    graph: Graph
    duplicated: dict[str, DuplicatedLayer] = field(default_factory=dict)
    #: Maps every base layer of the rewritten graph to its original
    #: layer name (identity for non-duplicated layers).
    origin_of: dict[str, str] = field(default_factory=dict)

    def duplicates_of(self, original: str) -> list[str]:
        """Duplicate node names of an original layer (itself if none)."""
        if original in self.duplicated:
            return list(self.duplicated[original].duplicates)
        return [original]


def _duplicate_one(
    graph: Graph,
    layer_name: str,
    factor: int,
    entry: DuplicatedLayer,
    shapes: dict[str, Shape],
) -> None:
    """Rewrite a single conv layer into ``factor`` spatial-slab duplicates.

    ``shapes`` holds the output shape of every node the rewrite reads
    (the layer and its producer); the new concat's shape is recorded in
    it, so later rewrites need no fresh shape inference.
    """
    op = graph[layer_name]
    if not isinstance(op, Conv2D):
        raise RewriteError(
            f"only Conv2D layers can be duplicated, '{layer_name}' is {op.op_type}"
        )
    if op.padding != "valid":
        raise RewriteError(
            f"'{layer_name}' must be canonical (valid padding) before duplication; "
            "run repro.frontend.preprocess first"
        )
    out_shape = shapes[layer_name]
    in_shape = shapes[op.inputs[0]]
    along_width = entry.axis == "width"
    out_extent = out_shape.width if along_width else out_shape.height
    if factor > out_extent:
        raise RewriteError(
            f"cannot cut the {out_extent}-{entry.axis} OFM of '{layer_name}' "
            f"into {factor} slabs"
        )
    producer = op.inputs[0]
    kernel = op.kernel[1] if along_width else op.kernel[0]
    stride = op.strides[1] if along_width else op.strides[0]
    in_extent = in_shape.width if along_width else in_shape.height
    consumers = graph.consumers(layer_name)

    duplicate_names = []
    for index, (lo, hi) in enumerate(split_extent(out_extent, factor)):
        in_lo = lo * stride
        in_size = (hi - 1 - lo) * stride + kernel
        if in_lo + in_size > in_extent:  # pragma: no cover - geometry guard
            raise RewriteError(
                f"IFM slab of '{layer_name}' duplicate {index} exceeds input bounds"
            )
        if along_width:
            offsets, sizes = (0, in_lo, 0), (-1, in_size, -1)
        else:
            offsets, sizes = (in_lo, 0, 0), (in_size, -1, -1)
        slice_name = graph.unique_name(f"{layer_name}/dup{index}/slice")
        graph.add(Slice(slice_name, [producer], offsets=offsets, sizes=sizes))
        dup_name = graph.unique_name(f"{layer_name}/dup{index}")
        graph.add(
            Conv2D(
                dup_name,
                [slice_name],
                out_channels=op.out_channels,
                kernel=op.kernel,
                strides=op.strides,
                padding="valid",
                use_bias=False,
                weights=op.weights,  # duplicates share the weight tensor
            )
        )
        duplicate_names.append(dup_name)
        entry.slices.append(slice_name)
        entry.ranges.append((lo, hi))

    concat_name = graph.unique_name(f"{layer_name}/concat")
    graph.add(ConcatSpatial(concat_name, duplicate_names, axis=entry.axis))
    for consumer in consumers:
        graph.replace_input(consumer, layer_name, concat_name)
    graph.remove(layer_name)
    shapes[concat_name] = out_shape
    entry.duplicates = duplicate_names
    entry.concat = concat_name


def apply_duplication(
    graph: Graph, solution: DuplicationSolution, axis: str = "width"
) -> RewriteReport:
    """Apply a duplication solution, returning a rewritten graph copy.

    Parameters
    ----------
    graph:
        Canonical model; never modified.
    solution:
        Per-layer duplication factors (layers with ``d_i = 1`` are
        untouched).
    axis:
        Cut direction: ``'width'`` (default; pipelining-friendly, see
        module docstring) or ``'height'`` (Fig. 4's row-cut variant,
        kept for the ablation study).
    """
    if axis not in ("width", "height"):
        raise RewriteError(f"axis must be 'width' or 'height', got {axis!r}")
    rewritten = graph.copy(f"{graph.name}_wdup")
    report = RewriteReport(graph=rewritten)
    shapes = graph.infer_shapes()
    for layer_name, factor in solution.d.items():
        if layer_name not in rewritten:
            raise RewriteError(f"solution references unknown layer '{layer_name}'")
        if factor < 1:
            raise RewriteError(f"duplication factor of '{layer_name}' must be >= 1")
        if factor == 1:
            continue
        entry = DuplicatedLayer(original=layer_name, axis=axis)
        _duplicate_one(rewritten, layer_name, factor, entry, shapes)
        report.duplicated[layer_name] = entry
    try:
        rewritten.topological_order()
    except GraphError as exc:  # pragma: no cover - rewrite is acyclic
        raise RewriteError(f"duplication produced an invalid graph: {exc}") from exc
    for name in rewritten.base_layers():
        origin = name.split("/dup")[0] if "/dup" in name else name
        report.origin_of[name] = origin
    return report
