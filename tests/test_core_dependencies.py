"""Tests for Stage II dependency determination."""

import numpy as np
import pytest

from repro.core import (
    FINEST,
    SetGranularity,
    SetGrid,
    determine_dependencies,
    determine_sets,
    layer_level_dependencies,
    trace_to_base,
)
from repro.frontend import preprocess
from repro.ir import Bounds, GraphBuilder, Rect
from repro.models import MODELS


def two_conv_with_pool():
    """Conv -> relu -> pool -> conv: the Fig. 5 shape of non-base path."""
    b = GraphBuilder("net")
    x = b.input((8, 8, 3), name="in")
    c1 = b.conv2d(x, 4, kernel=1, padding="valid", use_bias=False, name="c1")
    r = b.relu(c1)
    p = b.maxpool(r, 2)
    b.conv2d(p, 8, kernel=1, padding="valid", use_bias=False, name="c2")
    return b.graph


class TestTraceToBase:
    def test_through_elementwise_and_pool(self):
        g = two_conv_with_pool()
        # c2's input region [0,1) x [0,4) of the pooled map -> c1 rows 0-1
        results = trace_to_base(g, g["c2"].inputs[0], Rect(0, 0, 1, 4))
        assert results == [("c1", Rect(0, 0, 2, 8))]

    def test_stops_at_input(self):
        g = two_conv_with_pool()
        results = trace_to_base(g, "in", Rect(0, 0, 4, 4))
        assert results == []  # graph inputs impose no dependencies

    def test_empty_region_short_circuits(self):
        g = two_conv_with_pool()
        assert trace_to_base(g, g["c2"].inputs[0], Rect.empty()) == []

    def test_branches_traced_through_add(self):
        b = GraphBuilder("net")
        x = b.input((4, 4, 3), name="in")
        c1 = b.conv2d(x, 4, kernel=1, padding="valid", use_bias=False, name="c1")
        c2 = b.conv2d(x, 4, kernel=1, padding="valid", use_bias=False, name="c2")
        s = b.add([c1, c2])
        b.conv2d(s, 8, kernel=1, padding="valid", use_bias=False, name="c3")
        g = b.graph
        results = trace_to_base(g, g["c3"].inputs[0], Rect(0, 0, 2, 2))
        assert ("c1", Rect(0, 0, 2, 2)) in results
        assert ("c2", Rect(0, 0, 2, 2)) in results

    def test_padding_region_dropped(self):
        """Regions that land entirely in explicit padding have no deps."""
        b = GraphBuilder("net")
        x = b.input((4, 4, 3), name="in")
        c1 = b.conv2d(x, 4, kernel=1, padding="valid", use_bias=False, name="c1")
        p = b.pad(c1, (2, 0, 0, 0))
        b.conv2d(p, 8, kernel=1, padding="valid", use_bias=False, name="c2")
        g = b.graph
        # c2 rows [0, 2) read only the zero padding
        results = trace_to_base(g, g["c2"].inputs[0], Rect(0, 0, 2, 4))
        assert results == []


class TestDetermineDependencies:
    def test_pooling_dependency_pattern(self):
        g = two_conv_with_pool()
        sets = determine_sets(g)  # c1: 8 row sets; c2: 4 row sets
        deps = determine_dependencies(g, sets)
        # c2 row r needs c1 rows 2r and 2r+1 (2x2/2 pooling)
        for r in range(4):
            assert deps.predecessors("c2", r) == [("c1", 2 * r), ("c1", 2 * r + 1)]
        # c1 reads only the graph input
        for r in range(8):
            assert deps.predecessors("c1", r) == []

    def test_conv3x3_overlapping_dependencies(self):
        b = GraphBuilder("net")
        x = b.input((6, 6, 3), name="in")
        c1 = b.conv2d(x, 4, kernel=1, padding="valid", use_bias=False, name="c1")
        b.conv2d(c1, 8, kernel=3, padding="valid", use_bias=False, name="c2")
        g = b.graph
        sets = determine_sets(g)
        deps = determine_dependencies(g, sets)
        # c2 row r (4 rows) needs c1 rows r..r+2: the paper's P relation
        for r in range(4):
            assert deps.predecessors("c2", r) == [("c1", r), ("c1", r + 1), ("c1", r + 2)]

    def test_coarse_sets_fig5_style(self):
        g = two_conv_with_pool()
        granularity = SetGranularity(rows_per_set=None, target_sets=4)
        sets = determine_sets(g, granularity)
        deps = determine_dependencies(g, sets)
        assert deps.num_sets() == len(sets["c1"]) + len(sets["c2"])
        mean_fan_in, max_fan_in = deps.fan_in_stats()
        assert max_fan_in >= 1
        assert mean_fan_in > 0

    def test_edge_count(self):
        g = two_conv_with_pool()
        sets = determine_sets(g)
        deps = determine_dependencies(g, sets)
        assert deps.edge_count() == 8  # 4 c2-rows x 2 producer rows

    def test_dual_head_model(self):
        from repro.models import tiny_dual_head

        canonical = preprocess(tiny_dual_head(), quantization=None).graph
        sets = determine_sets(canonical)
        deps = determine_dependencies(canonical, sets)
        # every set of every base layer has an entry
        assert deps.num_sets() == sum(len(v) for v in sets.values())
        assert set(deps.deps) == {
            (layer, i) for layer, rects in sets.items() for i in range(len(rects))
        }


class TestLayerLevelDependencies:
    def test_chain(self):
        g = two_conv_with_pool()
        preds = layer_level_dependencies(g)
        assert preds == {"c1": [], "c2": ["c1"]}

    def test_residual_branches(self):
        from repro.models import tiny_residual

        canonical = preprocess(tiny_residual(), quantization=None).graph
        preds = layer_level_dependencies(canonical)
        base = canonical.base_layers()
        # the last conv feeds the Add; the Add output is consumed by relu
        # only, so the final conv's preds include the first conv via Add
        last = base[-1]
        assert len(preds[last]) >= 1

    def test_upsample_concat_path(self):
        from repro.models import tiny_dual_head

        canonical = preprocess(tiny_dual_head(), quantization=None).graph
        preds = layer_level_dependencies(canonical)
        # the fine head's conv depends on two base layers via the concat
        multi = [layer for layer, p in preds.items() if len(p) >= 2]
        assert multi


def grid_hits(grid, region):
    """Set indices the grid lookup finds for one region."""
    columns = Bounds(*(np.array([v]) for v in (region.r0, region.c0, region.r1, region.c1)))
    _, index = grid.hits(columns, columns.nonempty())
    return index.tolist()


def scan_hits(rects, region):
    """The reference's all-pairs scan: every intersecting set index."""
    return [i for i, rect in enumerate(rects) if rect.intersects(region)]


def grid_of(rects):
    return SetGrid.of(np.array([(r.r0, r.c0, r.r1, r.c1) for r in rects], dtype=np.int64))


def assert_same_csr(graph, sets):
    """Array pass and reference walk agree array for array."""
    fast = determine_dependencies(graph, sets).arrays
    slow = determine_dependencies(graph, sets, use_index=False).arrays
    np.testing.assert_array_equal(fast.indptr, slow.indptr)
    np.testing.assert_array_equal(fast.indices, slow.indices)


class TestRectIndex:
    """The row-major grid lookup that replaced the interval index, and
    the routing of non-grid sets to the reference walk."""

    def test_stripe_sets(self):
        rects = [Rect(r, 0, r + 1, 16) for r in range(32)]
        grid = grid_of(rects)
        for region in (Rect(0, 0, 1, 16), Rect(5, 3, 9, 12),
                       Rect(31, 0, 32, 16), Rect(0, 0, 32, 16)):
            assert grid_hits(grid, region) == scan_hits(rects, region)

    def test_empty_region(self):
        grid = grid_of([Rect(0, 0, 4, 4)])
        assert grid_hits(grid, Rect(2, 2, 2, 2)) == []

    def test_random_rect_soup(self):
        """Ragged or overlapping rect lists are never taken for a grid;
        random grids answer every region like the all-pairs scan."""
        import random

        rng = random.Random(1234)
        for _ in range(20):
            soup = [
                Rect(r0, c0, r0 + rng.randint(1, 7), c0 + rng.randint(1, 7))
                for r0, c0 in (
                    (rng.randint(0, 40), rng.randint(0, 40)) for _ in range(60)
                )
            ]
            assert grid_of(soup) is None
            rows = sorted(rng.sample(range(41), rng.randint(2, 8)))
            cols = sorted(rng.sample(range(41), rng.randint(2, 8)))
            rects = [
                Rect(r0, c0, r1, c1)
                for r0, r1 in zip(rows, rows[1:])
                for c0, c1 in zip(cols, cols[1:])
            ]
            grid = grid_of(rects)
            for _ in range(50):
                r0, c0 = rng.randint(-5, 45), rng.randint(-5, 45)
                region = Rect(r0, c0, r0 + rng.randint(0, 10), c0 + rng.randint(0, 10))
                assert grid_hits(grid, region) == scan_hits(rects, region)

    def test_indexed_and_naive_stage2_agree(self):
        from repro.models import tiny_dual_head

        canonical = preprocess(tiny_dual_head(), quantization=None).graph
        sets = determine_sets(canonical)
        fast = determine_dependencies(canonical, sets, use_index=True)
        slow = determine_dependencies(canonical, sets, use_index=False)
        assert fast.deps == slow.deps
        assert list(fast.deps.items()) == list(slow.deps.items())

    def test_indexed_and_naive_agree_at_coarse_granularity(self):
        g = two_conv_with_pool()
        sets = determine_sets(g, SetGranularity(rows_per_set=None, target_sets=4))
        fast = determine_dependencies(g, sets, use_index=True)
        slow = determine_dependencies(g, sets, use_index=False)
        assert fast.deps == slow.deps
        assert_same_csr(g, sets)

    def test_empty_rects_excluded_like_naive_scan(self, monkeypatch):
        """Sets with an empty rect are not a grid: Stage II takes the
        reference walk, where empty rects intersect nothing."""
        g = two_conv_with_pool()
        sets = determine_sets(g)
        sets["c1"] = [Rect(0, 0, 2, 8), Rect(2, 0, 2, 8), Rect(2, 0, 8, 8)]
        assert grid_of(sets["c1"]) is None
        walked = count_reference_walks(monkeypatch)
        deps = determine_dependencies(g, sets)
        assert walked
        assert all(ref != ("c1", 1) for preds in deps.deps.values() for ref in preds)
        assert deps.predecessors("c2", 0) == [("c1", 0)]

    def test_row_major_entry_order_skips_query_sort(self):
        """Stage I emits row-major sets, so grid hits come back in
        ascending set order, pinned against the all-pairs scan."""
        from repro.core.sets import partition_ofm
        from repro.ir import Shape

        for granularity in (FINEST, SetGranularity(rows_per_set=None, target_sets=6)):
            rects = partition_ofm(Shape(16, 8, 3), granularity)
            grid = grid_of(rects)
            assert grid is not None
            for region in (Rect(0, 0, 3, 8), Rect(5, 2, 11, 7), Rect(0, 0, 16, 8)):
                hits = grid_hits(grid, region)
                assert hits == scan_hits(rects, region)
                assert hits == sorted(hits)

    def test_shuffled_entry_order_still_sorts_by_index(self, monkeypatch):
        """Shuffled sets are no row-major grid: Stage II routes them to
        the reference walk, whose edges follow set-index order."""
        import random

        g = two_conv_with_pool()
        sets = determine_sets(g)
        random.Random(7).shuffle(sets["c1"])
        assert grid_of(sets["c1"]) is None
        walked = count_reference_walks(monkeypatch)
        deps = determine_dependencies(g, sets)
        assert walked
        for refs in deps.deps.values():
            assert refs == sorted(refs)
        assert deps == determine_dependencies(g, sets, use_index=False)


def count_reference_walks(monkeypatch):
    """Record every per-set reference walk Stage II makes."""
    from repro.core import dependencies

    walked = []
    original = dependencies.set_dependencies

    def counting(*args, **kwargs):
        walked.append(args[2:4])
        return original(*args, **kwargs)

    monkeypatch.setattr(dependencies, "set_dependencies", counting)
    return walked


def mapped_graphs(model):
    """(canonical, weight-duplicated) graphs of a zoo model at PE_min + 4."""
    from repro.arch import paper_case_study
    from repro.core import ScheduleOptions, duplication_stage
    from repro.mapping import minimum_pe_requirement
    from repro.models import build

    canonical = preprocess(build(model), quantization=None).graph
    pes = minimum_pe_requirement(canonical, paper_case_study(1).crossbar)
    options = ScheduleOptions(mapping="wdup")
    wdup = duplication_stage(canonical, paper_case_study(pes + 4), options)[1].graph
    return {"none": canonical, "wdup": wdup}


class TestArrayPass:
    """The array pass writes the reference walk's CSR, edge order included."""

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_zoo_models_at_finest(self, model):
        for graph in mapped_graphs(model).values():
            assert_same_csr(graph, determine_sets(graph, FINEST))

    @pytest.mark.parametrize(
        "granularity",
        [
            SetGranularity(rows_per_set=3),
            SetGranularity(rows_per_set=None, target_sets=16),
            SetGranularity(rows_per_set=None, target_sets=7, min_cols=3),
        ],
        ids=["rows3", "grid16", "grid7-mincols3"],
    )
    @pytest.mark.parametrize("model", ["tinyyolov3", "tinyyolov4", "resnet50", "vgg16"])
    def test_coarse_granularities(self, model, granularity):
        for graph in mapped_graphs(model).values():
            assert_same_csr(graph, determine_sets(graph, granularity))

    def test_deps_view_matches_reference_order(self):
        from repro.models import tiny_csp

        g = preprocess(tiny_csp(), quantization=None).graph
        sets = determine_sets(g)
        fast = determine_dependencies(g, sets)
        slow = determine_dependencies(g, sets, use_index=False)
        assert list(fast.deps.items()) == list(slow.deps.items())
        assert fast.edge_count() == slow.edge_count()
        assert fast.fan_in_stats() == slow.fan_in_stats()

    @pytest.mark.parametrize("granularity", [FINEST, SetGranularity(rows_per_set=None, target_sets=9)])
    def test_producer_reached_twice_keeps_first_edge(self, granularity):
        """Two non-base paths into one producer (a pooled skip around a
        concat) yield each edge once, where the reference first saw it."""
        b = GraphBuilder("twice")
        x = b.input((12, 12, 3), name="in")
        c1 = b.conv2d(x, 4, kernel=1, padding="valid", use_bias=False, name="c1")
        a = b.relu(c1)
        pooled = b.upsample(b.maxpool(a, 2), 2)
        b.conv2d(b.concat([a, pooled]), 4, kernel=3, padding="same", use_bias=False, name="c2")
        g = b.graph
        sets = determine_sets(g, granularity)
        deps = determine_dependencies(g, sets)
        for refs in deps.deps.values():
            assert len(refs) == len(set(refs))
        assert_same_csr(g, sets)

    def test_single_base_layer_has_no_edges(self):
        b = GraphBuilder("one")
        x = b.input((6, 6, 3), name="in")
        b.conv2d(x, 4, kernel=3, padding="same", use_bias=False, name="c1")
        g = b.graph
        sets = determine_sets(g)
        deps = determine_dependencies(g, sets)
        assert deps.edge_count() == 0
        np.testing.assert_array_equal(deps.arrays.indptr, np.zeros(7, dtype=np.int64))
        assert deps.deps == {("c1", i): [] for i in range(6)}
        assert_same_csr(g, sets)

    def test_custom_region_rule_takes_reference_walk(self, monkeypatch):
        """An op that overrides only the one-rectangle rule has no array
        form, so Stage II walks its sets one by one."""
        from repro.ir import Identity

        class Shifted(Identity):
            def input_regions(self, out_rect, input_shapes, output_shape):
                return [out_rect.shift(1, 0).clip(input_shapes[0].height, input_shapes[0].width)]

        b = GraphBuilder("custom")
        x = b.input((6, 6, 3), name="in")
        c1 = b.conv2d(x, 4, kernel=1, padding="valid", use_bias=False, name="c1")
        g = b.graph
        g.add(Shifted("shift", [c1]))
        g.add(type(g["c1"])("c2", ["shift"], out_channels=4))
        sets = determine_sets(g)
        walked = count_reference_walks(monkeypatch)
        deps = determine_dependencies(g, sets)
        assert walked
        assert deps.predecessors("c2", 0) == [("c1", 1)]
        assert deps.predecessors("c2", 5) == []
