"""Tests for Stage I set partitioning."""

import functools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import FINEST, SetGranularity, determine_sets, partition_ofm, validate_partition
from repro.frontend import preprocess
from repro.ir import GraphBuilder, Rect, RectColumns, Shape
from repro.models import MODELS, build


class TestGranularityConfig:
    def test_finest_default(self):
        assert FINEST.rows_per_set == 1

    def test_exactly_one_mode(self):
        with pytest.raises(ValueError):
            SetGranularity(rows_per_set=1, target_sets=4)
        with pytest.raises(ValueError):
            SetGranularity(rows_per_set=None, target_sets=None)

    def test_validation(self):
        with pytest.raises(ValueError):
            SetGranularity(rows_per_set=0)
        with pytest.raises(ValueError):
            SetGranularity(rows_per_set=None, target_sets=0)
        with pytest.raises(ValueError):
            SetGranularity(rows_per_set=1, min_rows=0)


class TestPartitionOfm:
    def test_row_granularity(self):
        sets = partition_ofm(Shape(13, 13, 512))
        assert len(sets) == 13
        assert all(rect.rows == 1 and rect.cols == 13 for rect in sets)

    def test_multi_row_stripes(self):
        sets = partition_ofm(Shape(10, 8, 4), SetGranularity(rows_per_set=4))
        assert [rect.rows for rect in sets] == [4, 4, 2]

    def test_target_sets_mode_fig5_style(self):
        # 4x4 OFM into ~4 sets of 2x2, as in the paper's Fig. 5 example
        sets = partition_ofm(Shape(4, 4, 8), SetGranularity(rows_per_set=None,
                                                            target_sets=4))
        assert len(sets) == 4
        assert all(rect.area == 4 for rect in sets)

    def test_target_sets_respects_minimum(self):
        granularity = SetGranularity(rows_per_set=None, target_sets=64,
                                     min_rows=2, min_cols=2)
        sets = partition_ofm(Shape(8, 8, 4), granularity)
        assert all(rect.rows >= 2 and rect.cols >= 2 for rect in sets)

    def test_single_pixel_ofm(self):
        sets = partition_ofm(Shape(1, 1, 100))
        assert len(sets) == 1
        assert sets[0].area == 1

    @given(
        height=st.integers(1, 64),
        width=st.integers(1, 64),
        channels=st.integers(1, 16),
        rows=st.integers(1, 16),
    )
    def test_property_rows_mode_valid(self, height, width, channels, rows):
        shape = Shape(height, width, channels)
        sets = partition_ofm(shape, SetGranularity(rows_per_set=rows))
        validate_partition(shape, sets)

    @given(
        height=st.integers(1, 48),
        width=st.integers(1, 48),
        target=st.integers(1, 64),
    )
    def test_property_target_mode_valid(self, height, width, target):
        shape = Shape(height, width, 3)
        sets = partition_ofm(
            shape, SetGranularity(rows_per_set=None, target_sets=target)
        )
        validate_partition(shape, sets)

    @given(height=st.integers(2, 64), width=st.integers(2, 64))
    def test_property_similar_sizes(self, height, width):
        """Stage I: sets are grid-regular — only border tiles shrink,
        so at most two distinct heights and two distinct widths occur."""
        shape = Shape(height, width, 1)
        sets = partition_ofm(shape, SetGranularity(rows_per_set=None, target_sets=6))
        assert len({rect.rows for rect in sets}) <= 2
        assert len({rect.cols for rect in sets}) <= 2


class TestDetermineSets:
    def test_per_layer_partition(self):
        b = GraphBuilder("net")
        x = b.input((8, 8, 3), name="in")
        c1 = b.conv2d(x, 4, kernel=3, padding="valid", use_bias=False, name="c1")
        p = b.maxpool(c1, 2, name="pool")
        b.conv2d(p, 8, kernel=1, padding="valid", use_bias=False, name="c2")
        sets = determine_sets(b.graph)
        assert set(sets) == {"c1", "c2"}
        assert len(sets["c1"]) == 6  # 6x6 OFM, one row each
        assert len(sets["c2"]) == 3  # 3x3 OFM

    def test_dense_single_set(self):
        b = GraphBuilder("net")
        x = b.input((1, 1, 64), name="in")
        b.dense(x, 10, use_bias=False, name="fc")
        sets = determine_sets(b.graph)
        assert len(sets["fc"]) == 1

    def test_validation_invariants(self):
        b = GraphBuilder("net")
        x = b.input((31, 17, 3), name="in")
        b.conv2d(x, 4, kernel=3, padding="valid", use_bias=False, name="c1")
        g = b.graph
        sets = determine_sets(g, SetGranularity(rows_per_set=3))
        validate_partition(g.shape_of("c1"), sets["c1"])


class TestValidatePartition:
    def test_detects_overlap(self):
        from repro.ir import Rect

        with pytest.raises(AssertionError, match="overlap"):
            validate_partition(Shape(2, 2, 1), [Rect(0, 0, 2, 2), Rect(1, 1, 2, 2)])

    def test_detects_missing_coverage(self):
        from repro.ir import Rect

        with pytest.raises(AssertionError, match="cover"):
            validate_partition(Shape(2, 2, 1), [Rect(0, 0, 1, 2)])

    def test_detects_out_of_bounds(self):
        from repro.ir import Rect

        with pytest.raises(AssertionError, match="exceeds"):
            validate_partition(Shape(2, 2, 1), [Rect(0, 0, 3, 2)])

    def test_detects_empty_set(self):
        from repro.ir import Rect

        with pytest.raises(AssertionError, match="empty"):
            validate_partition(Shape(2, 2, 1), [Rect(0, 0, 0, 0), Rect(0, 0, 2, 2)])


def rect_grid_loop(height, width, tile_rows, tile_cols):
    """Stage I's former per-Rect tiling loop, kept as the oracle."""
    tiles = []
    for r0 in range(0, height, tile_rows):
        for c0 in range(0, width, tile_cols):
            tiles.append(Rect(r0, c0, min(r0 + tile_rows, height), min(c0 + tile_cols, width)))
    return tiles


@functools.lru_cache(maxsize=None)
def canonical(model):
    return preprocess(build(model), quantization=None).graph


class TestColumnarSets:
    """``determine_sets`` builds coordinate columns equal to the per-Rect loop."""

    @pytest.mark.parametrize(
        "granularity",
        [
            SetGranularity(rows_per_set=1),
            SetGranularity(rows_per_set=3),
            SetGranularity(rows_per_set=None, target_sets=16),
            SetGranularity(rows_per_set=None, target_sets=7, min_cols=3),
        ],
        ids=["rows1", "rows3", "grid16", "grid7-mincols3"],
    )
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_zoo_matches_per_rect_loop(self, model, granularity, monkeypatch):
        from repro.core import sets as stage_one

        graph = canonical(model)
        columns = determine_sets(graph, granularity)
        monkeypatch.setattr(stage_one, "rect_grid", rect_grid_loop)
        oracle = determine_sets(graph, granularity)
        assert list(columns) == list(oracle)
        for layer, rects in oracle.items():
            assert isinstance(columns[layer], RectColumns)
            assert columns[layer].coords.tolist() == [[r.r0, r.c0, r.r1, r.c1] for r in rects]
            assert columns[layer] == rects
