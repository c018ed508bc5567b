"""Unit tests for repro.ir.tensor: Shape, Rect and tiling helpers."""

import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ir import Rect, RectColumns, Shape, rect_grid, split_extent


class TestShape:
    def test_basic_properties(self):
        shape = Shape(4, 5, 3)
        assert shape.hwc == (4, 5, 3)
        assert shape.num_elements == 60
        assert shape.spatial_size == 20

    def test_from_tuple(self):
        assert Shape.from_tuple([7, 8, 9]) == Shape(7, 8, 9)

    def test_from_tuple_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            Shape.from_tuple((1, 2))

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            Shape(0, 1, 1)
        with pytest.raises(ValueError):
            Shape(1, -2, 1)

    def test_rejects_non_int(self):
        with pytest.raises(TypeError):
            Shape(1.5, 2, 3)

    def test_with_channels(self):
        assert Shape(2, 3, 4).with_channels(9) == Shape(2, 3, 9)

    def test_full_rect(self):
        assert Shape(4, 6, 1).full_rect() == Rect(0, 0, 4, 6)

    def test_str(self):
        assert str(Shape(208, 208, 32)) == "(208, 208, 32)"

    def test_equality_and_hash(self):
        assert Shape(1, 2, 3) == Shape(1, 2, 3)
        assert hash(Shape(1, 2, 3)) == hash(Shape(1, 2, 3))
        assert Shape(1, 2, 3) != Shape(1, 2, 4)


class TestRect:
    def test_dimensions(self):
        rect = Rect(1, 2, 4, 7)
        assert rect.rows == 3
        assert rect.cols == 5
        assert rect.area == 15
        assert not rect.is_empty()

    def test_empty(self):
        assert Rect(3, 3, 3, 5).is_empty()
        assert Rect(3, 3, 2, 5).is_empty()
        assert Rect.empty().area == 0

    def test_negative_extent_clamps_to_zero(self):
        rect = Rect(5, 5, 2, 2)
        assert rect.rows == 0
        assert rect.cols == 0
        assert rect.area == 0

    def test_intersect(self):
        a = Rect(0, 0, 4, 4)
        b = Rect(2, 2, 6, 6)
        assert a.intersect(b) == Rect(2, 2, 4, 4)
        assert a.intersects(b)

    def test_disjoint_intersection_is_empty(self):
        a = Rect(0, 0, 2, 2)
        b = Rect(2, 2, 4, 4)
        assert a.intersect(b).is_empty()
        assert not a.intersects(b)

    def test_contains(self):
        outer = Rect(0, 0, 10, 10)
        assert outer.contains(Rect(2, 3, 4, 5))
        assert outer.contains(outer)
        assert not outer.contains(Rect(5, 5, 11, 6))
        assert outer.contains(Rect.empty())  # empty is contained anywhere

    def test_contains_point(self):
        rect = Rect(1, 1, 3, 3)
        assert rect.contains_point(1, 1)
        assert rect.contains_point(2, 2)
        assert not rect.contains_point(3, 3)

    def test_clip(self):
        assert Rect(-2, -3, 12, 13).clip(10, 10) == Rect(0, 0, 10, 10)
        assert Rect(2, 2, 5, 5).clip(10, 10) == Rect(2, 2, 5, 5)

    def test_shift(self):
        assert Rect(1, 1, 2, 2).shift(3, -1) == Rect(4, 0, 5, 1)

    def test_union_bbox(self):
        a = Rect(0, 0, 2, 2)
        b = Rect(5, 5, 6, 8)
        assert a.union_bbox(b) == Rect(0, 0, 6, 8)
        assert Rect.empty().union_bbox(b) == b
        assert a.union_bbox(Rect(0, 0, 0, 0)) == a

    def test_positions(self):
        rect = Rect(0, 0, 2, 2)
        assert list(rect.positions()) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_str(self):
        assert str(Rect(0, 1, 2, 3)) == "[0:2, 1:3]"


class TestRectGrid:
    def test_exact_tiling(self):
        tiles = rect_grid(4, 4, 2, 2)
        assert len(tiles) == 4
        assert sum(t.area for t in tiles) == 16

    def test_ragged_tiling(self):
        tiles = rect_grid(5, 7, 2, 3)
        assert sum(t.area for t in tiles) == 35
        # all tiles within bounds
        bounds = Rect(0, 0, 5, 7)
        assert all(bounds.contains(t) for t in tiles)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            rect_grid(0, 4, 1, 1)
        with pytest.raises(ValueError):
            rect_grid(4, 4, 0, 1)

    @given(
        height=st.integers(1, 40),
        width=st.integers(1, 40),
        tile_rows=st.integers(1, 12),
        tile_cols=st.integers(1, 12),
    )
    def test_property_partition(self, height, width, tile_rows, tile_cols):
        """Tiles are disjoint and cover the full map exactly."""
        tiles = rect_grid(height, width, tile_rows, tile_cols)
        assert tiles == grid_rects(height, width, tile_rows, tile_cols)
        assert sum(t.area for t in tiles) == height * width
        for i, a in enumerate(tiles):
            assert not a.is_empty()
            for b in tiles[i + 1 :]:
                assert not a.intersects(b)


def grid_rects(height, width, tile_rows, tile_cols):
    return [
        Rect(r0, c0, min(r0 + tile_rows, height), min(c0 + tile_cols, width))
        for r0 in range(0, height, tile_rows)
        for c0 in range(0, width, tile_cols)
    ]


class TestRectColumns:
    def test_sequence_protocol(self):
        rects = grid_rects(5, 7, 2, 3)
        columns = rect_grid(5, 7, 2, 3)
        assert isinstance(columns, RectColumns)
        assert len(columns) == len(rects) == 9
        assert columns[0] == rects[0]
        assert columns[-1] == rects[-1] == Rect(4, 6, 5, 7)
        assert columns[2:5] == rects[2:5]
        assert columns[::-1] == rects[::-1]
        assert list(iter(columns)) == rects
        assert rects[4] in columns
        assert columns.index(rects[4]) == 4
        with pytest.raises(IndexError):
            columns[9]

    def test_element_access_builds_the_list_once(self):
        columns = rect_grid(4, 4, 1, 4)
        assert columns._rects is None
        first = columns[0]
        assert columns[0] is first
        assert list(columns)[0] is first

    def test_equality_in_both_directions(self):
        rects = grid_rects(6, 5, 2, 2)
        columns = rect_grid(6, 5, 2, 2)
        assert columns == rects and rects == columns
        assert columns == tuple(rects) and tuple(rects) == columns
        assert columns == RectColumns.of(rects)
        assert not (columns != rects) and not (rects != columns)
        shorter = rects[:-1]
        assert columns != shorter and shorter != columns
        moved = rects[:-1] + [Rect(0, 0, 1, 1)]
        assert columns != moved and moved != columns
        assert columns != rect_grid(6, 5, 3, 2)
        assert columns != 7
        assert RectColumns([]) == [] and [] == RectColumns([])

    def test_pickle_ships_coords_only(self):
        fresh = rect_grid(9, 8, 1, 8)
        used = rect_grid(9, 8, 1, 8)
        list(used)  # builds and keeps the Rect list
        assert used._rects is not None
        assert len(pickle.dumps(used)) == len(pickle.dumps(fresh))
        clone = pickle.loads(pickle.dumps(used))
        assert clone._rects is None
        np.testing.assert_array_equal(clone.coords, used.coords)
        assert clone == used

    def test_write_turns_it_into_a_list(self):
        rects = grid_rects(4, 6, 1, 3)
        columns = rect_grid(4, 6, 1, 3)
        columns[0] = Rect(0, 0, 1, 1)
        assert columns.coords is None
        rects[0] = Rect(0, 0, 1, 1)
        assert columns == rects
        columns.append(Rect(9, 9, 10, 10))
        del columns[1]
        rects.append(Rect(9, 9, 10, 10))
        del rects[1]
        assert columns == rects and len(columns) == len(rects)
        assert RectColumns.of(columns).coords.tolist() == [
            [r.r0, r.c0, r.r1, r.c1] for r in rects
        ]
        assert pickle.loads(pickle.dumps(columns)) == rects

    def test_shuffle_in_place(self):
        import random

        columns = rect_grid(8, 2, 1, 2)
        rects = list(columns)
        random.Random(3).shuffle(columns)
        assert columns.coords is None
        assert sorted(columns) == sorted(rects)
        assert columns != rects

    def test_of_keeps_columns_and_builds_lists(self):
        columns = rect_grid(3, 3, 1, 3)
        assert RectColumns.of(columns) is columns
        built = RectColumns.of(grid_rects(3, 3, 1, 3))
        np.testing.assert_array_equal(built.coords, columns.coords)
        assert RectColumns.of([]).coords.shape == (0, 4)

    def test_rejects_bad_coordinate_shape(self):
        with pytest.raises(ValueError, match=r"\[n, 4\]"):
            RectColumns(np.zeros((3, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            RectColumns([1, 2, 3, 4])


class TestSplitExtent:
    def test_even_split(self):
        assert split_extent(10, 2) == [(0, 5), (5, 10)]

    def test_uneven_split(self):
        parts = split_extent(10, 3)
        assert parts == [(0, 4), (4, 7), (7, 10)]

    def test_single_part(self):
        assert split_extent(7, 1) == [(0, 7)]

    def test_rejects_too_many_parts(self):
        with pytest.raises(ValueError):
            split_extent(2, 3)

    def test_rejects_non_positive_parts(self):
        with pytest.raises(ValueError):
            split_extent(5, 0)

    @given(extent=st.integers(1, 500), parts=st.integers(1, 50))
    def test_property_balanced_cover(self, extent, parts):
        """Parts are contiguous, cover [0, extent), sizes differ <= 1."""
        if parts > extent:
            with pytest.raises(ValueError):
                split_extent(extent, parts)
            return
        ranges = split_extent(extent, parts)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == extent
        sizes = [b - a for a, b in ranges]
        assert all(s >= 1 for s in sizes)
        assert max(sizes) - min(sizes) <= 1
        for (_, end), (start, _) in zip(ranges, ranges[1:]):
            assert end == start
