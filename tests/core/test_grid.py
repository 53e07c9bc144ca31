"""Tests for the §3 grid: placement, cell-ids, range covers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.grid import Grid, GridSpec
from repro.core.schema import TPCH_2D_SCHEMA, TPCH_4D_SCHEMA, WIFI_SCHEMA
from repro.exceptions import QueryError

KEY = b"\x55" * 32


def reference_cover(grid: Grid, values, start: int, end: int):
    """The range cover spelled out one bucket at a time: per covered
    subinterval ``cell_id_of(flat_index(coords_for(values, t)))`` at the
    bucket's first timestamp, then the distinct ids in first-seen order."""
    spec = grid.spec
    per_bucket = []
    for bucket in grid.time_buckets_for_range(start, end):
        timestamp = grid.epoch_id - (-bucket * spec.epoch_duration // spec.time_buckets)
        assert grid.time_bucket(timestamp) == bucket
        per_bucket.append(grid.cell_id_of(grid.flat_index(grid.coords_for(values, timestamp))))
    distinct: list[int] = []
    for cid in per_bucket:
        if cid not in distinct:
            distinct.append(cid)
    return per_bucket, distinct


@pytest.fixture
def spec():
    return GridSpec(dimension_sizes=(8, 16), cell_id_count=32, epoch_duration=3600)


@pytest.fixture
def grid(spec):
    return Grid(spec, WIFI_SCHEMA, KEY, epoch_id=0)


class TestSpecValidation:
    def test_total_cells(self, spec):
        assert spec.total_cells == 128
        assert spec.time_buckets == 16
        assert spec.subinterval_duration == 225.0

    def test_too_many_cell_ids_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(dimension_sizes=(2, 2), cell_id_count=5, epoch_duration=60)

    def test_nonpositive_dimensions_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(dimension_sizes=(0, 4), cell_id_count=1, epoch_duration=60)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(dimension_sizes=(2, 2), cell_id_count=2, epoch_duration=0)

    def test_axis_count_must_match_schema(self, spec):
        with pytest.raises(ValueError):
            Grid(spec, TPCH_2D_SCHEMA, KEY, 0)  # needs 3 axes


class TestPlacement:
    def test_deterministic(self, spec):
        a = Grid(spec, WIFI_SCHEMA, KEY, 0)
        b = Grid(spec, WIFI_SCHEMA, KEY, 0)
        record = ("ap1", 100, "d1")
        assert a.place(record) == b.place(record)
        assert a.coords(record) == b.coords(record)

    def test_epoch_dependent(self, spec):
        a = Grid(spec, WIFI_SCHEMA, KEY, 0)
        b = Grid(spec, WIFI_SCHEMA, KEY, 3600)
        placements_differ = any(
            a.cell_id_of(f) != b.cell_id_of(f) for f in range(spec.total_cells)
        )
        assert placements_differ

    def test_key_dependent(self, spec):
        a = Grid(spec, WIFI_SCHEMA, KEY, 0)
        b = Grid(spec, WIFI_SCHEMA, b"\x66" * 32, 0)
        assert any(
            a.cell_id_of(f) != b.cell_id_of(f) for f in range(spec.total_cells)
        )

    def test_place_matches_place_values(self, grid):
        record = ("ap3", 1234, "whatever")
        assert grid.place(record) == grid.place_values(("ap3",), 1234)

    def test_cell_ids_in_range(self, grid, spec):
        for i in range(50):
            cid = grid.place((f"ap{i}", (i * 37) % 3600, "d"))
            assert 0 <= cid < spec.cell_id_count

    def test_time_bucket_arithmetic(self, grid):
        assert grid.time_bucket(0) == 0
        assert grid.time_bucket(224) == 0
        assert grid.time_bucket(225) == 1
        assert grid.time_bucket(3599) == 15

    def test_time_outside_epoch_rejected(self, grid):
        with pytest.raises(QueryError):
            grid.time_bucket(3600)
        with pytest.raises(QueryError):
            grid.time_bucket(-1)

    def test_flat_index_bounds_checked(self, grid):
        with pytest.raises(QueryError):
            grid.flat_index((8, 0))

    def test_wrong_value_count_rejected(self, grid):
        with pytest.raises(QueryError):
            grid.coords_for(("a", "b"), 0)


class TestVectors:
    def test_cell_id_vector_matches_cell_id_of(self, grid, spec):
        vector = grid.cell_id_vector()
        assert len(vector) == spec.total_cells
        for flat in (0, 17, 127):
            assert vector[flat] == grid.cell_id_of(flat)

    def test_all_cell_ids_used_eventually(self, spec):
        # With 128 cells over 32 cell-ids, coverage should be complete whp.
        grid = Grid(spec, WIFI_SCHEMA, KEY, 0)
        assert len(set(grid.cell_id_vector())) == spec.cell_id_count


class TestRangeCovers:
    def test_buckets_for_range(self, grid):
        assert grid.time_buckets_for_range(0, 224) == [0]
        assert grid.time_buckets_for_range(0, 225) == [0, 1]
        assert grid.time_buckets_for_range(500, 1000) == [2, 3, 4]

    def test_reversed_range_rejected(self, grid):
        with pytest.raises(QueryError):
            grid.time_buckets_for_range(100, 50)

    def test_cells_for_range_one_per_bucket(self, grid):
        per_bucket, distinct = reference_cover(grid, ("ap1",), 0, 899)
        assert len(per_bucket) == 4  # buckets 0..3
        assert grid.cell_ids_for_range(("ap1",), 0, 899) == distinct

    def test_cell_ids_for_range_deduped(self, grid):
        cids = grid.cell_ids_for_range(("ap1",), 0, 3599)
        assert len(cids) == len(set(cids))

    def test_point_range_matches_point_placement(self, grid):
        cids = grid.cell_ids_for_range(("ap1",), 700, 700)
        assert cids == [grid.place_values(("ap1",), 700)]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 3599), st.integers(0, 3599))
    def test_property_every_point_covered_by_range_cells(self, a, b):
        spec = GridSpec(dimension_sizes=(4, 8), cell_id_count=16, epoch_duration=3600)
        grid = Grid(spec, WIFI_SCHEMA, KEY, 0)
        lo, hi = min(a, b), max(a, b)
        cids = set(grid.cell_ids_for_range(("ap0",), lo, hi))
        probe = (lo + hi) // 2
        assert grid.place_values(("ap0",), probe) in cids

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from([WIFI_SCHEMA, TPCH_2D_SCHEMA, TPCH_4D_SCHEMA]),
        st.data(),
        st.integers(1, 48),
        st.booleans(),
        st.sampled_from([0, 3600]),
        st.booleans(),
    )
    def test_property_cover_is_the_per_bucket_reference(
        self, schema, data, time_buckets, time_local, epoch_id, seeded
    ):
        index_axes = len(schema.index_attributes)
        sizes = tuple(
            data.draw(st.lists(st.integers(1, 4), min_size=index_axes, max_size=index_axes))
        ) + (time_buckets,)
        total = 1
        for size in sizes:
            total *= size
        spec = GridSpec(
            dimension_sizes=sizes,
            cell_id_count=data.draw(st.integers(1, total)),
            epoch_duration=3600,
            time_local_cell_ids=time_local,
        )
        # seeded: an epoch context's grid, the allocation handed in
        allocation = Grid(spec, schema, KEY, epoch_id).cell_id_vector() if seeded else None
        grid = Grid(spec, schema, KEY, epoch_id, allocation=allocation)
        values = tuple(
            data.draw(st.one_of(st.integers(-50, 50), st.text(max_size=4)))
            for _ in range(index_axes)
        )
        shape = data.draw(st.sampled_from(["bucket", "epoch", "any", "reversed", "outside"]))
        if shape == "bucket":
            start = end = epoch_id + data.draw(st.integers(0, 3599))
        elif shape == "epoch":
            start, end = epoch_id, epoch_id + 3599
        else:
            start, end = sorted(data.draw(st.integers(0, 3599)) + epoch_id for _ in range(2))
            if shape == "reversed" and start != end:
                start, end = end, start
            elif shape == "outside":
                end = epoch_id + 3600 + data.draw(st.integers(0, 100))
        if end < start or end >= epoch_id + 3600:
            with pytest.raises(QueryError):
                reference_cover(grid, values, start, end)
            with pytest.raises(QueryError):
                grid.cell_ids_for_range(values, start, end)
            return
        _, distinct = reference_cover(grid, values, start, end)
        assert grid.cell_ids_for_range(values, start, end) == distinct
        assert grid.cell_ids_for_combinations([values, values], start, end) == distinct

    def test_errors_keep_their_precedence(self, grid):
        with pytest.raises(QueryError, match="precedes"):
            grid.cell_ids_for_range(("a", "b"), 100, 50)
        with pytest.raises(QueryError, match="outside epoch"):
            grid.cell_ids_for_range(("a", "b"), 0, 3600)
        with pytest.raises(QueryError, match="index values"):
            grid.cell_ids_for_range(("a", "b"), 0, 3599)

    def test_allocation_must_cover_the_grid(self, spec):
        with pytest.raises(ValueError):
            Grid(spec, WIFI_SCHEMA, KEY, 0, allocation=[0] * (spec.total_cells - 1))


class TestMultiDimensional:
    def test_tpch_grid_placement(self):
        spec = GridSpec(dimension_sizes=(16, 7, 1), cell_id_count=64, epoch_duration=10**6)
        grid = Grid(spec, TPCH_2D_SCHEMA, KEY, 0)
        row = (42, 2, 3, 5, 10, 100, 1, 1, "R", 77)
        cid = grid.place(row)
        assert cid == grid.place_values((42, 5), 77)
        # time axis of size 1: any timestamp in epoch lands identically
        assert cid == grid.place_values((42, 5), 123456)
