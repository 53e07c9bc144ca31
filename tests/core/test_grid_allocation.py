"""Tests for the cell-id allocation policies."""

from hypothesis import given, settings, strategies as st

from repro.core.grid import Grid, GridSpec, derive_grid_key
from repro.core.schema import WIFI_SCHEMA

KEY = b"\xa1" * 32


def make_grid(u: int, time_local: bool, x: int = 6, y: int = 12) -> Grid:
    spec = GridSpec(
        dimension_sizes=(x, y), cell_id_count=u,
        epoch_duration=3600, time_local_cell_ids=time_local,
    )
    return Grid(spec, WIFI_SCHEMA, KEY, epoch_id=0)


class TestTimeLocalAllocation:
    def test_cell_ids_never_straddle_time_coordinates(self):
        """The property the range methods rely on: one id, one subinterval
        coordinate."""
        grid = make_grid(u=24, time_local=True)
        coord_of_cid: dict[int, int] = {}
        for flat in range(grid.spec.total_cells):
            time_coord = flat % grid.spec.dimension_sizes[-1]
            cid = grid.cell_id_of(flat)
            assert coord_of_cid.setdefault(cid, time_coord) == time_coord

    def test_scattered_allocation_does_straddle(self):
        grid = make_grid(u=24, time_local=False)
        coord_of_cid: dict[int, set[int]] = {}
        for flat in range(grid.spec.total_cells):
            time_coord = flat % grid.spec.dimension_sizes[-1]
            coord_of_cid.setdefault(grid.cell_id_of(flat), set()).add(time_coord)
        assert any(len(coords) > 1 for coords in coord_of_cid.values())

    def test_fewer_ids_than_time_coords_still_valid(self):
        grid = make_grid(u=5, time_local=True, x=4, y=10)
        for flat in range(grid.spec.total_cells):
            assert 0 <= grid.cell_id_of(flat) < 5

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 64), st.integers(2, 20), st.booleans())
    def test_property_ids_always_in_range(self, u, y, time_local):
        u = min(u, 4 * y - 1)  # respect u < x*y
        spec = GridSpec(
            dimension_sizes=(4, y), cell_id_count=u,
            epoch_duration=3600, time_local_cell_ids=time_local,
        )
        grid = Grid(spec, WIFI_SCHEMA, KEY, 0)
        for flat in range(spec.total_cells):
            assert 0 <= grid.cell_id_of(flat) < u


class TestGridKeySeparation:
    def test_explicit_grid_key_overrides_master(self):
        spec = GridSpec(dimension_sizes=(4, 8), cell_id_count=16, epoch_duration=3600)
        pinned = derive_grid_key(KEY, 0)
        via_master = Grid(spec, WIFI_SCHEMA, KEY, 0)
        via_grid_key = Grid(spec, WIFI_SCHEMA, b"\xa2" * 32, 0, grid_key=pinned)
        for flat in range(spec.total_cells):
            assert via_master.cell_id_of(flat) == via_grid_key.cell_id_of(flat)

    def test_different_grid_keys_differ(self):
        spec = GridSpec(dimension_sizes=(4, 8), cell_id_count=16, epoch_duration=3600)
        a = Grid(spec, WIFI_SCHEMA, KEY, 0, grid_key=b"\xa3" * 32)
        b = Grid(spec, WIFI_SCHEMA, KEY, 0, grid_key=b"\xa4" * 32)
        assert any(
            a.cell_id_of(flat) != b.cell_id_of(flat)
            for flat in range(spec.total_cells)
        )

    def test_derive_grid_key_deterministic_per_epoch(self):
        assert derive_grid_key(KEY, 0) == derive_grid_key(KEY, 0)
        assert derive_grid_key(KEY, 0) != derive_grid_key(KEY, 3600)


class TestSharedAllocation:
    """The allocation is derived once per (key, epoch) and the whole
    epoch is placed in one pass that every consumer shares."""

    def _count_allocations(self, monkeypatch):
        from repro.crypto.prf import Prf

        calls = {"cid-alloc": 0}
        original = Prf.to_int

        def counting(prf, *parts):
            if parts[0] == b"cid-alloc":
                calls["cid-alloc"] += 1
            return original(prf, *parts)

        monkeypatch.setattr(Prf, "to_int", counting)
        return calls

    def test_vector_is_derived_once_and_indexed(self, monkeypatch):
        calls = self._count_allocations(monkeypatch)
        grid = make_grid(u=24, time_local=True)
        lazy = [make_grid(u=24, time_local=True).cell_id_of(f) for f in range(72)]
        calls["cid-alloc"] = 0
        assert grid.cell_id_vector() == lazy
        assert grid.cell_id_vector() is grid.cell_id_vector()
        assert [grid.cell_id_of(flat) for flat in range(72)] == lazy
        assert calls["cid-alloc"] == 72  # one PRF per cell, however often asked

    def test_sharded_encryption_allocates_each_cell_once(self, monkeypatch):
        # The benchmark's shape in small: more cells (6,000) than the
        # lazy memo holds (4,096), so the parent's clear-on-overflow
        # memo re-derived the allocation ~2.6x for a 2-shard fleet.
        import random

        from repro import DataProvider
        from repro.sharding.topology import ShardTopology

        calls = self._count_allocations(monkeypatch)
        spec = GridSpec(dimension_sizes=(50, 120), cell_id_count=600, epoch_duration=7200)
        provider = DataProvider(
            WIFI_SCHEMA, spec, first_epoch_id=0, master_key=KEY,
            time_granularity=60, rng=random.Random(2),
        )
        records = [(f"ap{d % 50}", t, f"dev{d}") for t in range(0, 7200, 60) for d in range(4)]
        packages = provider.encrypt_epoch_sharded(records, 0, ShardTopology(2))
        assert len(packages) == 2
        assert calls["cid-alloc"] == spec.total_cells

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 3599), st.integers(0, 9)),
            max_size=60,
        ),
        st.booleans(),
    )
    def test_place_records_is_the_per_record_placement(self, raw, time_local):
        records = [(f"ap{a}", t, f"dev{d}") for a, t, d in raw]
        one_pass = make_grid(u=24, time_local=time_local)
        per_record = make_grid(u=24, time_local=time_local)
        placement = one_pass.place_records(records)
        assert placement.grid is one_pass
        assert placement.buckets == [per_record.time_bucket(r[1]) for r in records]
        assert placement.flats == [
            per_record.flat_index(per_record.coords(r)) for r in records
        ]
        assert placement.cell_ids == [per_record.place(r) for r in records]
        chosen = list(range(0, len(records), 3))
        part = placement.select(chosen)
        assert part.grid is one_pass
        assert part.buckets == [placement.buckets[i] for i in chosen]
        assert part.flats == [placement.flats[i] for i in chosen]
        assert part.cell_ids == [placement.cell_ids[i] for i in chosen]
