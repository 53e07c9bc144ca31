"""Tests for the reproduction's extension features.

Covers the paper's optional / future-work items that this library
implements beyond the core algorithms: the DISTINCT_COUNT aggregate,
§1.2(iii) fixed epoch sizes, §8 super-bin query execution, the
Example 5.2.2 sliding-window attack, and the epoch-package wire format.
"""

import random

import pytest

from repro import (
    Aggregate,
    DataProvider,
    GridSpec,
    PointQuery,
    ServiceConfig,
    ServiceProvider,
    WIFI_SCHEMA,
)
from repro.analysis import profile_queries, sliding_window_attack
from repro.core.epoch import EpochPackage
from repro.core.queries import RangeQuery
from repro.exceptions import EpochError, QueryError
from repro.workloads.queries import build_q1

from tests.conftest import MASTER_KEY, make_stack


class TestDistinctCount:
    def test_distinct_visitors(self, stack, wifi_records):
        """The intro's 'count of distinct visitors to a region'."""
        _, service = stack
        query = RangeQuery(
            index_values=("ap1",),
            time_start=0,
            time_end=1800,
            aggregate=Aggregate.DISTINCT_COUNT,
            target="observation",
        )
        answer, _ = service.execute_range(query, method="winsecrange")
        expected = len(
            {r[2] for r in wifi_records if r[0] == "ap1" and r[1] <= 1800}
        )
        assert answer == expected

    def test_distinct_count_requires_target(self):
        with pytest.raises(QueryError):
            RangeQuery(
                index_values=("a",), time_start=0, time_end=1,
                aggregate=Aggregate.DISTINCT_COUNT,
            )


class TestFixedEpochSize:
    def make_provider(self, pad_to=None):
        spec = GridSpec(dimension_sizes=(4, 8), cell_id_count=16, epoch_duration=600)
        provider = DataProvider(
            WIFI_SCHEMA, spec, first_epoch_id=0, master_key=MASTER_KEY,
            rng=random.Random(2),
        )
        provider.encryptor.pad_epoch_rows_to = pad_to
        return provider

    def test_epochs_padded_to_fixed_size(self):
        provider = self.make_provider(pad_to=500)
        day = [("ap1", t, f"d{i}") for t in range(0, 600, 10) for i in range(4)]
        night = [("ap1", t, "d0") for t in range(600, 1200, 60)]
        pkg_day = provider.encrypt_epoch(day, 0)
        pkg_night = provider.encrypt_epoch(night, 600)
        assert len(pkg_day.rows) == len(pkg_night.rows) == 500

    def test_overflow_rejected(self):
        provider = self.make_provider(pad_to=10)
        records = [("ap1", t, "d") for t in range(0, 600, 10)]
        with pytest.raises(EpochError):
            provider.encrypt_epoch(records, 0)


class TestSuperBinExecution:
    def test_super_bin_queries_fetch_group_volume(self, grid_spec, wifi_records):
        import random as _random

        provider = DataProvider(
            WIFI_SCHEMA, grid_spec, first_epoch_id=0, master_key=MASTER_KEY,
            time_granularity=60, rng=_random.Random(1),
        )
        service = ServiceProvider(
            WIFI_SCHEMA, ServiceConfig(super_bin_count=4)
        )
        provider.provision_enclave(service.enclave)
        service.ingest_epoch(provider.encrypt_epoch(wifi_records, 0))

        location, timestamp, _ = wifi_records[0]
        answer, stats = service.execute_point(
            PointQuery(index_values=(location,), timestamp=timestamp)
        )
        expected = sum(
            1 for r in wifi_records if r[0] == location and r[1] == timestamp
        )
        assert answer == expected
        context = service.context_for(0)
        group = context.super_layout(4).bins_to_fetch(
            context.layout.bin_of_cell_id(
                context.grid.place_values((location,), timestamp)
            ).index
        )
        assert stats.bins_fetched == len(group)
        assert stats.rows_fetched == len(group) * context.layout.bin_size

    def test_super_bin_balances_retrievals(self, grid_spec, wifi_records):
        """Uniform per-cell-id workload: every super-bin is fetched a
        near-equal number of times (the §8 goal)."""
        from repro.core.superbin import retrieval_skew

        _, plain = make_stack(grid_spec, wifi_records)
        context = plain.context_for(0)
        layout = context.super_layout(4)
        uniques = [len(b.cell_ids) for b in context.layout.bins]
        grouped = layout.expected_retrievals(uniques)
        assert retrieval_skew(grouped) <= retrieval_skew(uniques)


class TestSlidingWindowAttack:
    def test_attack_beats_ebpb_but_not_winsecrange(self, stack, wifi_records):
        _, service = stack
        log = service.engine.access_log
        windows = [(start, start + 599) for start in range(0, 1800, 225)]

        def access_sets(method):
            sets = []
            for start, end in windows:
                service.execute_range(build_q1("ap1", start, end), method=method)
                sets.append(frozenset(log.row_ids_fetched(log.last_query_id)))
            return sets

        ebpb_diffs = sliding_window_attack(access_sets("ebpb"))
        winsec_diffs = sliding_window_attack(access_sets("winsecrange"))
        # eBPB: shifted windows swap real rows in/out -> informative diffs
        assert any(gained > 0 or lost > 0 for gained, lost in ebpb_diffs)
        # winSecRange: shifts within the same λ-window fetch identical rows,
        # so strictly fewer informative steps than eBPB.
        informative_ebpb = sum(1 for g, l in ebpb_diffs if g or l)
        informative_winsec = sum(1 for g, l in winsec_diffs if g or l)
        assert informative_winsec < informative_ebpb


class TestPackageWireFormat:
    def test_roundtrip_preserves_queryability(self, grid_spec, wifi_records):
        import random as _random

        provider = DataProvider(
            WIFI_SCHEMA, grid_spec, first_epoch_id=0, master_key=MASTER_KEY,
            time_granularity=60, rng=_random.Random(1),
        )
        package = provider.encrypt_epoch(wifi_records, 0)
        restored = EpochPackage.deserialize(package.serialize())
        assert restored.real_count == package.real_count
        assert restored.grid_spec == package.grid_spec
        assert [r.index_key for r in restored.rows] == [
            r.index_key for r in package.rows
        ]

        service = ServiceProvider(WIFI_SCHEMA)
        provider.provision_enclave(service.enclave)
        service.ingest_epoch(restored)
        location, timestamp, _ = wifi_records[0]
        answer, _ = service.execute_point(
            PointQuery(index_values=(location,), timestamp=timestamp)
        )
        expected = sum(
            1 for r in wifi_records if r[0] == location and r[1] == timestamp
        )
        assert answer == expected

    def test_garbage_rejected(self):
        with pytest.raises(EpochError):
            EpochPackage.deserialize(b"{not json")
        with pytest.raises(EpochError):
            EpochPackage.deserialize(b'{"schema_name": "x"}')
