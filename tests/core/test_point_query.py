"""Tests for Algorithm 2 (BPB point queries), plain and oblivious."""

import pytest

from repro.core.queries import Aggregate, PointQuery, Predicate
from repro.exceptions import IntegrityError

from tests.conftest import ground_truth_count, make_stack


class TestCorrectness:
    def test_counts_match_ground_truth(self, stack, wifi_records):
        _, service = stack
        for location, timestamp, _ in wifi_records[::157]:
            query = PointQuery(index_values=(location,), timestamp=timestamp)
            answer, _ = service.execute_point(query)
            assert answer == ground_truth_count(
                wifi_records, location=location, t0=timestamp, t1=timestamp
            )

    def test_zero_result_query(self, stack, wifi_records):
        _, service = stack
        query = PointQuery(index_values=("ap-nonexistent",), timestamp=60)
        answer, stats = service.execute_point(query)
        assert answer == 0
        assert stats.rows_fetched > 0  # still fetches a full bin

    def test_collect_returns_matching_records(self, stack, wifi_records):
        _, service = stack
        location, timestamp, _ = wifi_records[0]
        query = PointQuery(
            index_values=(location,), timestamp=timestamp, aggregate=Aggregate.COLLECT
        )
        answer, _ = service.execute_point(query)
        expected = sorted(
            r for r in wifi_records if r[0] == location and r[1] == timestamp
        )
        assert sorted(answer) == expected

    def test_top_k_observations(self, stack, wifi_records):
        _, service = stack
        location, timestamp, _ = wifi_records[0]
        query = PointQuery(
            index_values=(location,),
            timestamp=timestamp,
            aggregate=Aggregate.TOP_K,
            target="observation",
            k=2,
        )
        answer, _ = service.execute_point(query)
        assert len(answer) <= 2

    def test_explicit_predicate(self, stack, wifi_records):
        _, service = stack
        location, timestamp, device = wifi_records[0]
        query = PointQuery(
            index_values=(location,),
            timestamp=timestamp,
            predicate=Predicate(
                group=("location", "observation"), values=(location, device)
            ),
        )
        answer, _ = service.execute_point(query)
        assert answer == ground_truth_count(
            wifi_records, location=location, t0=timestamp, t1=timestamp, device=device
        )


class TestVolumeHiding:
    def test_same_bin_queries_fetch_identical_rows(self, stack, wifi_records):
        _, service = stack
        context = service.context_for(0)
        # Two (value,time) pairs mapping into the same bin:
        pairs = {}
        for location, timestamp, _ in wifi_records:
            cid = context.grid.place_values((location,), timestamp)
            bin_index = context.layout.bin_of_cell_id(cid).index
            pairs.setdefault(bin_index, []).append((location, timestamp))
        shared = next(v for v in pairs.values() if len(v) >= 2)
        (loc_a, t_a), (loc_b, t_b) = shared[0], shared[1]

        service.execute_point(PointQuery(index_values=(loc_a,), timestamp=t_a))
        q1 = service.engine.access_log.last_query_id
        service.execute_point(PointQuery(index_values=(loc_b,), timestamp=t_b))
        q2 = service.engine.access_log.last_query_id
        rows_a = set(service.engine.access_log.row_ids_fetched(q1))
        rows_b = set(service.engine.access_log.row_ids_fetched(q2))
        assert rows_a == rows_b  # partial access-pattern hiding

    def test_all_point_queries_same_volume(self, stack, wifi_records):
        _, service = stack
        volumes = set()
        for location, timestamp, _ in wifi_records[::97]:
            _, stats = service.execute_point(
                PointQuery(index_values=(location,), timestamp=timestamp)
            )
            volumes.add(stats.rows_fetched)
        assert len(volumes) == 1
        assert volumes == {service.context_for(0).layout.bin_size}


class TestObliviousVariant:
    def test_oblivious_answers_match_plain(self, grid_spec, wifi_records):
        _, plain = make_stack(grid_spec, wifi_records)
        _, oblivious = make_stack(grid_spec, wifi_records, oblivious=True)
        for location, timestamp, _ in wifi_records[::311]:
            query = PointQuery(index_values=(location,), timestamp=timestamp)
            plain_answer, plain_stats = plain.execute_point(query)
            obl_answer, obl_stats = oblivious.execute_point(query)
            assert plain_answer == obl_answer
            assert plain_stats.rows_fetched == obl_stats.rows_fetched
            assert obl_stats.oblivious

    def test_oblivious_trapdoors_equal_bin_size(self, oblivious_stack):
        _, service = oblivious_stack
        query = PointQuery(index_values=("ap1",), timestamp=120)
        _, stats = service.execute_point(query)
        assert stats.trapdoors_generated == service.context_for(0).layout.bin_size


class TestVerification:
    def test_verified_execution_succeeds_honest(self, grid_spec, wifi_records):
        _, service = make_stack(grid_spec, wifi_records, verify=True)
        query = PointQuery(index_values=(wifi_records[0][0],), timestamp=wifi_records[0][1])
        answer, stats = service.execute_point(query)
        assert stats.verified
        assert answer >= 1

    def test_tampered_row_detected(self, grid_spec, wifi_records):
        _, service = make_stack(grid_spec, wifi_records, verify=True)
        # Malicious SP flips bytes in some stored payloads.
        table = service.engine._tables["epoch_0"]
        victims = 0
        for row in list(table.scan()):
            columns = list(row.columns)
            columns[0] = b"\x00" * len(columns[0])
            table.overwrite(row.row_id, columns)
            victims += 1
            if victims > len(table) // 2:
                break
        with pytest.raises(IntegrityError):
            for location, timestamp, _ in wifi_records[::40]:
                service.execute_point(
                    PointQuery(index_values=(location,), timestamp=timestamp)
                )

    def test_deleted_row_detected(self, grid_spec, wifi_records):
        _, service = make_stack(grid_spec, wifi_records, verify=True)
        # Delete many rows; counter sequences break.
        engine = service.engine
        ids = [row.row_id for row in list(engine._tables["epoch_0"].scan())][::2]
        for row_id in ids:
            engine.delete("epoch_0", row_id)
        with pytest.raises(IntegrityError):
            for location, timestamp, _ in wifi_records[::40]:
                service.execute_point(
                    PointQuery(index_values=(location,), timestamp=timestamp)
                )
