"""Tests for the three §5 range-query methods."""

import pytest

from repro.core.queries import Aggregate, Predicate, RangeQuery
from repro.workloads.queries import build_q1, build_q2, build_q4, build_q5

from tests.conftest import ground_truth_count, make_stack

METHODS = ["multipoint", "ebpb", "winsecrange"]


class TestCorrectness:
    @pytest.mark.parametrize("method", METHODS)
    def test_counts_match_ground_truth(self, stack, wifi_records, method):
        _, service = stack
        for t0, t1 in [(0, 600), (600, 1800), (3000, 3599), (120, 120)]:
            query = build_q1("ap3", t0, t1)
            answer, _ = service.execute_range(query, method=method)
            assert answer == ground_truth_count(
                wifi_records, location="ap3", t0=t0, t1=t1
            ), (method, t0, t1)

    @pytest.mark.parametrize("method", METHODS)
    def test_full_epoch_range(self, stack, wifi_records, method):
        _, service = stack
        query = build_q1("ap0", 0, 3599)
        answer, _ = service.execute_range(query, method=method)
        assert answer == ground_truth_count(wifi_records, location="ap0")

    @pytest.mark.parametrize("method", METHODS)
    def test_zero_result_range(self, stack, method):
        _, service = stack
        query = build_q1("ap-none", 0, 1200)
        answer, _ = service.execute_range(query, method=method)
        assert answer == 0

    def test_q2_top_k(self, stack, wifi_records):
        _, service = stack
        locations = tuple(sorted({r[0] for r in wifi_records}))
        query = build_q2(locations, 0, 1800, k=3)
        answer, _ = service.execute_range(query, method="winsecrange")
        from collections import Counter

        truth = Counter(r[0] for r in wifi_records if r[1] <= 1800)
        expected = sorted(truth.items(), key=lambda kv: (-kv[1], str(kv[0])))[:3]
        assert answer == expected

    def test_q4_locations_of_device(self, stack, wifi_records):
        _, service = stack
        locations = tuple(sorted({r[0] for r in wifi_records}))
        device = wifi_records[0][2]
        query = build_q4(device, locations, 0, 1200)
        answer, _ = service.execute_range(query, method="winsecrange")
        expected = sorted(
            set(
                r
                for r in wifi_records
                if r[2] == device and r[1] <= 1200
            )
        )
        assert sorted(answer) == expected

    def test_q5_device_at_location(self, stack, wifi_records):
        _, service = stack
        location, _, device = wifi_records[0]
        query = build_q5(device, location, 0, 3599)
        answer, _ = service.execute_range(query, method="ebpb")
        assert answer == ground_truth_count(
            wifi_records, location=location, device=device
        )

    def test_sum_aggregate_over_range(self, stack, wifi_records):
        _, service = stack
        query = RangeQuery(
            index_values=("ap1",),
            time_start=0,
            time_end=1800,
            aggregate=Aggregate.SUM,
            target="time",
        )
        answer, _ = service.execute_range(query, method="ebpb")
        values = [r[1] for r in wifi_records if r[0] == "ap1" and r[1] <= 1800]
        expected = sum(values) if values else None
        assert answer == expected


class TestVolumes:
    def test_ebpb_fetches_fewer_rows_than_multipoint(self, stack):
        _, service = stack
        query = build_q1("ap2", 600, 1200)
        _, multipoint = service.execute_range(query, method="multipoint")
        _, ebpb = service.execute_range(query, method="ebpb")
        assert ebpb.rows_fetched <= multipoint.rows_fetched

    def test_winsecrange_fetches_most(self, stack):
        _, service = stack
        query = build_q1("ap2", 600, 1200)
        _, ebpb = service.execute_range(query, method="ebpb")
        _, winsec = service.execute_range(query, method="winsecrange")
        assert winsec.rows_fetched >= ebpb.rows_fetched

    def test_ebpb_constant_volume_for_fixed_span(self, grid_spec, wifi_records):
        from repro import FakeStrategy

        _, service = make_stack(
            grid_spec, wifi_records, fake_strategy=FakeStrategy.EQUAL
        )
        volumes = set()
        for location in ("ap0", "ap3", "ap7", "ap9"):
            # identical span length, different positions
            for start in (0, 600, 1200):
                query = build_q1(location, start, start + 599)
                _, stats = service.execute_range(query, method="ebpb")
                volumes.add(stats.rows_fetched)
        assert len(volumes) == 1

    def test_ebpb_budget_memo_matches_a_fresh_recompute(self, stack):
        """The per-candidate-count budget memo answers what a recompute
        over the sizing state's current windows answers, while spans
        grow the state (a new state, an empty memo) and shrink back."""
        from dataclasses import replace

        _, service = stack
        context = service.context_for(0)
        executor = service._range_executor
        for span in (2, 1, 5, 3, 12, 24, 6):
            state = executor._ebpb_budget(context, span)
            for combos in (1, 2, 3, 7, 10, 64, 2, 1):
                assert state.budget(combos) == replace(state, budgets={}).budget(combos)
            assert set(state.budgets) == {1, 2, 3, 7, 10, 64}

    def test_ebpb_budget_never_crosses_epochs_over_context_rebuilds(self):
        """Regression: the budget was cached under ``id(context)`` and
        outlived the context, so a context rebuilt for *another* epoch
        could land on a dead one's address and inherit its budget — a
        sparse epoch's budget on a dense epoch fetches the real volume,
        unpadded."""
        from repro import FakeStrategy, GridSpec
        from repro.enclave.enclave import Enclave, EnclaveConfig

        spec = GridSpec(dimension_sizes=(4, 10), cell_id_count=16, epoch_duration=600)
        dense = [
            (f"ap{(t // 60 + d) % 4}", t, f"dev{d}")
            for t in range(0, 600, 60)
            for d in range(12)
        ]
        sparse = [(loc, 600 + t, dev) for loc, t, dev in dense[::6]]
        provider, service = make_stack(
            spec, dense, fake_strategy=FakeStrategy.EQUAL
        )
        service.ingest_epoch(provider.encrypt_epoch(sparse, epoch_id=600))
        queries = {0: build_q1("ap1", 60, 299), 600: build_q1("ap1", 660, 899)}

        def budgets(order):
            out = {}
            for epoch in order:
                _, stats = service.execute_range(queries[epoch], method="ebpb")
                assert stats.rows_fetched == stats.extra["ebpb_budget"]
                out[epoch] = stats.rows_fetched
            return out

        clean = budgets((0, 600))
        assert clean[0] > clean[600] > 0
        for rebuild in range(300):
            enclave = Enclave(EnclaveConfig())
            provider.provision_enclave(enclave)
            service.adopt_enclave(enclave)
            order = (0, 600) if rebuild % 2 else (600, 0)
            assert budgets(order) == clean, rebuild

    def test_winsecrange_same_window_same_rows(self, stack):
        """Example 5.2.2 defence: sliding inside one window fetches the
        same physical rows."""
        _, service = stack
        log = service.engine.access_log
        service.execute_range(build_q1("ap1", 0, 200), method="winsecrange")
        q1 = log.last_query_id
        service.execute_range(build_q1("ap1", 300, 500), method="winsecrange")
        q2 = log.last_query_id
        # both ranges live in subinterval window 0
        assert set(log.row_ids_fetched(q1)) == set(log.row_ids_fetched(q2))


class TestMethodSelection:
    def test_unknown_method_rejected(self, stack):
        from repro.exceptions import QueryError

        _, service = stack
        with pytest.raises(QueryError):
            service.execute_range(build_q1("ap1", 0, 60), method="bogus")

    def test_cross_epoch_range_rejected(self, stack):
        from repro.exceptions import QueryError

        _, service = stack
        with pytest.raises(QueryError):
            service.execute_range(build_q1("ap1", 3000, 4000))

    def test_oblivious_range_matches_plain(self, grid_spec, wifi_records):
        _, plain = make_stack(grid_spec, wifi_records)
        _, oblivious = make_stack(grid_spec, wifi_records, oblivious=True)
        query = build_q1("ap4", 300, 900)
        plain_answer, _ = plain.execute_range(query, method="multipoint")
        obl_answer, stats = oblivious.execute_range(query, method="multipoint")
        assert plain_answer == obl_answer
        assert stats.oblivious

    def test_predicate_wildcards_expand(self, stack, wifi_records):
        _, service = stack
        locations = tuple(sorted({r[0] for r in wifi_records}))[:3]
        query = RangeQuery(
            index_values=(locations,),
            time_start=0,
            time_end=600,
            predicate=Predicate(group=("location",), values=(locations,)),
        )
        answer, _ = service.execute_range(query, method="winsecrange")
        expected = sum(
            1 for r in wifi_records if r[0] in locations and r[1] <= 600
        )
        assert answer == expected
