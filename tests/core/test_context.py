"""Tests for the enclave-resident epoch context."""

import pytest

from repro.core.context import EpochContext
from repro.core.queries import Predicate, QueryStats
from repro.exceptions import EnclaveError, QueryError

from tests.conftest import is_fake_row, make_stack


@pytest.fixture
def context(stack):
    _, service = stack
    return service.context_for(0)


class TestConstruction:
    def test_vectors_decrypted(self, context, grid_spec):
        assert len(context.cell_id_vector) == grid_spec.total_cells
        assert len(context.c_tuple) == grid_spec.cell_id_count
        assert sum(context.c_tuple) == context.package.real_count

    def test_layout_built_and_consistent(self, context):
        context.layout.verify_equal_sizes()
        assert context.layout.total_real == context.package.real_count

    def test_epc_charged(self, stack):
        _, service = stack
        service.context_for(0)
        assert service.enclave.epc_used > 0

    def test_release_returns_memory(self, stack):
        _, service = stack
        context = service.context_for(0)
        used = service.enclave.epc_used
        context.release()
        assert service.enclave.epc_used < used

    def test_requires_provisioned_enclave(self, stack):
        from repro.enclave.enclave import Enclave

        _, service = stack
        bare = Enclave()
        with pytest.raises(EnclaveError):
            EpochContext(bare, service._packages[0], service.schema)


class TestTrapdoors:
    def test_bin_trapdoors_count_is_bin_size(self, context):
        for chosen in context.layout.bins:
            trapdoors = context.trapdoors_for_bin(chosen)
            assert len(trapdoors) == context.layout.bin_size

    def test_trapdoors_unique(self, context):
        chosen = context.layout.bins[0]
        trapdoors = context.trapdoors_for_bin(chosen)
        assert len(set(trapdoors)) == len(trapdoors)

    def test_oblivious_trapdoors_match_plain_set(self, context):
        for chosen in context.layout.bins[:3]:
            plain = set(context.trapdoors_for_bin(chosen))
            oblivious = set(context.oblivious_trapdoors_for_bin(chosen))
            assert plain == oblivious

    def test_cycling_fakes_are_derived_once_each_in_slot_order(
        self, context, monkeypatch
    ):
        """Fake ids cycle when a range needs more fakes than the pool
        holds: each distinct slot is derived once, in one batch, and
        the answer is every slot's own DET trapdoor, in slot order."""
        from repro.core.epoch import fake_index_plaintext, index_plaintext
        from repro.crypto.kernels import DeterministicCipher

        cells = [cid for cid, count in enumerate(context.c_tuple) if count][:2]
        pool = min(3, context.fake_pool_size)
        assert pool
        fake_ids = [i % pool for i in range(3 * pool + 1)]
        plaintexts = [
            index_plaintext(cid, j)
            for cid in cells
            for j in range(1, context.c_tuple[cid] + 1)
        ] + [fake_index_plaintext(fid) for fid in fake_ids]

        encrypt_many = DeterministicCipher.encrypt_many
        batches = []

        def spying(cipher, batch, *args, **kwargs):
            if cipher is context.det:
                batches.append(list(batch))
            return encrypt_many(cipher, batch, *args, **kwargs)

        monkeypatch.setattr(DeterministicCipher, "encrypt_many", spying)
        trapdoors = context.trapdoors_for_cell_ids(cells, fake_ids)
        assert batches == [list(dict.fromkeys(plaintexts))]
        assert trapdoors == [context.det.encrypt(p) for p in plaintexts]


class TestFilters:
    def test_filter_group_position(self, context):
        assert context.filter_group_position(("location",)) == 0
        assert context.filter_group_position(("observation",)) == 1

    def test_unknown_group_rejected(self, context):
        with pytest.raises(QueryError):
            context.filter_group_position(("bogus",))

    def test_filters_deterministic(self, context):
        predicate = Predicate(group=("location",), values=("ap1",))
        a = context.filters_for(predicate, [60, 120])
        b = context.filters_for(predicate, [60, 120])
        assert a == b
        assert len(a) == 2

    def test_query_timestamps_respect_granularity(self, context):
        assert context.query_timestamps(0, 180) == [0, 60, 120, 180]
        assert context.query_timestamps(30, 180) == [60, 120, 180]
        assert context.query_timestamps(60, 60) == [60]


class TestRowHandling:
    def test_fake_row_detection(self, stack, context):
        _, service = stack
        chosen = next(b for b in context.layout.bins if b.fake_count)
        stats = QueryStats()
        rows, _ = context.fetch(
            service.engine, context.trapdoors_for_bin(chosen), stats
        )
        fakes = sum(1 for row in rows if is_fake_row(context, row))
        assert fakes == chosen.fake_count

    def test_decrypt_record_roundtrip(self, stack, context, wifi_records):
        _, service = stack
        chosen = context.layout.bins[0]
        stats = QueryStats()
        rows, _ = context.fetch(
            service.engine, context.trapdoors_for_bin(chosen), stats
        )
        real_rows = [row for row in rows if not is_fake_row(context, row)]
        records = context.decrypt_records(real_rows, stats)
        record_set = set(wifi_records)
        assert all(record in record_set for record in records)

    def test_match_rows_plain_vs_oblivious_agree(self, stack, context, wifi_records):
        _, service = stack
        location, timestamp, _ = wifi_records[0]
        cid = context.grid.place_values((location,), timestamp)
        chosen = context.layout.bin_of_cell_id(cid)
        stats = QueryStats()
        rows, _ = context.fetch(
            service.engine, context.trapdoors_for_bin(chosen), stats
        )
        predicate = Predicate(group=("location",), values=(location,))
        filters = context.filters_for(predicate, [timestamp])
        plain = context.match_rows(rows, filters, ("location",), QueryStats())
        oblivious = context.match_rows_oblivious(
            rows, filters, ("location",), QueryStats()
        )
        assert {r.row_id for r in plain} == {r.row_id for r in oblivious}
