"""End-to-end checks of the §7 security properties, *measured*.

Every claim the paper argues informally is asserted here against the
adversary-visible artefacts: stored ciphertexts, the storage access
log, and the enclave's side-channel trace.
"""

import random

import pytest

from repro import FakeStrategy, PointQuery
from repro.analysis import profile_queries
from repro.analysis.adversary import histogram_flatness
from repro.enclave.trace import trace_signature
from repro.workloads.queries import build_q1

from tests.conftest import make_stack


class TestCiphertextIndistinguishability:
    """§7: the index and payload columns never repeat a ciphertext."""

    @staticmethod
    def _histograms(service):
        histograms: list[dict[bytes, int]] = [{} for _ in range(5)]
        for row in service.engine._tables["epoch_0"].scan():
            for position, value in enumerate(row.columns):
                histograms[position][value] = histograms[position].get(value, 0) + 1
        return histograms

    def test_index_and_payload_columns_flat(self, stack):
        _, service = stack
        histograms = self._histograms(service)
        assert histogram_flatness(histograms[3]) == 1.0  # payload
        assert histogram_flatness(histograms[4]) == 1.0  # index key

    def test_filter_collisions_bounded_by_cooccurrence(self, stack, wifi_records):
        """Residual leakage the paper glosses over: E_k(l‖t) repeats when
        several devices share one (location, time) reading, so the stored
        filter column reveals per-(l,t) multiplicities — no more, no less.
        Documented in EXPERIMENTS.md as a faithful-reproduction finding."""
        from collections import Counter

        _, service = stack
        histograms = self._histograms(service)
        observed = sorted(c for c in histograms[0].values() if c > 1)
        truth = sorted(
            c
            for c in Counter((r[0], r[1]) for r in wifi_records).values()
            if c > 1
        )
        assert observed == truth

    def test_ciphertext_lengths_value_independent(self, stack):
        """Padding closes the length side-channel: every row has the same
        column widths, real or fake, short value or long."""
        _, service = stack
        widths: list[set[int]] = [set() for _ in range(5)]
        for row in service.engine._tables["epoch_0"].scan():
            for position, value in enumerate(row.columns):
                widths[position].add(len(value))
        for position in range(5):  # filters, payload, index key
            assert len(widths[position]) == 1, position


class TestOutputSizeHiding:
    """§7: constant per-query volume, whatever the data distribution."""

    def test_point_queries_single_volume(self, stack, wifi_records):
        _, service = stack
        ids = []
        rng = random.Random(5)
        for _ in range(25):
            location, timestamp, _ = wifi_records[rng.randrange(len(wifi_records))]
            service.execute_point(
                PointQuery(index_values=(location,), timestamp=timestamp)
            )
            ids.append(service.engine.access_log.last_query_id)
        # include queries for values with zero results
        service.execute_point(PointQuery(index_values=("ghost",), timestamp=60))
        ids.append(service.engine.access_log.last_query_id)
        profile = profile_queries(service.engine.access_log, ids)
        assert len(profile.distinct_volumes) == 1
        assert profile.volume_spread == 0

    def test_winsecrange_same_length_same_volume(self, grid_spec, wifi_records):
        _, service = make_stack(
            grid_spec, wifi_records, fake_strategy=FakeStrategy.EQUAL
        )
        ids = []
        for location in ("ap0", "ap5", "ghost"):
            for start in (0, 1200, 2400):
                service.execute_range(
                    build_q1(location, start, start + 1199), method="winsecrange"
                )
                ids.append(service.engine.access_log.last_query_id)
        profile = profile_queries(service.engine.access_log, ids)
        assert len(profile.distinct_volumes) == 1


class TestPartialAccessPatternHiding:
    """§7: queries touching the same bin are indistinguishable."""

    def test_same_bin_anonymity_sets(self, stack, wifi_records):
        _, service = stack
        context = service.context_for(0)
        ids_by_bin: dict[int, list[int]] = {}
        rng = random.Random(6)
        for _ in range(30):
            location, timestamp, _ = wifi_records[rng.randrange(len(wifi_records))]
            cid = context.grid.place_values((location,), timestamp)
            bin_index = context.layout.bin_of_cell_id(cid).index
            service.execute_point(
                PointQuery(index_values=(location,), timestamp=timestamp)
            )
            ids_by_bin.setdefault(bin_index, []).append(
                service.engine.access_log.last_query_id
            )
        profile = profile_queries(service.engine.access_log)
        for bin_index, query_ids in ids_by_bin.items():
            for other in query_ids[1:]:
                assert profile.overlap(query_ids[0], other) == 1.0


class TestEnclaveObliviousness:
    """§4.3: Concealer+ in-enclave traces depend only on public sizes."""

    def test_point_query_traces_identical_within_bin_shape(
        self, grid_spec, wifi_records
    ):
        _, service = make_stack(grid_spec, wifi_records, oblivious=True)
        context = service.context_for(0)
        signatures = {}
        rng = random.Random(7)
        probes = 0
        while probes < 12:
            location, timestamp, _ = wifi_records[rng.randrange(len(wifi_records))]
            service.enclave.trace.clear()
            service.execute_point(
                PointQuery(index_values=(location,), timestamp=timestamp)
            )
            signature = trace_signature(service.enclave.trace)
            # traces are grouped by (filters, rows) public shape — for
            # point queries both are constants, so ALL should collide
            signatures.setdefault(signature, 0)
            signatures[signature] += 1
            probes += 1
        assert len(signatures) == 1

    def test_plain_mode_traces_leak_by_contrast(self, grid_spec, wifi_records):
        """Sanity check of the methodology: the *plain* executor performs
        no oblivious ops, so its trace is empty — the trace recorder only
        certifies code paths that actually route through it."""
        _, service = make_stack(grid_spec, wifi_records, oblivious=False)
        service.enclave.trace.clear()
        location, timestamp, _ = wifi_records[0]
        service.execute_point(
            PointQuery(index_values=(location,), timestamp=timestamp)
        )
        assert len(service.enclave.trace) == 0


class TestForwardPrivacy:
    """§7: trapdoors from one epoch are useless against another."""

    def test_cross_epoch_trapdoors_match_nothing(self, grid_spec):
        import random as _random

        from repro import DataProvider, ServiceProvider, WIFI_SCHEMA
        from tests.conftest import MASTER_KEY, TIME_STEP

        provider = DataProvider(
            WIFI_SCHEMA, grid_spec, first_epoch_id=0, master_key=MASTER_KEY,
            time_granularity=TIME_STEP, rng=_random.Random(3),
        )
        service = ServiceProvider(WIFI_SCHEMA)
        provider.provision_enclave(service.enclave)
        records_0 = [("ap1", t, "dev1") for t in range(0, 3600, 60)]
        records_1 = [("ap1", t, "dev1") for t in range(3600, 7200, 60)]
        service.ingest_epoch(provider.encrypt_epoch(records_0, 0))
        service.ingest_epoch(provider.encrypt_epoch(records_1, 3600))

        context_0 = service.context_for(0)
        trapdoors = context_0.trapdoors_for_bin(context_0.layout.bins[0])
        assert service.engine.lookup_many("epoch_0", "index_key", trapdoors)
        assert (
            service.engine.lookup_many("epoch_3600", "index_key", trapdoors) == []
        )

    def test_same_value_different_epoch_ciphertexts_differ(self, grid_spec):
        import random as _random

        from repro import DataProvider, ServiceProvider, WIFI_SCHEMA
        from tests.conftest import MASTER_KEY

        provider = DataProvider(
            WIFI_SCHEMA, grid_spec, first_epoch_id=0, master_key=MASTER_KEY,
            rng=_random.Random(4),
        )
        service = ServiceProvider(WIFI_SCHEMA)
        provider.provision_enclave(service.enclave)
        # Same (location, relative-time, device) in both epochs.
        pkg0 = provider.encrypt_epoch([("ap1", 10, "d1")], 0)
        pkg1 = provider.encrypt_epoch([("ap1", 3610, "d1")], 3600)
        assert pkg0.rows[0].index_key != pkg1.rows[0].index_key
        assert pkg0.rows[0].filters[0] != pkg1.rows[0].filters[0]


class TestWorkloadDefence:
    """§8: super-bins flatten retrieval frequencies."""

    def test_example_workload_balanced(self):
        from repro.core.superbin import build_super_bins, retrieval_skew

        uniques = [1, 2, 9, 1, 2, 10, 1, 1, 1, 8, 2, 7]
        layout = build_super_bins(uniques, f=4)
        raw = retrieval_skew(uniques)
        grouped = retrieval_skew(layout.expected_retrievals(uniques))
        assert raw >= 5 * grouped
