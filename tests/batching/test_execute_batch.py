"""End-to-end tests for the batched query engine.

The acceptance bar from the issue: a batched workload whose queries
overlap in ≥4× of their bins performs at least 2× fewer storage reads
than running the same queries sequentially — with byte-identical
answers, because batching only changes *where* whole bins come from
(the shared overlay), never what a query computes from them.
"""

import random

import pytest

from repro import GridSpec
from repro.core.queries import Aggregate, PointQuery, RangeQuery
from repro.core.registry import unseal_answer
from repro.exceptions import EpochError, QueryError
from repro.telemetry import audit_run
from tests.conftest import TIME_STEP, ground_truth_count, make_stack

EPOCH_DURATION = 3600
SPEC = GridSpec(
    dimension_sizes=(4, 12), cell_id_count=24, epoch_duration=EPOCH_DURATION
)
LOCATIONS = [f"ap{i}" for i in range(4)]


def _records(seed=5):
    rng = random.Random(seed)
    return [
        (LOCATIONS[rng.randrange(4)], t, f"dev{d}")
        for t in range(0, EPOCH_DURATION, TIME_STEP)
        for d in range(8)
    ]


def _overlapping_queries(records, probes=4, repeats=4):
    """``probes`` distinct point probes, each asked ``repeats`` times —
    a ≥``repeats``× bin-overlap workload by construction."""
    rng = random.Random(11)
    chosen = []
    seen = set()
    while len(chosen) < probes:
        location, timestamp, _ = records[rng.randrange(len(records))]
        if (location, timestamp) in seen:
            continue
        seen.add((location, timestamp))
        chosen.append((location, timestamp))
    return [
        PointQuery(index_values=(location,), timestamp=timestamp)
        for _ in range(repeats)
        for location, timestamp in chosen
    ]


RECORDS = _records()
READS = "concealer_storage_rows_read_total"


class TestDedup:
    @pytest.mark.parametrize("verify", [False, True])
    def test_4x_overlap_halves_storage_reads(self, verify):
        queries = _overlapping_queries(RECORDS, probes=4, repeats=4)

        def sequential():
            _, service = make_stack(SPEC, RECORDS, verify=verify)
            return [service.execute_point(q)[0] for q in queries]

        def batched():
            _, service = make_stack(SPEC, RECORDS, verify=verify)
            return [a for a, _ in service.execute_batch(queries)]

        seq = audit_run(sequential)
        bat = audit_run(batched)
        assert bat.result == seq.result  # byte-identical answers
        seq_reads = seq.registry.total(READS)
        bat_reads = bat.registry.total(READS)
        assert bat_reads * 2 <= seq_reads, (
            f"batched={bat_reads} sequential={seq_reads}"
        )

    def test_plan_reports_the_dedup_factor(self):
        _, service = make_stack(SPEC, RECORDS)
        queries = _overlapping_queries(RECORDS, probes=2, repeats=4)
        run = audit_run(lambda: service.execute_batch(queries))
        assert run.registry.total("concealer_batch_queries_total") == 8
        references = run.registry.total("concealer_batch_bin_references_total")
        unique = run.registry.total("concealer_batch_unique_bins_total")
        assert unique and references >= unique * 4
        # Every member read is served from the overlay: the first reader
        # of a bin fetches it for the batch, then reads it like the rest.
        assert run.registry.total("concealer_batch_bin_reuses_total") == references
        assert sum(stats.cache_hits for _, stats in run.result) == references


class TestAnswers:
    def test_mixed_batch_matches_oracle_and_order(self):
        _, service = make_stack(SPEC, RECORDS, verify=True)
        location, timestamp, _ = RECORDS[10]
        queries = [
            PointQuery(index_values=(location,), timestamp=timestamp),
            (
                RangeQuery(
                    index_values=(location,), time_start=0, time_end=600
                ),
                "multipoint",
            ),
            PointQuery(index_values=(location,), timestamp=timestamp),
            (
                RangeQuery(
                    index_values=(location,), time_start=0, time_end=600
                ),
                "ebpb",
            ),
        ]
        results = service.execute_batch(queries)
        assert len(results) == len(queries)
        point_truth = ground_truth_count(
            RECORDS, location=location, t0=timestamp, t1=timestamp
        )
        range_truth = ground_truth_count(RECORDS, location=location, t0=0, t1=600)
        answers = [a for a, _ in results]
        assert answers == [point_truth, range_truth, point_truth, range_truth]
        for _, stats in results:
            assert stats.verified

    def test_batch_answers_equal_sequential_for_every_method(self):
        _, service = make_stack(SPEC, RECORDS, verify=True)
        location = LOCATIONS[1]
        ranged = RangeQuery(index_values=(location,), time_start=0, time_end=900)
        for method in ("multipoint", "ebpb", "winsecrange"):
            solo, _ = service.execute_range(ranged, method=method)
            (batched, _), = service.execute_batch([(ranged, method)])
            assert batched == solo

    def test_empty_batch(self):
        _, service = make_stack(SPEC, RECORDS)
        assert service.execute_batch([]) == []

    def test_epoch_spanning_range_is_rejected(self):
        _, service = make_stack(SPEC, RECORDS)
        with pytest.raises(QueryError, match="spans multiple epochs"):
            service.execute_batch(
                [
                    (
                        RangeQuery(
                            index_values=(LOCATIONS[0],),
                            time_start=EPOCH_DURATION - 600,
                            time_end=EPOCH_DURATION + 600,
                        ),
                        "multipoint",
                    )
                ]
            )

    def test_never_ingested_epoch_fails_loudly(self):
        _, service = make_stack(SPEC, RECORDS)
        location, timestamp, _ = RECORDS[0]
        with pytest.raises(EpochError):
            service.execute_batch(
                [
                    PointQuery(
                        index_values=(location,),
                        timestamp=timestamp + EPOCH_DURATION,
                    )
                ]
            )

    def test_unknown_method_is_rejected(self):
        _, service = make_stack(SPEC, RECORDS)
        ranged = RangeQuery(index_values=(LOCATIONS[0],), time_start=0, time_end=60)
        with pytest.raises(QueryError):
            service.execute_batch([(ranged, "bogus")])


class TestSealedBatch:
    def test_every_answer_sealed_for_the_user(self, grid_spec):
        provider, service = make_stack(SPEC, RECORDS)
        credential = provider.register_user("alice")
        service.install_registry(provider.sealed_registry())
        challenge = service.challenge()
        entry = service.authenticate(
            credential, challenge, credential.answer_challenge(challenge)
        )
        location, timestamp, _ = RECORDS[3]
        queries = _overlapping_queries(RECORDS, probes=2, repeats=2)
        sealed = service.execute_batch_sealed(queries, entry)
        assert len(sealed) == len(queries)
        for (blob, _), query in zip(sealed, queries):
            truth = ground_truth_count(
                RECORDS,
                location=query.index_values[0],
                t0=query.timestamp,
                t1=query.timestamp,
            )
            assert unseal_answer(credential.secret, blob) == truth


class TestRequestChecks:
    """Every member is checked before the batch reads anything: a batch
    a member of which is refused shows the host no read at all."""

    @pytest.mark.parametrize(
        "bad, oblivious",
        [
            # COLLECT needs the rows: never tree-eligible.
            (
                (
                    RangeQuery(
                        index_values=(LOCATIONS[0],), time_start=0,
                        time_end=3599, aggregate=Aggregate.COLLECT,
                    ),
                    "tree",
                ),
                False,
            ),
            # Concealer+ has no tree path.
            (
                (
                    RangeQuery(
                        index_values=(LOCATIONS[0],), time_start=0, time_end=3599
                    ),
                    "tree",
                ),
                True,
            ),
            (
                PointQuery(
                    index_values=(LOCATIONS[0],), timestamp=0,
                    aggregate=Aggregate.SUM, target="no_such_attribute",
                ),
                False,
            ),
        ],
        ids=["ineligible-tree", "oblivious-tree", "unknown-target"],
    )
    def test_a_refused_member_leaves_the_access_log_empty(self, bad, oblivious):
        _, service = make_stack(SPEC, RECORDS, oblivious=oblivious)
        location, timestamp, _ = RECORDS[10]
        good = PointQuery(index_values=(location,), timestamp=timestamp)
        before = len(list(service.engine.access_log))
        with pytest.raises(QueryError):
            service.execute_batch([good, bad])
        assert len(list(service.engine.access_log)) == before
