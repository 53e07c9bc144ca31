"""What the batch engine's tests checked that still holds, one request
at a time.

Every query is its own request: a mixed burst answers each member
verified and as the oracle does, a sealed burst opens for its user, and
each refusal a batch made for a member a single request makes before it
reads anything.  The batch's own behaviour (the shared overlay, its
dedup and its counters) is gone, and its tests with it.
"""

import random

import pytest

from repro import GridSpec
from repro.core.queries import Aggregate, PointQuery, RangeQuery
from repro.core.registry import unseal_answer
from repro.exceptions import EpochError, QueryError
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
    """``probes`` distinct point probes, each asked ``repeats`` times."""
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


def _run(service, item):
    """One request: a point query, or a ``(RangeQuery, method)`` pair."""
    if isinstance(item, PointQuery):
        return service.execute_point(item)
    query, method = item
    return service.execute_range(query, method=method)


RECORDS = _records()


class TestAnswers:
    def test_mixed_batch_matches_oracle_and_order(self):
        _, service = make_stack(SPEC, RECORDS, verify=True)
        location, timestamp, _ = RECORDS[10]
        point = PointQuery(index_values=(location,), timestamp=timestamp)
        ranged = RangeQuery(index_values=(location,), time_start=0, time_end=600)
        queries = [point, (ranged, "multipoint"), point, (ranged, "ebpb")]
        results = [_run(service, item) for item in queries]
        point_truth = ground_truth_count(
            RECORDS, location=location, t0=timestamp, t1=timestamp
        )
        range_truth = ground_truth_count(RECORDS, location=location, t0=0, t1=600)
        answers = [a for a, _ in results]
        assert answers == [point_truth, range_truth, point_truth, range_truth]
        for _, stats in results:
            assert stats.verified

    def test_epoch_spanning_range_is_rejected(self):
        _, service = make_stack(SPEC, RECORDS)
        ranged = RangeQuery(
            index_values=(LOCATIONS[0],),
            time_start=EPOCH_DURATION - 600,
            time_end=EPOCH_DURATION + 600,
        )
        with pytest.raises(QueryError, match="spans multiple epochs"):
            service.execute_range(ranged, method="multipoint")

    def test_never_ingested_epoch_fails_loudly(self):
        _, service = make_stack(SPEC, RECORDS)
        location, timestamp, _ = RECORDS[0]
        with pytest.raises(EpochError):
            service.execute_point(
                PointQuery(
                    index_values=(location,), timestamp=timestamp + EPOCH_DURATION
                )
            )

    def test_unknown_method_is_rejected(self):
        _, service = make_stack(SPEC, RECORDS)
        ranged = RangeQuery(index_values=(LOCATIONS[0],), time_start=0, time_end=60)
        with pytest.raises(QueryError):
            service.execute_range(ranged, method="bogus")


class TestSealedBatch:
    def test_every_answer_sealed_for_the_user(self, grid_spec):
        provider, service = make_stack(SPEC, RECORDS)
        credential = provider.register_user("alice")
        service.install_registry(provider.sealed_registry())
        challenge = service.challenge()
        entry = service.authenticate(
            credential, challenge, credential.answer_challenge(challenge)
        )
        queries = _overlapping_queries(RECORDS, probes=2, repeats=2)
        for query in queries:
            blob, _ = service.execute_point_sealed(query, entry)
            truth = ground_truth_count(
                RECORDS,
                location=query.index_values[0],
                t0=query.timestamp,
                t1=query.timestamp,
            )
            assert unseal_answer(credential.secret, blob) == truth


class TestRequestChecks:
    """A refused request shows the host no read at all."""

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
        _run(service, PointQuery(index_values=(location,), timestamp=timestamp))
        before = len(list(service.engine.access_log))
        with pytest.raises(QueryError):
            _run(service, bad)
        assert len(list(service.engine.access_log)) == before
