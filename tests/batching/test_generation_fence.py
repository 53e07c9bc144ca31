"""Property: a warmed-then-rewritten epoch never serves stale bins.

Key rotation (and any §6 dynamic rewrite) rewrites ciphertexts in
place behind ``begin/end_rewrite``, each of which bumps the engine's
``rewrite_generation``.  Nothing in the enclave outlives that fence
with bin contents: every post-rotation query reads the rewritten bytes
from storage.  These tests drive the full service stack: warm the
epoch's context, rotate, and prove that answers stay correct and
verified against the rewritten bytes.
"""

import random

import pytest

from repro import GridSpec
from repro.core.queries import PointQuery, RangeQuery
from repro.core.rotation import rotate_service_keys, rotation_token
from tests.conftest import MASTER_KEY, TIME_STEP, ground_truth_count, make_stack

NEW_KEY = bytes(range(32, 64))
EPOCH_DURATION = 3600
SPEC = GridSpec(
    dimension_sizes=(4, 12), cell_id_count=24, epoch_duration=EPOCH_DURATION
)
LOCATIONS = [f"ap{i}" for i in range(4)]


def _records(rng):
    return [
        (LOCATIONS[rng.randrange(4)], t, f"dev{d}")
        for t in range(0, EPOCH_DURATION, TIME_STEP)
        for d in range(8)
    ]


def _probe(rng, records):
    location, timestamp, _ = records[rng.randrange(len(records))]
    return location, timestamp


class TestRotationFence:
    @pytest.mark.parametrize("seed", [3, 17, 99])
    def test_rotated_epoch_never_serves_stale_bins(self, seed):
        rng = random.Random(seed)
        records = _records(rng)
        _, service = make_stack(SPEC, records, verify=True)
        probes = [_probe(rng, records) for _ in range(4)]

        # Warm the epoch context with two passes.
        for location, timestamp in probes:
            service.execute_point(
                PointQuery(index_values=(location,), timestamp=timestamp)
            )
        warm = [
            service.execute_point(
                PointQuery(index_values=(location,), timestamp=timestamp)
            )
            for location, timestamp in probes
        ]
        for (location, timestamp), (answer, stats) in zip(probes, warm):
            assert answer == ground_truth_count(
                records, location=location, t0=timestamp, t1=timestamp
            )
            assert stats.verified

        generation_before = service.engine.rewrite_generation
        rotate_service_keys(
            service, NEW_KEY, rotation_token(MASTER_KEY, NEW_KEY)
        )
        assert service.engine.rewrite_generation > generation_before
        assert not service.engine.rewrite_in_progress

        # Every answer must verify against the rewritten bytes, each
        # read from storage.
        for location, timestamp in probes:
            query = PointQuery(index_values=(location,), timestamp=timestamp)
            answer, stats = service.execute_point(query)
            assert answer == ground_truth_count(
                records, location=location, t0=timestamp, t1=timestamp
            )
            log = service.engine.access_log
            assert log.rows_fetched(log.last_query_id) > 0
            assert stats.verified

    def test_range_answers_survive_rotation(self):
        rng = random.Random(23)
        records = _records(rng)
        _, service = make_stack(SPEC, records, verify=True)
        location = LOCATIONS[0]
        query = RangeQuery(
            index_values=(location,), time_start=0, time_end=600
        )
        truth = ground_truth_count(records, location=location, t0=0, t1=600)

        before, _ = service.execute_range(query, method="multipoint")
        rotate_service_keys(service, NEW_KEY, rotation_token(MASTER_KEY, NEW_KEY))
        after, stats = service.execute_range(query, method="multipoint")
        assert before == truth and after == truth
        assert stats.verified

