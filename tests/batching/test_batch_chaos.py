"""Chaos coverage for the burst op: faults mid-burst, zero lies.

The chaos workload includes a ``batch`` operation, a burst of
overlapping point probes plus a multipoint range, each its own request
and judged together, so every schedule exercises faults between and
inside back-to-back reads of the same bins across enclave crashes and
checkpoint restores.  The invariant is the corpus-wide one: oracle
answer or typed error, never a silent lie — and every run replays
byte-identically from its seed.
"""

from __future__ import annotations

import pytest

from repro.faults.chaos import run_chaos
from tests.faults.test_chaos import (
    aggressive_specs,
    assert_never_silently_wrong,
    tamper_specs,
)

pytestmark = pytest.mark.chaos


class TestBatchedChaos:
    @pytest.mark.parametrize("seed", range(300, 340))
    def test_single_engine_batches_never_lie(self, seed):
        report = run_chaos(seed, ops=10, specs=aggressive_specs())
        assert_never_silently_wrong(report)

    @pytest.mark.parametrize("seed", range(340, 360))
    def test_tampered_batches_fail_loudly(self, seed):
        report = run_chaos(seed, ops=8, specs=tamper_specs())
        assert_never_silently_wrong(report)
        for outcome in report.outcomes:
            if outcome.op == "batch" and outcome.error is not None:
                assert outcome.error in (
                    "IntegrityViolation",
                    "TransientStorageError",
                    "StorageUnavailable",
                    "EnclaveCrashed",
                    "DeadlineExceeded",
                )

    @pytest.mark.parametrize("seed", range(360, 372))
    def test_replicated_batches_never_lie(self, seed):
        report = run_chaos(seed, ops=8, replicas=3)
        assert_never_silently_wrong(report)


class TestBatchCoverage:
    def test_batch_ops_actually_run_and_mostly_succeed(self):
        reports = [run_chaos(seed, ops=12) for seed in range(300, 320)]
        batches = [
            o for r in reports for o in r.outcomes if o.op == "batch"
        ]
        assert len(batches) >= 10, "corpus never drew the batch op"
        ok = sum(o.ok for o in batches)
        assert ok > 0, "no batch ever succeeded under faults"
        # Batch answers are list-valued; a successful one matched the
        # oracle element-for-element.
        for outcome in batches:
            if outcome.ok:
                assert isinstance(outcome.answer, list)

    def test_batches_replay_deterministically(self):
        for seed in (303, 311):
            first = run_chaos(seed, ops=12)
            second = run_chaos(seed, ops=12)
            assert first.schedule == second.schedule
            assert first.fingerprint() == second.fingerprint()
