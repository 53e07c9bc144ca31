"""Smoke test of the benchmark itself (not of the program).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Outside tier-1's ``testpaths``.  Every workload runs once untraced and
once traced at ``--scale smoke`` and must emit exactly the metric names
``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = list(workloads.WORKLOADS)   # the gated three and ``ingest_rotate``


def test_the_contract_lists_only_workloads_that_exist():
    assert {w["name"] for w in CONTRACT["workloads"]} <= set(WORKLOADS)


def run_smoke(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "smoke", "--seconds", "0.5", *args],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_of_the_contract_and_no_other(workload, trace):
    done = run_smoke("--workload", workload, "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = CONTRACT["per_layer"] if trace else CONTRACT["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric["name"])
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "absent entry point" not in done.stderr


@pytest.mark.parametrize("workload", ["point_bins", "ingest_rotate"])
def test_a_corrupted_expected_answer_fails_the_run(workload):
    done = run_smoke("--workload", workload, "--corrupt-oracle")
    assert done.returncode != 0
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_span_dump_parses_into_one_tree_per_request():
    # request "a": router -> two overlapping shard calls -> a storage read
    dump = [
        (1, 0, "a", "router:execute_range", 0.0, 10.0),
        (2, 1, "a", "service:execute_range", 1.0, 7.0),
        (3, 1, "a", "service:execute_range", 3.0, 9.0),
        (4, 2, "a", "storage.read:lookup_many", 2.0, 4.0),
        (5, 0, "b", "router:execute_point", 20.0, 21.0),
    ]
    trees = spans.request_trees(dump)
    assert {request: len(roots) for request, (roots, _) in trees.items()} == {"a": 1, "b": 1}
    selfs = spans.self_times(*trees["a"])
    # layers sum to the root's duration even though the shards overlap
    assert sum(selfs.values()) == pytest.approx(10.0)
    assert selfs["router"] == pytest.approx(2.0)
    assert selfs["storage.read"] == pytest.approx(2.0 * 8.0 / 12.0)
    with pytest.raises(ValueError):
        spans.request_trees(dump + [(6, 99, "b", "verify:verify_rows", 20.1, 20.2)])
