PYTHON ?= python
PYTHONPATH := src

.PHONY: test chaos replication-chaos shard-chaos shard-replication-chaos serve demo bench bench-json bench-smoke bench-e2e-smoke bench-longrange trace-overhead metrics-smoke lint loc profile profile-read pin-replays

# Where `make bench-json` writes its machine-readable metrics.
BENCH_OUT ?= BENCH_local.json
BENCH_SCALE ?= ci
BENCH_BASELINE ?= benchmarks/results/baseline_ci.json
BENCH_MAX_REGRESSION ?= 0.25

test: metrics-smoke replication-chaos
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

# Randomized fault-schedule runs; any failure replays deterministically
# with `python -m repro --chaos-seed N` using the seed pytest prints.
chaos:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest tests/faults tests/replication -m chaos -q

# The Byzantine replicated-store corpus: ≥200 seeded runs over 3 and 5
# replicas with tamper/replay/drop/slow faults armed.  Any failure
# replays with `python -m repro --chaos-seed N --replicas 3`.
replication-chaos:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest tests/replication/test_replication_chaos.py -q

# The sharded multi-enclave corpus: ≥200 seeded runs over 2/3/4-shard
# fleets with shard kills, slow shards, router crashes, and mid-stream
# two-phase rotation/ingest.  Any failure replays with
# `python -m repro --chaos-seed N --shards 2`.
shard-chaos:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest tests/faults/test_chaos_sharded.py -q

# The composed corpus: sharded fleets where every shard fronts a
# three-replica group — Byzantine replica faults, shard kills, and
# mid-stream two-phase rotation at once.  Any failure replays with
# `python -m repro --chaos-seed N --shards 2 --replicas 3`.  The
# timeout is a hard ceiling so a wedged replica group fails the run
# instead of hanging it.
shard-replication-chaos:
	PYTHONPATH=$(PYTHONPATH) timeout 600 $(PYTHON) -m pytest tests/faults/test_chaos_composed.py -q

# The sharded fleet behind the JSON-lines TCP door (SIGTERM drains,
# checkpoints, and exits 0).
serve:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro --serve --shards 2

demo:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro

bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks -q

# Deterministic downscaled benchmark → machine-readable JSON
# (p50/p95 latencies, storage reads/query, fake-tuple overhead, batch
# dedup).  Regenerate the committed CI baseline after an intentional
# volume change with: make bench-json BENCH_OUT=$(BENCH_BASELINE)
bench-json:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/report.py \
		--bench-json $(BENCH_OUT) --scale $(BENCH_SCALE)

# The CI gate: emit BENCH_pr.json and fail on >25% regression of any
# tracked (deterministic count) metric vs the committed baseline.
bench-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/report.py \
		--bench-json BENCH_pr.json --scale $(BENCH_SCALE)
	$(PYTHON) benchmarks/check_regression.py \
		--baseline $(BENCH_BASELINE) --candidate BENCH_pr.json \
		--max-regression $(BENCH_MAX_REGRESSION)

# The repo benchmark's own smoke test (benchmarks/e2e, BENCHMARK.json):
# every workload once at a small scale through the real TCP door, traced
# and untraced.  Catches a renamed entry point that spans.py wraps from
# outside, or a broken separation check, before the benchmark driver does.
bench-e2e-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/e2e -q

# Exp 14: the hierarchical aggregate tree vs the bin path on a 30-day
# epoch — asserts ≥50× fewer rows/query and ≥10× wall-clock on the
# month-long window (DESIGN.md §17).
bench-longrange:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		benchmarks/bench_exp14_longrange.py -q

# The tracing-cost gate: the same workload with the tracer off vs on,
# compared as a drift-cancelling paired ratio; >10% wall-time overhead
# fails.  Tracing is meant to stay on in production.
trace-overhead:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/trace_overhead.py \
		--baseline-out TRACE_off.json --candidate-out TRACE_on.json
	$(PYTHON) benchmarks/check_regression.py \
		--baseline TRACE_off.json --candidate TRACE_on.json \
		--max-regression 0.10

# Where an epoch's ingest time goes (ingest_epoch_sharded, 2x3 fleet):
# wall-clock phase split, the cyclic collector's seconds and collection
# count, and the cProfile top-30 cumulative functions, all written to
# benchmarks/results/profile.txt (and stdout).
profile:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/profile_ingest.py

# The read-side sibling, in three sections written to
# benchmarks/results/profile_read.txt: verified point queries on the repo
# benchmark's `point_bins` fleet shape — STEP 4's verification split by
# path (by position / by request / by grouping), fetch, filter, decrypt,
# then the cProfile top-30; 10-minute multipoint, eBPB and winSecRange
# ranges on the `range_scatter` 2x3 shape (trapdoors / index lookup /
# slot runs / sidecar read of whole bins or of slot runs / index keys
# derived / index check / pack / verify / filter / decrypt); then whole-epoch ranges through the
# async router on a 4x1 fleet (plan / dispatch / tree decode / telemetry /
# hops).
profile-read:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/profile_read.py

# Rule (iii)'s replay pin: one digest per run of chaos seeds 1-18, 121,
# 4014 and 9079 x {plain, --replicas 3, --shards 2, both}, over
# `--metrics prom` less concealer_query_seconds plus `--trace-dump` with
# durations blanked.  Diff its output against a checkout of the parent.
pin-replays:
	$(PYTHON) benchmarks/pin_replays.py

# Tiny workload → Prometheus export → line-format validation.
metrics-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest tests/telemetry/test_metrics_smoke.py -q

# ROADMAP aim 2 without running the benchmark: non-blank, non-comment
# lines of src/repro in total and per package, counted by the repo
# benchmark's own counter (benchmarks/e2e/metrics.py, imported as is) so
# the table is exactly its src.lines_total / src.lines.* metrics.
loc:
	@PYTHONPATH=$(PYTHONPATH):benchmarks/e2e $(PYTHON) -c "\
	from pathlib import Path; import metrics; \
	print('\n'.join(f'{name:<24}{lines:>7}' for name, lines in metrics.code_size(Path('src')).items()))"

# Static checks (config in pyproject.toml).  The runtime toolchain does
# not require ruff, so skip politely where it is not installed.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping lint (pip install ruff to enable)"; \
	fi
