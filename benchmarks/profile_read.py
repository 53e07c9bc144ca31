"""``make profile-read`` — where a verified point query's time goes.

The read-side sibling of ``make profile``: the repo benchmark's
``point_bins`` fleet shape (1×1, |b| = 512, every ``ServiceConfig``
default, so verify on) built in-process from public APIs, then 200
point queries at ingested (location, time) pairs, twice: unprofiled,
with wrappers installed from here around the parts of STEP 4's
verification and the stages beside it, so the wall-clock split sums to
the run (the fold wrapper, ~70 calls a query, taxes it a few percent);
then under cProfile, top-30.  To stdout and ``results/profile_read.txt``.
"""

import cProfile
import io
import pstats
import random
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from profile_ingest import TOP_N, PhaseTimer, fleet_and_records  # noqa: E402

QUERIES = 200
_CONTEXT = ("repro.core.context", "EpochContext")
PHASES = [
    (
        "verify: index-key decrypt*",
        "repro.crypto.kernels", "DeterministicCipher", "decrypt_many",
    ),
    ("verify: grouping", *_CONTEXT, "_group_by_cell"),
    ("verify: chain fold", "repro.core.context", None, "extend_chain_slices"),
    ("verify: counters + tags", *_CONTEXT, "_check_cells"),
    ("verify: shell", *_CONTEXT, "verify_packed"),
    ("fetch", *_CONTEXT, "fetch_packed"),
    ("filter", *_CONTEXT, "match_packed"),
    ("decrypt", *_CONTEXT, "decrypt_packed_records"),
]


def main() -> None:
    from repro.core.queries import Aggregate, PointQuery
    from repro.sharding import ingest_epoch_sharded

    out = io.StringIO()
    with tempfile.TemporaryDirectory() as workdir:
        fleet, records, epoch = fleet_and_records(workdir, shards=1, replicas=1)
        ingest_epoch_sharded(fleet, records, epoch)
        distinct = {"aggregate": Aggregate.DISTINCT_COUNT, "target": "observation"}
        asked = enumerate(random.Random(41).choices(records, k=QUERIES))
        queries = [  # as the benchmark: every other one decrypts payloads
            PointQuery(index_values=(place,), timestamp=at, **(distinct if i % 2 else {}))
            for i, (place, at, _) in asked
        ]
        fleet.execute_point(queries[0])  # builds the epoch context
        with PhaseTimer(PHASES) as phases:
            start = time.perf_counter()
            for query in queries:
                fleet.execute_point(query)
            wall = time.perf_counter() - start
        with cProfile.Profile() as profiler:
            for query in queries:
                fleet.execute_point(query)
    out.write(
        f"{QUERIES} verified point queries, 1x1 fleet, |b| = 512: {wall:.3f} s "
        f"({1000 * wall / QUERIES:.2f} ms/query)\n\n"
        "split (wall clock, self time; * with the few matched payloads)\n"
    )
    rest = wall - sum(phases.seconds.values())
    for phase, spent in (*phases.seconds.items(), ("plan, merge, rest", rest)):
        share = f"{1000 * spent / QUERIES:7.3f} ms/query {100 * spent / wall:5.1f}%"
        out.write(f"  {phase:<28}{share}\n")
    pstats.Stats(profiler, stream=out).sort_stats("cumulative").print_stats(TOP_N)
    path = Path(__file__).parent / "results" / "profile_read.txt"
    path.write_text(out.getvalue())
    print(out.getvalue(), f"wrote {path}", sep="\n")


if __name__ == "__main__":
    main()
