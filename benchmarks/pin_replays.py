"""``make pin-replays`` — one digest per run of the pinned chaos matrix.

A change that claims "behaviour unchanged" must replay the pinned chaos
seeds byte for byte (ROADMAP standing rule (iii)).  This prints one line
per (seed, topology) with two digests over the run's stdout with
``--metrics prom --trace-dump``.  The behaviour digest covers every
line less the ``concealer_query_seconds`` lines (wall-clock samples and
their exemplars), with every span duration blanked and checkpoint
payload sizes left out.  The sizes digest covers only those sizes (the
``concealer_checkpoint_bytes`` lines and the ``bytes=`` attribute of
``storage.checkpoint`` spans), so a change to what a checkpoint holds
moves that column alone.  Run it in two checkouts and diff the
outputs::

    python benchmarks/pin_replays.py > after.txt
    (cd <parent checkout> && python <this file> > before.txt)

The runs go through ``python -m repro`` of the checkout this file sits
in, one at a time.  Exit status is non-zero if any run did.
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

SEEDS = (*range(1, 19), 121, 4014, 9079)
TOPOLOGIES = {
    "plain": (),
    "replicas3": ("--replicas", "3"),
    "shards2": ("--shards", "2"),
    "both": ("--shards", "2", "--replicas", "3"),
}
_DURATION = re.compile(r"\d+\.\d+ms")
_CHECKPOINT_BYTES = re.compile(r"(storage\.checkpoint .*\[bytes=)(\d+)")


def _sha(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def digests(output: str) -> tuple[str, str]:
    """(behaviour digest, checkpoint-sizes digest) of one run's stdout."""
    kept, sizes = [], []
    for line in output.splitlines():
        if "concealer_query_seconds" in line:
            continue
        if "concealer_checkpoint_bytes" in line:
            sizes.append(line)
            continue
        line = _DURATION.sub("ms", line)
        size = _CHECKPOINT_BYTES.search(line)
        if size:
            sizes.append(size.group(2))
            line = _CHECKPOINT_BYTES.sub(r"\1", line)
        kept.append(line)
    return _sha(kept), _sha(sizes)


def main() -> int:
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    failed = 0
    for seed in SEEDS:
        for topology, flags in TOPOLOGIES.items():
            run = subprocess.run(
                [sys.executable, "-m", "repro", "--chaos-seed", str(seed),
                 *flags, "--metrics", "prom", "--trace-dump"],
                capture_output=True, text=True, env=env,
            )
            failed += run.returncode != 0
            behaviour, sizes = digests(run.stdout)
            print(f"seed={seed:<5} {topology:<10} exit={run.returncode} "
                  f"{behaviour} sizes={sizes}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
