"""``make pin-replays`` — one digest per run of the pinned chaos matrix.

A change that claims "behaviour unchanged" must replay the pinned chaos
seeds byte for byte (ROADMAP standing rule (iii)).  This prints one line
per (seed, topology): a SHA-256 over the run's stdout with
``--metrics prom --trace-dump``, less the ``concealer_query_seconds``
lines (wall-clock samples and their exemplars) and with every span
duration blanked.  Run it in two checkouts and diff the outputs::

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


def digest(output: str) -> str:
    kept = [
        _DURATION.sub("ms", line)
        for line in output.splitlines()
        if "concealer_query_seconds" not in line
    ]
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()[:16]


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
            print(f"seed={seed:<5} {topology:<10} exit={run.returncode} "
                  f"{digest(run.stdout)}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
