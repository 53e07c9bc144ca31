"""Shared machinery for the experiment benchmarks.

Each ``bench_exp*.py`` module regenerates one table or figure of the
paper's §9 at reproduction scale.  This module provides:

- dataset/stack builders (cached per pytest session via the fixtures in
  ``conftest.py``),
- :func:`save_result` — persists each experiment's "paper rows" to
  ``benchmarks/results/<exp>.json`` so EXPERIMENTS.md can be generated
  from the actual runs,
- :func:`paper_row` — uniform row formatting printed into the pytest
  output.

Scale note: the paper ran 26M ("small") and 136M ("large") rows on
MySQL + real SGX; this reproduction runs ~30K and ~150K rows on the
embedded engine + simulated enclave.  Absolute latencies are therefore
meaningless; the *relations* between systems (who wins, by what factor,
where crossovers sit) are what EXPERIMENTS.md compares.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro import (
    DataProvider,
    FakeStrategy,
    GridSpec,
    ServiceConfig,
    ServiceProvider,
    TPCH_2D_SCHEMA,
    TPCH_4D_SCHEMA,
    WIFI_SCHEMA,
)
from repro.workloads import TpchConfig, WifiConfig, generate_lineitem, generate_wifi_epoch

RESULTS_DIR = Path(__file__).parent / "results"
MASTER_KEY = bytes(range(32))

EPOCH = 10 * 3600         # a four-hour window climbing into the peak
EPOCH_DURATION = 4 * 3600
TIME_STEP = 60

# "small" / "large" dataset configs.  The paper's ratio (26M : 136M ≈
# 1:5) is kept; absolute sizes are laptop-scale.  Queries span minutes
# out of a four-hour epoch, so a range query touches a small slice of
# the data — the regime the paper's 202-day datasets are in.
SMALL_WIFI = WifiConfig(
    access_points=48, devices=1200, rows_per_hour_offpeak=1200, seed=41
)
LARGE_WIFI = WifiConfig(
    access_points=64, devices=4000, rows_per_hour_offpeak=6000, seed=42
)
SMALL_SPEC = GridSpec(
    dimension_sizes=(48, 240), cell_id_count=1024, epoch_duration=EPOCH_DURATION
)
LARGE_SPEC = GridSpec(
    dimension_sizes=(64, 240), cell_id_count=2048, epoch_duration=EPOCH_DURATION
)


def build_wifi_records(
    config: WifiConfig, rng: random.Random | None = None
) -> list[tuple[str, int, str]]:
    """One peak-hour epoch of synthetic WiFi readings.

    The generator RNG is explicit so callers can reproduce (or vary) a
    dataset independently of the config; the default derives the exact
    seed :func:`generate_wifi_epoch` would derive itself, so existing
    benchmark datasets are byte-identical to pre-threading runs.
    """
    if rng is None:
        rng = random.Random(config.seed ^ EPOCH)
    return generate_wifi_epoch(config, EPOCH, EPOCH_DURATION, rng=rng)


def build_wifi_stack(
    records,
    spec: GridSpec,
    oblivious: bool = False,
    verify: bool = False,
    fake_strategy: FakeStrategy = FakeStrategy.EQUAL,
    cell_id_count: int | None = None,
    bin_size: int | None = None,
    max_cells_per_bin: int | None = 8,
    **config,
):
    """Provision a (provider, service) pair and ingest the records.

    ``max_cells_per_bin=8`` bounds the §4.3 oblivious schedule so the
    Concealer+ benchmarks stay tractable in pure Python.  Extra keyword
    arguments flow into :class:`ServiceConfig` (``super_bin_count=…``,
    ``batch_workers=…``, …).
    """
    if cell_id_count is not None:
        spec = GridSpec(
            dimension_sizes=spec.dimension_sizes,
            cell_id_count=cell_id_count,
            epoch_duration=spec.epoch_duration,
        )
    provider = DataProvider(
        WIFI_SCHEMA,
        spec,
        first_epoch_id=EPOCH,
        master_key=MASTER_KEY,
        fake_strategy=fake_strategy,
        bin_size=bin_size,
        max_cells_per_bin=max_cells_per_bin,
        time_granularity=TIME_STEP,
        rng=random.Random(7),
    )
    service = ServiceProvider(
        WIFI_SCHEMA, ServiceConfig(oblivious=oblivious, verify=verify, **config)
    )
    provider.provision_enclave(service.enclave)
    service.ingest_epoch(provider.encrypt_epoch(records, EPOCH))
    return provider, service


def build_tpch_stack(rows, dims: str):
    """Concealer over LineItem with the 2-D or 4-D grid of §9.1."""
    if dims == "2d":
        schema = TPCH_2D_SCHEMA
        spec = GridSpec(
            dimension_sizes=(112, 7, 1), cell_id_count=512,
            epoch_duration=10**8,
        )
    else:
        schema = TPCH_4D_SCHEMA
        spec = GridSpec(
            dimension_sizes=(32, 10, 8, 7, 1), cell_id_count=1024,
            epoch_duration=10**8,
        )
    provider = DataProvider(
        schema, spec, first_epoch_id=0, master_key=MASTER_KEY,
        rng=random.Random(8),
    )
    service = ServiceProvider(schema)
    provider.provision_enclave(service.enclave)
    service.ingest_epoch(provider.encrypt_epoch(rows, 0))
    return provider, service, schema


def build_tpch_rows(
    count: int = 30_000, seed: int = 43, rng: random.Random | None = None
):
    """LineItem rows with an explicit generator RNG (same default seed
    derivation as :func:`generate_lineitem`, so defaults reproduce the
    historical datasets exactly)."""
    config = TpchConfig(rows=count, seed=seed)
    if rng is None:
        rng = random.Random(config.seed)
    return generate_lineitem(config, rng=rng)


def sample_probes(records, count: int, seed: int = 0):
    """Deterministic (location, timestamp) probes drawn from the data."""
    rng = random.Random(seed)
    return [
        (records[rng.randrange(len(records))][0],
         records[rng.randrange(len(records))][1])
        for _ in range(count)
    ]


def telemetry_summary(registry=None) -> dict:
    """The registry condensed to the quantities §9 tables care about:
    the fake-tuple overhead ratio, the EPC peak, and the oblivious-
    primitive op mix."""
    from repro import telemetry

    if registry is None:
        registry = telemetry.get_registry()
    real = registry.value("concealer_tuples_fetched_total", kind="real")
    fake = registry.value("concealer_tuples_fetched_total", kind="fake")
    fetched = real + fake
    return {
        "tuples_real": real,
        "tuples_fake": fake,
        "fake_tuple_ratio": round(fake / fetched, 6) if fetched else 0.0,
        "epc_peak_bytes": registry.value("concealer_epc_high_water_bytes"),
        "oblivious_ops": {
            key[0]: value
            for key, value in sorted(
                registry.label_values("concealer_oblivious_ops_total").items()
            )
        },
    }


def save_result(experiment: str, payload: dict) -> Path:
    """Persist one experiment's paper-comparable rows as JSON.

    Every saved result also carries a ``telemetry`` section summarising
    the ambient registry at save time (cumulative over the benchmark
    session — the fixtures build one stack per session).
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{experiment}.json"
    existing = {}
    if path.exists():
        existing = json.loads(path.read_text())
    existing.update(payload)
    existing["telemetry"] = telemetry_summary()
    path.write_text(json.dumps(existing, indent=2, sort_keys=True))
    return path


def paper_row(experiment: str, label: str, **values) -> str:
    """One printable row of a regenerated paper table."""
    cells = "  ".join(f"{key}={value}" for key, value in values.items())
    return f"[{experiment}] {label}: {cells}"
