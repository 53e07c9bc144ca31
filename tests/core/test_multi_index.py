"""Tests for multi-index deployments (Index(L,T) + Index(O,T), §3/§9.1)."""

import random

import pytest

from repro import (
    GridSpec,
    MultiIndexDeployment,
    PointQuery,
    WIFI_OBS_SCHEMA,
    WIFI_SCHEMA,
)
from repro.core.queries import Predicate, RangeQuery
from repro.exceptions import QueryError

from tests.conftest import MASTER_KEY

EPOCH_DURATION = 3600


@pytest.fixture
def deployment(wifi_records):
    spec_lt = GridSpec(dimension_sizes=(8, 24), cell_id_count=64,
                       epoch_duration=EPOCH_DURATION)
    spec_ot = GridSpec(dimension_sizes=(16, 24), cell_id_count=96,
                       epoch_duration=EPOCH_DURATION)
    deployment = MultiIndexDeployment(
        schemas=[WIFI_SCHEMA, WIFI_OBS_SCHEMA],
        grid_specs=[spec_lt, spec_ot],
        first_epoch_id=0,
        master_key=MASTER_KEY,
        time_granularity=60,
        rng=random.Random(13),
    )
    deployment.ingest_epoch(wifi_records, 0)
    return deployment


class TestConstruction:
    def test_indexes_listed(self, deployment):
        assert deployment.index_names() == ["wifi", "wifi-obs"]

    def test_single_shared_enclave_and_engine(self, deployment):
        services = list(deployment.services.values())
        assert services[0].enclave is services[1].enclave
        assert services[0].engine is services[1].engine
        assert services[0].enclave.provisioned

    def test_tables_prefixed_per_index(self, deployment):
        names = deployment.engine.table_names()
        assert "wifi_epoch_0" in names
        assert "wifi-obs_epoch_0" in names

    def test_mismatched_schemas_rejected(self):
        from repro import TPCH_2D_SCHEMA

        spec = GridSpec(dimension_sizes=(2, 2, 1), cell_id_count=2,
                        epoch_duration=EPOCH_DURATION)
        spec_w = GridSpec(dimension_sizes=(2, 2), cell_id_count=2,
                          epoch_duration=EPOCH_DURATION)
        with pytest.raises(QueryError):
            MultiIndexDeployment(
                schemas=[WIFI_SCHEMA, TPCH_2D_SCHEMA],
                grid_specs=[spec_w, spec],
                first_epoch_id=0,
            )

    def test_spec_count_mismatch_rejected(self):
        spec = GridSpec(dimension_sizes=(2, 2), cell_id_count=2,
                        epoch_duration=EPOCH_DURATION)
        with pytest.raises(QueryError):
            MultiIndexDeployment(
                schemas=[WIFI_SCHEMA], grid_specs=[spec, spec], first_epoch_id=0
            )


    def test_every_service_knob_reaches_every_index(self):
        import dataclasses

        from repro import ServiceConfig

        changed = {
            "oblivious": False, "verify": True, "window_subintervals": 4,
            "super_bin_count": 2, "retry_jitter": 0.25,
            "deadline_seconds": 30.0, "max_inflight": 3, "admission_queue": 5,
            "batch_workers": 1,
        }
        defaults = ServiceConfig()
        fields = {f.name for f in dataclasses.fields(ServiceConfig)}
        assert fields - set(changed) == {"table_prefix"}
        for name, value in changed.items():
            if name != "oblivious":
                assert value != getattr(defaults, name), name
        spec = GridSpec(dimension_sizes=(2, 2), cell_id_count=2,
                        epoch_duration=EPOCH_DURATION)
        for oblivious in (False, True):
            base = ServiceConfig(**{**changed, "oblivious": oblivious})
            deployment = MultiIndexDeployment(
                schemas=[WIFI_SCHEMA, WIFI_OBS_SCHEMA],
                grid_specs=[spec, spec],
                first_epoch_id=0,
                master_key=MASTER_KEY,
                config=base,
            )
            for name, service in deployment.services.items():
                assert service.config == dataclasses.replace(
                    base, table_prefix=f"{name}_"
                )


class TestRouting:
    def test_exact_match(self, deployment):
        assert deployment.route(("location",)) == "wifi"
        assert deployment.route(("observation",)) == "wifi-obs"

    def test_uncovered_attributes_rejected(self, deployment):
        with pytest.raises(QueryError):
            deployment.route(("nonexistent",))


class TestQueries:
    def test_location_point_query(self, deployment, wifi_records):
        location, timestamp, _ = wifi_records[0]
        answer, _ = deployment.execute_point(
            "wifi", PointQuery(index_values=(location,), timestamp=timestamp)
        )
        expected = sum(
            1 for r in wifi_records if r[0] == location and r[1] == timestamp
        )
        assert answer == expected

    def test_observation_point_query(self, deployment, wifi_records):
        location, timestamp, device = wifi_records[0]
        answer, _ = deployment.execute_point(
            "wifi-obs", PointQuery(index_values=(device,), timestamp=timestamp)
        )
        expected = sum(
            1 for r in wifi_records if r[2] == device and r[1] == timestamp
        )
        assert answer == expected

    def test_q4_via_observation_index_fetches_less(self, deployment, wifi_records):
        """The point of Index(O,T): Q4 served directly vs sweeping all
        locations through Index(L,T)."""
        device = wifi_records[0][2]
        locations = tuple(sorted({r[0] for r in wifi_records}))
        q4_obs = RangeQuery(
            index_values=(device,), time_start=0, time_end=1200,
            predicate=Predicate(group=("observation",), values=(device,)),
        )
        q4_loc = RangeQuery(
            index_values=(locations,), time_start=0, time_end=1200,
            predicate=Predicate(group=("observation",), values=(device,)),
        )
        answer_obs, stats_obs = deployment.execute_range(
            "wifi-obs", q4_obs, method="multipoint"
        )
        answer_loc, stats_loc = deployment.execute_range(
            "wifi", q4_loc, method="multipoint"
        )
        expected = sum(
            1 for r in wifi_records if r[2] == device and r[1] <= 1200
        )
        assert answer_obs == answer_loc == expected
        assert stats_obs.rows_fetched < stats_loc.rows_fetched

    def test_winsecrange_window_budget_is_per_index(self, wifi_records):
        """Regression: the budget was sealed in the shared enclave under
        (epoch, λ) alone, so the second index to ask got the first's."""
        def deploy():
            deployment = MultiIndexDeployment(
                schemas=[WIFI_SCHEMA, WIFI_OBS_SCHEMA],
                grid_specs=[
                    GridSpec(dimension_sizes=(8, 24), cell_id_count=64,
                             epoch_duration=EPOCH_DURATION),
                    GridSpec(dimension_sizes=(16, 12), cell_id_count=96,
                             epoch_duration=EPOCH_DURATION),
                ],
                first_epoch_id=0,
                master_key=MASTER_KEY,
                time_granularity=60,
                rng=random.Random(13),
            )
            deployment.ingest_epoch(wifi_records, 0)
            return deployment

        location, _, device = wifi_records[0]
        queries = {
            "wifi": RangeQuery(index_values=(location,), time_start=0, time_end=600),
            "wifi-obs": RangeQuery(index_values=(device,), time_start=0, time_end=600),
        }

        def window_size(deployment, index):
            _, stats = deployment.execute_range(
                index, queries[index], method="winsecrange"
            )
            return stats.extra["window_size"]

        alone = {index: window_size(deploy(), index) for index in queries}
        assert alone["wifi"] != alone["wifi-obs"]
        for order in (("wifi", "wifi-obs"), ("wifi-obs", "wifi")):
            shared = deploy()
            assert {i: window_size(shared, i) for i in order} == alone

    def test_unknown_index_rejected(self, deployment):
        with pytest.raises(QueryError):
            deployment.execute_point(
                "bogus", PointQuery(index_values=("x",), timestamp=0)
            )
