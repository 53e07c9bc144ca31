"""Hosting several Concealer indexes over one relation (§3, §9.1).

Algorithm 1 builds one cell-based index per attribute combination —
"Similar indexes can also be created for other attributes, such as
Index(O, T) and Index(L, O, T)" — and §9.1's TPC-H deployment ships two
indexes over the same 136M rows.  A query then routes to the index
matching its predicate: Table 4's Q4 (find locations by *observation*)
is served by Index(O, T) directly instead of sweeping every location
through Index(L, T).

:class:`MultiIndexDeployment` wires that up: one shared enclave and
storage engine, one (provider, service) pair per index schema, a single
master key, and an attribute-based router.  Index schemas must agree on
the relation (same attributes, same time attribute) and differ only in
``index_attributes`` / ``filter_groups``.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import replace

from repro.core.grid import GridSpec
from repro.core.provider import DataProvider
from repro.core.queries import PointQuery, QueryStats, RangeQuery
from repro.core.schema import DatasetSchema
from repro.core.service import ServiceConfig, ServiceProvider
from repro.enclave.enclave import Enclave, EnclaveConfig, generate_master_key
from repro.exceptions import QueryError
from repro.storage.engine import StorageEngine


class MultiIndexDeployment:
    """One relation, many Concealer indexes, one trust domain.

    >>> # deployment = MultiIndexDeployment(
    >>> #     schemas=[WIFI_SCHEMA, WIFI_OBS_SCHEMA],
    >>> #     grid_specs=[spec_lt, spec_ot],
    >>> #     first_epoch_id=0)
    >>> # deployment.ingest_epoch(records, 0)   # lands in every index
    >>> # deployment.execute_point("wifi-obs", query)
    """

    def __init__(
        self,
        schemas: Sequence[DatasetSchema],
        grid_specs: Sequence[GridSpec],
        first_epoch_id: int,
        master_key: bytes | None = None,
        config: ServiceConfig | None = None,
        time_granularity: int = 1,
        rng: random.Random | None = None,
    ):
        if len(schemas) != len(grid_specs):
            raise QueryError("one grid spec per index schema required")
        if not schemas:
            raise QueryError("at least one index schema required")
        names = [schema.name for schema in schemas]
        if len(set(names)) != len(names):
            raise QueryError("index schema names must be unique")
        base = schemas[0]
        for schema in schemas[1:]:
            if schema.attributes != base.attributes:
                raise QueryError(
                    f"index {schema.name!r} disagrees on relation attributes"
                )
            if schema.time_attribute != base.time_attribute:
                raise QueryError(
                    f"index {schema.name!r} disagrees on the time attribute"
                )
        durations = {spec.epoch_duration for spec in grid_specs}
        if len(durations) != 1:
            raise QueryError("all indexes must share the epoch duration")

        self.master_key = (
            master_key if master_key is not None else generate_master_key(rng)
        )
        self.enclave = Enclave(EnclaveConfig())
        base_config = config or ServiceConfig()
        self.engine = StorageEngine()
        self._rng = rng if rng is not None else random.Random()

        self.providers: dict[str, DataProvider] = {}
        self.services: dict[str, ServiceProvider] = {}
        for schema, spec in zip(schemas, grid_specs):
            provider = DataProvider(
                schema,
                spec,
                first_epoch_id=first_epoch_id,
                master_key=self.master_key,
                time_granularity=time_granularity,
                rng=self._rng,
            )
            # Every knob reaches every index; only the prefix differs.
            per_index = replace(base_config, table_prefix=f"{schema.name}_")
            service = ServiceProvider(
                schema, per_index, engine=self.engine, enclave=self.enclave
            )
            self.providers[schema.name] = provider
            self.services[schema.name] = service

        # A single attestation + provisioning covers every index: they
        # share the enclave and the master key.
        next(iter(self.providers.values())).provision_enclave(self.enclave)

    # ------------------------------------------------------------------ data

    def ingest_epoch(self, records: Sequence[tuple], epoch_id: int) -> None:
        """Encrypt and land one epoch into *every* index."""
        for name, provider in self.providers.items():
            package = provider.encrypt_epoch(records, epoch_id)
            self.services[name].ingest_epoch(package)

    def index_names(self) -> list[str]:
        """All index schema names, sorted."""
        return sorted(self.providers)

    # --------------------------------------------------------------- routing

    def route(self, constrained_attributes: Sequence[str]) -> str:
        """Pick the index serving a predicate over the given attributes.

        Preference order: exact match on ``index_attributes``, then the
        smallest index whose attributes are a superset of the
        constraint (its grid can still narrow the fetch), then fail.
        """
        wanted = tuple(constrained_attributes)
        for name, service in self.services.items():
            if service.schema.index_attributes == wanted:
                return name
        supersets = [
            (len(service.schema.index_attributes), name)
            for name, service in self.services.items()
            if set(wanted) <= set(service.schema.index_attributes)
        ]
        if supersets:
            return min(supersets)[1]
        raise QueryError(
            f"no index covers attributes {list(wanted)}; "
            f"available: {self.index_names()}"
        )

    # --------------------------------------------------------------- queries

    def execute_point(
        self, index: str, query: PointQuery, epoch_id: int | None = None
    ) -> tuple[object, QueryStats]:
        """Run a point query against one named index."""
        return self._service(index).execute_point(query, epoch_id=epoch_id)

    def execute_range(
        self,
        index: str,
        query: RangeQuery,
        method: str = "ebpb",
        epoch_id: int | None = None,
    ) -> tuple[object, QueryStats]:
        """Run a range query against one named index."""
        return self._service(index).execute_range(
            query, method=method, epoch_id=epoch_id
        )

    def _service(self, index: str) -> ServiceProvider:
        try:
            return self.services[index]
        except KeyError:
            raise QueryError(
                f"unknown index {index!r}; available: {self.index_names()}"
            ) from None
