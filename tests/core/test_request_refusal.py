"""A malformed single request is refused before the host sees any read.

``ServiceProvider.execute_point`` / ``execute_range`` run the same
public check as the sharded router and batch members
(:func:`repro.core.service.check_request`) before admission, so a
request the schema alone shows is malformed opens no query scope and
reads no bin (SECURITY.md item 7).
"""

import pytest

from repro import GridSpec
from repro.core.queries import Aggregate, PointQuery, RangeQuery
from repro.exceptions import QueryError
from tests.conftest import TIME_STEP, make_stack

SPEC = GridSpec(dimension_sizes=(4, 12), cell_id_count=24, epoch_duration=3600)
RECORDS = [
    (f"ap{(t // TIME_STEP + d) % 4}", t, f"dev{d}")
    for t in range(0, 3600, TIME_STEP)
    for d in range(6)
]
UNKNOWN = {"aggregate": Aggregate.SUM, "target": "no_such_attribute"}


def _run(service, method):
    if method == "point":
        return service.execute_point(
            PointQuery(index_values=("ap0",), timestamp=0, **UNKNOWN)
        )
    return service.execute_range(
        RangeQuery(index_values=("ap0",), time_start=0, time_end=1199, **UNKNOWN),
        method=method,
    )


@pytest.mark.parametrize("method", ["point", "multipoint", "ebpb", "winsecrange", "auto"])
def test_an_unknown_target_leaves_the_access_log_untouched(method):
    _, service = make_stack(SPEC, RECORDS, verify=True)
    log = service.engine.access_log
    before = (len(log), log.last_query_id)
    with pytest.raises(QueryError, match="no_such_attribute"):
        _run(service, method)
    assert (len(log), log.last_query_id) == before

