"""Execute the usage examples embedded in module docstrings."""

import doctest

import pytest

import repro.core.binning
import repro.core.grid
import repro.core.schema
import repro.core.superbin
import repro.crypto.det
import repro.crypto.kernels
import repro.crypto.nondet
import repro.crypto.prf
import repro.enclave.sort
import repro.replication.breaker
import repro.storage.btree
import repro.storage.engine
import repro.telemetry.metrics
import repro.telemetry.spans
import tests.crypto.hashchain

MODULES = [
    repro.core.binning,
    repro.core.grid,
    repro.core.schema,
    repro.core.superbin,
    repro.crypto.det,
    repro.crypto.kernels,
    repro.crypto.nondet,
    repro.crypto.prf,
    repro.enclave.sort,
    repro.replication.breaker,
    repro.storage.btree,
    repro.storage.engine,
    repro.telemetry.metrics,
    repro.telemetry.spans,
    tests.crypto.hashchain,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module.__name__}"
