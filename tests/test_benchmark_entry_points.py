"""The repo benchmark wraps the read and write layers from outside by name.

``benchmarks/e2e/spans.py`` lists every ``(module, class, method)`` it
patches while the server runs; a name that no longer resolves to a plain
function on its class reads as an absent metric there.  The benchmark's
own smoke test finds that in ~20 s and outside tier-1 — this finds a
rename here, in a fraction of a second.  The table is read, never edited.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e" / "spans.py"


def _wrapped_names():
    spec = importlib.util.spec_from_file_location("_benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [entry[1:] for entry in spans.ENTRY_POINTS + spans.WRITE_POINTS]


@pytest.mark.parametrize(
    "module,cls,method", _wrapped_names(), ids=lambda value: value.rsplit(".", 1)[-1]
)
def test_wrapped_name_is_a_plain_function_on_its_class(module, cls, method):
    owner = getattr(importlib.import_module(module), cls)
    assert inspect.isfunction(inspect.getattr_static(owner, method))


def test_kernel_pass_finds_the_crypto_names_it_imports(monkeypatch):
    """``metrics.kernel_pass`` imports its kernels from
    ``repro.crypto.kernels`` by name, inside the function: a renamed one
    is an ``ImportError`` 20 s into the smoke — or here, in ~10 ms."""
    monkeypatch.syspath_prepend(str(SPANS.parent))  # metrics does `import spans`
    spec = importlib.util.spec_from_file_location(
        "_benchmark_metrics", SPANS.parent / "metrics.py"
    )
    metrics = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(metrics)
    rates = metrics.kernel_pass(8)
    assert len(rates) == 5 and all(rate > 0 for rate in rates.values())
