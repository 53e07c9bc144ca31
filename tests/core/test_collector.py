"""The collector-quiet scope: off inside, restored outside, for any nesting
on any number of threads."""

from __future__ import annotations

import gc
import sys
import threading

import pytest

from repro.core import collector
from repro.core.collector import collector_quiet


@pytest.fixture(autouse=True)
def _collector_on():
    assert gc.isenabled() and collector._depth == 0
    yield
    assert collector._depth == 0
    gc.enable()


def test_off_inside_on_again_outside():
    with collector_quiet():
        assert not gc.isenabled()
    assert gc.isenabled()


def test_reentrant_only_the_outermost_scope_restores():
    with collector_quiet():
        with collector_quiet():
            assert not gc.isenabled()
        assert not gc.isenabled()  # the inner exit must not switch it on
    assert gc.isenabled()


def test_restores_on_error():
    with pytest.raises(RuntimeError):
        with collector_quiet():
            raise RuntimeError("phase failed")
    assert gc.isenabled()


def test_a_disabled_collector_stays_disabled():
    gc.disable()
    with collector_quiet():
        assert not gc.isenabled()
    assert not gc.isenabled()  # no knob of ours overrides the caller's


def test_decorator_form_opens_a_fresh_scope_per_call():
    @collector_quiet()
    def phase(depth):
        assert not gc.isenabled()
        if depth:
            phase(depth - 1)

    phase(3)
    assert gc.isenabled()
    phase(0)
    assert gc.isenabled()


def test_reference_counting_still_frees_acyclic_temporaries():
    class Probe:
        freed = 0

        def __del__(self):
            Probe.freed += 1

    with collector_quiet():
        for _ in range(100):
            [Probe(), (Probe(),)]
        assert Probe.freed == 200


def test_threads_overlapping_scopes_never_see_the_collector_on():
    """More threads than cores, a tiny switch interval: a scope that
    toggled the switch per thread (instead of counting entrants) would
    let one thread's exit turn the collector on under another."""
    seen_on: list[int] = []
    stop = threading.Event()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)

    def worker(index: int) -> None:
        for _ in range(400):
            if stop.is_set():
                return
            with collector_quiet():
                if gc.isenabled():
                    seen_on.append(index)
                    stop.set()
                with collector_quiet():
                    pass
                if gc.isenabled():
                    seen_on.append(index)
                    stop.set()

    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert seen_on == []
    assert gc.isenabled() and collector._depth == 0
