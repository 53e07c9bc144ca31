"""Vectorised bitonic sorting network (numpy).

The pure-Python network in :mod:`repro.enclave.sort` is the reference
implementation; this module applies the *same* network — identical
compare-exchange sequence for a given size — with numpy array
operations, turning the per-exchange Python overhead into a handful of
vectorised passes per stage.  For the §4.3 oblivious schedules (tens of
thousands of slots) this is an order-of-magnitude speed-up.

Data-independence is preserved: every stage executes the same masked
minimum/maximum over the same index sets regardless of key values (the
numpy ops have no data-dependent branches), so the observable structure
remains a pure function of the input size.

Keys must fit in int64 (the §4.3 schedules sort 0/1 flags; the general
helpers clamp-check).  Payloads travel as a permutation of indices.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.enclave.trace import TraceRecorder, ambient_recorder

_PAD_KEY = np.int64(2**62)


def _next_power_of_two(n: int) -> int:
    power = 1
    while power < n:
        power *= 2
    return power


def bitonic_argsort(keys: np.ndarray, recorder: TraceRecorder | None = None) -> np.ndarray:
    """Return the permutation that sorts ``keys`` ascending.

    Runs Batcher's network over (key, index) pairs with vectorised
    masked swaps; stable order among equal keys is *not* guaranteed
    (sorting networks are not stable), but the permutation is exact.
    """
    recorder = recorder if recorder is not None else ambient_recorder()
    n = int(keys.shape[0])
    if n <= 1:
        return np.arange(n)
    if keys.dtype != np.int64:
        keys = keys.astype(np.int64)
        if np.any(np.abs(keys) >= 2**62):
            raise ValueError("keys must fit comfortably in int64")
    size = _next_power_of_two(n)
    recorder.emit("bitonic_sort_np", n, size)

    work = np.full(size, _PAD_KEY, dtype=np.int64)
    work[:n] = keys
    order = np.arange(size, dtype=np.int64)

    indices = np.arange(size)
    length = 2
    while length <= size:
        step = length // 2
        while step >= 1:
            partner = indices ^ step
            active = partner > indices
            i = indices[active]
            j = partner[active]
            ascending = (i & length) == 0
            left = np.where(ascending, i, j)
            right = np.where(ascending, j, i)

            keys_left = work[left]
            keys_right = work[right]
            swap = keys_left > keys_right
            new_left = np.where(swap, keys_right, keys_left)
            new_right = np.where(swap, keys_left, keys_right)
            work[left] = new_left
            work[right] = new_right

            order_left = order[left]
            order_right = order[right]
            order[left] = np.where(swap, order_right, order_left)
            order[right] = np.where(swap, order_left, order_right)
            step //= 2
        length *= 2

    # Padding keys are strictly greater than any caller key, so the
    # first n sorted slots are exactly the real entries.
    return order[:n]


def bitonic_sort_np(
    items: Sequence,
    key: Callable[[object], int],
    recorder: TraceRecorder | None = None,
) -> list:
    """Drop-in vectorised counterpart of
    :func:`repro.enclave.sort.bitonic_sort` for int64-range keys."""
    if len(items) <= 1:
        return list(items)
    keys = np.fromiter((key(item) for item in items), dtype=np.int64,
                       count=len(items))
    permutation = bitonic_argsort(keys, recorder)
    return [items[index] for index in permutation]
