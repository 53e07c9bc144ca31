"""Data-independent sorting networks (§4.3, footnote 5).

Concealer+ sorts trapdoors and retrieved tuples with algorithms whose
compare-exchange sequence is fixed by the input *size* alone:

- **Bitonic sort** (Batcher [6]) when the batch fits in the enclave
  page cache, and
- **Leighton's column sort** [25] when it does not — column sort only
  ever sorts one column (r items) at a time, so the in-EPC working set
  stays small while the full batch can be much larger.

Both functions sort ``(key, payload)`` pairs by integer key.  Each sort
emits one trace event, of its sizes only (never the data), which fix its
compare-exchange sequence, so no exchange emits one and trace-equality
tests verify equal traces for any two inputs of the same length.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.enclave.trace import TraceRecorder, ambient_recorder

_SENTINEL_KEY = 1 << 62

# Bitonic's internal padding must sort strictly after any caller key —
# including column_sort's own _SENTINEL_KEY padding — or stripped pads
# could displace real (sentinel-keyed) items.
_PAD_KEY = 1 << 63


# Sort keys are bounded by the sentinels (|key| <= 2^63 plus caller keys);
# a fixed 256-bit arithmetic shift extracts any such difference's sign
# without branching.
_SIGN_SHIFT = 256


def _compare_exchange(
    keys: list[int],
    payloads: list,
    i: int,
    j: int,
) -> None:
    """Put the smaller key at slot ``i`` using branch-free selection.

    No per-exchange trace event is emitted: the (i, j) sequence of a
    sorting network is a fixed function of the input *size*, so the
    single size-parameterised event emitted by the caller already
    carries everything an observer could learn.  The swap itself is
    masked arithmetic — still no data-dependent branch.
    """
    a, b = keys[i], keys[j]
    swap = ((b - a) >> _SIGN_SHIFT) & 1  # 1 iff a > b
    mask = -swap
    keys[i] = (b & mask) | (a & ~mask)
    keys[j] = (a & mask) | (b & ~mask)
    # Payloads are opaque objects; select by masked index (0 or 1), which
    # mirrors a cmov on the payload pointer.
    pair = (payloads[i], payloads[j])
    payloads[i] = pair[swap]
    payloads[j] = pair[1 - swap]


def _next_power_of_two(n: int) -> int:
    power = 1
    while power < n:
        power *= 2
    return power


def bitonic_sort(
    items: Sequence,
    key: Callable[[object], int],
    recorder: TraceRecorder | None = None,
) -> list:
    """Sort ``items`` ascending by integer ``key`` with a bitonic network.

    The network shape depends only on ``len(items)``: inputs are padded
    to the next power of two with sentinel slots that sort to the end
    and are stripped before returning.

    >>> bitonic_sort([3, 1, 2], key=lambda v: v)
    [1, 2, 3]
    """
    recorder = recorder if recorder is not None else ambient_recorder()
    n = len(items)
    if n <= 1:
        return list(items)
    size = _next_power_of_two(n)
    keys = [key(item) for item in items] + [_PAD_KEY] * (size - n)
    payloads = list(items) + [None] * (size - n)
    recorder.emit("bitonic_sort", n, size)

    length = 2
    while length <= size:
        step = length // 2
        while step >= 1:
            for i in range(size):
                j = i ^ step
                if j > i:
                    ascending = (i & length) == 0
                    if ascending:
                        _compare_exchange(keys, payloads, i, j)
                    else:
                        _compare_exchange(keys, payloads, j, i)
            step //= 2
        length *= 2

    return payloads[:n]


def column_sort(
    items: Sequence,
    key: Callable[[object], int],
    rows: int | None = None,
    recorder: TraceRecorder | None = None,
) -> list:
    """Sort with Leighton's eight-step column sort [25].

    The items are laid out in an ``r x s`` column-major matrix with
    ``r % s == 0`` and ``r >= 2 (s-1)^2``; only one column (``r`` items)
    is ever sorted at a time, so the resident working set is ``O(r)``
    even though the batch has ``r*s`` items — this is how the enclave
    sorts batches larger than the EPC.  Column sorts use the bitonic
    network, keeping the whole procedure data-independent.

    ``rows`` picks ``r`` explicitly; by default a valid shape is chosen.
    Inputs are padded with sentinels to fill the matrix.
    """
    recorder = recorder if recorder is not None else ambient_recorder()
    n = len(items)
    if n <= 1:
        return list(items)

    r, s = _choose_shape(n, rows)
    total = r * s
    keys = [key(item) for item in items] + [_SENTINEL_KEY] * (total - n)
    payloads = list(items) + [None] * (total - n)
    recorder.emit("column_sort", n, r, s)

    # The matrix is column-major: column c is slots [c*r, (c+1)*r).
    def sort_columns() -> None:
        for c in range(s):
            start = c * r
            column = list(zip(keys[start : start + r], payloads[start : start + r]))
            column = bitonic_sort(column, key=lambda kv: kv[0], recorder=recorder)
            for offset, (k, p) in enumerate(column):
                keys[start + offset] = k
                payloads[start + offset] = p

    def permute(mapping: list[int]) -> None:
        """Apply slot permutation: new[i] = old[mapping[i]]."""
        keys[:] = [keys[m] for m in mapping]
        payloads[:] = [payloads[m] for m in mapping]

    # Step 2: "transpose" — pick the entries up in column-major order and
    # deposit them row-major, which rakes each sorted column evenly across
    # all columns.  Step 4 applies the inverse permutation.
    transpose = [0] * total
    for k in range(total):  # k-th entry picked up (column-major slot order)
        dest = (k % s) * r + (k // s)  # deposited at row k//s, column k%s
        transpose[dest] = k
    inverse = [0] * total
    for i, m in enumerate(transpose):
        inverse[m] = i

    sort_columns()  # step 1
    permute(transpose)  # step 2
    sort_columns()  # step 3
    permute(inverse)  # step 4
    sort_columns()  # step 5

    # Steps 6-8: shift down by r//2 into a virtual (s+1)-column matrix
    # bracketed by -inf / +inf sentinels, sort columns, unshift.
    half = r // 2
    low = [(-_SENTINEL_KEY, None)] * half
    high = [(_SENTINEL_KEY, None)] * half
    shifted = low + list(zip(keys, payloads)) + high
    out: list = []
    for c in range(s + 1):
        column = shifted[c * r : (c + 1) * r]
        column = bitonic_sort(column, key=lambda kv: kv[0], recorder=recorder)
        out.extend(column)
    merged = out[half : half + total]  # drop the sentinel brackets
    keys[:] = [k for k, _ in merged]
    payloads[:] = [p for _, p in merged]

    return [p for k, p in zip(keys, payloads) if k != _SENTINEL_KEY][:n]


def _choose_shape(n: int, rows: int | None) -> tuple[int, int]:
    """Pick a valid (r, s) column-sort shape covering n items."""
    if rows is not None:
        r = rows
        if r % 2:
            raise ValueError("column-sort row count must be even (half-shift step)")
        s = max(1, -(-n // r))
        while r % s != 0 or r < 2 * (s - 1) ** 2:
            s += 1
            if s > r or r * s > 64 * n + r:
                raise ValueError(
                    f"rows={rows} cannot form a valid column-sort shape for n={n}"
                )
        return r, s
    # Grow s while r = ceil(n/s), rounded up to an even multiple of s,
    # still satisfies Leighton's r >= 2(s-1)^2 requirement.  r must be
    # even so the step-6 half-shift brackets are symmetric.
    best = (n + (n % 2), 1)
    for s in range(1, 65):
        step = s if s % 2 == 0 else 2 * s  # even multiple of s
        r = -(-n // s)
        if r % step:
            r += step - (r % step)
        if r >= 2 * (s - 1) ** 2 and r * s >= n:
            best = (r, s)
    return best
