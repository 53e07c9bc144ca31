"""Pseudo-random function built on HMAC-SHA256.

The paper uses two flavours of keyed hashing:

- the hash function ``H`` that maps locations / time sub-intervals onto
  grid rows and columns (Algorithm 1, *Cell-Formation*), and
- the PRF underlying the deterministic cipher ``E_k``.

Both are provided here.  :func:`hash_to_range` is the grid-placement
hash: it is *keyed* so the untrusted service provider cannot recompute
cell placements from public attribute values alone — only the enclave
and the data provider (who share the secret) can.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.exceptions import KeyDerivationError

KEY_BYTES = 32


# Length prefixes (4-byte big-endian) recur at a handful of fixed widths
# (the padded index/filter/payload plaintexts), so memoize them.
_LEN4_CACHE: dict[int, bytes] = {}


def _len4(n: int) -> bytes:
    cached = _LEN4_CACHE.get(n)
    if cached is None:
        cached = n.to_bytes(4, "big")
        if len(_LEN4_CACHE) < 4096:
            _LEN4_CACHE[n] = cached
    return cached


def _as_bytes(value: bytes | str | int) -> bytes:
    """Canonically encode a value for hashing.

    Integers use a length-prefixed big-endian form so that, e.g., the
    integer 1 and the string "1" never collide.
    """
    if isinstance(value, bytes):
        return b"B" + value
    if isinstance(value, str):
        return b"S" + value.encode("utf-8")
    if isinstance(value, int):
        raw = value.to_bytes((value.bit_length() + 8) // 8 or 1, "big", signed=True)
        return b"I" + len(raw).to_bytes(2, "big") + raw
    raise TypeError(f"cannot hash value of type {type(value).__name__}")


class Prf:
    """A keyed pseudo-random function ``F_k: bytes -> 32 bytes``.

    ``hmac.new(key)`` costs two SHA-256 compressions to derive the
    ipad/opad blocks; the object is primed once here and copied per
    evaluation.

    >>> f = Prf(b"\\x00" * 32)
    >>> f(b"hello") == f(b"hello")
    True
    >>> f(b"hello") == f(b"world")
    False
    """

    __slots__ = ("_raw",)

    def __init__(self, key: bytes):
        if not isinstance(key, bytes) or len(key) != KEY_BYTES:
            raise KeyDerivationError(
                f"PRF key must be {KEY_BYTES} bytes, got {len(key) if isinstance(key, bytes) else type(key).__name__}"
            )
        base = hmac.new(key, digestmod=hashlib.sha256)
        # CPython's hmac object is a thin Python wrapper around an
        # OpenSSL one; copying that directly skips a wrapper layer per
        # evaluation with identical digests.  The wrapper has the same
        # copy/update/digest trio, so it is the fallback on interpreters
        # without the private attribute.
        self._raw = getattr(base, "_hmac", None) or base

    def __call__(self, *parts: bytes | str | int) -> bytes:
        """Evaluate the PRF on the canonical encoding of ``parts``.

        Multiple parts are domain-separated with length prefixes, so
        ``f("ab", "c") != f("a", "bc")``.
        """
        mac = self._raw.copy()
        for part in parts:
            encoded = b"B" + part if type(part) is bytes else _as_bytes(part)
            mac.update(_len4(len(encoded)))
            mac.update(encoded)
        return mac.digest()

    def derive_key(self, label: str) -> bytes:
        """Derive an independent 32-byte sub-key for the given label."""
        return self(b"subkey", label)

    def to_int(self, *parts: bytes | str | int) -> int:
        """Evaluate the PRF and interpret the digest as a 256-bit integer."""
        return int.from_bytes(self(*parts), "big")


def hash_to_range(key: bytes, value: bytes | str | int, modulus: int) -> int:
    """Map ``value`` pseudo-randomly into ``[0, modulus)``.

    This is the paper's grid hash ``H`` — used by Algorithm 1 to place a
    location onto one of ``x`` columns and a time sub-interval onto one
    of ``y`` rows.  A 256-bit digest reduced mod ``modulus`` has bias
    below 2^-220 for any modulus that fits in memory, which is
    negligible for our purposes.
    """
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    return Prf(key).to_int(b"grid-hash", value) % modulus
