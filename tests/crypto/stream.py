"""The straight-line reference for the cipher suite's keystream.

Blocks are ``HMAC-SHA256(key, nonce || counter)``, the reproduction's
stand-in for AES-CTR (security rests on HMAC-SHA256 being a PRF, as
AES-CTR's rests on AES being a PRP).  :mod:`repro.crypto.kernels`
expands the same stream off primed HMAC objects; the tests hold it to
this module byte for byte.
"""

from __future__ import annotations

import hashlib
import hmac

_BLOCK_BYTES = 32


def keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """Produce ``length`` pseudo-random bytes for ``(key, nonce)``.

    Blocks are ``HMAC(key, nonce || counter)`` — distinct nonces give
    computationally independent streams.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    blocks = []
    produced = 0
    counter = 0
    while produced < length:
        block = hmac.new(
            key, nonce + counter.to_bytes(8, "big"), hashlib.sha256
        ).digest()
        blocks.append(block)
        produced += _BLOCK_BYTES
        counter += 1
    return b"".join(blocks)[:length]


def stream_xor(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """XOR ``data`` with the keystream for ``(key, nonce)``.

    The operation is its own inverse: applying it twice with the same
    key and nonce returns the original data.
    """
    pad = keystream(key, nonce, len(data))
    return bytes(a ^ b for a, b in zip(data, pad))
