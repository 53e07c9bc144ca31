"""Randomized authenticated encryption — the paper's ``E_nd``.

Concealer uses non-deterministic encryption for everything that must
*not* be matchable across rows: the ``cell_id[]`` and ``c_tuple[]``
vectors shipped alongside an epoch, the encrypted verifiable tags, and
the bodies of fake tuples (Table 2c shows fakes as ``E_nd(fake)``).

Construction: encrypt-then-MAC over a CTR stream with a fresh random
nonce per call.

    nonce = 16 random bytes
    ct    = CTR-stream(k_enc, nonce) XOR plaintext
    tag   = HMAC(k_mac, nonce || ct)[:16]
    output = nonce || ct || tag

Two encryptions of the same plaintext are distinct with overwhelming
probability.  The implementation is
:class:`repro.crypto.kernels.RandomizedCipher`.
"""

from repro.crypto.kernels import (
    ND_NONCE_BYTES as NONCE_BYTES,
    ND_TAG_BYTES as TAG_BYTES,
    RandomizedCipher,
)

__all__ = ["NONCE_BYTES", "TAG_BYTES", "RandomizedCipher"]
