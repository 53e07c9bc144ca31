"""Cryptographic substrate for the Concealer reproduction.

The paper encrypts with AES-256 inside an SGX enclave.  This offline
reproduction uses only the Python standard library, so the package
provides equivalent symmetric primitives built on SHA-256 / HMAC-SHA256
— each of them exactly once:

- :mod:`repro.crypto.prf` — the pseudo-random function (one primed
  HMAC object per key) and the keyed hash ``H`` that places values on
  the grid.
- :mod:`repro.crypto.kernels` — the cipher suite: deterministic
  authenticated encryption (SIV-style, the paper's ``E_k``, whose
  determinism makes the encrypted ``Index`` column usable as a stock
  DBMS index key), randomized authenticated encryption (the paper's
  ``E_nd``, for the ``cell_id[]`` / ``c_tuple[]`` vectors, the
  verifiable tags and fake bodies), the counter-mode keystream under
  both (the substitute for AES-CTR) and the §3 hash-chain fold.  A
  single encryption is a batch of one.
- :mod:`repro.crypto.det`, :mod:`repro.crypto.nondet` — the two
  constructions, stated; they export the classes under the paper's names.
- :mod:`repro.crypto.keys` — per-epoch key derivation
  (``k = KDF(s_k, eid)``) and re-encryption keys for the §6 rewrite.

The keystream and the chain as straight-line stdlib code — the
references the suite is compared against — live with the tests
(``tests/crypto/stream.py``, ``tests/crypto/hashchain.py``).

All ciphertexts are ``bytes``; all keys are 32-byte secrets.
"""

from repro.crypto.kernels import DeterministicCipher, RandomizedCipher
from repro.crypto.keys import EpochKeySchedule, derive_epoch_key, derive_rewrite_key
from repro.crypto.prf import Prf, hash_to_range

__all__ = [
    "DeterministicCipher",
    "EpochKeySchedule",
    "Prf",
    "RandomizedCipher",
    "derive_epoch_key",
    "derive_rewrite_key",
    "hash_to_range",
]
