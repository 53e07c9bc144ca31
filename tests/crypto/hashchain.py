"""Hash chains and verifiable tags (§3, Algorithm 1 lines 16–21).

For every cell-id, the data provider chains the encrypted column values
of the tuples sharing that cell-id:

    h_1 = H(E(v_1))
    h_2 = H(E(v_2) || h_1)
    ...
    h_p = H(E(v_p) || h_{p-1})

The final digest ``h_p``, encrypted with the randomized cipher, is the
*verifiable tag* shipped to the service provider.  During query
execution the enclave recomputes the chain over the rows it fetched and
compares against the decrypted tag — any injected, deleted, reordered or
modified row changes the digest (STEP 4 of Algorithm 2).

:func:`chain_digest` is the straight-line reference; the product folds
chains with :func:`repro.crypto.kernels.extend_chain` and its slice
form, which the tests hold to this function.  It lives with the tests
because nothing else uses it.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable


def chain_digest(ciphertexts: Iterable[bytes]) -> bytes:
    """Fold an ordered sequence of ciphertexts into one chained digest.

    An empty sequence yields the digest of the empty chain marker, so a
    cell-id with zero tuples still has a well-defined tag.
    """
    digest = hashlib.sha256(b"concealer-chain-init").digest()
    for ciphertext in ciphertexts:
        digest = hashlib.sha256(ciphertext + digest).digest()
    return digest
