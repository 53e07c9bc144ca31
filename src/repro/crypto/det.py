"""Deterministic authenticated encryption — the paper's ``E_k``.

Concealer's central trick (§3) is a *variant of deterministic
encryption*: plain DET would leak the frequency of each value, so every
plaintext is concatenated with its timestamp (``E_k(l || t)``), which
makes each ciphertext unique across the relation while keeping the
scheme deterministic — the enclave can regenerate the exact ciphertext
of any (value, time) pair to use it as an index key or a filter.

The construction here is SIV-style:

    tag = HMAC(k_mac, plaintext)            # synthetic IV, 16 bytes kept
    ct  = CTR-stream(k_enc, nonce=tag) XOR plaintext
    output = tag || ct

Equal plaintexts give equal ciphertexts (deterministic); the tag doubles
as an authentication check on decryption.  Ciphertext length is
``plaintext length + 16`` bytes.  The implementation is
:class:`repro.crypto.kernels.DeterministicCipher`.
"""

from repro.crypto.kernels import DET_TAG_BYTES as TAG_BYTES, DeterministicCipher

__all__ = ["TAG_BYTES", "DeterministicCipher"]
