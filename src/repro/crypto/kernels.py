"""Batch crypto kernels — vectorized drop-ins for the scalar primitives.

Every query and every epoch ingest bottoms out in per-tuple crypto:
one DET trapdoor per ``(cell-id, counter)`` slot, one DET/randomized
encryption per row column at ingest, one chain fold per fetched row at
verify.  The scalar modules (:mod:`repro.crypto.prf`,
:mod:`repro.crypto.stream`, :mod:`repro.crypto.det`,
:mod:`repro.crypto.nondet`, :mod:`repro.crypto.hashchain`) pay the full
Python + hashlib setup cost on *every* call:

- ``hmac.new(key, ...)`` re-derives the inner/outer key blocks (two
  SHA-256 compressions plus object construction) per evaluation;
- ``stream_xor`` XORs byte-by-byte in a Python generator;
- ``DeterministicCipher.encrypt`` builds two throwaway ``Prf`` objects
  per plaintext.

This module amortizes all three: one keyed HMAC object per key reused
via ``.copy()`` (the same trick Opaque-style enclave operators use to
keep batched crypto from being CPU-bound), keystreams expanded once per
nonce family and sliced, and XOR done on whole rows as big integers.
Each kernel is **byte-identical** to its scalar counterpart — property
tests in ``tests/crypto/test_kernels.py`` enforce equality over random
keys, nonces and lengths — so callers may mix scalar and batched paths
freely (ingest with kernels, audit with scalars, or vice versa).

Kernel invocations are counted in a public-size telemetry family,
labelled by kernel name.  The counts are functions of *public* volumes
(rows ingested, trapdoors issued, rows verified) at every call site
except record decryption, which passes ``counted=False`` because the
number of successfully matched real rows is data-dependent.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.crypto.prf import KEY_BYTES, Prf
from repro.crypto.stream import _BLOCK_BYTES
from repro.exceptions import DecryptionError, KeyDerivationError

DET_TAG_BYTES = 16
ND_NONCE_BYTES = 16
ND_TAG_BYTES = 16

#: Initial digest of the §3 hash chain — ``chain_digest([]) == CHAIN_INIT``.
CHAIN_INIT = hashlib.sha256(b"concealer-chain-init").digest()

_sha256 = hashlib.sha256

# Length prefixes (4-byte big-endian) recur at a handful of fixed widths
# (the padded index/filter/payload plaintexts), so memoize them.
_LEN4_CACHE: dict[int, bytes] = {}

# Keystream block counters likewise: rows are a few blocks long.
_CTR8 = tuple(i.to_bytes(8, "big") for i in range(16))


def _len4(n: int) -> bytes:
    cached = _LEN4_CACHE.get(n)
    if cached is None:
        if len(_LEN4_CACHE) < 4096:
            cached = _LEN4_CACHE[n] = n.to_bytes(4, "big")
        else:
            cached = n.to_bytes(4, "big")
    return cached


def _ctr8(i: int) -> bytes:
    return _CTR8[i] if i < 16 else i.to_bytes(8, "big")


def _check_key(key: bytes) -> bytes:
    if not isinstance(key, bytes) or len(key) != KEY_BYTES:
        raise KeyDerivationError(f"kernel key must be {KEY_BYTES} bytes")
    return key


def _count(kernel: str, items: int) -> None:
    from repro import telemetry

    telemetry.counter(
        "concealer_crypto_kernel_ops_total",
        "batch crypto kernel operations, by kernel (item counts are "
        "functions of public volumes at every counted call site)",
        secrecy=telemetry.PUBLIC_SIZE,
        labels=("kernel",),
    ).labels(kernel=kernel).inc(items)


def record_kernel_ops(kernel: str, items: int) -> None:
    """Credit ``items`` operations to a kernel's public op counter.

    For callers that run kernels somewhere the ambient registry can't
    see — chiefly the parallel epoch encryptor, whose worker processes'
    counter writes die with the fork.  The parent calls this with the
    deterministic total so telemetry is identical for every ``workers``
    setting.  Only use with counts that are functions of public volumes.
    """
    _count(kernel, items)


# ------------------------------------------------------------------ xor


def xor_bytes(data: bytes, pad: bytes) -> bytes:
    """XOR ``data`` with the first ``len(data)`` bytes of ``pad``.

    Big-integer XOR: two conversions and one machine-word-wide XOR
    instead of a per-byte Python loop.  Byte-identical to
    ``bytes(a ^ b for a, b in zip(data, pad))``.
    """
    n = len(data)
    if n == 0:
        return b""
    return (
        int.from_bytes(data, "little") ^ int.from_bytes(pad[:n], "little")
    ).to_bytes(n, "little")


# ------------------------------------------------------------------ PRF


class BatchPrf:
    """A :class:`~repro.crypto.prf.Prf` that amortizes HMAC key setup.

    ``hmac.new(key)`` costs two SHA-256 compressions to derive the
    ipad/opad blocks; this class pays that once and ``.copy()``-s the
    primed object per evaluation.  Outputs are byte-identical to
    ``Prf(key)(*parts)``.
    """

    __slots__ = ("_base", "_raw")

    def __init__(self, key: bytes):
        self._base = hmac.new(_check_key(key), digestmod=hashlib.sha256)
        # CPython's hmac module is a thin Python wrapper around an
        # OpenSSL HMAC object; copying/updating that object directly
        # skips one wrapper layer per evaluation (~1.4× per op) while
        # producing identical digests.  The wrapper itself exposes the
        # same copy/update/digest trio, so it doubles as the fallback
        # on interpreters without the private attribute.
        self._raw = getattr(self._base, "_hmac", None) or self._base

    def __call__(self, *parts: bytes | str | int) -> bytes:
        mac = self._raw.copy()
        for part in parts:
            if type(part) is bytes:
                encoded = b"B" + part
            else:
                from repro.crypto.prf import _as_bytes

                encoded = _as_bytes(part)
            mac.update(_len4(len(encoded)))
            mac.update(encoded)
        return mac.digest()

    def digest_raw(self, data: bytes) -> bytes:
        """HMAC over ``data`` with no Prf part-encoding (keystream use)."""
        mac = self._raw.copy()
        mac.update(data)
        return mac.digest()


def batch_prf(key: bytes, inputs: list[bytes], out: list | None = None) -> list[bytes]:
    """``[Prf(key)(x) for x in inputs]`` with one amortized keyed hash.

    ``out``, if given, must be a list of ``len(inputs)`` slots; results
    are written in place and the same list returned (preallocated
    output-buffer style, avoids a growing append loop for large spans).
    """
    prf = BatchPrf(key)
    results = out if out is not None else [b""] * len(inputs)
    for i, data in enumerate(inputs):
        results[i] = prf(data)
    return results


# ------------------------------------------------------------- keystream


def expand_keystream(base: BatchPrf, nonce: bytes, length: int) -> bytes:
    """Keystream for ``(key, nonce)`` off a primed HMAC base object.

    Byte-identical to :func:`repro.crypto.stream.keystream`.
    """
    if length <= 0:
        if length < 0:
            raise ValueError("length must be non-negative")
        return b""
    raw = base._raw
    if length <= _BLOCK_BYTES:
        mac = raw.copy()
        mac.update(nonce + _CTR8[0])
        return mac.digest()[:length]
    # Prime the nonce once; each block then only feeds its counter.
    # HMAC is incremental, so update(nonce+ctr) == update(nonce);
    # update(ctr) — the stream is byte-identical either way.
    primed = raw.copy()
    primed.update(nonce)
    blocks = []
    produced = 0
    counter = 0
    while produced < length:
        mac = primed.copy()
        mac.update(_ctr8(counter))
        blocks.append(mac.digest())
        produced += _BLOCK_BYTES
        counter += 1
    return b"".join(blocks)[:length]


def batch_keystream(
    key: bytes, requests: list[tuple[bytes, int]], out: list | None = None
) -> list[bytes]:
    """Keystreams for many ``(nonce, length)`` requests under one key.

    The keyed HMAC base is primed once for the whole batch, and
    requests sharing a nonce (a "nonce family" — e.g. the same trapdoor
    re-derived at several widths) expand the stream **once** to the
    family's maximum length and slice it per request.  Byte-identical
    to ``[keystream(key, n, l) for n, l in requests]``.
    """
    base = BatchPrf(key)
    results = out if out is not None else [b""] * len(requests)
    # Group by nonce, preserving per-request output order.
    families: dict[bytes, list[int]] = {}
    for i, (nonce, length) in enumerate(requests):
        families.setdefault(nonce, []).append(i)
    for nonce, indices in families.items():
        longest = max(requests[i][1] for i in indices)
        stream = expand_keystream(base, nonce, longest)
        for i in indices:
            results[i] = stream[: requests[i][1]]
    return results


# ------------------------------------------------------------ DET cipher


class DetKernel:
    """Batched drop-in for :class:`~repro.crypto.det.DeterministicCipher`.

    Same key schedule (sub-keys ``det-mac`` / ``det-enc`` derived with
    the scalar :class:`Prf`), same SIV construction, byte-identical
    ciphertexts — but the two keyed HMAC objects are primed once per
    kernel and copied per row.
    """

    __slots__ = ("_mac", "_enc")

    def __init__(self, key: bytes):
        _check_key(key)
        prf = Prf(key)
        self._mac = BatchPrf(prf.derive_key("det-mac"))
        self._enc = BatchPrf(prf.derive_key("det-enc"))

    def encrypt(self, plaintext: bytes) -> bytes:
        """Scalar-compatible single encryption off the primed bases."""
        mac = self._mac._raw.copy()
        encoded = b"B" + plaintext
        mac.update(_len4(len(encoded)))
        mac.update(encoded)
        tag = mac.digest()[:DET_TAG_BYTES]
        pad = expand_keystream(self._enc, tag, len(plaintext))
        return tag + xor_bytes(plaintext, pad)

    def decrypt(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) < DET_TAG_BYTES:
            raise DecryptionError("ciphertext shorter than authentication tag")
        tag, body = ciphertext[:DET_TAG_BYTES], ciphertext[DET_TAG_BYTES:]
        pad = expand_keystream(self._enc, tag, len(body))
        plaintext = xor_bytes(body, pad)
        mac = self._mac._raw.copy()
        encoded = b"B" + plaintext
        mac.update(_len4(len(encoded)))
        mac.update(encoded)
        if not hmac.compare_digest(tag, mac.digest()[:DET_TAG_BYTES]):
            raise DecryptionError("ciphertext failed authentication")
        return plaintext

    def encrypt_many(
        self, plaintexts, out: list | None = None, counted: bool = True
    ) -> list[bytes]:
        """``[det.encrypt(p) for p in plaintexts]``, amortized.

        The keystream expansion is inlined (no per-item function call,
        raw HMAC objects throughout) — this loop is the single hottest
        site of Algorithm 1 ingest.
        """
        results = out if out is not None else [b""] * len(plaintexts)
        mac_raw = self._mac._raw
        enc_raw = self._enc._raw
        block = _BLOCK_BYTES
        from_le = int.from_bytes
        for i, plaintext in enumerate(plaintexts):
            mac = mac_raw.copy()
            encoded = b"B" + plaintext
            mac.update(_len4(len(encoded)))
            mac.update(encoded)
            tag = mac.digest()[:DET_TAG_BYTES]
            n = len(plaintext)
            if n == 0:
                results[i] = tag
                continue
            if n <= block:
                pad = enc_raw.copy()
                pad.update(tag + _CTR8[0])
                pad = pad.digest()
            else:
                primed = enc_raw.copy()
                primed.update(tag)
                blocks = []
                produced = 0
                counter = 0
                while produced < n:
                    km = primed.copy()
                    km.update(_ctr8(counter))
                    blocks.append(km.digest())
                    produced += block
                    counter += 1
                pad = b"".join(blocks)
            results[i] = tag + (
                from_le(plaintext, "little") ^ from_le(pad[:n], "little")
            ).to_bytes(n, "little")
        if counted:
            _count("det_encrypt", len(plaintexts))
        return results

    def decrypt_many(
        self,
        ciphertexts,
        out: list | None = None,
        errors: str = "raise",
        counted: bool = True,
    ) -> list:
        """``[det.decrypt(c) for c in ciphertexts]``, amortized.

        Inlined like :meth:`encrypt_many` and columnar: one big-integer
        XOR over the joined bodies, a MAC base primed with ``len4‖"B"``
        once per width, one constant-time compare of all tags — only a
        mismatch goes looking for the offender.  ``errors="none"`` maps
        undecryptable items (fakes, tampered rows) to ``None`` instead
        of raising on the first, sparing callers a per-row try/except.
        """
        results = out if out is not None else [None] * len(ciphertexts)
        enc_copy = self._enc._raw.copy
        mac_raw = self._mac._raw
        block = _BLOCK_BYTES
        # An item shorter than a tag has no body and fails the compare.
        tags = [ciphertext[:DET_TAG_BYTES] for ciphertext in ciphertexts]
        bodies = [ciphertext[DET_TAG_BYTES:] for ciphertext in ciphertexts]
        pads = []
        for tag, body in zip(tags, bodies):
            n = len(body)
            if n <= block:
                pad = enc_copy()
                pad.update(tag + _CTR8[0])
                pads.append(pad.digest()[:n])
            else:
                pads.append(expand_keystream(self._enc, tag, n))
        joined = b"".join(bodies)
        plain = (
            int.from_bytes(joined, "little")
            ^ int.from_bytes(b"".join(pads), "little")
        ).to_bytes(len(joined), "little")
        bases: dict[int, object] = {}
        expected = []
        start = 0
        for i, body in enumerate(bodies):
            n = len(body)
            base = bases.get(n)
            if base is None:
                base = bases[n] = mac_raw.copy()
                base.update(_len4(n + 1) + b"B")
            results[i] = plaintext = plain[start : start + n]
            start += n
            mac = base.copy()
            mac.update(plaintext)
            expected.append(mac.digest()[:DET_TAG_BYTES])
        if not hmac.compare_digest(b"".join(tags), b"".join(expected)):
            for i, (tag, good) in enumerate(zip(tags, expected)):
                if hmac.compare_digest(tag, good):
                    continue
                if errors == "raise":
                    raise DecryptionError(
                        "ciphertext shorter than authentication tag"
                        if len(tag) < DET_TAG_BYTES
                        else "ciphertext failed authentication"
                    )
                results[i] = None
        if counted:
            _count("det_decrypt", len(ciphertexts))
        return results


def batch_det_encrypt(key: bytes, plaintexts, counted: bool = True) -> list[bytes]:
    """One-shot batched DET encryption under ``key``."""
    return DetKernel(key).encrypt_many(plaintexts, counted=counted)


def batch_det_decrypt(
    key: bytes, ciphertexts, errors: str = "raise", counted: bool = True
) -> list:
    """One-shot batched DET decryption under ``key``."""
    return DetKernel(key).decrypt_many(ciphertexts, errors=errors, counted=counted)


# ------------------------------------------------------------- ND cipher


class NdKernel:
    """Batched drop-in for :class:`~repro.crypto.nondet.RandomizedCipher`.

    Nonces are drawn from the supplied ``rng`` (``randbytes``) in call
    order, exactly as the scalar cipher draws them, so a batch of
    encryptions consumes the RNG identically to the equivalent scalar
    loop — the property the byte-identical ``workers=N`` ingest relies
    on.  Without an ``rng`` nonces come from ``os.urandom``.
    """

    __slots__ = ("_mac", "_enc", "_rng")

    def __init__(self, key: bytes, rng=None):
        _check_key(key)
        prf = Prf(key)
        self._mac = BatchPrf(prf.derive_key("nd-mac"))
        self._enc = BatchPrf(prf.derive_key("nd-enc"))
        self._rng = rng

    def _nonce(self) -> bytes:
        if self._rng is not None:
            return self._rng.randbytes(ND_NONCE_BYTES)
        import os

        return os.urandom(ND_NONCE_BYTES)

    def encrypt(self, plaintext: bytes) -> bytes:
        nonce = self._nonce()
        pad = expand_keystream(self._enc, nonce, len(plaintext))
        body = xor_bytes(plaintext, pad)
        tag = self._prf_tag(nonce + body)
        return nonce + body + tag

    def _prf_tag(self, data: bytes) -> bytes:
        mac = self._mac._raw.copy()
        encoded = b"B" + data
        mac.update(_len4(len(encoded)))
        mac.update(encoded)
        return mac.digest()[:ND_TAG_BYTES]

    def encrypt_many(
        self, plaintexts, out: list | None = None, counted: bool = True
    ) -> list[bytes]:
        """``[nd.encrypt(p) for p in plaintexts]``; one RNG draw per item,
        in item order."""
        results = out if out is not None else [b""] * len(plaintexts)
        for i, plaintext in enumerate(plaintexts):
            nonce = self._nonce()
            pad = expand_keystream(self._enc, nonce, len(plaintext))
            body = xor_bytes(plaintext, pad)
            results[i] = nonce + body + self._prf_tag(nonce + body)
        if counted:
            _count("nd_encrypt", len(plaintexts))
        return results

    def decrypt(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) < ND_NONCE_BYTES + ND_TAG_BYTES:
            raise DecryptionError("ciphertext too short")
        nonce = ciphertext[:ND_NONCE_BYTES]
        body = ciphertext[ND_NONCE_BYTES:-ND_TAG_BYTES]
        tag = ciphertext[-ND_TAG_BYTES:]
        if not hmac.compare_digest(tag, self._prf_tag(nonce + body)):
            raise DecryptionError("ciphertext failed authentication")
        pad = expand_keystream(self._enc, nonce, len(body))
        return xor_bytes(body, pad)

    def decrypt_many(
        self, ciphertexts, out: list | None = None, counted: bool = True
    ) -> list[bytes]:
        results = out if out is not None else [b""] * len(ciphertexts)
        for i, ciphertext in enumerate(ciphertexts):
            results[i] = self.decrypt(ciphertext)
        if counted:
            _count("nd_decrypt", len(ciphertexts))
        return results


# ------------------------------------------------------------ hash chain


def extend_chain(digest: bytes, ciphertexts) -> bytes:
    """Fold ``ciphertexts`` onto an existing chain digest.

    ``extend_chain(CHAIN_INIT, cts) == chain_digest(cts)`` and the fold
    composes: ``extend_chain(extend_chain(d, a), b) ==
    extend_chain(d, a + b)``.  The same fold step is written out in
    :func:`extend_chain_slices` and :func:`batch_chain_extend`.
    """
    sha = _sha256
    for ciphertext in ciphertexts:
        digest = sha(ciphertext + digest).digest()
    return digest


def extend_chain_slices(digest: bytes, slices) -> bytes:
    """:func:`extend_chain` over rows of fixed-width column blobs, with
    no list of cells built: each of ``slices`` is ``(blob, width,
    start, stop)`` and stands for ``blob[j*width:(j+1)*width]``,
    ``start <= j < stop``."""
    sha = _sha256
    for blob, width, start, stop in slices:
        for at in range(start * width, stop * width, width):
            digest = sha(blob[at : at + width] + digest).digest()
    return digest


def batch_chain_extend(
    digests: list[bytes],
    ciphertext_lists,
    out: list | None = None,
    counted: bool = True,
) -> list[bytes]:
    """Fold many independent chains: ``out[i] = extend_chain(digests[i],
    ciphertext_lists[i])``.

    Per-cell chains are independent (Algorithm 1 lines 16–21 chain each
    cell-id separately), so the batch is a flat loop with the SHA-256
    constructor bound once; items processed = total ciphertexts folded,
    a function of the public fetched/ingested volume.
    """
    results = out if out is not None else [b""] * len(digests)
    sha = _sha256
    folded = 0
    for i, (digest, ciphertexts) in enumerate(zip(digests, ciphertext_lists)):
        for ciphertext in ciphertexts:
            digest = sha(ciphertext + digest).digest()
            folded += 1
        results[i] = digest
    if counted:
        _count("chain_extend", folded)
    return results
