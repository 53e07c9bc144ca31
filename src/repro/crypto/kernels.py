"""The cipher suite: the one implementation of ``E_k``, ``E_nd``, the
keystream and the hash-chain fold.

Every query and every epoch ingest bottoms out in per-tuple crypto:
one DET trapdoor per ``(cell-id, counter)`` slot, one DET/randomized
encryption per row column at ingest, one chain fold per fetched row at
verify.  So each keyed HMAC object is primed once per key and
``.copy()``-ed per evaluation (the same trick Opaque-style enclave
operators use to keep batched crypto from being CPU-bound), keystreams
are expanded once per nonce family and sliced, and XOR is done on whole
rows as big integers.  A single ``encrypt`` / ``decrypt`` is a batch of
one.

The constructions are stated in :mod:`repro.crypto.det` and
:mod:`repro.crypto.nondet`; ``tests/crypto/`` holds this module to
straight-line stdlib references of the keystream and the chain, byte
for byte, over random keys, nonces and lengths.

``*_many`` calls are counted in a public-size telemetry family,
labelled by kernel name.  The counts are functions of *public* volumes
(rows ingested, trapdoors issued, rows verified) at every call site
except record decryption, which passes ``counted=False`` because the
number of successfully matched real rows is data-dependent; single-item
calls are never counted.
"""

from __future__ import annotations

import hashlib
import hmac
import os

from repro.crypto.prf import Prf, _len4
from repro.exceptions import DecryptionError

DET_TAG_BYTES = 16
ND_NONCE_BYTES = 16
ND_TAG_BYTES = 16
_BLOCK_BYTES = 32  # one HMAC-SHA256 output = one keystream block

#: Initial digest of the §3 hash chain — ``chain_digest([]) == CHAIN_INIT``.
CHAIN_INIT = hashlib.sha256(b"concealer-chain-init").digest()

_sha256 = hashlib.sha256

# Keystream block counters: rows are a few blocks long.
_CTR8 = tuple(i.to_bytes(8, "big") for i in range(16))


def _ctr8(i: int) -> bytes:
    return _CTR8[i] if i < 16 else i.to_bytes(8, "big")


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


def batch_prf(key: bytes, inputs: list[bytes], out: list | None = None) -> list[bytes]:
    """``[Prf(key)(x) for x in inputs]`` off one primed keyed hash.

    ``out``, if given, must be a list of ``len(inputs)`` slots; results
    are written in place and the same list returned (preallocated
    output-buffer style, avoids a growing append loop for large spans).
    """
    prf = Prf(key)
    results = out if out is not None else [b""] * len(inputs)
    for i, data in enumerate(inputs):
        results[i] = prf(data)
    return results


# ------------------------------------------------------------- keystream


def expand_keystream(raw, nonce: bytes, length: int) -> bytes:
    """Keystream for ``(key, nonce)`` off a primed HMAC object ``raw``.

    Byte-identical to the straight-line ``HMAC(key, nonce ‖ ctr)`` stream.
    """
    if length <= 0:
        if length < 0:
            raise ValueError("length must be non-negative")
        return b""
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
    raw = Prf(key)._raw
    results = out if out is not None else [b""] * len(requests)
    # Group by nonce, preserving per-request output order.
    families: dict[bytes, list[int]] = {}
    for i, (nonce, length) in enumerate(requests):
        families.setdefault(nonce, []).append(i)
    for nonce, indices in families.items():
        longest = max(requests[i][1] for i in indices)
        stream = expand_keystream(raw, nonce, longest)
        for i in indices:
            results[i] = stream[: requests[i][1]]
    return results


# ------------------------------------------------------------ DET cipher


class DeterministicCipher:
    """The paper's deterministic encryption function ``E_k``
    (construction: :mod:`repro.crypto.det`).

    >>> cipher = DeterministicCipher(b"\\x01" * 32)
    >>> ct = cipher.encrypt(b"l1|t1")
    >>> ct == cipher.encrypt(b"l1|t1")   # deterministic
    True
    >>> cipher.decrypt(ct)
    b'l1|t1'
    """

    __slots__ = ("_mac", "_enc")

    def __init__(self, key: bytes):
        prf = Prf(key)
        self._mac = Prf(prf.derive_key("det-mac"))._raw
        self._enc = Prf(prf.derive_key("det-enc"))._raw

    def encrypt(self, plaintext: bytes) -> bytes:
        """Encrypt deterministically; equal inputs yield equal outputs."""
        return self.encrypt_many((plaintext,), counted=False)[0]

    def decrypt(self, ciphertext: bytes) -> bytes:
        """Decrypt and authenticate; raises :class:`DecryptionError` on tamper."""
        return self.decrypt_many((ciphertext,), counted=False)[0]

    def encrypt_many(
        self, plaintexts, out: list | None = None, counted: bool = True
    ) -> list[bytes]:
        """``tag ‖ (keystream(tag) XOR p)`` with ``tag = Prf(k_mac)(p)[:16]``
        per plaintext.

        The keystream expansion is inlined (no per-item function call,
        raw HMAC objects throughout) — this loop is the single hottest
        site of Algorithm 1 ingest.
        """
        results = out if out is not None else [b""] * len(plaintexts)
        mac_raw = self._mac
        enc_raw = self._enc
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
        """Decrypt and authenticate every ciphertext.

        Inlined like :meth:`encrypt_many` and columnar: one big-integer
        XOR over the joined bodies, a MAC base primed with ``len4‖"B"``
        once per width, one constant-time compare of all tags — only a
        mismatch goes looking for the offender.  ``errors="none"`` maps
        undecryptable items (fakes, tampered rows) to ``None`` instead
        of raising on the first, sparing callers a per-row try/except.
        """
        results = out if out is not None else [None] * len(ciphertexts)
        enc_raw = self._enc
        enc_copy = enc_raw.copy
        mac_raw = self._mac
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
                pads.append(expand_keystream(enc_raw, tag, n))
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


# benchmarks/e2e/metrics.py::kernel_pass imports the cipher under this
# name and nothing under benchmarks/e2e/ changes alongside source
# (ROADMAP item 1's benchmark PR repoints it; then this line goes).
DetKernel = DeterministicCipher


# ------------------------------------------------------------- ND cipher


class RandomizedCipher:
    """The paper's randomized encryption function ``E_nd``
    (construction: :mod:`repro.crypto.nondet`).

    >>> cipher = RandomizedCipher(b"\\x02" * 32)
    >>> a, b = cipher.encrypt(b"same"), cipher.encrypt(b"same")
    >>> a == b            # randomized: same plaintext, different ciphertext
    False
    >>> cipher.decrypt(a) == cipher.decrypt(b) == b"same"
    True

    ``rng`` may be supplied for deterministic tests; it must expose
    ``randbytes(n)`` (e.g. ``random.Random``).  Nonces are drawn from it
    one per encryption in call order — the property the byte-identical
    ``workers=N`` ingest relies on; without one they come from
    ``os.urandom``.
    """

    __slots__ = ("_mac", "_enc", "_rng")

    def __init__(self, key: bytes, rng=None):
        prf = Prf(key)
        self._mac = Prf(prf.derive_key("nd-mac"))
        self._enc = Prf(prf.derive_key("nd-enc"))._raw
        self._rng = rng

    def encrypt(self, plaintext: bytes) -> bytes:
        """Encrypt with a fresh nonce; repeated calls differ."""
        if not isinstance(plaintext, bytes):
            raise TypeError("plaintext must be bytes")
        if self._rng is not None:
            nonce = self._rng.randbytes(ND_NONCE_BYTES)
        else:
            nonce = os.urandom(ND_NONCE_BYTES)
        body = nonce + xor_bytes(
            plaintext, expand_keystream(self._enc, nonce, len(plaintext))
        )
        return body + self._mac(body)[:ND_TAG_BYTES]

    def decrypt(self, ciphertext: bytes) -> bytes:
        """Decrypt and authenticate; raises :class:`DecryptionError` on tamper."""
        if len(ciphertext) < ND_NONCE_BYTES + ND_TAG_BYTES:
            raise DecryptionError("ciphertext too short")
        nonce = ciphertext[:ND_NONCE_BYTES]
        body = ciphertext[ND_NONCE_BYTES:-ND_TAG_BYTES]
        expected = self._mac(ciphertext[:-ND_TAG_BYTES])[:ND_TAG_BYTES]
        if not hmac.compare_digest(ciphertext[-ND_TAG_BYTES:], expected):
            raise DecryptionError("ciphertext failed authentication")
        return xor_bytes(body, expand_keystream(self._enc, nonce, len(body)))

    def encrypt_many(
        self, plaintexts, out: list | None = None, counted: bool = True
    ) -> list[bytes]:
        """``[nd.encrypt(p) for p in plaintexts]``: one RNG draw per item,
        in item order."""
        results = out if out is not None else [b""] * len(plaintexts)
        for i, plaintext in enumerate(plaintexts):
            results[i] = self.encrypt(plaintext)
        if counted:
            _count("nd_encrypt", len(plaintexts))
        return results

    def decrypt_many(
        self, ciphertexts, out: list | None = None, counted: bool = True
    ) -> list[bytes]:
        """``[nd.decrypt(c) for c in ciphertexts]``."""
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
    extend_chain(d, a + b)``.
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
    cell-id separately); items counted = total ciphertexts folded, a
    function of the public fetched/ingested volume.
    """
    results = out if out is not None else [b""] * len(digests)
    folded = 0
    for i, (digest, ciphertexts) in enumerate(zip(digests, ciphertext_lists)):
        results[i] = extend_chain(digest, ciphertexts)
        folded += len(ciphertexts)
    if counted:
        _count("chain_extend", folded)
    return results
