"""Property tests: the cipher suite is its stated construction, byte for byte.

:mod:`repro.crypto.kernels` is the one implementation of ``E_k``,
``E_nd``, the keystream and the chain fold.  The oracle here is the
construction as the docstrings of :mod:`repro.crypto.det` and
:mod:`repro.crypto.nondet` state it, composed from the retained
straight-line references — :class:`Prf`, :func:`stream_xor`,
:func:`chain_digest` — over randomized keys, nonces and lengths,
including the empty batch, the 1-row batch and zero-length plaintexts,
with seeded ``random.Random`` so failures replay exactly.
(``tests/crypto/test_vectors.py`` pins the same bytes as constants
captured from the scalar classes this suite replaced.)
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

import hashlib
import hmac

from repro.crypto import DeterministicCipher, Prf, RandomizedCipher
from repro.crypto.kernels import (
    CHAIN_INIT,
    batch_chain_extend,
    batch_keystream,
    batch_prf,
    extend_chain,
    xor_bytes,
)
from repro.crypto.prf import _as_bytes
from repro.exceptions import DecryptionError

from tests.crypto.hashchain import chain_digest
from tests.crypto.stream import keystream, stream_xor

TRIALS = 25


def _rng(case: int) -> random.Random:
    return random.Random(0xC0FFEE ^ case)


def _blob(rng: random.Random, max_len: int = 200) -> bytes:
    return rng.randbytes(rng.choice([0, 1, rng.randrange(max_len + 1)]))


def _ref_prf(key: bytes, *parts) -> bytes:
    """The PRF as ``repro.crypto.prf`` states it, on a fresh stdlib HMAC."""
    mac = hmac.new(key, digestmod=hashlib.sha256)
    for part in parts:
        encoded = _as_bytes(part)
        mac.update(len(encoded).to_bytes(4, "big") + encoded)
    return mac.digest()


class _RefDet:
    """``E_k`` as ``repro.crypto.det`` states it, from the references."""

    def __init__(self, key: bytes):
        self.k_mac = _ref_prf(key, b"subkey", "det-mac")
        self.k_enc = _ref_prf(key, b"subkey", "det-enc")

    def encrypt(self, plaintext: bytes) -> bytes:
        tag = _ref_prf(self.k_mac, plaintext)[:16]
        return tag + stream_xor(self.k_enc, tag, plaintext)

    def decrypt(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) < 16:
            raise DecryptionError("ciphertext shorter than authentication tag")
        tag, body = ciphertext[:16], ciphertext[16:]
        plaintext = stream_xor(self.k_enc, tag, body)
        if not hmac.compare_digest(tag, _ref_prf(self.k_mac, plaintext)[:16]):
            raise DecryptionError("ciphertext failed authentication")
        return plaintext


class _RefNd:
    """``E_nd`` as ``repro.crypto.nondet`` states it, from the references."""

    def __init__(self, key: bytes, rng: random.Random):
        self.k_mac = _ref_prf(key, b"subkey", "nd-mac")
        self.k_enc = _ref_prf(key, b"subkey", "nd-enc")
        self.rng = rng

    def encrypt(self, plaintext: bytes) -> bytes:
        nonce = self.rng.randbytes(16)
        body = stream_xor(self.k_enc, nonce, plaintext)
        return nonce + body + _ref_prf(self.k_mac, nonce + body)[:16]

    def decrypt(self, ciphertext: bytes) -> bytes:
        nonce, body, tag = ciphertext[:16], ciphertext[16:-16], ciphertext[-16:]
        assert hmac.compare_digest(tag, _ref_prf(self.k_mac, nonce + body)[:16])
        return stream_xor(self.k_enc, nonce, body)


class TestXorBytes:
    @pytest.mark.parametrize("case", range(TRIALS))
    def test_matches_generator_xor(self, case):
        rng = _rng(case)
        data = _blob(rng)
        pad = rng.randbytes(len(data) + rng.randrange(64))
        assert xor_bytes(data, pad) == bytes(a ^ b for a, b in zip(data, pad))

    def test_empty(self):
        assert xor_bytes(b"", b"") == b""
        assert xor_bytes(b"", b"pad") == b""


class TestBatchPrf:
    @pytest.mark.parametrize("case", range(TRIALS))
    def test_matches_scalar_prf(self, case):
        rng = _rng(case)
        key = rng.randbytes(32)
        prf = Prf(key)
        parts_pool = [
            (_blob(rng),),
            (_blob(rng), _blob(rng)),
            ("label", rng.randrange(-(2**40), 2**40)),
            (b"subkey", "det-mac"),
            (b"",),
        ]
        for parts in parts_pool:
            assert prf(*parts) == _ref_prf(key, *parts)
            assert Prf(key)(*parts) == prf(*parts)  # reuse changes nothing

    @pytest.mark.parametrize("batch_len", [0, 1, 7])
    def test_batch_prf_helper(self, batch_len):
        rng = _rng(1000 + batch_len)
        key = rng.randbytes(32)
        inputs = [_blob(rng) for _ in range(batch_len)]
        assert batch_prf(key, inputs) == [_ref_prf(key, x) for x in inputs]

    def test_preallocated_out(self):
        rng = _rng(2000)
        key = rng.randbytes(32)
        inputs = [b"a", b"b"]
        out = [None, None]
        result = batch_prf(key, inputs, out=out)
        assert result is out
        assert out == [_ref_prf(key, b"a"), _ref_prf(key, b"b")]


class TestBatchKeystream:
    @pytest.mark.parametrize("case", range(TRIALS))
    def test_matches_scalar_keystream(self, case):
        rng = _rng(3000 + case)
        key = rng.randbytes(32)
        nonces = [rng.randbytes(16) for _ in range(rng.randrange(1, 4))]
        requests = [
            (rng.choice(nonces), rng.choice([0, 1, 31, 32, 33, rng.randrange(150)]))
            for _ in range(rng.randrange(1, 12))
        ]
        assert batch_keystream(key, requests) == [
            keystream(key, nonce, length) for nonce, length in requests
        ]

    def test_empty_batch(self):
        assert batch_keystream(b"\x05" * 32, []) == []

    def test_shared_nonce_family_slices(self):
        key = b"\x06" * 32
        nonce = b"n" * 16
        requests = [(nonce, 5), (nonce, 70), (nonce, 0), (nonce, 70)]
        streams = batch_keystream(key, requests)
        assert streams[1] == keystream(key, nonce, 70)
        assert streams[0] == streams[1][:5]
        assert streams[2] == b""
        assert streams[3] == streams[1]


class TestDetKernel:
    @pytest.mark.parametrize("case", range(TRIALS))
    def test_encrypt_matches_scalar(self, case):
        rng = _rng(4000 + case)
        key = rng.randbytes(32)
        scalar, kernel = _RefDet(key), DeterministicCipher(key)
        plaintexts = [_blob(rng) for _ in range(rng.choice([0, 1, 9]))]
        expected = [scalar.encrypt(p) for p in plaintexts]
        assert kernel.encrypt_many(plaintexts) == expected
        for p in plaintexts:
            assert kernel.encrypt(p) == scalar.encrypt(p)

    @pytest.mark.parametrize("case", range(TRIALS))
    def test_decrypt_roundtrip_and_cross(self, case):
        rng = _rng(5000 + case)
        key = rng.randbytes(32)
        scalar, kernel = _RefDet(key), DeterministicCipher(key)
        plaintexts = [_blob(rng) for _ in range(rng.choice([1, 6]))]
        cts = kernel.encrypt_many(plaintexts)
        # The suite decrypts the reference's output and vice versa.
        assert kernel.decrypt_many(cts) == plaintexts
        assert [scalar.decrypt(c) for c in cts] == plaintexts
        assert kernel.decrypt_many([scalar.encrypt(p) for p in plaintexts]) == plaintexts

    def test_decrypt_errors_none_marks_bad_items(self):
        key = b"\x07" * 32
        kernel = DeterministicCipher(key)
        good = kernel.encrypt(b"fine")
        other = DeterministicCipher(b"\x08" * 32).encrypt(b"fine")
        out = kernel.decrypt_many([good, other, b"short"], errors="none")
        assert out == [b"fine", None, None]

    def test_decrypt_errors_raise_default(self):
        kernel = DeterministicCipher(b"\x07" * 32)
        with pytest.raises(DecryptionError):
            kernel.decrypt_many([b"too-short"])
        with pytest.raises(DecryptionError):
            kernel.decrypt(DeterministicCipher(b"\x09" * 32).encrypt(b"x"))

    # One batch item: (how it is made, plaintext length).  Lengths cover
    # the empty body, one keystream block, its edges and several blocks;
    # a single length repeated makes the batch of one width the read
    # path sends.
    _ITEM = st.tuples(
        st.sampled_from(["good", "wrong-key", "flipped-body", "flipped-tag", "short"]),
        st.sampled_from([0, 1, 31, 32, 33, 64, 100]),
    )

    @given(
        st.lists(_ITEM, max_size=12),
        st.one_of(st.none(), st.sampled_from([0, 32, 64])),
        st.randoms(use_true_random=False),
    )
    def test_decrypt_many_is_the_scalar_decrypt_item_by_item(
        self, items, one_width, rng
    ):
        key = rng.randbytes(32)
        scalar, kernel = _RefDet(key), DeterministicCipher(key)
        stranger = _RefDet(rng.randbytes(32))
        batch = []
        for kind, length in items:
            plaintext = rng.randbytes(length if one_width is None else one_width)
            ciphertext = scalar.encrypt(plaintext)
            if kind == "wrong-key":
                ciphertext = stranger.encrypt(plaintext)
            elif kind == "flipped-body" and plaintext:
                ciphertext = ciphertext[:-1] + bytes([ciphertext[-1] ^ 1])
            elif kind == "flipped-tag":
                ciphertext = bytes([ciphertext[0] ^ 1]) + ciphertext[1:]
            elif kind == "short":
                ciphertext = ciphertext[: rng.randrange(16)]
            batch.append(ciphertext)
        expected, first_error = [], None
        for ciphertext in batch:
            try:
                expected.append(scalar.decrypt(ciphertext))
            except DecryptionError as error:
                expected.append(None)
                first_error = first_error or str(error)
        assert kernel.decrypt_many(batch, errors="none", counted=False) == expected
        if first_error is None:
            assert kernel.decrypt_many(batch, counted=False) == expected
        else:  # the first offender's error, as a scalar loop would raise it
            with pytest.raises(DecryptionError) as caught:
                kernel.decrypt_many(batch, counted=False)
            assert str(caught.value) == first_error

    @given(
        st.sampled_from([0, 1, 16, 31, 32, 33, 64, 100, 208]),
        st.sampled_from(["good", "flipped", "short"]),
        st.randoms(use_true_random=False),
    )
    def test_a_single_call_is_a_batch_of_one(self, width, kind, rng):
        det = DeterministicCipher(rng.randbytes(32))
        nd_key, seed = rng.randbytes(32), rng.randrange(2**32)
        plaintext = rng.randbytes(width)
        assert det.encrypt_many([plaintext]) == [det.encrypt(plaintext)]
        assert RandomizedCipher(nd_key, rng=random.Random(seed)).encrypt_many(
            [plaintext]
        ) == [RandomizedCipher(nd_key, rng=random.Random(seed)).encrypt(plaintext)]
        nd = RandomizedCipher(nd_key, rng=rng)
        for cipher in (det, nd):
            ciphertext = cipher.encrypt(plaintext)
            if kind == "flipped":
                at = rng.randrange(len(ciphertext))
                ciphertext = (
                    ciphertext[:at] + bytes([ciphertext[at] ^ 1]) + ciphertext[at + 1 :]
                )
            elif kind == "short":
                ciphertext = ciphertext[: rng.randrange(16)]
            try:
                expected, error = [cipher.decrypt(ciphertext)], None
            except DecryptionError as caught:
                expected, error = [None], str(caught)
            if error is None:
                assert cipher.decrypt_many([ciphertext]) == expected
            else:
                with pytest.raises(DecryptionError, match=error):
                    cipher.decrypt_many([ciphertext])
            if cipher is det:  # both ``errors`` modes
                assert det.decrypt_many([ciphertext], errors="none") == expected


class TestNdKernel:
    @pytest.mark.parametrize("case", range(TRIALS))
    def test_encrypt_matches_scalar_with_same_rng(self, case):
        seed_rng = _rng(6000 + case)
        key = seed_rng.randbytes(32)
        plaintexts = [_blob(seed_rng) for _ in range(seed_rng.choice([0, 1, 8]))]
        seed = seed_rng.randrange(2**32)
        scalar = _RefNd(key, rng=random.Random(seed))
        kernel = RandomizedCipher(key, rng=random.Random(seed))
        expected = [scalar.encrypt(p) for p in plaintexts]
        assert kernel.encrypt_many(plaintexts) == expected

    @pytest.mark.parametrize("case", range(5))
    def test_decrypt_cross_compatible(self, case):
        rng = _rng(7000 + case)
        key = rng.randbytes(32)
        scalar = _RefNd(key, rng=rng)
        kernel = RandomizedCipher(key, rng=rng)
        pts = [_blob(rng) for _ in range(4)]
        assert kernel.decrypt_many([scalar.encrypt(p) for p in pts]) == pts
        assert [scalar.decrypt(c) for c in kernel.encrypt_many(pts)] == pts

    def test_urandom_nonces_roundtrip(self):
        kernel = RandomizedCipher(b"\x0a" * 32)
        ct1, ct2 = kernel.encrypt(b"same"), kernel.encrypt(b"same")
        assert ct1 != ct2
        assert kernel.decrypt(ct1) == kernel.decrypt(ct2) == b"same"


class TestChainKernels:
    @pytest.mark.parametrize("case", range(TRIALS))
    def test_extend_chain_matches_chain_digest(self, case):
        rng = _rng(8000 + case)
        cts = [_blob(rng, 64) for _ in range(rng.choice([0, 1, 10]))]
        assert extend_chain(CHAIN_INIT, cts) == chain_digest(cts)

    def test_extend_chain_composes(self):
        a, b = [b"one", b"two"], [b"three"]
        assert extend_chain(extend_chain(CHAIN_INIT, a), b) == chain_digest(a + b)

    @pytest.mark.parametrize("case", range(TRIALS))
    def test_batch_chain_extend(self, case):
        rng = _rng(9000 + case)
        lists = [
            [_blob(rng, 48) for _ in range(rng.randrange(4))]
            for _ in range(rng.choice([0, 1, 5]))
        ]
        digests = [rng.randbytes(32) for _ in lists]
        expected = [extend_chain(d, cts) for d, cts in zip(digests, lists)]
        assert batch_chain_extend(digests, lists) == expected
        assert batch_chain_extend([CHAIN_INIT] * len(lists), lists) == [
            chain_digest(cts) for cts in lists
        ]

    def test_chain_init_is_empty_chain(self):
        assert CHAIN_INIT == chain_digest([])


class TestKernelTelemetry:
    def test_counted_ops_are_public_size(self):
        from repro import telemetry

        with telemetry.scoped_registry() as registry:
            cipher = DeterministicCipher(b"\x0b" * 32)
            cipher.encrypt_many([b"x", b"y"])
            cipher.encrypt_many([b"z"], counted=False)
            cipher.encrypt(b"w")  # a single call is never counted
            value = registry.value(
                "concealer_crypto_kernel_ops_total", kernel="det_encrypt"
            )
            assert value == 2
            assert (
                "concealer_crypto_kernel_ops_total"
                in telemetry.public_view(registry)
            )
