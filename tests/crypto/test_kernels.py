"""Property tests: batch kernels are byte-identical to scalar primitives.

Every kernel in :mod:`repro.crypto.kernels` claims drop-in equivalence
with the scalar module it accelerates.  These tests enforce it over
randomized keys, nonces and lengths — including the empty batch, the
1-row batch, and zero-length plaintexts — with seeded ``random.Random``
so failures replay exactly.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro.crypto import (
    DeterministicCipher,
    HashChain,
    Prf,
    RandomizedCipher,
    chain_digest,
    keystream,
    stream_xor,
)
from repro.crypto.kernels import (
    CHAIN_INIT,
    BatchPrf,
    DetKernel,
    NdKernel,
    batch_chain_extend,
    batch_det_decrypt,
    batch_det_encrypt,
    batch_keystream,
    batch_prf,
    extend_chain,
    xor_bytes,
)
from repro.exceptions import DecryptionError

TRIALS = 25


def _rng(case: int) -> random.Random:
    return random.Random(0xC0FFEE ^ case)


def _blob(rng: random.Random, max_len: int = 200) -> bytes:
    return rng.randbytes(rng.choice([0, 1, rng.randrange(max_len + 1)]))


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
        scalar, batch = Prf(key), BatchPrf(key)
        parts_pool = [
            (_blob(rng),),
            (_blob(rng), _blob(rng)),
            ("label", rng.randrange(-(2**40), 2**40)),
            (b"subkey", "det-mac"),
            (b"",),
        ]
        for parts in parts_pool:
            assert batch(*parts) == scalar(*parts)

    @pytest.mark.parametrize("batch_len", [0, 1, 7])
    def test_batch_prf_helper(self, batch_len):
        rng = _rng(1000 + batch_len)
        key = rng.randbytes(32)
        inputs = [_blob(rng) for _ in range(batch_len)]
        scalar = Prf(key)
        assert batch_prf(key, inputs) == [scalar(x) for x in inputs]

    def test_preallocated_out(self):
        rng = _rng(2000)
        key = rng.randbytes(32)
        inputs = [b"a", b"b"]
        out = [None, None]
        result = batch_prf(key, inputs, out=out)
        assert result is out
        assert out == [Prf(key)(b"a"), Prf(key)(b"b")]


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
        scalar, kernel = DeterministicCipher(key), DetKernel(key)
        plaintexts = [_blob(rng) for _ in range(rng.choice([0, 1, 9]))]
        expected = [scalar.encrypt(p) for p in plaintexts]
        assert kernel.encrypt_many(plaintexts) == expected
        assert batch_det_encrypt(key, plaintexts) == expected
        for p in plaintexts:
            assert kernel.encrypt(p) == scalar.encrypt(p)

    @pytest.mark.parametrize("case", range(TRIALS))
    def test_decrypt_roundtrip_and_cross(self, case):
        rng = _rng(5000 + case)
        key = rng.randbytes(32)
        scalar, kernel = DeterministicCipher(key), DetKernel(key)
        plaintexts = [_blob(rng) for _ in range(rng.choice([1, 6]))]
        cts = kernel.encrypt_many(plaintexts)
        # Kernel decrypts scalar output and vice versa.
        assert kernel.decrypt_many(cts) == plaintexts
        assert [scalar.decrypt(c) for c in cts] == plaintexts
        assert kernel.decrypt_many([scalar.encrypt(p) for p in plaintexts]) == plaintexts

    def test_decrypt_errors_none_marks_bad_items(self):
        key = b"\x07" * 32
        kernel = DetKernel(key)
        good = kernel.encrypt(b"fine")
        other = DetKernel(b"\x08" * 32).encrypt(b"fine")
        out = kernel.decrypt_many([good, other, b"short"], errors="none")
        assert out == [b"fine", None, None]
        assert batch_det_decrypt(key, [good, other], errors="none") == [b"fine", None]

    def test_decrypt_errors_raise_default(self):
        kernel = DetKernel(b"\x07" * 32)
        with pytest.raises(DecryptionError):
            kernel.decrypt_many([b"too-short"])
        with pytest.raises(DecryptionError):
            kernel.decrypt(DetKernel(b"\x09" * 32).encrypt(b"x"))

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
        scalar, kernel = DeterministicCipher(key), DetKernel(key)
        stranger = DeterministicCipher(rng.randbytes(32))
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


class TestNdKernel:
    @pytest.mark.parametrize("case", range(TRIALS))
    def test_encrypt_matches_scalar_with_same_rng(self, case):
        seed_rng = _rng(6000 + case)
        key = seed_rng.randbytes(32)
        plaintexts = [_blob(seed_rng) for _ in range(seed_rng.choice([0, 1, 8]))]
        seed = seed_rng.randrange(2**32)
        scalar = RandomizedCipher(key, rng=random.Random(seed))
        kernel = NdKernel(key, rng=random.Random(seed))
        expected = [scalar.encrypt(p) for p in plaintexts]
        assert kernel.encrypt_many(plaintexts) == expected

    @pytest.mark.parametrize("case", range(5))
    def test_decrypt_cross_compatible(self, case):
        rng = _rng(7000 + case)
        key = rng.randbytes(32)
        scalar = RandomizedCipher(key, rng=rng)
        kernel = NdKernel(key, rng=rng)
        pts = [_blob(rng) for _ in range(4)]
        assert kernel.decrypt_many([scalar.encrypt(p) for p in pts]) == pts
        assert [scalar.decrypt(c) for c in kernel.encrypt_many(pts)] == pts

    def test_urandom_nonces_roundtrip(self):
        kernel = NdKernel(b"\x0a" * 32)
        ct1, ct2 = kernel.encrypt(b"same"), kernel.encrypt(b"same")
        assert ct1 != ct2
        assert kernel.decrypt(ct1) == kernel.decrypt(ct2) == b"same"


class TestChainKernels:
    @pytest.mark.parametrize("case", range(TRIALS))
    def test_extend_chain_matches_chain_digest(self, case):
        rng = _rng(8000 + case)
        cts = [_blob(rng, 64) for _ in range(rng.choice([0, 1, 10]))]
        assert extend_chain(CHAIN_INIT, cts) == chain_digest(cts)
        chain = HashChain()
        chain.extend(cts)
        assert extend_chain(CHAIN_INIT, cts) == chain.digest()

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

    def test_chain_init_is_empty_chain(self):
        assert CHAIN_INIT == chain_digest([])


class TestKernelTelemetry:
    def test_counted_ops_are_public_size(self):
        from repro import telemetry

        with telemetry.scoped_registry() as registry:
            batch_det_encrypt(b"\x0b" * 32, [b"x", b"y"])
            batch_det_encrypt(b"\x0b" * 32, [b"z"], counted=False)
            value = registry.value(
                "concealer_crypto_kernel_ops_total", kernel="det_encrypt"
            )
            assert value == 2
            assert (
                "concealer_crypto_kernel_ops_total"
                in telemetry.public_view(registry)
            )
