"""Tests for deterministic authenticated encryption (the paper's E_k)."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.det import TAG_BYTES, DeterministicCipher
from repro.exceptions import DecryptionError, KeyDerivationError

KEY = b"\x0a" * 32


@pytest.fixture
def cipher():
    return DeterministicCipher(KEY)


class TestRoundtrip:
    def test_basic(self, cipher):
        assert cipher.decrypt(cipher.encrypt(b"value")) == b"value"

    def test_empty_plaintext(self, cipher):
        assert cipher.decrypt(cipher.encrypt(b"")) == b""

    def test_large_plaintext(self, cipher):
        data = bytes(range(256)) * 64
        assert cipher.decrypt(cipher.encrypt(data)) == data

    @given(st.binary(max_size=1024))
    def test_property_roundtrip(self, data):
        cipher = DeterministicCipher(KEY)
        assert cipher.decrypt(cipher.encrypt(data)) == data


class TestDeterminism:
    def test_equal_plaintexts_equal_ciphertexts(self, cipher):
        assert cipher.encrypt(b"same") == cipher.encrypt(b"same")

    def test_different_plaintexts_differ(self, cipher):
        assert cipher.encrypt(b"a") != cipher.encrypt(b"b")

    def test_key_separation(self):
        a = DeterministicCipher(b"\x01" * 32)
        b = DeterministicCipher(b"\x02" * 32)
        assert a.encrypt(b"v") != b.encrypt(b"v")

    def test_ciphertext_length_is_plaintext_plus_tag(self, cipher):
        for n in (0, 1, 33, 100):
            assert len(cipher.encrypt(b"x" * n)) == n + TAG_BYTES


class TestAuthentication:
    def test_flipped_bit_detected(self, cipher):
        ct = bytearray(cipher.encrypt(b"data"))
        ct[-1] ^= 0x01
        with pytest.raises(DecryptionError):
            cipher.decrypt(bytes(ct))

    def test_flipped_tag_bit_detected(self, cipher):
        ct = bytearray(cipher.encrypt(b"data"))
        ct[0] ^= 0x80
        with pytest.raises(DecryptionError):
            cipher.decrypt(bytes(ct))

    def test_truncated_ciphertext_rejected(self, cipher):
        with pytest.raises(DecryptionError):
            cipher.decrypt(b"\x00" * (TAG_BYTES - 1))

    def test_wrong_key_rejected(self):
        ct = DeterministicCipher(b"\x01" * 32).encrypt(b"v")
        with pytest.raises(DecryptionError):
            DeterministicCipher(b"\x02" * 32).decrypt(ct)

    @given(st.binary(min_size=1, max_size=128), st.integers(min_value=0))
    def test_property_any_bitflip_detected(self, data, position):
        cipher = DeterministicCipher(KEY)
        ct = bytearray(cipher.encrypt(data))
        ct[position % len(ct)] ^= 1 + (position % 255)
        with pytest.raises(DecryptionError):
            cipher.decrypt(bytes(ct))


class TestValidation:
    def test_short_key_rejected(self):
        with pytest.raises(KeyDerivationError):
            DeterministicCipher(b"short")

    def test_non_bytes_plaintext_rejected(self, cipher):
        with pytest.raises(TypeError):
            cipher.encrypt("not bytes")


class TestSaltedDetPattern:
    """How Concealer uses E_k: salting with timestamps kills repeats."""

    def test_timestamp_salting_makes_ciphertexts_unique(self, cipher):
        cts = {cipher.encrypt(f"l1|{t}".encode()) for t in range(100)}
        assert len(cts) == 100

    def test_same_value_time_pair_reproducible(self, cipher):
        # ...while the enclave can still regenerate the exact bytes.
        assert cipher.encrypt(b"l1|42") == cipher.encrypt(b"l1|42")
