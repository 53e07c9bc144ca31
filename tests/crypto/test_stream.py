"""Tests for the CTR-mode stream cipher."""

import pytest
from hypothesis import given, strategies as st

from tests.crypto.stream import keystream, stream_xor

KEY = b"\x01" * 32


class TestKeystream:
    def test_length_exact(self):
        for length in (0, 1, 31, 32, 33, 100, 1000):
            assert len(keystream(KEY, b"n", length)) == length

    def test_deterministic(self):
        assert keystream(KEY, b"n", 64) == keystream(KEY, b"n", 64)

    def test_nonce_dependent(self):
        assert keystream(KEY, b"n1", 64) != keystream(KEY, b"n2", 64)

    def test_key_dependent(self):
        assert keystream(KEY, b"n", 64) != keystream(b"\x02" * 32, b"n", 64)

    def test_prefix_consistency(self):
        long = keystream(KEY, b"n", 100)
        short = keystream(KEY, b"n", 40)
        assert long[:40] == short

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            keystream(KEY, b"n", -1)

    def test_not_trivially_patterned(self):
        stream = keystream(KEY, b"n", 256)
        assert len(set(stream)) > 100  # near-uniform byte distribution


class TestStreamXor:
    def test_roundtrip(self):
        data = b"hello, concealer!"
        ct = stream_xor(KEY, b"nonce", data)
        assert ct != data
        assert stream_xor(KEY, b"nonce", ct) == data

    def test_empty_input(self):
        assert stream_xor(KEY, b"n", b"") == b""

    def test_wrong_nonce_garbles(self):
        ct = stream_xor(KEY, b"n1", b"secret")
        assert stream_xor(KEY, b"n2", ct) != b"secret"

    @given(st.binary(max_size=512), st.binary(min_size=1, max_size=16))
    def test_property_roundtrip(self, data, nonce):
        assert stream_xor(KEY, nonce, stream_xor(KEY, nonce, data)) == data
