"""Tests for the §3 hash chain (lines 16–21): the reference fold and the
product's incremental one."""

from hypothesis import given, strategies as st

from repro.crypto.kernels import CHAIN_INIT, extend_chain

from tests.crypto.hashchain import chain_digest


class TestChainDigest:
    def test_empty_chain_defined(self):
        assert isinstance(chain_digest([]), bytes)
        assert len(chain_digest([])) == 32

    def test_deterministic(self):
        assert chain_digest([b"a", b"b"]) == chain_digest([b"a", b"b"])

    def test_order_sensitive(self):
        assert chain_digest([b"a", b"b"]) != chain_digest([b"b", b"a"])

    def test_content_sensitive(self):
        assert chain_digest([b"a"]) != chain_digest([b"A"])

    def test_length_sensitive(self):
        assert chain_digest([b"a"]) != chain_digest([b"a", b"a"])

    def test_incremental_matches_batch(self):
        digest = extend_chain(extend_chain(CHAIN_INIT, [b"x"]), [b"y", b"z"])
        assert digest == chain_digest([b"x", b"y", b"z"])

    @given(st.lists(st.binary(max_size=64), max_size=30))
    def test_property_incremental_equals_batch(self, items):
        digest = CHAIN_INIT
        for item in items:
            digest = extend_chain(digest, [item])
        assert digest == chain_digest(items)

    @given(st.lists(st.binary(min_size=1, max_size=32), min_size=2, max_size=10))
    def test_property_any_drop_changes_digest(self, items):
        full = chain_digest(items)
        for skip in range(len(items)):
            reduced = items[:skip] + items[skip + 1 :]
            assert chain_digest(reduced) != full
