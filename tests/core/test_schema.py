"""Tests for dataset schemas, records and canonical encodings."""

import pytest
from hypothesis import given, strategies as st

from repro.core.schema import (
    DatasetSchema,
    TPCH_2D_SCHEMA,
    TPCH_4D_SCHEMA,
    WIFI_SCHEMA,
    encode_value,
    encode_values,
)
from repro.exceptions import QueryError


class TestStockSchemas:
    def test_wifi_shape(self):
        assert WIFI_SCHEMA.attributes == ("location", "time", "observation")
        assert WIFI_SCHEMA.time_position == 1
        assert WIFI_SCHEMA.grid_dimensions() == ("location", "time")
        assert WIFI_SCHEMA.fold_time_into_filters

    def test_tpch_shapes(self):
        assert TPCH_2D_SCHEMA.grid_dimensions() == ("orderkey", "linenumber", "time")
        assert len(TPCH_4D_SCHEMA.grid_dimensions()) == 5
        assert not TPCH_2D_SCHEMA.fold_time_into_filters


class TestValidation:
    def test_time_attribute_must_exist(self):
        with pytest.raises(ValueError):
            DatasetSchema("x", ("a",), "t", (), ())

    def test_index_attribute_must_exist(self):
        with pytest.raises(ValueError):
            DatasetSchema("x", ("a", "t"), "t", ("b",), ())

    def test_time_not_allowed_in_index_attributes(self):
        with pytest.raises(ValueError):
            DatasetSchema("x", ("a", "t"), "t", ("t",), ())

    def test_filter_attribute_must_exist(self):
        with pytest.raises(ValueError):
            DatasetSchema("x", ("a", "t"), "t", ("a",), (("zzz",),))


class TestRecords:
    def test_record_construction(self):
        record = WIFI_SCHEMA.record(location="ap1", time=5, observation="d1")
        assert record == ("ap1", 5, "d1")

    def test_record_missing_field(self):
        with pytest.raises(QueryError):
            WIFI_SCHEMA.record(location="ap1", time=5)

    def test_record_extra_field(self):
        with pytest.raises(QueryError):
            WIFI_SCHEMA.record(location="ap1", time=5, observation="d", bogus=1)

    def test_value_accessors(self):
        record = ("ap1", 5, "d1")
        assert WIFI_SCHEMA.value(record, "observation") == "d1"
        assert WIFI_SCHEMA.time_of(record) == 5

    def test_unknown_attribute(self):
        with pytest.raises(QueryError):
            WIFI_SCHEMA.position("bogus")

    def test_record_from_mapping(self):
        record = WIFI_SCHEMA.record_from_mapping(
            {"location": "a", "time": 1, "observation": "o"}
        )
        assert record == ("a", 1, "o")


class TestEncodings:
    def test_no_concatenation_collisions(self):
        assert encode_values(["ab", "c"]) != encode_values(["a", "bc"])

    def test_type_tags_prevent_cross_type_collisions(self):
        assert encode_value(1) != encode_value("1")
        assert encode_value(b"x") != encode_value("x")

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            encode_value(1.5)

    def test_filter_plaintext_folds_time(self):
        record = ("ap1", 77, "d1")
        a = WIFI_SCHEMA.filter_plaintext(record, ("location",))
        b = WIFI_SCHEMA.filter_plaintext(("ap1", 78, "d1"), ("location",))
        assert a != b  # timestamp salt

    def test_filter_plaintext_for_values_matches_record_side(self):
        record = ("ap1", 77, "d1")
        record_side = WIFI_SCHEMA.filter_plaintext(record, ("location",))
        query_side = WIFI_SCHEMA.filter_plaintext_for_values(
            ("location",), ("ap1",), 77
        )
        assert record_side == query_side

    def test_combined_group_matches(self):
        record = ("ap1", 77, "d1")
        record_side = WIFI_SCHEMA.filter_plaintext(record, ("location", "observation"))
        query_side = WIFI_SCHEMA.filter_plaintext_for_values(
            ("location", "observation"), ("ap1", "d1"), 77
        )
        assert record_side == query_side

    def test_tpch_filters_ignore_time(self):
        row = (1, 2, 3, 4, 5, 6, 7, 8, "R", 999)
        record_side = TPCH_2D_SCHEMA.filter_plaintext(row, ("orderkey", "linenumber"))
        query_side = TPCH_2D_SCHEMA.filter_plaintext_for_values(
            ("orderkey", "linenumber"), (1, 4), 0  # any probe time
        )
        assert record_side == query_side

    @pytest.mark.parametrize(
        "schema, record",
        [
            (WIFI_SCHEMA, ("ap1", 77, "d1")),
            (WIFI_SCHEMA, (b"\x00raw", 0, "")),
            (TPCH_2D_SCHEMA, (1, 2, 3, 4, 5, 6, 7, 8, "R", 999)),
            (TPCH_4D_SCHEMA, (1, 2, 3, 4, 5, 6, 7, 8, "R", 999)),
        ],
    )
    def test_column_plaintexts_are_the_per_column_encoders(self, schema, record):
        # Algorithm 1's row assembly encodes each value once; it must
        # produce the bytes the per-column encoders (and so the query
        # side) produce.
        assert schema.column_plaintexts(record) == [
            *(schema.filter_plaintext(record, group) for group in schema.filter_groups),
            schema.payload_plaintext(record),
        ]

    def test_column_plaintexts_survive_pickling(self):
        import pickle

        record = ("ap1", 77, "d1")
        WIFI_SCHEMA.column_plaintexts(record)  # warms the cached positions
        clone = pickle.loads(pickle.dumps(WIFI_SCHEMA))
        assert clone == WIFI_SCHEMA and hash(clone) == hash(WIFI_SCHEMA)
        assert clone.column_plaintexts(record) == WIFI_SCHEMA.column_plaintexts(record)

    def test_payload_roundtrip(self):
        record = ("ap1", 77, "d1")
        blob = WIFI_SCHEMA.payload_plaintext(record)
        assert WIFI_SCHEMA.decode_payload(blob) == record

    def test_payload_roundtrip_tpch(self):
        row = (1, 2, 3, 4, 5, 6, 7, 8, "R", 999)
        assert TPCH_2D_SCHEMA.decode_payload(
            TPCH_2D_SCHEMA.payload_plaintext(row)
        ) == row

    def test_decode_rejects_garbage(self):
        with pytest.raises(QueryError):
            WIFI_SCHEMA.decode_payload(b"not-a-payload")

    _text = st.text(
        alphabet=st.characters(
            blacklist_characters="\x1f", blacklist_categories=("Cs",)
        ),
        max_size=12,  # keep records under the payload pad width
    )

    @given(_text, st.integers(0, 10**9), _text)
    def test_property_payload_roundtrip(self, location, time, observation):
        record = (location, time, observation)
        assert WIFI_SCHEMA.decode_payload(
            WIFI_SCHEMA.payload_plaintext(record)
        ) == record
