"""Dataset schemas and records.

The paper's running relation is ``R(L, T, O)`` — location, time,
observation (§2.2, Table 2a) — but §9 also builds Concealer over nine
TPC-H LineItem columns with 2-D and 4-D grids.  A
:class:`DatasetSchema` abstracts over both:

- ``attributes`` — every column of the relation;
- ``time_attribute`` — the column that partitions data into epochs and
  subintervals (LineItem uses a synthetic row-arrival time);
- ``index_attributes`` — the columns (other than time) spanned by the
  §3 grid, e.g. ``("location",)`` for WiFi or
  ``("orderkey", "partkey", "suppkey", "linenumber")`` for the 4-D
  TPC-H grid;
- ``filter_groups`` — the column combinations that become encrypted
  filter columns (Table 2c has three: ``E_k(l‖t)``, ``E_k(o‖t)``,
  ``E_k(l‖t‖o)``).

Records are plain tuples aligned with ``attributes``; the schema
provides canonical byte encodings used everywhere a value is hashed or
encrypted, so the data provider and the enclave always agree bit-for-bit.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

from repro.exceptions import QueryError

# Unit separator: cannot appear in attribute values, so concatenated
# encodings never collide ("a"+"bc" vs "ab"+"c").
_SEP = b"\x1f"


def pad_plaintext(plaintext: bytes, width: int) -> bytes:
    """Length-prefix and zero-pad a plaintext to a fixed width.

    Equal-width plaintexts give equal-width ciphertexts, which closes a
    side channel the paper does not discuss: without padding, ciphertext
    *lengths* mirror value lengths, and the Concealer+ oblivious
    comparisons would emit length-dependent traces.
    """
    if len(plaintext) + 4 > width:
        raise QueryError(
            f"plaintext of {len(plaintext)} bytes exceeds pad width {width}"
        )
    return len(plaintext).to_bytes(4, "big") + plaintext + b"\x00" * (
        width - 4 - len(plaintext)
    )


def unpad_plaintext(padded: bytes) -> bytes:
    """Invert :func:`pad_plaintext` (``EpochContext._group_by_cell``
    inlines this per index key: a format change is made in both)."""
    if len(padded) < 4:
        raise QueryError("padded plaintext too short")
    length = int.from_bytes(padded[:4], "big")
    if length > len(padded) - 4:
        raise QueryError("corrupt padding length")
    return padded[4 : 4 + length]


def encode_value(value) -> bytes:
    """Canonical byte encoding of one attribute value."""
    if isinstance(value, bytes):
        return b"b" + value
    if isinstance(value, str):
        return b"s" + value.encode("utf-8")
    if isinstance(value, int):
        return b"i" + str(value).encode("ascii")
    raise TypeError(f"unsupported attribute value type {type(value).__name__}")


def encode_values(values: Sequence) -> bytes:
    """Canonical encoding of an ordered value sequence (separator-joined)."""
    return _SEP.join(encode_value(v) for v in values)


@dataclass(frozen=True)
class DatasetSchema:
    """The shape of a Concealer-managed relation.

    >>> WIFI_SCHEMA.position("time")
    1
    >>> WIFI_SCHEMA.record(location="ap1", time=5, observation="dev9")
    ('ap1', 5, 'dev9')
    """

    name: str
    attributes: tuple[str, ...]
    time_attribute: str
    index_attributes: tuple[str, ...]
    filter_groups: tuple[tuple[str, ...], ...]
    # Whether filter plaintexts fold the timestamp in (the paper's
    # ``E_k(l‖t)``).  True for spatial time-series data, where it makes
    # repeated values unique; False for key-like data (TPC-H), where the
    # filter-group combination is already unique and queriers do not
    # know row arrival times.
    fold_time_into_filters: bool = True
    # Fixed plaintext widths (bytes) for filter and payload columns, so
    # ciphertext lengths are value-independent (see pad_plaintext).
    filter_pad_width: int = 64
    payload_pad_width: int = 192

    def __post_init__(self):
        if self.time_attribute not in self.attributes:
            raise ValueError(
                f"time attribute {self.time_attribute!r} not in attributes"
            )
        for attr in self.index_attributes:
            if attr not in self.attributes:
                raise ValueError(f"index attribute {attr!r} not in attributes")
            if attr == self.time_attribute:
                raise ValueError(
                    "index_attributes must not repeat the time attribute; "
                    "time is always the last grid dimension"
                )
        for group in self.filter_groups:
            for attr in group:
                if attr not in self.attributes:
                    raise ValueError(f"filter attribute {attr!r} not in attributes")

    # ------------------------------------------------------------- positions

    def position(self, attribute: str) -> int:
        """Index of an attribute within a record tuple."""
        try:
            return self.attributes.index(attribute)
        except ValueError:
            raise QueryError(
                f"schema {self.name!r} has no attribute {attribute!r}"
            ) from None

    @property
    def time_position(self) -> int:
        """Index of the time attribute within a record tuple."""
        return self.position(self.time_attribute)

    # --------------------------------------------------------------- records

    def record(self, **values) -> tuple:
        """Build a record tuple from keyword values (all attributes required)."""
        missing = set(self.attributes) - set(values)
        extra = set(values) - set(self.attributes)
        if missing or extra:
            raise QueryError(
                f"record fields mismatch: missing={sorted(missing)}, "
                f"extra={sorted(extra)}"
            )
        return tuple(values[attr] for attr in self.attributes)

    def record_from_mapping(self, mapping: Mapping) -> tuple:
        """Build a record tuple from any mapping of attribute -> value."""
        return self.record(**dict(mapping))

    def value(self, record: Sequence, attribute: str):
        """Read one attribute out of a record tuple."""
        return record[self.position(attribute)]

    def time_of(self, record: Sequence) -> int:
        """The record's timestamp."""
        return record[self.time_position]

    # ------------------------------------------------------------- encodings

    def filter_plaintext(self, record: Sequence, group: tuple[str, ...]) -> bytes:
        """Canonical plaintext for a filter column of ``group`` columns.

        The paper always folds the timestamp in (``E_k(l‖t)``), which is
        what makes the DET ciphertexts unique; we therefore append the
        time attribute whenever the group does not already include it.
        """
        raw = b"flt" + _SEP + encode_values(
            [self.value(record, attr) for attr in self._filter_columns(group)]
        )
        return pad_plaintext(raw, self.filter_pad_width)

    def _filter_columns(self, group: tuple[str, ...]) -> tuple[str, ...]:
        if self.fold_time_into_filters and self.time_attribute not in group:
            return (*group, self.time_attribute)
        return tuple(group)

    @cached_property
    def _filter_positions(self) -> list[list[int]]:
        return [
            [self.position(attr) for attr in self._filter_columns(group)]
            for group in self.filter_groups
        ]

    def column_plaintexts(self, record: Sequence) -> list[bytes]:
        """One record's plaintexts in column order — ``filter_plaintext``
        per group, then ``payload_plaintext`` — each value encoded once."""
        encoded = [encode_value(value) for value in record]
        plaintexts = [
            pad_plaintext(
                b"flt" + _SEP + _SEP.join([encoded[p] for p in positions]),
                self.filter_pad_width,
            )
            for positions in self._filter_positions
        ]
        raw = b"row" + _SEP + _SEP.join(encoded)
        plaintexts.append(pad_plaintext(raw, self.payload_pad_width))
        return plaintexts

    def filter_plaintext_for_values(
        self, group: tuple[str, ...], values: Sequence, time
    ) -> bytes:
        """Plaintext a querier encodes to match :meth:`filter_plaintext`.

        ``values`` are the group's non-time attribute values in group
        order; ``time`` is the timestamp being probed.
        """
        columns = list(group)
        ordered = list(values)
        if self.time_attribute in columns:
            ordered.insert(columns.index(self.time_attribute), time)
        elif self.fold_time_into_filters:
            ordered.append(time)
        raw = b"flt" + _SEP + encode_values(ordered)
        return pad_plaintext(raw, self.filter_pad_width)

    def payload_plaintext(self, record: Sequence) -> bytes:
        """Canonical plaintext of the full tuple (Table 2c's Tuple column)."""
        raw = b"row" + _SEP + encode_values(list(record))
        return pad_plaintext(raw, self.payload_pad_width)

    def decode_payload(self, padded: bytes) -> tuple:
        """Invert :meth:`payload_plaintext` back into a record tuple."""
        plaintext = unpad_plaintext(padded)
        prefix = b"row" + _SEP
        if not plaintext.startswith(prefix):
            raise QueryError("not a payload plaintext")
        parts = plaintext[len(prefix):].split(_SEP)
        values = []
        for part in parts:
            kind, body = part[:1], part[1:]
            if kind == b"s":
                values.append(body.decode("utf-8"))
            elif kind == b"i":
                values.append(int(body))
            elif kind == b"b":
                values.append(body)
            else:
                raise QueryError(f"bad payload part {part!r}")
        return tuple(values)

    def grid_dimensions(self) -> tuple[str, ...]:
        """Grid axes: every index attribute, then time (always last)."""
        return self.index_attributes + (self.time_attribute,)


# --------------------------------------------------------------------- stock
# The paper's three evaluated schemas.

WIFI_SCHEMA = DatasetSchema(
    name="wifi",
    attributes=("location", "time", "observation"),
    time_attribute="time",
    index_attributes=("location",),
    filter_groups=(
        ("location",),                   # E_k(l || t)  — Q1-Q3
        ("observation",),                # E_k(o || t)  — Q4
        ("location", "observation"),     # E_k(l || t || o) — Q5 / decryption
    ),
)

# Index(O, T): the observation-keyed companion index §3 mentions — serves
# Q4-style "where was this device" predicates directly instead of
# sweeping every location through Index(L, T).
WIFI_OBS_SCHEMA = DatasetSchema(
    name="wifi-obs",
    attributes=("location", "time", "observation"),
    time_attribute="time",
    index_attributes=("observation",),
    filter_groups=(
        ("observation",),
        ("location",),
        ("location", "observation"),
    ),
)

_TPCH_ATTRIBUTES = (
    "orderkey",
    "partkey",
    "suppkey",
    "linenumber",
    "quantity",
    "extendedprice",
    "discount",
    "tax",
    "returnflag",
    "time",
)

TPCH_2D_SCHEMA = DatasetSchema(
    name="tpch-2d",
    attributes=_TPCH_ATTRIBUTES,
    time_attribute="time",
    index_attributes=("orderkey", "linenumber"),
    filter_groups=(("orderkey", "linenumber"),),
    fold_time_into_filters=False,
)

TPCH_4D_SCHEMA = DatasetSchema(
    name="tpch-4d",
    attributes=_TPCH_ATTRIBUTES,
    time_attribute="time",
    index_attributes=("orderkey", "partkey", "suppkey", "linenumber"),
    filter_groups=(("orderkey", "partkey", "suppkey", "linenumber"),),
    fold_time_into_filters=False,
)
