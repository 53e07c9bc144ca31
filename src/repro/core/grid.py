"""The §3 grid: keyed placement of tuples into cells and cell-ids.

Algorithm 1's setup stage builds, per epoch, a grid with one axis per
index attribute plus a final *time* axis of ``y`` subintervals.  Each
attribute value is mapped onto its axis with the keyed hash ``H``
(:func:`repro.crypto.prf.hash_to_range`), and each of the ``x·y`` cells
is allocated one of ``u < x·y`` *cell-ids* — the retrieval granularity:
queries never fetch by value, they fetch by cell-id, which is why no
fine-grained per-(location, time) statistics ever need to be stored.

The grid is a pure function of ``(spec, secret key, epoch id)``: the
data provider and the enclave compute identical placements without
exchanging anything beyond the spec, which is public metadata
(part of the paper's setup leakage ``L_s``).

The WiFi deployment in §9.1 used a 490×16,000 grid with 87,000
cell-ids; the TPC-H deployment used 112,000×7 (2-D) and
1,500×100×10×7 (4-D) grids.  Time is always the last axis; schemas
without a meaningful time axis use one subinterval.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

from repro.core.schema import DatasetSchema, encode_value
from repro.crypto.prf import Prf
from repro.exceptions import QueryError


def derive_grid_key(master_key: bytes, epoch_id: int) -> bytes:
    """The per-epoch placement secret: ``PRF(s_k)("grid", eid)``."""
    return Prf(master_key)("grid", epoch_id)


@dataclass(frozen=True)
class GridSpec:
    """Public grid geometry.

    ``dimension_sizes`` gives the axis lengths in the order
    ``schema.grid_dimensions()`` — index attributes first, time last.
    ``cell_id_count`` is ``u``, the number of cell-ids spread over the
    cells.  ``epoch_duration`` is ``|T|`` in time units; the time axis
    splits it into ``dimension_sizes[-1]`` equal subintervals.
    """

    dimension_sizes: tuple[int, ...]
    cell_id_count: int
    epoch_duration: int
    # Cell-id allocation policy.  The paper only requires u < x·y ids
    # "allocated over the grid" (its Table 2b even shares one id across
    # time rows).  Random allocation scatters each id across the whole
    # epoch, so fetching the ids of one time window drags in rows from
    # every other window — winSecRange and eBPB over-fetch massively.
    # Time-local allocation partitions the ids among time coordinates
    # (each id's cells share one subinterval coordinate), making window
    # fetches tight.  A reproduction improvement; set False for the
    # paper-faithful scatter.
    time_local_cell_ids: bool = True

    def __post_init__(self):
        if len(self.dimension_sizes) < 1:
            raise ValueError("grid needs at least the time dimension")
        if any(size < 1 for size in self.dimension_sizes):
            raise ValueError("grid dimensions must be positive")
        if self.cell_id_count < 1:
            raise ValueError("cell_id_count must be positive")
        if self.cell_id_count > self.total_cells:
            raise ValueError(
                f"cell_id_count {self.cell_id_count} exceeds cell count "
                f"{self.total_cells} (paper requires u < x*y)"
            )
        if self.epoch_duration < 1:
            raise ValueError("epoch duration must be positive")

    @property
    def total_cells(self) -> int:
        """x·y·…: the number of grid cells."""
        return math.prod(self.dimension_sizes)

    @property
    def time_buckets(self) -> int:
        """y: the number of time subintervals (last axis)."""
        return self.dimension_sizes[-1]

    @property
    def subinterval_duration(self) -> float:
        """How much wall-clock time one time bucket covers."""
        return self.epoch_duration / self.time_buckets


class Grid:
    """Keyed tuple→cell→cell-id placement for one epoch.

    >>> from repro.core.schema import WIFI_SCHEMA
    >>> spec = GridSpec(dimension_sizes=(4, 8), cell_id_count=16,
    ...                 epoch_duration=3600)
    >>> grid = Grid(spec, WIFI_SCHEMA, key=b"\\x03" * 32, epoch_id=0)
    >>> 0 <= grid.place(("ap1", 120, "dev1")) < 16
    True
    """

    def __init__(
        self,
        spec: GridSpec,
        schema: DatasetSchema,
        key: bytes,
        epoch_id: int,
        grid_key: bytes | None = None,
        allocation: list[int] | None = None,
    ):
        """``grid_key`` (when given) fixes the placement secret directly;
        otherwise it is derived from ``key`` (the master secret) and the
        epoch id.  An explicit grid key is what keeps placements stable
        across master-key rotation — the key that *places* data need not
        be the key that *encrypts* it.  ``allocation`` is the
        :meth:`cell_id_vector` this key derives, when the caller already
        holds it (an epoch context decrypts it from the package)."""
        expected_axes = len(schema.grid_dimensions())
        if len(spec.dimension_sizes) != expected_axes:
            raise ValueError(
                f"schema {schema.name!r} needs {expected_axes} grid axes "
                f"({schema.grid_dimensions()}), spec has "
                f"{len(spec.dimension_sizes)}"
            )
        self.spec = spec
        self.schema = schema
        self.epoch_id = epoch_id
        self._prf = Prf(grid_key if grid_key is not None
                        else derive_grid_key(key, epoch_id))
        self._axes = schema.grid_dimensions()
        # Placement memos.  Both mappings are keyed PRF outputs, fixed
        # for the grid's lifetime, and axis values repeat massively
        # (every record of a location hits the same coordinate), so the
        # ingest/query hot paths would otherwise recompute identical
        # HMACs millions of times.  Bounded so adversarial value streams
        # cannot grow them without limit (see SECURITY.md on timing).
        self._coord_cache: dict[tuple[int, object], int] = {}
        self._cid_cache: dict[int, int] = {}
        # The whole allocation once cell_id_vector() derived it (the data
        # provider's grids) or the caller handed it in (an epoch
        # context's); a standalone grid keeps to the bounded memo.
        if allocation is not None and len(allocation) != spec.total_cells:
            raise ValueError(f"allocation covers {len(allocation)} of {spec.total_cells} cells")
        self._allocation = allocation
        # Time-axis coordinate per subinterval index, filled on first
        # use by the range cover; bounded by the public ``time_buckets``.
        self._time_coords: list[int | None] = [None] * spec.time_buckets

    _COORD_CACHE_MAX = 4096

    # ------------------------------------------------------------ placement

    def time_bucket(self, timestamp: int) -> int:
        """The (pre-hash) subinterval index of a timestamp within the epoch."""
        offset = timestamp - self.epoch_id
        if offset < 0 or offset >= self.spec.epoch_duration:
            raise QueryError(
                f"timestamp {timestamp} outside epoch "
                f"[{self.epoch_id}, {self.epoch_id + self.spec.epoch_duration})"
            )
        return int(offset * self.spec.time_buckets // self.spec.epoch_duration)

    def _axis_coord(self, axis_index: int, value) -> int:
        """Hash one attribute value onto its axis (memoized)."""
        cache_key = (axis_index, value)
        coord = self._coord_cache.get(cache_key)
        if coord is None:
            size = self.spec.dimension_sizes[axis_index]
            coord = self._prf.to_int(b"axis", axis_index, encode_value(value)) % size
            if len(self._coord_cache) >= self._COORD_CACHE_MAX:
                self._coord_cache.clear()
            self._coord_cache[cache_key] = coord
        return coord

    def coords_for(self, index_values: Sequence, timestamp: int) -> tuple[int, ...]:
        """Grid coordinates for explicit index-attribute values + time."""
        if len(index_values) != len(self._axes) - 1:
            raise QueryError(
                f"expected {len(self._axes) - 1} index values, "
                f"got {len(index_values)}"
            )
        coords = [
            self._axis_coord(i, value) for i, value in enumerate(index_values)
        ]
        bucket = self.time_bucket(timestamp)
        coords.append(self._axis_coord(len(self._axes) - 1, bucket))
        return tuple(coords)

    def coords(self, record: Sequence) -> tuple[int, ...]:
        """Grid coordinates of a record."""
        index_values = [
            self.schema.value(record, attr) for attr in self.schema.index_attributes
        ]
        return self.coords_for(index_values, self.schema.time_of(record))

    def flat_index(self, coords: Sequence[int]) -> int:
        """Row-major flattening of grid coordinates."""
        flat = 0
        for size, coord in zip(self.spec.dimension_sizes, coords):
            if coord < 0 or coord >= size:
                raise QueryError(f"coordinate {coord} out of axis range {size}")
            flat = flat * size + coord
        return flat

    def time_axis_coord(self, bucket: int) -> int:
        """The time-axis coordinate a subinterval index hashes to."""
        return self._axis_coord(len(self._axes) - 1, bucket)

    def cell_id_of(self, flat: int) -> int:
        """The cell-id allocated to a flat cell index (keyed, deterministic).

        With ``time_local_cell_ids`` (default) the ``u`` ids are split
        into contiguous blocks, one per time coordinate, and a cell
        draws pseudo-randomly from its own coordinate's block — so an
        id's tuples never straddle subinterval coordinates.
        """
        if self._allocation is not None:
            return self._allocation[flat]
        cid = self._cid_cache.get(flat)
        if cid is not None:
            return cid
        cid = self._allocate(flat)
        if len(self._cid_cache) >= self._COORD_CACHE_MAX:
            self._cid_cache.clear()
        self._cid_cache[flat] = cid
        return cid

    def _allocate(self, flat: int) -> int:
        u = self.spec.cell_id_count
        if not self.spec.time_local_cell_ids:
            return self._prf.to_int(b"cid-alloc", flat) % u
        y = self.spec.dimension_sizes[-1]
        time_coord = flat % y
        base = (time_coord * u) // y
        span = max(1, ((time_coord + 1) * u) // y - base)
        return base + self._prf.to_int(b"cid-alloc", flat) % span

    def place(self, record: Sequence) -> int:
        """Record → cell-id (Algorithm 1, Cell-Formation)."""
        return self.cell_id_of(self.flat_index(self.coords(record)))

    def place_values(self, index_values: Sequence, timestamp: int) -> int:
        """Explicit values → cell-id (query-side STEP 1 of Algorithm 2)."""
        return self.cell_id_of(self.flat_index(self.coords_for(index_values, timestamp)))

    # ------------------------------------------------------------- vectors

    def cell_id_vector(self) -> list[int]:
        """The ``cell_id[]`` vector of Algorithm 1 (length x·y): derived
        once — one PRF per cell — and from then on what
        :meth:`cell_id_of` indexes."""
        if self._allocation is None:
            cells = range(self.spec.total_cells)
            self._allocation = [self._allocate(flat) for flat in cells]
        return self._allocation

    def place_records(self, records: Sequence[Sequence]) -> "Placement":
        """Place a whole epoch in one pass (Algorithm 1, Lines 4–5): per
        record its ``time_bucket``, ``flat_index(coords(record))`` and
        ``cell_id_of``, for sharding, the pre-pass and the tree to share."""
        schema = self.schema
        positions = [schema.position(attr) for attr in schema.index_attributes]
        time_position = schema.time_position
        sizes = self.spec.dimension_sizes
        time_axis = len(sizes) - 1
        allocation = self.cell_id_vector()
        buckets: list[int] = []
        flats: list[int] = []
        for record in records:
            bucket = self.time_bucket(record[time_position])
            flat = 0
            for axis, position in enumerate(positions):
                flat = flat * sizes[axis] + self._axis_coord(axis, record[position])
            buckets.append(bucket)
            flats.append(flat * sizes[time_axis] + self._axis_coord(time_axis, bucket))
        return Placement(self, buckets, flats, [allocation[flat] for flat in flats])

    # ---------------------------------------------------------- range helpers

    def time_buckets_for_range(self, start: int, end: int) -> list[int]:
        """Distinct subinterval indices covering ``[start, end]`` (inclusive)."""
        if end < start:
            raise QueryError("range end precedes start")
        first = self.time_bucket(start)
        last = self.time_bucket(end)
        return list(range(first, last + 1))

    def cell_ids_for_range(
        self, index_values: Sequence, start: int, end: int
    ) -> list[int]:
        """Distinct cell-ids covering a time range, in bucket order: the "ℓ
        cells" of §5, one per covered subinterval, in one linear pass — the
        index values fold into the flat prefix once and each bucket adds its
        time coordinate (``_axis_coord`` output: already in range)."""
        buckets = self.time_buckets_for_range(start, end)
        time_axis = len(self._axes) - 1
        if len(index_values) != time_axis:
            raise QueryError(f"expected {time_axis} index values, got {len(index_values)}")
        sizes = self.spec.dimension_sizes
        prefix = 0
        for axis, value in enumerate(index_values):
            prefix = prefix * sizes[axis] + self._axis_coord(axis, value)
        base = prefix * sizes[time_axis]
        window = slice(buckets[0], buckets[-1] + 1)  # buckets are contiguous
        if None in self._time_coords[window]:
            for bucket in buckets:
                self._time_coords[bucket] = self._axis_coord(time_axis, bucket)
        lookup = self.cell_id_of if self._allocation is None else self._allocation.__getitem__
        flats = [base + coord for coord in self._time_coords[window]]
        return list(dict.fromkeys(map(lookup, flats)))

    def cell_ids_for_combinations(
        self, combinations: Sequence[Sequence], start: int, end: int
    ) -> list[int]:
        """Distinct cell-ids covering a time range for every index-value
        combination of a query, in first-occurrence order."""
        return list(dict.fromkeys(chain.from_iterable(
            self.cell_ids_for_range(combo, start, end) for combo in combinations
        )))


class Placement(NamedTuple):
    """Where one epoch's records sit: three lists parallel to them, and
    the grid (so the cell-id allocation) they were placed on."""

    grid: Grid
    buckets: list[int]   # pre-hash time subinterval index
    flats: list[int]     # flat cell index
    cell_ids: list[int]

    def select(self, slots: Sequence[int]) -> "Placement":
        """The placement of a sub-sequence of the records (a shard's)."""
        pick = lambda column: [column[slot] for slot in slots]  # noqa: E731
        return Placement(self.grid, pick(self.buckets), pick(self.flats), pick(self.cell_ids))
