"""Bin packing over cell-ids (§4.1) with equi-sized padding.

The unit of retrieval in Concealer is the *bin*: a fixed-size group of
cell-ids whose rows are always fetched together, which is what hides
output size.  Bins are built once, inside the enclave, by running
First-Fit-Decreasing (or Best-Fit-Decreasing) over the ``c_tuple[]``
populations with bin capacity ``|b| = max`` (the largest cell-id
population).  FFD/BFD guarantee every bin except at most one is at
least half-full, which yields Theorem 4.1's bounds:

- at most ``2n/|b|`` bins, and
- at most ``n + |b|/2`` fake tuples

for ``n`` real tuples.  Each bin is padded to exactly ``|b|`` rows with
fake tuples drawn from **disjoint** fake-id ranges — Example 4.1 shows
why sharing fake ids between bins would leak.

The same function is run by the data provider (to know how many fakes
to manufacture, fake strategy (ii)) and by the enclave (STEP 0 of
Algorithm 2); both must produce identical layouts, so packing is fully
deterministic: ties break on cell-id.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.exceptions import BinningError


@dataclass(frozen=True)
class Bin:
    """One fixed-size retrieval unit.

    ``fake_id_range`` is the inclusive 1-based ``(lo, hi)`` range of
    fake-tuple ids padding this bin, or ``None`` when the bin is full
    of real tuples.  Ranges are disjoint across bins (Example 4.1).
    """

    index: int
    cell_ids: tuple[int, ...]
    real_tuples: int
    capacity: int
    fake_id_range: tuple[int, int] | None

    @property
    def fake_count(self) -> int:
        """How many fake tuples pad this bin."""
        if self.fake_id_range is None:
            return 0
        lo, hi = self.fake_id_range
        return hi - lo + 1

    @property
    def total_tuples(self) -> int:
        """Real plus fake tuples — always the bin capacity."""
        return self.real_tuples + self.fake_count

    @property
    def runs(self) -> tuple[tuple[int, int, int], ...]:
        """This bin as slot runs of the sealed bins: ``(index, 0, |b|)``."""
        return ((self.index, 0, self.total_tuples),)

    def fake_ids(self) -> list[int]:
        """The fake-tuple ids this bin retrieves."""
        if self.fake_id_range is None:
            return []
        lo, hi = self.fake_id_range
        return list(range(lo, hi + 1))


@dataclass
class BinLayout:
    """The complete packing of an epoch's cell-ids into bins."""

    bins: list[Bin]
    bin_size: int
    total_real: int
    total_fakes: int
    algorithm: str

    def bin_of_cell_id(self, cell_id: int) -> Bin:
        """STEP 2 of Algorithm 2: the bin containing a cell-id."""
        for candidate in self.bins:
            if cell_id in candidate.cell_ids:
                return candidate
        raise BinningError(f"no bin contains cell-id {cell_id}")

    def bins_of_cell_ids(self, cell_ids: Sequence[int]) -> list[Bin]:
        """Distinct bins covering several cell-ids (order of first need)."""
        selected: list[Bin] = []
        seen: set[int] = set()
        for cid in cell_ids:
            chosen = self.bin_of_cell_id(cid)
            if chosen.index not in seen:
                seen.add(chosen.index)
                selected.append(chosen)
        return selected

    def verify_equal_sizes(self) -> None:
        """Every bin must retrieve exactly ``bin_size`` tuples."""
        for b in self.bins:
            if b.total_tuples != self.bin_size:
                raise BinningError(
                    f"bin {b.index} holds {b.total_tuples} tuples, "
                    f"expected {self.bin_size}"
                )

    def theorem_4_1_holds(self) -> bool:
        """Check the paper's upper bounds on bins and fakes.

        Bounds assume ``n >> |b|``; the +1 slack below covers the small
        regimes the asymptotic statement glosses over.
        """
        if self.total_real == 0:
            return True
        max_bins = 2 * self.total_real / self.bin_size + 1
        max_fakes = self.total_real + self.bin_size / 2 + self.bin_size
        return len(self.bins) <= max_bins and self.total_fakes <= max_fakes


def pack_bins(
    c_tuple: Sequence[int],
    bin_size: int | None = None,
    algorithm: str = "ffd",
    first_fake_id: int = 1,
    max_cells_per_bin: int | None = None,
) -> BinLayout:
    """Pack cell-id populations into equi-sized bins.

    ``c_tuple[z]`` is the number of real tuples with cell-id ``z``.
    ``bin_size`` defaults to the maximum population (the paper's
    ``|b| = max``); an explicit larger size trades fewer bins for more
    fakes (Exp 6 sweeps this).  ``algorithm`` is ``"ffd"`` or ``"bfd"``.
    Zero-population cell-ids are packed too — a query can hash to an
    empty cell-id and its bin must exist (it retrieves only fakes).

    ``max_cells_per_bin`` caps the cell-ids per bin.  The §4.3 oblivious
    trapdoor schedule generates ``#Cmax × #max`` candidate slots, and on
    skewed data FFD can stuff hundreds of tiny cell-ids into one bin,
    making ``#Cmax`` (and the Concealer+ cost) explode; capping it
    bounds that cost at the price of extra bins and fakes.  An
    engineering extension beyond the paper — benchmarked in the
    ablations.

    >>> layout = pack_bins([79, 2, 73, 7, 7])      # Example 4.1
    >>> layout.bin_size
    79
    >>> len(layout.bins)
    3
    >>> layout.total_fakes                          # 4 + 65, disjoint ids
    69
    """
    if algorithm not in ("ffd", "bfd"):
        raise BinningError(f"unknown bin-packing algorithm {algorithm!r}")
    if max_cells_per_bin is not None and max_cells_per_bin < 1:
        raise BinningError("max_cells_per_bin must be positive")
    populations = list(c_tuple)
    if not populations:
        raise BinningError("cannot pack an empty c_tuple vector")
    if any(p < 0 for p in populations):
        raise BinningError("cell-id populations must be non-negative")
    largest = max(populations)
    if bin_size is None:
        bin_size = max(largest, 1)
    if bin_size < largest:
        raise BinningError(
            f"bin size {bin_size} smaller than largest population {largest}"
        )

    # Decreasing-weight order with deterministic tie-break on cell-id.
    order = sorted(range(len(populations)), key=lambda z: (-populations[z], z))

    bin_cells: list[list[int]] = []
    bin_loads: list[int] = []
    for cid in order:
        weight = populations[cid]
        target = _choose_bin(
            bin_loads, weight, bin_size, algorithm, bin_cells, max_cells_per_bin
        )
        if target is None:
            bin_cells.append([cid])
            bin_loads.append(weight)
        else:
            bin_cells[target].append(cid)
            bin_loads[target] += weight

    bins: list[Bin] = []
    next_fake = first_fake_id
    total_fakes = 0
    for index, (cells, load) in enumerate(zip(bin_cells, bin_loads)):
        deficit = bin_size - load
        fake_range = None
        if deficit > 0:
            fake_range = (next_fake, next_fake + deficit - 1)
            next_fake += deficit
            total_fakes += deficit
        bins.append(
            Bin(
                index=index,
                cell_ids=tuple(cells),
                real_tuples=load,
                capacity=bin_size,
                fake_id_range=fake_range,
            )
        )

    layout = BinLayout(
        bins=bins,
        bin_size=bin_size,
        total_real=sum(populations),
        total_fakes=total_fakes,
        algorithm=algorithm,
    )
    layout.verify_equal_sizes()
    return layout


def _choose_bin(
    loads: list[int],
    weight: int,
    bin_size: int,
    algorithm: str,
    cells: list[list[int]],
    max_cells: int | None,
) -> int | None:
    """First-fit or best-fit placement; ``None`` opens a new bin."""
    def fits(index: int) -> bool:
        if loads[index] + weight > bin_size:
            return False
        return max_cells is None or len(cells[index]) < max_cells

    if algorithm == "ffd":
        for index in range(len(loads)):
            if fits(index):
                return index
        return None
    best: int | None = None
    best_remaining = bin_size + 1
    for index, load in enumerate(loads):
        remaining = bin_size - load - weight
        if remaining >= 0 and remaining < best_remaining and fits(index):
            best = index
            best_remaining = remaining
    return best
