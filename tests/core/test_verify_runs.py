"""Same checks, fewer instructions: the run-based verification against
the one it replaced.

``reference_verify`` is STEP 4's hash-chain check as it ran before the
columnar pass (c203b13), kept here as the oracle: a scalar decrypt per
index key, ``(counter, bin, slot)`` tuples sorted per cell-id, per-cell
ciphertext lists, and every sealed tag opened again on every call.  The
differential feeds it and ``EpochContext.verify_packed`` the same
batches — clean bins, permuted rows, a cell split across two bins,
dropped / duplicated / corrupted / replayed rows, ``keep`` masks, wrong
and missing request bindings — and requires the same outcome: both
accept, or both reject with the same ``(kind, cell_id)``; with the tag
memo cold and warm.  Every batch goes through verification by position
too (each bin bound to the ``Bin`` it came from): the same outcome
again, positional acceptance only where the oracle accepts, and the
real-row mask the oracle's.  The same 120 seeds are replayed as
trapdoor fetches shaped like eBPB's (any cells, cycled fakes) and
winSecRange's (windows sharing cells, STEP 4's dedup ``keep``), each
batch bound to the slot request that fetched it: the same outcome, the
same mask, acceptance by request only where the oracle accepts, and an
honest eBPB or winSecRange query decrypts no index key at all.  They are
replayed once more as reads of slot runs of the sealed bins, each bound
to its runs, with the same three requirements; a warm honest eBPB or
winSecRange query on a sealed epoch then derives no trapdoor and looks
nothing up.  Pins ride along: the grouping path still
costs exactly one authenticated index-key decryption per (kept) row,
an honest sealed bin verified by position costs none, a forged
``bin_index`` changes nothing, a permuted but authentic bin is still
accepted, the oblivious path never goes by position, and dropping
contexts on a live enclave leaves ``concealer_epc_used_bytes`` where it
was.
"""

from __future__ import annotations

import random
from dataclasses import replace

import numpy as np
import pytest

from repro import WIFI_SCHEMA, DataProvider, GridSpec, telemetry
from repro.core.context import SlotRequest
from repro.core.packed import PackedBin
from repro.core.rotation import rotate_service_keys, rotation_token
from repro.core.schema import unpad_plaintext
from repro.exceptions import DecryptionError, IntegrityViolation

from tests.conftest import MASTER_KEY, TIME_STEP, is_fake_row, make_stack
from tests.crypto.hashchain import chain_digest

SPEC = GridSpec(dimension_sizes=(4, 10), cell_id_count=16, epoch_duration=600)
RECORDS = [
    (f"ap{(t // 60 + d) % 4}", t, f"dev{d % 5}")
    for t in range(0, 600, 60)
    for d in range(8)
]


def reference_verify(context, packed_bins, expected_cells=None, keep=None):
    """``None``, or the ``(kind, cell_id)`` the old code raised."""
    column_count = len(context.schema.filter_groups) + 1
    per_cid: dict[int, list] = {}
    offset = 0
    for pb in packed_bins:
        for j in range(pb.row_count):
            if keep is not None and not keep[offset + j]:
                continue
            try:
                plaintext = context.det.decrypt(pb.cell(j, len(pb.columns) - 1))
            except DecryptionError:
                return "undecryptable", None
            parts = unpad_plaintext(plaintext).split(b"\x1f")
            if parts[0] == b"idx":
                per_cid.setdefault(int(parts[1]), []).append((int(parts[2]), pb, j))
        offset += pb.row_count
    for cid in expected_cells or ():
        if context.c_tuple[cid] > 0 and cid not in per_cid:
            return "missing-cell", cid
    for cid, numbered in per_cid.items():
        numbered.sort(key=lambda item: item[0])
        if [c for c, _, _ in numbered] != list(range(1, context.c_tuple[cid] + 1)):
            return "counter-gap", cid
        tag = context.package.enc_tags.get(cid)
        if tag is None:
            return "missing-tag", cid
        for position in range(column_count):
            chain = chain_digest([pb.cell(j, position) for _, pb, j in numbered])
            if context.nd.decrypt(tag[position]) != chain:
                return "chain-mismatch", cid
    return None


def reference_real(context, packed_bins, keep=None):
    """The rows the oracle counts as real: kept, index key ``idx``."""
    rows = [row for pb in packed_bins for row in pb]
    return [
        (keep is None or bool(keep[j])) and not is_fake_row(context, row)
        for j, row in enumerate(rows)
    ]


def outcome(context, packed_bins, expected_cells=None, keep=None, requested=None):
    try:
        context.verify_packed(packed_bins, expected_cells, keep=keep, requested=requested)
    except IntegrityViolation as violation:
        return violation.kind, violation.cell_id
    return None


def by_position(context, packed_bins, expected_cells=None, keep=None, requested=None):
    """``(outcome, accepted by position, real-row mask)``."""
    accepted = []
    positional = type(context)._verify_positional

    def spy(*args):
        real = positional(context, *args)
        accepted.append(real is not None)
        return real

    context._verify_positional = spy
    try:
        real = context.verify_packed(
            packed_bins, expected_cells, keep=keep, requested=requested
        )
    except IntegrityViolation as violation:
        return (violation.kind, violation.cell_id), any(accepted), None
    finally:
        del context._verify_positional
    return None, any(accepted), real.tolist()


@pytest.fixture(scope="module")
def sealed():
    """(service, context, the epoch's sealed bins) of a verifying stack."""
    _, service = make_stack(SPEC, RECORDS, verify=True)
    context = service.context_for(0)
    bins = [
        service.engine.fetch_packed_bin(context.table_name, chosen.runs)
        for chosen in context.layout.bins
    ]
    return service, context, bins


def _real_slots(context, pb):
    return [j for j, row in enumerate(pb) if not is_fake_row(context, row)]


def _flip(cell: bytes) -> bytes:
    return bytes([cell[0] ^ 0x40]) + cell[1:]


MOVES = ("as-sealed", "permute", "drop", "duplicate", "corrupt-chained", "corrupt-key")


def _perturb(rng, context, pb, move=None):
    """One random way a host can hand a sealed bin back (or ``move``)."""
    move = move or rng.choice(MOVES)
    real = _real_slots(context, pb)
    if move == "permute":
        rows = pb.unpack()
        rng.shuffle(rows)
        return [PackedBin.pack(pb.bin_index, rows)]
    if move == "drop" and real:
        return [pb.without_row(rng.choice(real))]
    if move == "duplicate" and real:
        return [pb.with_duplicated_row(rng.choice(real))]
    if move == "corrupt-chained" and real:
        column = rng.randrange(len(pb.columns) - 1)
        return [pb.with_corrupted_cell(rng.choice(real), column, _flip)]
    if move == "corrupt-key":
        return [pb.with_corrupted_cell(rng.randrange(pb.row_count), len(pb.columns) - 1, _flip)]
    return [pb]


def _split(rng, pb):
    """The bin's rows as two bins, cut anywhere (mid-cell included)."""
    rows = pb.unpack()
    cut = rng.randrange(1, len(rows))
    halves = [PackedBin.pack(pb.bin_index, rows[:cut]), PackedBin.pack(pb.bin_index, rows[cut:])]
    rng.shuffle(halves)
    return halves


@pytest.mark.parametrize("seed", range(120))
def test_run_based_verify_decides_as_the_reference_did(sealed, seed):
    _, context, bins = sealed
    rng = random.Random(seed)
    chosen = rng.sample(range(len(bins)), rng.choice([1, 1, 2, 3]))
    batch: list[PackedBin] = []
    requested = []  # the Bin each packed batch was fetched for
    for index in chosen:
        pb = bins[index]
        parts = _split(rng, pb) if rng.random() < 0.3 else _perturb(rng, context, pb)
        batch += parts
        requested += [context.layout.bins[index]] * len(parts)
    expected = rng.choice([
        None,
        [cid for index in chosen for cid in context.layout.bins[index].cell_ids],
        list(context.layout.bins[rng.randrange(len(bins))].cell_ids),
    ])
    keep = None
    total = sum(pb.row_count for pb in batch)
    mask = rng.choice(["none", "dedup", "random"])
    if mask == "dedup":
        keep = context.packed_dedup_keep(batch)
    elif mask == "random":
        keep = np.array([rng.random() < 0.9 for _ in range(total)])
    want = reference_verify(context, batch, expected, keep)
    if seed % 2:
        context._tag_memo.clear()  # the cold pass decides as the warm one
        context._index_memo.clear()
    assert outcome(context, batch, expected, keep) == want
    assert outcome(context, batch, expected, keep) == want  # memo warm now
    for _ in ("cold-or-warm", "warm"):
        got, positional, real = by_position(context, batch, expected, keep, requested)
        assert got == want
        if positional:  # (a) acceptance by position implies the oracle's
            assert want is None
        if want is None:
            assert real == reference_real(context, batch, keep)


@pytest.fixture(scope="module")
def fetching():
    """(service, context) of a verifying stack (its fetches leave the
    EPC as they found it)."""
    _, service = make_stack(SPEC, RECORDS, verify=True)
    return service, service.context_for(0)


def _trapdoor_fetch(service, context, cells, fake_ids):
    """The packed answer to a trapdoor fetch and the request it was."""
    trapdoors = context.trapdoors_for_cell_ids(cells, fake_ids)
    rows = service.engine.lookup_many(context.table_name, "index_key", trapdoors)
    return context.pack_rows(rows), SlotRequest(cells, trapdoors)


def _run_read(service, context, cells, fake_ids):
    """The same slots read as runs of the sealed bins (a request with
    no slots at all is made by trapdoor, as the executor makes it)."""
    request = context.slot_runs(cells, fake_ids)
    if not request.runs:
        return _trapdoor_fetch(service, context, cells, fake_ids)
    packed = service.engine.fetch_packed_bin(context.table_name, request.runs)
    return context._admit(packed), request


def _slot_batch(rng, service, context, shape, read=_trapdoor_fetch):
    """An eBPB-shaped fetch (one request: any cells, fakes cycling past
    the pool) or a winSecRange-shaped one (two or three windows whose
    cells overlap, each padded from its own fake offset), each request
    made by ``read``."""
    populations = context.c_tuple
    pool = context.fake_pool_size
    if shape == "ebpb":
        cells = rng.sample(range(len(populations)), rng.randrange(1, 6))
        fakes = [1 + i % pool for i in range(rng.randrange(0, 2 * pool + 3))]
        return [read(service, context, cells, fakes)]
    shared = rng.sample(range(len(populations)), 8)
    fetches, offset = [], 0
    for _ in range(rng.choice([2, 3])):
        cells = rng.sample(shared, rng.randrange(1, 5))
        fakes = [1 + (offset + i) % pool for i in range(rng.randrange(0, pool + 2))]
        offset += len(fakes)
        fetches.append(read(service, context, cells, fakes))
    return fetches


@pytest.mark.parametrize("shape", ["ebpb", "winsecrange"])
@pytest.mark.parametrize("seed", range(120))
def test_a_trapdoor_fetch_by_request_decides_as_the_reference_did(fetching, shape, seed):
    _decides_as_the_reference_did(fetching, shape, seed, _trapdoor_fetch)


@pytest.mark.parametrize("shape", ["ebpb", "winsecrange"])
@pytest.mark.parametrize("seed", range(120))
def test_a_run_read_by_request_decides_as_the_reference_did(fetching, shape, seed):
    """The same seeds, each request read as slot runs of the sealed bins
    and bound to its runs: acceptance by request is still a subset of
    the oracle's, with the index memo cold on odd seeds."""
    if seed % 2:
        fetching[1]._index_memo.clear()
    _decides_as_the_reference_did(fetching, shape, seed, _run_read)


def _decides_as_the_reference_did(fetching, shape, seed, read):
    service, context = fetching
    rng = random.Random(seed)
    batch, requested, asked = [], [], []
    for pb, request in _slot_batch(rng, service, context, shape, read):
        if not pb.row_count:  # empty cells and no fakes: nothing to bend
            parts = [pb]
        elif pb.row_count > 1 and rng.random() < 0.2:
            parts = _split(rng, pb)
        else:
            parts = _perturb(rng, context, pb)
        batch += parts
        requested += [request] * len(parts)
        asked += request.cell_ids
    expected = rng.choice([None, asked, asked, rng.sample(range(len(context.c_tuple)), 3)])
    mask = rng.choice(["dedup", "dedup", "none", "random"])
    keep = None
    if mask == "dedup":  # what STEP 4 hands a range method's batch
        keep = context.packed_dedup_keep(batch)
    elif mask == "random":
        keep = np.array([rng.random() < 0.9 for _ in range(sum(map(len, batch)))], dtype=bool)
    want = reference_verify(context, batch, expected, keep)
    if seed % 2:
        context._tag_memo.clear()
    for _ in ("cold-or-warm", "warm"):
        got, by_request, real = by_position(context, batch, expected, keep, requested)
        assert got == want
        if by_request:  # acceptance by request implies the oracle's
            assert want is None
        if want is None:
            assert real == reference_real(context, batch, keep)


def test_honest_trapdoor_fetches_are_accepted_by_request(fetching):
    """The differential above would pass if the path were never taken:
    an untouched fetch of either shape goes by request, cycled fakes,
    shared cells and dedup included."""
    _honest_fetches_are_accepted_by_request(fetching, _trapdoor_fetch)


def test_honest_run_reads_are_accepted_by_request(fetching):
    """The same, each request read as slot runs of the sealed bins."""
    _honest_fetches_are_accepted_by_request(fetching, _run_read)


def _honest_fetches_are_accepted_by_request(fetching, read):
    service, context = fetching
    for shape in ("ebpb", "winsecrange"):
        for seed in range(20):
            fetches = _slot_batch(random.Random(seed), service, context, shape, read)
            batch = [pb for pb, _ in fetches]
            requested = [request for _, request in fetches]
            cells = [cid for request in requested for cid in request.cell_ids]
            keep = context.packed_dedup_keep(batch)
            got, by_request, real = by_position(context, batch, cells, keep, requested)
            assert (got, by_request) == (None, True)
            assert real == reference_real(context, batch, keep)


@pytest.mark.parametrize("replicated", [False, True], ids=["plain", "replicated"])
def test_an_honest_ebpb_or_winsecrange_query_decrypts_no_index_key(monkeypatch, replicated):
    """Every fetched row's index key is the trapdoor the enclave sent
    for its slot, so nothing needs decrypting; COUNT needs no payload."""
    from repro.core.context import EpochContext
    from repro.core.queries import RangeQuery
    from repro.crypto.kernels import DeterministicCipher
    from tests.replication.conftest import make_replicated_stack, replication_records

    if replicated:
        records = replication_records()
        _, service, *_ = make_replicated_stack(records, replicas=2, verify=True)
    else:
        records = RECORDS
        _, service = make_stack(SPEC, RECORDS, verify=True)
    location = records[0][0]
    query = RangeQuery(index_values=(location,), time_start=0, time_end=299)
    honest = {method: service.execute_range(query, method=method)[0]
              for method in ("ebpb", "winsecrange")}
    calls = []
    decrypt_many = DeterministicCipher.decrypt_many

    def counting(cipher, ciphertexts, *args, **kwargs):
        calls.append(len(ciphertexts))
        return decrypt_many(cipher, ciphertexts, *args, **kwargs)

    def never(*_):
        raise AssertionError("an honest trapdoor fetch went to the grouping path")

    monkeypatch.setattr(DeterministicCipher, "decrypt_many", counting)
    monkeypatch.setattr(EpochContext, "_group_by_cell", never)
    with telemetry.scoped_registry() as registry:
        for method, answer in honest.items():
            got, stats = service.execute_range(query, method=method)
            assert (got, stats.verified) == (answer, True)
        assert registry.value(
            "concealer_crypto_kernel_ops_total", kernel="det_decrypt"
        ) == 0
    assert calls == []


@pytest.mark.parametrize("replicated", [False, True], ids=["plain", "replicated"])
def test_a_warm_honest_ebpb_or_winsecrange_query_derives_no_trapdoor(monkeypatch, replicated):
    """On a sealed epoch both read slot runs of the sidecar bins, so once
    the index memo holds the cell-ids they touch, nothing is looked up
    and no real row's index key is encrypted: the ``encrypt_many`` calls
    left are STEP 4's filters, one per query, and the keys of the fakes
    a fetch takes from part of a bin's fake range (its whole ranges are
    checked by digest), consecutive ids, each once."""
    from repro.core.context import EpochContext
    from repro.core.queries import RangeQuery
    from repro.crypto.kernels import DeterministicCipher
    from repro.replication.engine import ReplicatedStorageEngine
    from repro.storage.engine import StorageEngine
    from tests.replication.conftest import make_replicated_stack, replication_records

    if replicated:
        records = replication_records()
        _, service, *_ = make_replicated_stack(records, replicas=2, verify=True)
    else:
        records = RECORDS
        _, service = make_stack(SPEC, RECORDS, verify=True)
    query = RangeQuery(index_values=(records[0][0],), time_start=0, time_end=299)
    methods = ("ebpb", "winsecrange")
    honest = {method: service.execute_range(query, method=method)[0] for method in methods}
    calls = {"lookup_many": 0, "trapdoors_for_cell_ids": 0}
    encrypted = []

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for owner in (StorageEngine, ReplicatedStorageEngine):
        counting(owner, "lookup_many")
    counting(EpochContext, "trapdoors_for_cell_ids")
    encrypt_many = DeterministicCipher.encrypt_many

    def recording(cipher, plaintexts, *args, **kwargs):
        encrypted.append([unpad_plaintext(p).split(b"\x1f") for p in plaintexts])
        return encrypt_many(cipher, plaintexts, *args, **kwargs)

    monkeypatch.setattr(DeterministicCipher, "encrypt_many", recording)
    for method, answer in honest.items():
        got, stats = service.execute_range(query, method=method)
        assert (got, stats.verified) == (answer, True)
        assert stats.trapdoors_generated and stats.rows_fetched == stats.trapdoors_generated
    assert calls == {"lookup_many": 0, "trapdoors_for_cell_ids": 0}
    fakes = [batch for batch in encrypted if batch and batch[0][0] == b"fake"]
    filters = [batch for batch in encrypted if batch and batch not in fakes]
    assert fakes and len(filters) == len(methods)
    assert not {b"idx", b"fake"} & {parts[0] for batch in filters for parts in batch}
    for batch in fakes:
        assert {parts[0] for parts in batch} == {b"fake"}
        ids = [int(parts[1]) for parts in batch]
        assert ids == list(range(ids[0], ids[0] + len(ids)))


def test_every_sealed_bin_and_the_whole_epoch_verify(sealed):
    _, context, bins = sealed
    for chosen, pb in zip(context.layout.bins, bins):
        assert outcome(context, [pb], chosen.cell_ids) is None
    everything = [cid for chosen in context.layout.bins for cid in chosen.cell_ids]
    assert outcome(context, bins, everything) is None
    assert reference_verify(context, bins, everything) is None


def test_the_reservation_is_the_full_memo_and_a_silent_service_makes_none(sealed):
    """The EPC charge is what the memo holds once every cell-id was
    verified (the fake chain's tag is never opened, so never counted),
    a service that does not verify is charged what it always was, and
    an oblivious one, which never verifies by position, holds no index
    memo."""
    service, context, bins = sealed
    context.verify_packed(bins, None)
    held = sum(len(d) for digests in context._tag_memo.values() for d in digests)
    assert held == context.tag_memo_bytes > 0
    # The index-key memo: a digest per public bin once each was verified
    # by position, and per tagged cell-id and padded bin's fake range
    # once each was read as a run.
    context.verify_packed(bins, None, requested=context.layout.bins)
    cells = [cid for cid, population in enumerate(context.c_tuple) if population]
    fakes = range(1, context.fake_pool_size + 1)
    packed, request = _run_read(service, context, cells, fakes)
    context.verify_packed([packed], cells, requested=[request])
    indexed = sum(map(len, context._index_memo.values()))
    padded = sum(chosen.fake_count > 0 for chosen in context.layout.bins)
    assert indexed == context.index_memo_bytes == 32 * (len(bins) + padded + len(cells))
    _, silent = make_stack(SPEC, RECORDS, verify=False)
    assert silent.context_for(0).tag_memo_bytes == 0
    assert silent.context_for(0).index_memo_bytes == 0
    _, oblivious = make_stack(SPEC, RECORDS, verify=True, oblivious=True)
    assert oblivious.context_for(0).tag_memo_bytes == context.tag_memo_bytes
    assert oblivious.context_for(0).index_memo_bytes == 0
    assert service.enclave.epc_used - silent.enclave.epc_used == held + indexed


def test_the_reservation_is_not_per_slot(sealed):
    """The index memo holds digests — per bin, padded bin and tagged
    cell-id — never a key per slot, so a context whose public bin size
    puts far more slots in a bin than the EPC could key (2^22 slots,
    201 MB of 48-byte index keys) is built, and charged no more memo
    than the real one, whose bins are a thousandth of that size."""
    from repro.core.context import EpochContext
    from repro.enclave.enclave import DEFAULT_EPC_BYTES

    service, context, _ = sealed
    package = replace(service._packages[0], bin_size=2**22)
    huge = EpochContext(service.enclave, package, service.schema, table_name=context.table_name)
    try:
        assert 48 * huge.layout.bin_size * len(huge.layout.bins) > DEFAULT_EPC_BYTES
        assert 0 < huge.index_memo_bytes <= context.index_memo_bytes
    finally:
        huge.release()


def test_each_violation_kind_is_still_reachable(sealed):
    """The differential above would pass if both sides were blind."""
    _, context, bins = sealed
    chosen, pb = next(
        (c, b) for c, b in zip(context.layout.bins, bins) if c.real_tuples > 1
    )
    victim = _real_slots(context, pb)[0]
    other = next(c for c in context.layout.bins if c.index != chosen.index and c.real_tuples)
    cases = {
        "counter-gap": ([pb.without_row(victim)], chosen.cell_ids),
        "chain-mismatch": ([pb.with_corrupted_cell(victim, 0, _flip)], chosen.cell_ids),
        "undecryptable": (
            [pb.with_corrupted_cell(victim, len(pb.columns) - 1, _flip)], chosen.cell_ids,
        ),
        "missing-cell": ([pb], other.cell_ids),
    }
    for kind, (batch, cells) in cases.items():
        assert outcome(context, batch, cells)[0] == kind
        assert reference_verify(context, batch, cells)[0] == kind


def test_a_replayed_pre_rotation_bin_is_undecryptable_with_the_memo_warm():
    _, service = make_stack(SPEC, RECORDS, verify=True)
    context = service.context_for(0)
    chosen = next(b for b in context.layout.bins if b.real_tuples)
    stale = service.engine.fetch_packed_bin(context.table_name, chosen.runs)
    assert outcome(context, [stale], chosen.cell_ids) is None
    assert context._tag_memo
    new_master = bytes(range(32, 64))
    rotate_service_keys(service, new_master, rotation_token(MASTER_KEY, new_master))
    rebuilt = service.context_for(0)
    assert rebuilt is not context and not rebuilt._tag_memo
    assert outcome(rebuilt, [stale], chosen.cell_ids) == ("undecryptable", None)
    assert reference_verify(rebuilt, [stale], chosen.cell_ids) == ("undecryptable", None)


def test_a_verified_bin_costs_one_index_key_decryption_per_kept_row(sealed):
    """On the grouping path — any batch not bound to the bins it was
    fetched for — the MAC over every fetched index key is not optional:
    a later "optimisation" that skips it moves this public counter."""
    _, context, bins = sealed
    pb = bins[0]
    keep = np.ones(pb.row_count, dtype=bool)
    keep[::3] = False
    for mask, rows in ((None, pb.row_count), (keep, int(keep.sum()))):
        for _ in ("cold-or-warm", "warm"):
            with telemetry.scoped_registry() as registry:
                try:
                    context.verify_packed([pb], None, keep=mask)
                except IntegrityViolation:
                    pass  # a thinned bin has counter gaps; the count stands
                assert registry.value(
                    "concealer_crypto_kernel_ops_total", kernel="det_decrypt"
                ) == rows


def test_epc_in_use_is_flat_over_rotations_and_evictions():
    _, service = make_stack(SPEC, RECORDS, verify=True)
    # The service keeps only the package's metadata; the same key and
    # seed as make_stack's provider ship the same package again.
    package = DataProvider(
        WIFI_SCHEMA, SPEC, 0, master_key=MASTER_KEY, time_granularity=TIME_STEP,
        rng=random.Random(1),
    ).encrypt_epoch(RECORDS, epoch_id=0)

    def touch():
        context = service.context_for(0)
        chosen = next(b for b in context.layout.bins if b.real_tuples)
        pb = service.engine.fetch_packed_bin(context.table_name, chosen.runs)
        if pb is not None:  # a rotated table has no sidecar
            context.verify_packed([pb], chosen.cell_ids)

    touch()
    baseline = service.enclave.epc_used
    assert baseline > 0
    masters = [MASTER_KEY] + [bytes([n]) * 32 for n in range(1, 6)]
    with telemetry.scoped_registry() as registry:
        for _ in range(5):
            assert service.evict_epoch(0)
            assert service.enclave.epc_used == 0
            service.ingest_epoch(package)
            touch()
            assert service.enclave.epc_used == baseline
        for old, new in zip(masters, masters[1:]):
            rotate_service_keys(service, new, rotation_token(old, new))
            touch()
            assert service.enclave.epc_used == baseline
        assert registry.value("concealer_epc_used_bytes") == baseline


def test_a_warm_honest_sealed_bin_decrypts_no_index_key(sealed, monkeypatch):
    """(b) Its slots' index keys are known before it arrives: a byte
    compare of the column against the memo replaces their decryption."""
    from repro.crypto.kernels import DeterministicCipher

    _, context, bins = sealed
    chosen = next(b for b in context.layout.bins if b.real_tuples and b.fake_count)
    pb = bins[chosen.index]
    context.verify_packed([pb], chosen.cell_ids, requested=[chosen])  # warm
    calls = []
    decrypt_many = DeterministicCipher.decrypt_many

    def counting(cipher, ciphertexts, *args, **kwargs):
        calls.append(len(ciphertexts))
        return decrypt_many(cipher, ciphertexts, *args, **kwargs)

    monkeypatch.setattr(DeterministicCipher, "decrypt_many", counting)
    real = context.verify_packed([pb], chosen.cell_ids, requested=[chosen])
    assert calls == []
    assert real.tolist() == [j < chosen.real_tuples for j in range(pb.row_count)]
    context.verify_packed([pb], chosen.cell_ids)  # unbound: the grouping path
    assert calls == [pb.row_count]


@pytest.fixture(scope="module")
def warmed():
    """(service, a context whose memo accepted an honest read of every
    bin, cell-id and padded bin's fakes, a fresh context of the epoch)."""
    from repro.core.context import EpochContext

    _, service = make_stack(SPEC, RECORDS, verify=True)
    context = service.context_for(0)
    for chosen in context.layout.bins:
        pb = service.engine.fetch_packed_bin(context.table_name, chosen.runs)
        context.verify_packed([pb], chosen.cell_ids, requested=[chosen])
    cells = [cid for cid, population in enumerate(context.c_tuple) if population]
    packed, request = _run_read(service, context, cells, range(1, context.fake_pool_size + 1))
    context.verify_packed([packed], cells, requested=[request])
    assert sum(map(len, context._index_memo.values())) == context.index_memo_bytes
    fresh = EpochContext(
        service.enclave, service._packages[0], service.schema, table_name=context.table_name
    )
    yield service, context, fresh
    fresh.release()


@pytest.mark.parametrize("move", MOVES + ("split",))
@pytest.mark.parametrize("read", ["bin", "run"])
@pytest.mark.parametrize("seed", range(6))
def test_a_warm_memo_decides_every_bent_read_as_a_fresh_context(warmed, move, read, seed):
    """Once honest reads filled the memo, a bent bin or run read is
    decided exactly as a context that never saw one decides it — the
    same violation, or the same grouping-path outcome and mask — and
    leaves the memo as it was."""
    service, context, fresh = warmed
    rng = random.Random(seed)
    if read == "bin":
        chosen = rng.choice([b for b in context.layout.bins if b.real_tuples > 1])
        fetches = [(service.engine.fetch_packed_bin(context.table_name, chosen.runs), chosen)]
    else:
        fetches = _slot_batch(rng, service, context, rng.choice(["ebpb", "winsecrange"]), _run_read)
    batch, requested, asked = [], [], []
    for pb, request in fetches:
        if pb.row_count < 2:
            parts = [pb]
        elif move == "split":
            parts = _split(rng, pb)
        else:
            parts = _perturb(rng, context, pb, move)
        batch += parts
        requested += [request] * len(parts)
        asked += request.cell_ids
    keep = None if read == "bin" else context.packed_dedup_keep(batch)
    memo = dict(context._index_memo)
    fresh._tag_memo.clear()
    fresh._index_memo.clear()
    cold = by_position(fresh, batch, asked, keep, requested)
    assert by_position(context, batch, asked, keep, requested) == cold
    assert context._index_memo == memo
    if move == "as-sealed":
        assert cold[:2] == (None, True)


def test_a_rejected_call_teaches_the_memo_nothing(sealed):
    """A batch of one honest bin and one tampered bin is rejected whole,
    so the honest bin's digest is not kept either."""
    _, context, bins = sealed
    honest, tampered = [b for b in context.layout.bins if b.real_tuples][:2]
    bent = bins[tampered.index].with_corrupted_cell(0, 0, _flip)
    for memo in ({}, {("cell", 0): b"\0" * 32}):
        context._index_memo.clear()
        context._index_memo.update(memo)
        cells = [*honest.cell_ids, *tampered.cell_ids]
        with pytest.raises(IntegrityViolation):
            context.verify_packed([bins[honest.index], bent], cells, requested=[honest, tampered])
        assert context._index_memo == memo
    context.verify_packed([bins[honest.index]], honest.cell_ids, requested=[honest])
    assert set(context._index_memo) == {("cell", 0), ("bin", honest.index)}


@pytest.mark.parametrize("rebuild", ["rotate_keys", "adopt_enclave"])
def test_a_rebuilt_context_starts_with_an_empty_memo(rebuild):
    from repro.enclave.enclave import Enclave, EnclaveConfig

    provider, service = make_stack(SPEC, RECORDS, verify=True)
    context = service.context_for(0)
    chosen = next(b for b in context.layout.bins if b.real_tuples)
    pb = service.engine.fetch_packed_bin(context.table_name, chosen.runs)
    context.verify_packed([pb], chosen.cell_ids, requested=[chosen])
    assert context._index_memo
    if rebuild == "rotate_keys":
        new_master = bytes(range(32, 64))
        rotate_service_keys(service, new_master, rotation_token(MASTER_KEY, new_master))
    else:
        enclave = Enclave(EnclaveConfig())
        provider.provision_enclave(enclave)
        service.adopt_enclave(enclave)
    rebuilt = service.context_for(0)
    assert rebuilt is not context
    assert rebuilt._index_memo == {} and rebuilt._tag_memo == {}


def test_a_warm_point_query_hashes_once_per_segment_and_encrypts_only_its_filter(monkeypatch):
    """The second verified point query on a bin re-proves nothing: one
    SHA-256 over the bytes the first accepted (its one requested bin),
    no chain fold, and no DET encryption but the query's one filter."""
    import hashlib

    from repro.core import context as context_module
    from repro.core.queries import PointQuery
    from repro.crypto import kernels
    from repro.crypto.kernels import DeterministicCipher
    from tests.replication.conftest import SPEC as SPEC_18, replication_records

    records = replication_records()
    _, service = make_stack(SPEC_18, records, verify=True)
    location, timestamp, _ = records[0]
    query = PointQuery(index_values=(location,), timestamp=timestamp)
    answer, stats = service.execute_point(query)
    assert stats.verified
    assert service.context_for(0).layout.bin_size == 18
    hashes, encrypted = [], []

    def counting(original):
        def sha256(*args):
            hashes.append(original)
            return original(*args)

        return sha256

    class CountingHashlib:
        sha256 = staticmethod(counting(hashlib.sha256))

    monkeypatch.setattr(context_module, "hashlib", CountingHashlib)
    monkeypatch.setattr(kernels, "_sha256", counting(kernels._sha256))
    encrypt_many = DeterministicCipher.encrypt_many

    def recording(cipher, plaintexts, *args, **kwargs):
        encrypted.extend(plaintexts)
        return encrypt_many(cipher, plaintexts, *args, **kwargs)

    monkeypatch.setattr(DeterministicCipher, "encrypt_many", recording)
    assert service.execute_point(query) == (answer, stats)
    assert len(hashes) == 1
    assert len(encrypted) == 1


def test_a_forged_bin_index_changes_nothing(sealed):
    """(c) The batch is checked as the bin the enclave asked for."""
    _, context, bins = sealed
    first, second = [b for b in context.layout.bins if b.real_tuples][:2]
    liar = replace(bins[first.index], bin_index=second.index)
    assert by_position(context, [liar], first.cell_ids, requested=[first])[:2] == (
        None, True,
    )
    # Another bin's bytes, however labelled, are not the requested bin's.
    for claimed in (first.index, second.index):
        swapped = replace(bins[second.index], bin_index=claimed)
        got, positional, _ = by_position(
            context, [swapped], first.cell_ids, requested=[first]
        )
        assert not positional
        assert got == reference_verify(context, [swapped], first.cell_ids)
        assert got[0] == "missing-cell"


def test_a_permuted_authentic_bin_is_accepted_by_grouping(sealed):
    """(d) Position is a shortcut, never a new rule: a bin whose rows
    arrive in another order still verifies, by the grouping path."""
    _, context, bins = sealed
    chosen = next(b for b in context.layout.bins if b.real_tuples > 1)
    rows = bins[chosen.index].unpack()
    random.Random(7).shuffle(rows)
    permuted = PackedBin.pack(chosen.index, rows)
    got, positional, real = by_position(
        context, [permuted], chosen.cell_ids, requested=[chosen]
    )
    assert (got, positional) == (None, False)
    assert real == reference_real(context, [permuted])


def test_the_oblivious_path_never_verifies_by_position(monkeypatch):
    """(e) Concealer+'s trapdoor order is the bitonic sort's; its
    verification keeps the grouping path, whatever the method, and its
    trace is unchanged."""
    from repro.core.context import EpochContext
    from repro.core.queries import PointQuery, RangeQuery
    from repro.enclave.trace import trace_signature

    def never(*_):
        raise AssertionError("verified by position under oblivious execution")

    monkeypatch.setattr(EpochContext, "_verify_positional", never)
    _, service = make_stack(SPEC, RECORDS, verify=True, oblivious=True)
    location, timestamp, _ = RECORDS[0]
    service.enclave.trace.clear()
    service.execute_point(PointQuery(index_values=(location,), timestamp=timestamp))
    service.execute_range(
        RangeQuery(index_values=(location,), time_start=0, time_end=300),
        method="multipoint",
    )
    assert trace_signature(service.enclave.trace).hex() == OBLIVIOUS_TRACE
    # Nor by request: eBPB and winSecRange keep the grouping path too.
    service.enclave.trace.clear()
    for method in ("ebpb", "winsecrange"):
        _, stats = service.execute_range(
            RangeQuery(index_values=(location,), time_start=0, time_end=300),
            method=method,
        )
        assert stats.verified
    assert trace_signature(service.enclave.trace).hex() == OBLIVIOUS_RANGE_TRACE


# ``trace_signature`` of the two oblivious queries above, captured at the
# commit before verification by position existed (8b26dea), and of the
# eBPB and winSecRange pair at the commit before verification by request
# existed (b224630).
OBLIVIOUS_TRACE = "95c2f52775309b95aa6162a34dce229cb1ec94887337f2e774d2fb7dea0e8a8d"
OBLIVIOUS_RANGE_TRACE = "3905e774cfc3d43af13c94d8edd1941614a6b964cdce040368f05a65f4754e95"
