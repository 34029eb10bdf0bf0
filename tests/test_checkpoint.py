"""The world-state checkpoint beside the journal.

Open may start from the checkpoint only while it matches the journal;
every case here must reach the height, tip hash and state that a full
replay of the same journal, with no checkpoint, reaches.
"""

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iotid import ledger as ledger_module
from iotid.assets import query_all_assets, query_owned_assets
from iotid.clock import SimClock
from iotid.codec import canonical_json, sha256
from iotid.idm import Session
from iotid.ledger import (
    BLOCKS_FILE,
    CHECKPOINT_BLOCKS,
    CHECKPOINT_FILE,
    LOCK_FILE,
    GenesisConfig,
    LedgerEngine,
    LedgerError,
    Member,
    verify_chain_file,
)
from iotid.store import ContentStore

from util import (
    Principal,
    make_engine,
    register_device,
    registrar_principal,
    reopen_engine,
    upload_payload,
)

# one peer keeps each of the many commits cheap
SOLO = GenesisConfig(peers=[Member("peer1", bytes(32))], registrars=[])


def grow(engine, writer, blocks, tag="v"):
    for _ in range(blocks):
        key = f"k{engine.height % 7}"
        engine.submit(writer.proposal(engine, "kv", "set", [key, f"{tag}{engine.height}"]))
        engine.flush()


def seen(engine):
    return engine.height, engine._tip_hash, engine.state.items()


def observe(base):
    engine = reopen_engine(base)
    try:
        return seen(engine)
    finally:
        engine.close()


def full_replay(base):
    """What an open of a copy of the journal, with no checkpoint, sees."""
    ref = base / "full-replay"
    shutil.rmtree(ref, ignore_errors=True)
    shutil.copytree(base / "ledger", ref / "ledger",
                    ignore=shutil.ignore_patterns(CHECKPOINT_FILE, LOCK_FILE))
    return observe(ref)


@pytest.fixture
def decoded(monkeypatch):
    """Indices of the journal records decoded, in order."""
    indices = []
    real = ledger_module._decode_block
    monkeypatch.setattr(ledger_module, "_decode_block",
                        lambda index, raw: indices.append(index) or real(index, raw))
    return indices


@pytest.fixture
def checkpointed(tmp_path):
    """A ledger closed at height 1 + CHECKPOINT_BLOCKS, so checkpointed there."""
    engine = make_engine(tmp_path, genesis=SOLO)
    grow(engine, Principal.from_seed(11), CHECKPOINT_BLOCKS)
    engine.close()
    assert (tmp_path / "ledger" / CHECKPOINT_FILE).exists()
    return tmp_path


def test_close_checkpoints_once_the_chain_is_far_enough_past_it(tmp_path, decoded):
    writer = Principal.from_seed(11)
    checkpoint = tmp_path / "ledger" / CHECKPOINT_FILE
    engine = make_engine(tmp_path, genesis=SOLO)
    grow(engine, writer, CHECKPOINT_BLOCKS - 2)
    engine.close()
    assert not checkpoint.exists()  # height 63
    engine = reopen_engine(tmp_path)
    grow(engine, writer, 1)
    engine.close()
    assert checkpoint.exists()  # height 64, 64 past no checkpoint
    written = checkpoint.read_bytes()

    decoded.clear()
    engine = reopen_engine(tmp_path)
    assert decoded == [0, CHECKPOINT_BLOCKS - 1]  # block 0 and the checkpoint's last
    grow(engine, writer, CHECKPOINT_BLOCKS - 1)
    engine.close()
    assert checkpoint.read_bytes() == written

    decoded.clear()
    engine = reopen_engine(tmp_path)
    assert decoded == [0, *range(CHECKPOINT_BLOCKS - 1, 2 * CHECKPOINT_BLOCKS - 1)]
    grow(engine, writer, 1)
    engine.close()
    assert checkpoint.read_bytes() != written
    assert observe(tmp_path) == full_replay(tmp_path)


def test_a_checkpoint_older_than_the_journal(checkpointed, decoded):
    engine = reopen_engine(checkpointed)
    grow(engine, Principal.from_seed(12), 10, tag="w")
    expected = seen(engine)
    engine.close()
    decoded.clear()
    assert observe(checkpointed) == expected
    assert decoded == [0, *range(CHECKPOINT_BLOCKS, CHECKPOINT_BLOCKS + 11)]
    assert full_replay(checkpointed) == expected


def test_a_checkpoint_from_another_ledger(tmp_path, checkpointed, decoded):
    # records of the same lengths, so the foreign offset ends a record here
    # too: only that record's hash tells the two ledgers apart
    other = tmp_path / "other"
    engine = make_engine(other, genesis=SOLO)
    grow(engine, Principal.from_seed(13), CHECKPOINT_BLOCKS + 20, tag="w")
    engine.close()
    shutil.copy(checkpointed / "ledger" / CHECKPOINT_FILE,
                other / "ledger" / CHECKPOINT_FILE)
    expected = full_replay(other)
    decoded.clear()
    engine = reopen_engine(other)
    try:
        assert seen(engine) == expected
        assert decoded[-engine.height:] == list(range(engine.height))  # a full replay
    finally:
        engine.close()


def resealed(data, *dropped, **changes):
    """The checkpoint with fields dropped or changed under a digest that checks."""
    body = json.loads(data.partition(b"\n")[2])
    body.update(changes)
    for name in dropped:
        del body[name]
    body = canonical_json(body)
    return sha256(body).hex().encode() + b"\n" + body


def tip_start(data):
    return json.loads(data.partition(b"\n")[2])["tipStart"]


@pytest.mark.parametrize("damage", [
    lambda data: resealed(data, height=30),
    lambda data: resealed(data, tipStart=tip_start(data) - 1),
    lambda data: resealed(data, tipStart=tip_start(data) + 1),
    lambda data: data[:len(data) // 2],
    lambda data: data[:-1],
    lambda data: data[:100] + bytes([data[100] ^ 0x01]) + data[101:],  # in the body
    lambda data: bytes([data[3] ^ 0x01]) + data[:3] + data[4:],  # in the digest
    lambda data: b"",
    lambda data: resealed(data, "tipHash"),
])
def test_a_damaged_checkpoint(checkpointed, decoded, damage):
    checkpoint = checkpointed / "ledger" / CHECKPOINT_FILE
    checkpoint.write_bytes(damage(checkpoint.read_bytes()))
    expected = full_replay(checkpointed)
    decoded.clear()
    engine = reopen_engine(checkpointed)
    try:
        assert seen(engine) == expected
        assert decoded[-engine.height:] == list(range(engine.height))
    finally:
        engine.close()
    # the close after a full replay wrote a good checkpoint again
    decoded.clear()
    assert observe(checkpointed) == expected
    assert decoded == [0, expected[0] - 1]


def test_a_last_record_longer_than_the_read_window(tmp_path, decoded):
    # the checkpoint's last block is read whole from its tipStart, however
    # long the record: over 64 KiB here
    writer = Principal.from_seed(11)
    engine = make_engine(tmp_path, genesis=SOLO)
    grow(engine, writer, CHECKPOINT_BLOCKS - 1)
    engine.submit(writer.proposal(engine, "kv", "set", ["big", "x" * 100_000]))
    engine.flush()
    engine.close()
    journal = (tmp_path / "ledger" / BLOCKS_FILE).read_bytes()
    assert len(journal) - journal.rindex(b"\n", 0, len(journal) - 1) > 1 << 16
    expected = full_replay(tmp_path)
    decoded.clear()
    assert observe(tmp_path) == expected
    assert decoded == [0, CHECKPOINT_BLOCKS]


def test_an_old_format_checkpoint_is_replaced(checkpointed, decoded):
    # a checkpoint from before tipStart records where its last block ends
    checkpoint = checkpointed / "ledger" / CHECKPOINT_FILE
    journal = checkpointed / "ledger" / BLOCKS_FILE
    checkpoint.write_bytes(resealed(checkpoint.read_bytes(), "tipStart",
                                    offset=journal.stat().st_size))
    expected = full_replay(checkpointed)
    decoded.clear()
    assert observe(checkpointed) == expected
    assert decoded == list(range(expected[0]))  # a full replay
    # the close after it was due, and wrote a checkpoint that opens
    decoded.clear()
    assert observe(checkpointed) == expected
    assert decoded == [0, expected[0] - 1]


def test_an_unreadable_checkpoint(checkpointed, decoded, monkeypatch):
    # e.g. written 0o600 by another user who shares the ledger directory
    real = Path.read_bytes

    def read_bytes(path):
        if path.name == CHECKPOINT_FILE:
            raise PermissionError(13, "Permission denied", str(path))
        return real(path)

    monkeypatch.setattr(Path, "read_bytes", read_bytes)
    expected = full_replay(checkpointed)
    decoded.clear()
    assert observe(checkpointed) == expected
    assert decoded == list(range(expected[0]))


def test_a_journal_torn_below_the_checkpoint(checkpointed):
    journal = checkpointed / "ledger" / BLOCKS_FILE
    data = journal.read_bytes()
    end_of_block_29 = [i for i, byte in enumerate(data) if byte == ord("\n")][29] + 1
    journal.write_bytes(data[:end_of_block_29 + 40])  # mid-way through block 30
    expected = full_replay(checkpointed)
    assert expected[0] == 30
    assert observe(checkpointed) == expected
    assert journal.read_bytes() == data[:end_of_block_29]


def test_a_journal_torn_above_the_checkpoint(checkpointed, decoded):
    engine = reopen_engine(checkpointed)
    grow(engine, Principal.from_seed(12), 3, tag="w")
    engine.close()
    journal = checkpointed / "ledger" / BLOCKS_FILE
    data = journal.read_bytes()
    journal.write_bytes(data[:-7])
    expected = full_replay(checkpointed)
    assert expected[0] == CHECKPOINT_BLOCKS + 3
    decoded.clear()
    assert observe(checkpointed) == expected
    assert decoded[:2] == [0, CHECKPOINT_BLOCKS]  # torn off from the checkpoint on
    assert journal.read_bytes() == data[:data.rindex(b"\n", 0, len(data) - 1) + 1]


def test_forced_create_discards_the_checkpoint(checkpointed):
    engine = LedgerEngine.create(checkpointed / "ledger", SOLO,
                                 ContentStore(checkpointed / "objects"), {},
                                 clock=SimClock(), force=True)
    try:
        assert not (checkpointed / "ledger" / CHECKPOINT_FILE).exists()
        fresh = seen(engine)
    finally:
        engine.close()
    assert fresh[0] == 1
    assert observe(checkpointed) == fresh == full_replay(checkpointed)


def test_a_block_cut_below_the_checkpoint_breaks_the_chain(checkpointed):
    journal = checkpointed / "ledger" / BLOCKS_FILE
    lines = journal.read_bytes().splitlines(keepends=True)
    journal.write_bytes(b"".join(lines[:10] + lines[11:]))
    with pytest.raises(LedgerError, match="broken chain link at block 10"):
        reopen_engine(checkpointed)


_histories = st.lists(st.one_of(
    st.tuples(st.just("grow"), st.integers(1, 70)),
    st.tuples(st.just("reopen"), st.none()),
    st.tuples(st.just("tear"), st.integers(1, 4000)),
), min_size=1, max_size=8)


@settings(max_examples=20, deadline=None)
@given(_histories)
def test_any_history_opens_to_the_full_replay_state(history):
    # commits, reopens and torn appends cross the checkpoint threshold at
    # random points; each reopen must see what a full replay sees, and a
    # torn append must cost exactly the block it tore
    writer = Principal.from_seed(14)
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        journal = base / "ledger" / BLOCKS_FILE
        engine = make_engine(base, genesis=SOLO)
        height = 1
        try:
            for kind, arg in history + [("reopen", None)]:
                if kind == "grow":
                    grow(engine, writer, arg)
                    height += arg
                    continue
                engine.close()
                if kind == "tear" and height > 1:
                    data = journal.read_bytes()
                    last = data.rindex(b"\n", 0, len(data) - 1) + 1
                    journal.write_bytes(data[:max(last + 1, len(data) - arg)])
                    height -= 1
                expected = full_replay(base)
                engine = reopen_engine(base)
                assert seen(engine) == expected
                assert engine.height == height
                assert verify_chain_file(journal).ok
        finally:
            engine.close()


def upload_round(engine, devices, tag):
    # both uploads sign at the same clock reading and share one block, so
    # their addedAt ties and only the dataId orders them
    for n, device in enumerate(devices):
        upload_payload(engine, device, f"{tag}/{n}".encode(), flush=False)
    engine.flush()


def asset_queries(engine, devices):
    owned = [query_owned_assets(engine.state, Session(did=d.did, expires_at=2**40), 0)
             for d in devices]
    return query_all_assets(engine.state), owned


def test_assets_from_a_checkpoint_equal_assets_from_a_full_replay(tmp_path, decoded):
    genesis = GenesisConfig(peers=[Member("peer1", bytes(32))],
                            registrars=[Member("registrar", bytes([1]) * 32)])
    devices = [Principal.from_seed(21), Principal.from_seed(22)]
    engine = make_engine(tmp_path, genesis=genesis)
    registrar = registrar_principal(engine)
    for device in devices:
        register_device(engine, registrar, device)
    for n in range(CHECKPOINT_BLOCKS):
        upload_round(engine, devices, n)
    engine.close()
    assert (tmp_path / "ledger" / CHECKPOINT_FILE).exists()
    replayed = tmp_path / "replayed"
    shutil.copytree(tmp_path / "ledger", replayed / "ledger",
                    ignore=shutil.ignore_patterns(CHECKPOINT_FILE, LOCK_FILE))
    shutil.copytree(tmp_path / "objects", replayed / "objects")

    decoded.clear()
    # both clocks restart at 0, below every committed addedAt, so the
    # uploads below land at the front of the order, not the end
    from_checkpoint = reopen_engine(tmp_path)
    assert len(decoded) < from_checkpoint.height
    from_genesis = reopen_engine(replayed)
    try:
        assert asset_queries(from_checkpoint, devices) == \
            asset_queries(from_genesis, devices)
        assert len(asset_queries(from_genesis, devices)[0]) == 2 * CHECKPOINT_BLOCKS
        for n in range(3):
            for engine in (from_checkpoint, from_genesis):
                upload_round(engine, devices, f"more{n}")
            assert asset_queries(from_checkpoint, devices) == \
                asset_queries(from_genesis, devices)
        assert len(asset_queries(from_genesis, devices)[0]) == 2 * CHECKPOINT_BLOCKS + 6
    finally:
        from_checkpoint.close()
        from_genesis.close()
