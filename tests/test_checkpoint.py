"""The world-state store beside the journal, and its savepoint.

The store is the ledger's checkpoint of world state, and the test names
call it that. Open may start from it only while its savepoint matches the
journal; every case here must reach the height, tip hash and state that a
full replay of the same journal, with no store, reaches. A store that
fails a read must fail the command, never answer it, and the next open
rebuilds the store from the journal.
"""

import hashlib
import os
import shutil
import sqlite3
import tempfile
import zlib
from collections import Counter
from contextlib import closing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iotid import journal as journal_module
from iotid import state as state_module
from iotid.assets import query_all_assets, query_owned_assets
from iotid.cli import main as cli_main
from iotid.clock import SimClock
from iotid.codec import canonical_json
from iotid.did import derive_address
from iotid.gateway import Gateway
from iotid.idm import Session
from iotid.journal import (
    BLOCKS_FILE,
    MVCC_CONFLICT,
    VALID,
    Block,
    GenesisConfig,
    LedgerError,
    Member,
    UnsupportedFormat,
    verify_chain_file,
)
from iotid.ledger import LOCK_FILE, STATE_FILE, ContractError, LedgerEngine
from iotid.state import CorruptStore, WorldState
from iotid.store import ContentStore

from util import (
    AssetRecord,
    Principal,
    make_engine,
    register_device,
    registrar_principal,
    reopen_engine,
    upload_payload,
)

# one peer keeps each of the many commits cheap
SOLO = GenesisConfig(peers=[Member("peer1", bytes(32))], registrars=[])
# blocks after block 0 in the ``stored`` fixture's ledger
BLOCKS = 40
# the files of the store, as every close leaves them: the -journal is
# SQLite's rollback journal, truncated to zero length at each commit
JOURNAL = STATE_FILE + "-journal"
STORE_FILES = [STATE_FILE, JOURNAL]


def grow(engine, writer, blocks, tag="v"):
    for _ in range(blocks):
        key = f"k{engine.height % 7}"
        engine.submit(writer.proposal(engine, "kv", "set", [key, f"{tag}{engine.height}"]))
        engine.flush()


def seen(engine):
    height, tip_hash, _ = engine.state.tip
    return height, tip_hash, engine.state.items()


def observe(base):
    engine = reopen_engine(base)
    try:
        return seen(engine)
    finally:
        engine.close()


def full_replay(base):
    """What an open of a copy of the journal, with no store, sees."""
    ref = base / "full-replay"
    shutil.rmtree(ref, ignore_errors=True)
    shutil.copytree(base / "ledger", ref / "ledger",
                    ignore=shutil.ignore_patterns(STATE_FILE + "*", LOCK_FILE))
    return observe(ref)


def crash(engine):
    """End an engine as a killed process would: its blocks are in the
    journal, and the store keeps the savepoint of the last flush."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(WorldState, "flush", lambda state: None)
        engine.close()


def store_of(base):
    return base / "ledger" / STATE_FILE


def journal_of(base):
    return base / "ledger" / JOURNAL


def journal_mode(engine):
    (mode,), = engine.state._db.execute("PRAGMA journal_mode").fetchall()
    return mode


class KilledAtCommit:
    """A store connection whose COMMIT ends the process, as a kill would."""

    def __init__(self, db):
        self._db = db

    def execute(self, sql, *args):
        if sql == "COMMIT":
            os._exit(0)
        return self._db.execute(sql, *args)

    def executemany(self, sql, rows):
        return self._db.executemany(sql, rows)


def killed_flush(base, work):
    """Reopen the ledger in a forked child, run ``work(engine)``, and kill
    the child in its close's flush, before the flush commits.

    The child's store keeps one page in memory, so the flush writes pages
    of its transaction into the store, and its -journal is hot: the store
    is half written, and the journal holds the pages it replaced.
    """
    before = store_of(base).read_bytes()
    pid = os.fork()
    if pid == 0:
        try:
            engine = reopen_engine(base)
            engine.state._db.execute("PRAGMA cache_size = 1")
            work(engine)
            engine.state._db = KilledAtCommit(engine.state._db)
            engine.close()
        finally:
            os._exit(1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0  # ended at COMMIT, not before
    assert journal_of(base).stat().st_size > 0
    assert store_of(base).read_bytes() != before


def savepoint_height(base):
    (height,), = run_sql(store_of(base), "SELECT height FROM savepoint")
    return height


def store_files(base):
    return sorted(p.name for p in (base / "ledger").iterdir() if p.name.startswith(STATE_FILE))


class Reads:
    """The indices of the journal records read, and the numbers of the
    blocks that ``Block.from_dict`` decoded whole, in order."""

    def __init__(self):
        self.read, self.decoded = [], []

    def clear(self):
        self.read.clear()
        self.decoded.clear()


@pytest.fixture
def reads(monkeypatch):
    seen = Reads()
    read, decode = journal_module._read_record, Block.from_dict
    monkeypatch.setattr(journal_module, "_read_record",
                        lambda index, *args: seen.read.append(index) or read(index, *args))
    monkeypatch.setattr(Block, "from_dict",
                        staticmethod(lambda d: seen.decoded.append(d["number"]) or decode(d)))
    return seen


@pytest.fixture
def stored(tmp_path):
    """A ledger closed at height 1 + BLOCKS, so its store's savepoint is there."""
    engine = make_engine(tmp_path, genesis=SOLO)
    grow(engine, Principal.from_seed(11), BLOCKS)
    engine.close()
    assert savepoint_height(tmp_path) == 1 + BLOCKS
    return tmp_path


def test_close_flushes_what_the_chain_gained_since_the_savepoint(tmp_path, reads):
    writer = Principal.from_seed(11)
    make_engine(tmp_path, genesis=SOLO).close()
    assert savepoint_height(tmp_path) == 1
    reads.clear()
    engine = reopen_engine(tmp_path)
    assert reads.read == [0]  # the savepoint's block is block 0: one read
    assert reads.decoded == []
    assert journal_mode(engine) == "truncate"
    grow(engine, writer, 3)
    engine.close()
    # the close left no -wal or -shm file, and the journal truncated
    assert store_files(tmp_path) == STORE_FILES
    assert journal_of(tmp_path).stat().st_size == 0
    assert savepoint_height(tmp_path) == 4
    written = store_of(tmp_path).read_bytes()

    reads.clear()
    engine = reopen_engine(tmp_path)
    assert reads.read == [0, 3]  # block 0 and the savepoint's block
    assert reads.decoded == []  # the savepoint's block is matched, not decoded
    engine.close()
    assert store_of(tmp_path).read_bytes() == written  # nothing new, nothing written

    reads.clear()
    engine = reopen_engine(tmp_path)
    grow(engine, writer, 2)
    engine.close()
    assert savepoint_height(tmp_path) == 6
    reads.clear()
    assert observe(tmp_path) == full_replay(tmp_path)
    assert reads.read[:2] == [0, 5]


@pytest.mark.parametrize("blocks", [0, 1, BLOCKS])
def test_a_store_less_open_decodes_block_0_alone(tmp_path, reads, blocks):
    # replay reads every record and decodes only the write sets it applies,
    # and block 0's config
    engine = make_engine(tmp_path, genesis=SOLO)
    grow(engine, Principal.from_seed(11), blocks)
    engine.close()
    store_of(tmp_path).unlink()
    reads.clear()
    engine = reopen_engine(tmp_path)
    try:
        assert engine.height == 1 + blocks
        assert reads.read == list(range(1 + blocks))
        assert reads.decoded == []
    finally:
        engine.close()


def test_a_checkpoint_older_than_the_journal(stored, reads):
    # the store lags when an engine dies before its close flushes
    engine = reopen_engine(stored)
    grow(engine, Principal.from_seed(12), 10, tag="w")
    crash(engine)
    assert savepoint_height(stored) == 1 + BLOCKS
    expected = full_replay(stored)
    assert expected[0] == 1 + BLOCKS + 10
    reads.clear()
    assert observe(stored) == expected
    assert reads.read == [0, *range(BLOCKS, BLOCKS + 11)]
    assert reads.decoded == []  # the replayed blocks' write sets alone
    assert savepoint_height(stored) == 1 + BLOCKS + 10  # the query caught it up


def test_a_query_moves_the_checkpoint_to_its_tip(tmp_path, reads):
    # a warm engine's first query flushes, so a crash after it replays only
    # the blocks committed since
    writer = Principal.from_seed(11)
    engine = make_engine(tmp_path, genesis=SOLO)
    grow(engine, writer, 5)
    query_all_assets(engine.state)
    queried = engine.height
    grow(engine, writer, 3)
    crash(engine)
    assert savepoint_height(tmp_path) == queried
    expected = full_replay(tmp_path)
    reads.clear()
    assert observe(tmp_path) == expected
    assert reads.read == [0, *range(queried - 1, queried + 3)]
    assert reads.decoded == []


def test_a_lagging_engine_in_the_same_process_keeps_the_checkpoint_whole(stored):
    # perfbench's check_chain opens a second engine beside a live one; when
    # the second lags, its query must not pull the savepoint back below
    # rows the first engine already flushed
    writer = Principal.from_seed(12)
    first = reopen_engine(stored)
    grow(first, writer, 10, tag="w")  # the store lags at 1 + BLOCKS
    second = reopen_engine(stored)
    try:
        grow(first, writer, 3, tag="x")
        first.state.items()
        assert savepoint_height(stored) == 1 + BLOCKS + 13
        second.state.items()
        assert savepoint_height(stored) == 1 + BLOCKS + 13
        grow(first, writer, 1, tag="y")
    finally:
        second.close()
        first.close()
    assert observe(stored) == full_replay(stored)


def test_a_checkpoint_from_another_ledger(tmp_path, stored, reads):
    # records of the same lengths, so the foreign tipStart starts a record
    # here too: only that record's hash tells the two ledgers apart
    other = tmp_path / "other"
    engine = make_engine(other, genesis=SOLO)
    grow(engine, Principal.from_seed(13), BLOCKS + 20, tag="w")
    engine.close()
    shutil.copy(store_of(stored), store_of(other))
    expected = full_replay(other)
    reads.clear()
    engine = reopen_engine(other)
    try:
        assert seen(engine) == expected
        # block 0 once, for the config, the check and the replay; the
        # savepoint's record, which the check refuses; then a full replay
        # from block 1
        assert reads.read == [0, BLOCKS, *range(1, engine.height)]
        assert reads.decoded == []
    finally:
        engine.close()


def reseal(store, **changes):
    """Change savepoint fields, each by a function of its old value, under
    a check value that matches."""
    (height, tip_hash, tip_start), = run_sql(
        store, "SELECT height, tip_hash, tip_start FROM savepoint")
    point = {"height": height, "tip_hash": tip_hash, "tip_start": tip_start}
    for name, change in changes.items():
        point[name] = change(point[name])
    run_sql(store, "UPDATE savepoint SET height = ?, tip_hash = ?, tip_start = ?, checksum = ?",
            (*point.values(), state_module._check(*point.values())))


def run_sql(store, sql, params=()):
    db = sqlite3.connect(store, isolation_level=None)
    try:
        return db.execute(sql, params).fetchall()
    finally:
        db.close()


@pytest.mark.parametrize("damage", [
    lambda store: reseal(store, height=lambda n: 30),
    lambda store: reseal(store, tip_start=lambda n: n - 1),
    lambda store: reseal(store, tip_start=lambda n: n + 1),
    lambda store: reseal(store, tip_hash=lambda h: bytes(32)),
    lambda store: run_sql(store, "UPDATE savepoint SET height = height - 1"),  # fails its check
    lambda store: run_sql(store, "UPDATE savepoint SET tip_hash = zeroblob(32)"),
    lambda store: run_sql(store, "DELETE FROM savepoint"),
    lambda store: store.write_bytes(b""),
    lambda store: store.write_bytes(bytes(100) + store.read_bytes()[100:]),  # no SQLite header
])
def test_a_damaged_checkpoint(stored, reads, damage):
    damage(store_of(stored))
    expected = full_replay(stored)
    reads.clear()
    engine = reopen_engine(stored)
    try:
        assert seen(engine) == expected
        # block 0 once, the savepoint's record if the check got to it, then
        # a full replay from block 1
        assert reads.read[0] == 0 and reads.read.count(0) == 1
        assert reads.read[1 - engine.height:] == list(range(1, engine.height))
        assert len(reads.read) <= engine.height + 1
        assert reads.decoded == []
    finally:
        engine.close()
    # the close after a full replay wrote a good store again
    reads.clear()
    assert observe(stored) == expected
    assert reads.read == [0, expected[0] - 1]
    assert reads.decoded == []


@pytest.mark.parametrize("nonce", [1, BLOCKS])
def test_a_damaged_replay_index_row_fails_its_read_and_is_rebuilt(stored, nonce):
    # the row of the writer's first or last proposal fails its check: the
    # replay's refusal reads it, fails the command and deletes the store, and
    # the next open rebuilds the index from the journal and refuses the replay
    run_sql(store_of(stored), "UPDATE proposal SET checksum = checksum + 1 WHERE nonce = ?",
            (nonce.to_bytes(32, "big"),))
    writer = Principal(keypair=Principal.from_seed(11).keypair, _nonce=nonce - 1)
    engine = reopen_engine(stored)
    try:
        replay = writer.proposal(engine, "kv", "set", ["k", "again"])
        with pytest.raises(CorruptStore, match="fails its check"):
            engine.submit(replay)
        assert store_files(stored) == []
    finally:
        engine.close()
    engine = reopen_engine(stored)
    try:
        assert engine.last_nonce(writer.address) == BLOCKS
        with pytest.raises(ContractError, match="NonceReplayed"):
            engine.submit(replay)
    finally:
        engine.close()


def test_a_last_record_longer_than_the_read_window(tmp_path, reads):
    # the savepoint's block is read whole from its tipStart, however long
    # the record: over 64 KiB here
    writer = Principal.from_seed(11)
    engine = make_engine(tmp_path, genesis=SOLO)
    grow(engine, writer, 3)
    engine.submit(writer.proposal(engine, "kv", "set", ["big", "x" * 100_000]))
    engine.flush()
    engine.close()
    journal = (tmp_path / "ledger" / BLOCKS_FILE).read_bytes()
    assert len(journal) - journal.rindex(b"\n", 0, len(journal) - 1) > 1 << 16
    expected = full_replay(tmp_path)
    reads.clear()
    assert observe(tmp_path) == expected
    assert reads.read == [0, 4]
    assert reads.decoded == []


def test_an_unreadable_checkpoint(stored, reads, monkeypatch):
    # e.g. written 0o600 by another user who shares the ledger directory:
    # no store file opens, and none can be made, so the store is made in
    # memory
    real = sqlite3.connect

    def refuse(path, *args, **kwargs):
        if path == ":memory:":
            return real(path, *args, **kwargs)
        raise sqlite3.OperationalError("unable to open database file")

    expected = full_replay(stored)
    monkeypatch.setattr(state_module.sqlite3, "connect", refuse)
    reads.clear()
    assert observe(stored) == expected
    assert reads.read == list(range(expected[0]))
    assert reads.decoded == []


def test_a_journal_torn_below_the_checkpoint(stored):
    journal = stored / "ledger" / BLOCKS_FILE
    data = journal.read_bytes()
    end_of_block_29 = [i for i, byte in enumerate(data) if byte == ord("\n")][29] + 1
    journal.write_bytes(data[:end_of_block_29 + 40])  # mid-way through block 30
    expected = full_replay(stored)
    assert expected[0] == 30
    assert observe(stored) == expected
    assert journal.read_bytes() == data[:end_of_block_29]
    assert savepoint_height(stored) == 30  # rebuilt at the cut


def test_a_journal_torn_above_the_checkpoint(stored, reads):
    engine = reopen_engine(stored)
    grow(engine, Principal.from_seed(12), 3, tag="w")
    crash(engine)  # the savepoint stays at 1 + BLOCKS
    journal = stored / "ledger" / BLOCKS_FILE
    data = journal.read_bytes()
    journal.write_bytes(data[:-7])
    expected = full_replay(stored)
    assert expected[0] == 1 + BLOCKS + 2
    reads.clear()
    assert observe(stored) == expected
    assert reads.read[:2] == [0, BLOCKS]  # torn off from the savepoint on
    assert journal.read_bytes() == data[:data.rindex(b"\n", 0, len(data) - 1) + 1]


def test_forced_create_discards_the_checkpoint(stored):
    # a store as a crash leaves it: a flush killed before its commit left
    # it half written, beside a hot journal
    killed_flush(stored, lambda engine: grow(engine, Principal.from_seed(12), 3, tag="w"))
    assert store_files(stored) == STORE_FILES
    engine = LedgerEngine.create(stored / "ledger", SOLO, ContentStore(stored / "objects"), {},
                                 clock=SimClock(), force=True)
    try:
        fresh = seen(engine)
        assert [key for key, _ in engine.state.items()] == ["config/registrars"]
    finally:
        engine.close()
    assert fresh[0] == 1
    assert store_files(stored) == STORE_FILES
    assert journal_of(stored).stat().st_size == 0
    assert savepoint_height(stored) == 1
    assert observe(stored) == fresh == full_replay(stored)


REGISTRAR_GENESIS = GenesisConfig(peers=[Member("peer1", bytes(32))],
                                  registrars=[Member("registrar", bytes([1]) * 32)])
DEVICES = [Principal.from_seed(21), Principal.from_seed(22)]


def test_a_flush_killed_before_its_commit_is_rolled_back_at_the_next_open(tmp_path, reads):
    engine = make_engine(tmp_path, genesis=REGISTRAR_GENESIS)
    registrar = registrar_principal(engine)
    for device in DEVICES:
        register_device(engine, registrar, device)
    for n in range(5):
        upload_round(engine, DEVICES, n)
    engine.close()
    saved = savepoint_height(tmp_path)
    killed_flush(tmp_path, lambda engine: [upload_round(engine, DEVICES, f"more{n}")
                                           for n in range(20)])
    replayed = tmp_path / "replayed"
    shutil.copytree(tmp_path / "ledger", replayed / "ledger",
                    ignore=shutil.ignore_patterns(STATE_FILE + "*", LOCK_FILE))
    reads.clear()
    # the open rolls the journal back, takes the store at its old
    # savepoint, and replays the 20 blocks that the child committed
    from_store = reopen_engine(tmp_path)
    from_genesis = reopen_engine(replayed)
    try:
        assert reads.read[:22] == [0, *range(saved - 1, saved + 20)]
        assert seen(from_store) == seen(from_genesis)
        listings = asset_queries(from_genesis, DEVICES)
        assert asset_queries(from_store, DEVICES) == listings
        assert len(listings[0]) == 2 * 25
    finally:
        from_store.close()
        from_genesis.close()
    assert store_files(tmp_path) == STORE_FILES
    assert journal_of(tmp_path).stat().st_size == 0
    assert savepoint_height(tmp_path) == saved + 20


def drop_the_store(base, hot):
    engine = reopen_engine(base)
    try:
        hot()
        engine.state._drop("replaced")
        assert not journal_of(base).exists()
        with pytest.raises(CorruptStore, match="replaced"):
            engine.state.items()
    finally:
        engine.close()


def force_create(base, hot):
    hot()
    LedgerEngine.create(base / "ledger", SOLO, ContentStore(base / "objects"), {},
                        clock=SimClock(), force=True).close()


def network_init_force(base, hot):
    hot()
    assert cli_main(["--ledger-dir", str(base / "ledger"), "--keystore-dir", str(base / "keys"),
                     "--machine", "network-init", "--force"]) == 0


@pytest.mark.parametrize("replace", [drop_the_store, force_create, network_init_force],
                         ids=["_drop", "_new_store", "network-init --force"])
def test_a_journal_from_another_store_is_removed_with_the_store(tmp_path, stored, replace):
    # a hot journal that another store's killed flush left; beside this
    # store, it would write that store's pages into this one
    other = tmp_path / "other"
    make_engine(other, genesis=SOLO).close()
    killed_flush(other, lambda engine: grow(engine, Principal.from_seed(13), 10, tag="w"))
    foreign = journal_of(other).read_bytes()
    replace(stored, lambda: journal_of(stored).write_bytes(foreign))
    expected = full_replay(stored)
    assert observe(stored) == expected
    assert store_files(stored) == STORE_FILES
    assert journal_of(stored).stat().st_size == 0
    assert savepoint_height(stored) == expected[0]


def test_an_outside_reader_holds_up_a_flush_until_the_store_is_deleted(stored):
    # a rollback journal's readers and writer exclude each other: a flush
    # waits out the busy timeout for a read that another program holds
    # open, then fails and deletes the store, which the next open rebuilds
    engine = reopen_engine(stored)
    try:
        engine.state._db.execute("PRAGMA busy_timeout = 50")  # sqlite3's default is 5 s
        grow(engine, Principal.from_seed(12), 3, tag="w")
        with closing(sqlite3.connect(store_of(stored), isolation_level=None)) as reader:
            reader.execute("BEGIN")
            reader.execute("SELECT count(*) FROM state").fetchall()
            engine.state.flush()
            assert store_files(stored) == []
        with pytest.raises(CorruptStore, match="database is locked"):
            engine.state.items()
    finally:
        engine.close()
    assert observe(stored) == full_replay(stored)
    assert savepoint_height(stored) == 1 + BLOCKS + 3


# the store's pragmas in the format's WAL versions, which left a -wal and a
# -shm file beside a store that a reader held open
WAL_PRAGMAS = """
PRAGMA journal_mode = WAL;
PRAGMA synchronous = OFF;
"""


def test_a_store_left_in_wal_mode_opens_with_every_row(tmp_path, reads, monkeypatch):
    # its last flush is still in its -wal file: a reader held the store
    # open through the close, so SQLite did not fold the -wal file back
    with monkeypatch.context() as patch:
        patch.setattr(state_module, "_PRAGMAS", WAL_PRAGMAS)
        engine = make_engine(tmp_path, genesis=SOLO)
        grow(engine, Principal.from_seed(11), 3)
        with closing(sqlite3.connect(store_of(tmp_path))) as reader:
            reader.execute("SELECT count(*) FROM state").fetchall()
            engine.close()
            shutil.copytree(tmp_path / "ledger", tmp_path / "wal" / "ledger",
                            ignore=shutil.ignore_patterns(LOCK_FILE))
    wal = tmp_path / "wal"
    assert store_files(wal) == [STATE_FILE, STATE_FILE + "-shm", STATE_FILE + "-wal"]
    assert (wal / "ledger" / (STATE_FILE + "-wal")).stat().st_size > 0
    expected = full_replay(wal)
    reads.clear()
    engine = reopen_engine(wal)
    try:
        assert reads.read == [0, 3]  # block 0 and the savepoint that the -wal file held
        assert journal_mode(engine) == "truncate"
        assert seen(engine) == expected
    finally:
        engine.close()
    assert store_files(wal) == STORE_FILES
    assert journal_of(wal).stat().st_size == 0


def test_a_block_cut_below_the_checkpoint_breaks_the_chain(stored):
    journal = stored / "ledger" / BLOCKS_FILE
    lines = journal.read_bytes().splitlines(keepends=True)
    journal.write_bytes(b"".join(lines[:10] + lines[11:]))
    with pytest.raises(LedgerError, match="broken chain link at block 10"):
        reopen_engine(stored)


def flip_byte_in(path, needle, occurrence=0, count=1):
    data = path.read_bytes()
    assert data.count(needle) == count
    at = -1
    for _ in range(occurrence + 1):
        at = data.index(needle, at + 1)
    at += len(needle) // 2
    path.write_bytes(data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:])


def test_a_flipped_byte_in_a_stored_value_fails_the_read(tmp_path):
    writer = Principal.from_seed(11)
    engine = make_engine(tmp_path, genesis=SOLO)
    engine.submit(writer.proposal(engine, "kv", "set", ["needle", "stored-value-0123456789"]))
    engine.flush()
    grow(engine, writer, 3)
    engine.close()
    flip_byte_in(store_of(tmp_path), b"stored-value-0123456789")
    expected = full_replay(tmp_path)
    engine = reopen_engine(tmp_path)
    try:
        assert engine.state.get("kv/k2") is not None  # an intact row still reads
        with pytest.raises(CorruptStore, match="kv/needle"):
            engine.state.get("kv/needle")
        assert store_files(tmp_path) == []  # dropped at once
        with pytest.raises(CorruptStore):  # and no later read answers
            engine.state.range("kv/")
    finally:
        engine.close()
    assert store_files(tmp_path) == []
    assert observe(tmp_path) == expected  # rebuilt from the journal
    assert savepoint_height(tmp_path) == expected[0]

    # an asset record's name is in its row twice, in the value and in the
    # listed column, which a listing reads in its place
    path = tmp_path / "assets" / STATE_FILE
    path.parent.mkdir()
    state = WorldState(path)
    key, value = record_write(0, _OWNERS[0], 7)
    state.apply([(key, value)], (1, 0))
    state.flush()
    state.close()
    flip_byte_in(path, b"0.txt", occurrence=1, count=2)
    state = WorldState(path)
    db = state._db
    try:
        with pytest.raises(CorruptStore, match=key):
            state.assets(_OWNERS[0])
        assert not path.exists()
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            db.execute("SELECT 1")  # the dropped store's connection is closed
    finally:
        state.close()


def test_a_read_after_close_is_a_ledger_error(tmp_path):
    state = WorldState(tmp_path / STATE_FILE)
    state.close()
    with pytest.raises(LedgerError, match="read after its ledger closed"):
        state.get("kv/k")


def test_a_zeroed_store_header_rebuilds_the_store(stored, reads):
    store = store_of(stored)
    store.write_bytes(bytes(4096) + store.read_bytes()[4096:])
    expected = full_replay(stored)
    reads.clear()
    assert observe(stored) == expected
    assert reads.read == list(range(expected[0]))
    assert reads.decoded == []
    assert savepoint_height(stored) == expected[0]


def test_a_truncated_store_rebuilds_the_store(stored, reads):
    # SQLite finds the file shorter than its header says at the first read
    store = store_of(stored)
    data = store.read_bytes()
    store.write_bytes(data[:len(data) // 2])
    expected = full_replay(stored)
    reads.clear()
    assert observe(stored) == expected
    assert reads.read == list(range(expected[0]))
    assert reads.decoded == []
    assert savepoint_height(stored) == expected[0]


def test_cli_listings_fail_on_a_damaged_row_and_then_rebuild(tmp_path):
    gw = Gateway(tmp_path / "ledger", tmp_path / "keystore", clock=SimClock())
    gw.cmd_network_init()
    gw.cmd_device_keygen("dev1", seed=bytes([5]) * 32)
    gw.cmd_device_register("dev1", "ABCDEF00001")
    gw.cmd_device_login("dev1")
    for n in range(3):
        path = tmp_path / f"reading-{n}.txt"
        path.write_bytes(f"reading {n}".encode())
        gw.cmd_asset_upload("dev1", str(path))
    argv = ["--ledger-dir", str(tmp_path / "ledger"),
            "--keystore-dir", str(tmp_path / "keystore"), "--machine"]
    assert cli_main([*argv, "device-login", "dev1"]) == 0
    # the asset name is in the row twice: in the stored value, then in the
    # listed column that the listings read instead of the value
    for occurrence, listing in [(0, ["--mine", "dev1"]), (1, ["--mine", "dev1"]), (1, [])]:
        flip_byte_in(store_of(tmp_path), b"reading-1.txt", occurrence, count=2)
        assert cli_main([*argv, "asset-list", *listing]) == 1
        assert store_files(tmp_path) == []
        assert gw.cmd_asset_list(mine="dev1")["count"] == 3
        assert gw.cmd_asset_list()["count"] == 3


_histories = st.lists(st.one_of(
    st.tuples(st.just("grow"), st.integers(1, 50)),
    st.tuples(st.just("reopen"), st.none()),
    st.tuples(st.just("crash"), st.none()),
    st.tuples(st.just("delete"), st.none()),
    st.tuples(st.just("tear"), st.integers(1, 4000)),
), min_size=1, max_size=8)


@settings(max_examples=20, deadline=None)
@given(_histories)
def test_any_history_opens_to_the_full_replay_state(history):
    # commits, reopens, crashes before the flush (the savepoint lags and
    # the tail replays), deleted stores and torn appends, at random
    # points; each reopen must see what a full replay sees, and a torn
    # append must cost exactly the block it tore
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
                if kind == "crash":
                    crash(engine)
                else:
                    engine.close()
                if kind == "delete":
                    for name in STORE_FILES:
                        (base / "ledger" / name).unlink(missing_ok=True)
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


# blocks of three, so that submits cut blocks of their own between flushes
SOLO_THREES = GenesisConfig(peers=[Member("peer1", bytes(32))], registrars=[], max_block_txs=3)

_replays = st.lists(st.one_of(
    st.tuples(st.just("submit"), st.integers(0, 1)),  # by one of two writers
    st.tuples(st.just("repeat"), st.integers(0, 2**16)),  # an earlier proposal, as signed
    st.tuples(st.just("flush"), st.none()),
    st.tuples(st.sampled_from(["reopen", "crash", "delete"]), st.none()),
), min_size=1, max_size=30)


def replay_index(base):
    """The ``(invoker, nonce)`` rows of a closed ledger's store."""
    return set(run_sql(store_of(base), "SELECT invoker, nonce FROM proposal"))


@settings(max_examples=20, deadline=None)
@given(_replays)
def test_a_proposal_commits_valid_at_most_once(history):
    # proposals submitted, repeated as signed, cut into blocks by a full
    # batch or a flush, across reopens from the store, crashes before the
    # store's flush and store-less rebuilds: a proposal whose invoker and
    # nonce a VALID one committed is refused at execution, two copies in
    # one block leave the first VALID and the second an MVCC conflict, and
    # the store's replay index is the one a full replay builds
    writers = [Principal.from_seed(14), Principal.from_seed(15)]
    made, pending = [], []  # every proposal submitted; the (invoker, nonce) of each pending
    # block 0's proposal is indexed too, under the address of its all-zero key
    committed = {(str(derive_address(bytes(32))), bytes(32))}
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        engine = make_engine(base, genesis=SOLO_THREES)

        def cut():
            # the flags the last block must hold: the first copy of each pair VALID
            flags, seen = [], set()
            for pair in pending:
                flags.append(MVCC_CONFLICT if pair in seen else VALID)
                seen.add(pair)
            assert engine.read_blocks()[-1].validation_flags == flags
            committed.update(seen)
            pending.clear()

        try:
            for kind, arg in history + [("flush", None), ("reopen", None)]:
                if kind == "submit":
                    made.append(writers[arg].proposal(engine, "kv", "set", [f"k{len(made)}", "v"]))
                if kind in ("submit", "repeat") and made:
                    proposal = made[-1 if kind == "submit" else arg % len(made)]
                    pair = (str(proposal.invoker), proposal.nonce)
                    if pair in committed:
                        with pytest.raises(ContractError) as refused:
                            engine.submit(proposal)
                        assert refused.value.code == "NonceReplayed"
                        continue
                    engine.submit(proposal)
                    pending.append(pair)
                    if len(pending) == SOLO_THREES.max_block_txs:
                        cut()
                elif kind == "flush":
                    if engine.flush() is not None:
                        cut()
                elif kind in ("reopen", "crash", "delete"):
                    pending.clear()  # an engine closes with its pending batch uncommitted
                    if kind == "crash":
                        crash(engine)
                    else:
                        engine.close()
                    if kind == "delete":
                        for name in STORE_FILES:
                            (base / "ledger" / name).unlink(missing_ok=True)
                    engine = reopen_engine(base)
                    for proposal in made:  # each committed proposal is refused again
                        if (str(proposal.invoker), proposal.nonce) in committed:
                            with pytest.raises(ContractError, match="NonceReplayed"):
                                engine.execute_proposal(proposal)
            valid = Counter((str(tx.proposal.invoker), tx.proposal.nonce)
                            for block in engine.read_blocks() for tx, flag
                            in zip(block.transactions, block.validation_flags) if flag == VALID)
        finally:
            engine.close()
        assert set(valid) == committed and set(valid.values()) == {1}
        assert replay_index(base) == committed
        full_replay(base)
        assert replay_index(base / "full-replay") == committed


def upload_round(engine, devices, tag):
    # both uploads sign at the same clock reading and share one block, so
    # their addedAt ties and only the dataId orders them
    for n, device in enumerate(devices):
        upload_payload(engine, device, f"{tag}/{n}".encode(), flush=False)
    engine.flush()


def asset_queries(engine, devices):
    # the owner queries come first, so a fresh engine answers them from
    # its store's owner index
    owned = [query_owned_assets(engine.state, Session(did=d.did, expires_at=2**40), 0)
             for d in devices]
    return query_all_assets(engine.state), owned


def test_assets_from_a_checkpoint_equal_assets_from_a_full_replay(tmp_path, reads):
    genesis = GenesisConfig(peers=[Member("peer1", bytes(32))],
                            registrars=[Member("registrar", bytes([1]) * 32)])
    devices = [Principal.from_seed(21), Principal.from_seed(22)]
    engine = make_engine(tmp_path, genesis=genesis)
    registrar = registrar_principal(engine)
    for device in devices:
        register_device(engine, registrar, device)
    for n in range(BLOCKS):
        upload_round(engine, devices, n)
    engine.close()
    replayed = tmp_path / "replayed"
    shutil.copytree(tmp_path / "ledger", replayed / "ledger",
                    ignore=shutil.ignore_patterns(STATE_FILE + "*", LOCK_FILE))
    shutil.copytree(tmp_path / "objects", replayed / "objects")

    reads.clear()
    # both clocks restart at 0, below every committed addedAt, so the
    # uploads below land at the front of the order, not the end
    from_store = reopen_engine(tmp_path)
    assert len(reads.read) == 2
    assert reads.decoded == []
    from_genesis = reopen_engine(replayed)
    try:
        assert asset_queries(from_store, devices) == asset_queries(from_genesis, devices)
        assert len(asset_queries(from_genesis, devices)[0]) == 2 * BLOCKS
        for n in range(3):
            for engine in (from_store, from_genesis):
                upload_round(engine, devices, f"more{n}")
            assert asset_queries(from_store, devices) == \
                asset_queries(from_genesis, devices)
        assert len(asset_queries(from_genesis, devices)[0]) == 2 * BLOCKS + 6
    finally:
        from_store.close()
        from_genesis.close()


def test_a_cold_owner_query_reads_only_the_owners_rows(tmp_path, monkeypatch):
    genesis = GenesisConfig(peers=[Member("peer1", bytes(32))],
                            registrars=[Member("registrar", bytes([1]) * 32)])
    devices = [Principal.from_seed(21), Principal.from_seed(22)]
    engine = make_engine(tmp_path, genesis=genesis)
    registrar = registrar_principal(engine)
    for device in devices:
        register_device(engine, registrar, device)
    for n in range(10):
        upload_payload(engine, devices[n % 5 == 0], f"{n}".encode())
    engine.close()
    rows = []
    real = WorldState._rows

    def counted(state, *args):
        result = real(state, *args)
        rows.extend(result)
        return result

    monkeypatch.setattr(WorldState, "_rows", counted)
    engine = reopen_engine(tmp_path)
    try:
        session = Session(did=devices[1].did, expires_at=2**40)
        assert len(query_owned_assets(engine.state, session, 0)) == 2
        assert [row[0] for row in rows] == \
            ["asset/" + r["dataId"] for r in query_owned_assets(engine.state, session, 0)]
        assert engine.state._listing is None  # and it built no listing
    finally:
        engine.close()


# the store as the format before the listed columns wrote it: no columns
# for an asset record's fields, no format number, and each check over the
# columns it had
PARENT_SCHEMA = """
CREATE TABLE state (
    key TEXT PRIMARY KEY, value BLOB NOT NULL, block INTEGER NOT NULL,
    tx INTEGER NOT NULL, owner TEXT, checksum INTEGER NOT NULL) WITHOUT ROWID;
CREATE INDEX state_owner ON state (owner) WHERE owner IS NOT NULL;
CREATE TABLE savepoint (
    height INTEGER NOT NULL, tip_hash BLOB NOT NULL, tip_start INTEGER NOT NULL,
    checksum INTEGER NOT NULL);
"""


def parent_check(key, value, block=None, tx=None, owner=None):
    return zlib.crc32(value, zlib.crc32(f"{key}\0{block}\0{tx}\0{owner}".encode()))


def to_parent_format(store):
    rows = run_sql(store, "SELECT key, value, block, tx, owner FROM state")
    point = run_sql(store, "SELECT height, tip_hash, tip_start FROM savepoint")[0]
    for name in STORE_FILES:
        store.with_name(name).unlink(missing_ok=True)
    db = sqlite3.connect(store)
    db.executescript(PARENT_SCHEMA)
    db.executemany("INSERT INTO state VALUES (?, ?, ?, ?, ?, ?)",
                   [(*row, parent_check(*row)) for row in rows])
    db.execute("INSERT INTO savepoint VALUES (?, ?, ?, ?)", (*point, parent_check(*point)))
    db.commit()
    db.close()


@pytest.mark.parametrize("change", [
    to_parent_format,
    # format 2 listed a record whose owner is no DID
    lambda store: run_sql(store, "PRAGMA user_version = 2"),
    # format 4 kept used nonces as nonce/ keys, and has no replay index
    lambda store: [run_sql(store, sql) for sql in ("DROP TABLE proposal",
                                                   "PRAGMA user_version = 4")],
    lambda store: run_sql(store, "PRAGMA user_version = 99"),  # a later format
], ids=["parent", "format2", "format4", "later"])
def test_a_store_of_another_format_is_rebuilt_at_open(tmp_path, reads, change):
    genesis = GenesisConfig(peers=[Member("peer1", bytes(32))],
                            registrars=[Member("registrar", bytes([1]) * 32)])
    devices = [Principal.from_seed(21), Principal.from_seed(22)]
    engine = make_engine(tmp_path, genesis=genesis)
    registrar = registrar_principal(engine)
    for device in devices:
        register_device(engine, registrar, device)
    for n in range(3):
        upload_round(engine, devices, n)
    height = engine.height
    engine.close()
    change(store_of(tmp_path))
    reads.clear()
    engine = reopen_engine(tmp_path)
    try:
        assert reads.read == list(range(height))  # a full replay
        assert reads.decoded == []
        assert len(asset_queries(engine, devices)[0]) == 6
    finally:
        engine.close()
    assert run_sql(store_of(tmp_path), "PRAGMA user_version") == [(state_module._STORE_FORMAT,)]
    assert savepoint_height(tmp_path) == height
    reads.clear()
    engine = reopen_engine(tmp_path)
    try:
        assert reads.decoded == []  # the rebuilt store is taken
        assert len(asset_queries(engine, devices)[0]) == 6
    finally:
        engine.close()


_keys = st.builds(lambda p, s: p + s, st.sampled_from(["a/", "ab/", "asset/", "b/"]),
                  st.text("ab/x", max_size=3))
_values = st.one_of(st.binary(min_size=1, max_size=2),
                    st.sampled_from([b'{"owner":"o1"}', b'{"owner":"o2"}']))


_OWNERS = ["did:iotid:o1", "did:iotid:o2"]


def record_write(n, owner, added_at):
    """An asset record under the key of data id ``n``: one of few keys, so
    that records get rewritten with another owner and addedAt."""
    data_id = hashlib.sha256(bytes([n])).hexdigest()
    return "asset/" + data_id, canonical_json({"addedAt": added_at, "assetName": f"{n}.txt",
                                               "dataId": data_id, "owner": owner})


_writes = st.one_of(st.tuples(_keys, _values),
                    st.builds(record_write, st.integers(0, 3), st.sampled_from(_OWNERS),
                              st.integers(0, 2)))
_steps = st.lists(st.one_of(
    st.tuples(st.just("apply"), st.lists(_writes, min_size=1, max_size=4)),
    st.tuples(st.just("flush"), st.none()),
    st.tuples(st.just("reopen"), st.none()),
    st.tuples(st.just("get"), _keys),
    st.tuples(st.just("range"), st.sampled_from(["", "a", "a/", "asset/", "b/", "z"])),
    st.tuples(st.just("assets"), st.sampled_from([None, *_OWNERS])),
), max_size=30)


def listed(model, owner):
    """The model's listing rows, the slow way; None if a listing of all is refused."""
    rows = []
    for key, (value, _) in model.items():
        if key.startswith("asset/"):
            if len(key) != 70:  # a value of _values, under a key of _keys
                if owner is None:
                    return None
                continue
            rows.append(AssetRecord.from_bytes(value).to_dict())
    return sorted((row for row in rows if owner in (None, row["owner"])),
                  key=lambda row: (row["addedAt"], row["dataId"]))


@given(_steps)
def test_a_stored_state_reads_like_a_plain_dict(steps):
    # reads at random points between writes, flushes and reopens of the
    # store must match a dict that holds every write
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / STATE_FILE
        state, model, flushed = WorldState(path), {}, {}
        try:
            for n, (kind, arg) in enumerate(steps, start=1):
                if kind == "apply":
                    state.apply(arg, (n, 0))
                    model.update((key, (value, (n, 0))) for key, value in arg)
                elif kind == "flush":
                    state.tip = (n, bytes(32), 0)
                    state.flush()
                    flushed = dict(model)
                elif kind == "reopen":  # what was not flushed is lost
                    state.close()
                    state, model = WorldState(path), dict(flushed)
                    state.tip = state.savepoint() or state.tip  # as an engine's open does
                elif kind == "get":
                    assert state.get(arg) == model.get(arg)
                elif kind == "range":  # a query flushes first
                    assert state.range(arg) == [(k, *v) for k, v in sorted(model.items())
                                                if k.startswith(arg)]
                    flushed = dict(model)
                else:
                    expected = listed(model, arg)
                    if expected is None:
                        with pytest.raises(UnsupportedFormat):
                            state.assets(arg)
                    else:
                        assert state.assets(arg) == expected
                    flushed = dict(model)
            assert state.items() == sorted(model.items())
            assert len(state) == len(model)
        finally:
            state.close()
