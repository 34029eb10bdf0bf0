"""The world-state store beside the journal, and its savepoint.

The store is the ledger's checkpoint of world state, and the test names
call it that. Open may start from it only while its savepoint matches the
journal; every case here must reach the height, tip hash and state that a
full replay of the same journal, with no store, reaches. A store that
fails a read must fail the command, never answer it, and the next open
rebuilds the store from the journal.
"""

import json
import shutil
import sqlite3
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iotid import assets as assets_module
from iotid import ledger as ledger_module
from iotid.assets import query_all_assets, query_owned_assets
from iotid.cli import main as cli_main
from iotid.clock import SimClock
from iotid.gateway import Gateway
from iotid.idm import Session
from iotid.ledger import (
    BLOCKS_FILE,
    LOCK_FILE,
    STATE_FILE,
    CorruptStore,
    GenesisConfig,
    LedgerEngine,
    LedgerError,
    Member,
    WorldState,
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
# blocks after block 0 in the ``stored`` fixture's ledger
BLOCKS = 40
STORE_FILES = [STATE_FILE, STATE_FILE + "-wal", STATE_FILE + "-shm"]


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


def savepoint_height(base):
    (height,), = run_sql(store_of(base), "SELECT height FROM savepoint")
    return height


def store_files(base):
    return sorted(p.name for p in (base / "ledger").iterdir() if p.name.startswith(STATE_FILE))


class Reads:
    """The indices of the journal records read, and of those decoded, in order."""

    def __init__(self):
        self.read, self.decoded = [], []

    def clear(self):
        self.read.clear()
        self.decoded.clear()


@pytest.fixture
def reads(monkeypatch):
    seen = Reads()
    read, decode = ledger_module._read_record, ledger_module._decode
    monkeypatch.setattr(ledger_module, "_read_record",
                        lambda index, *args: seen.read.append(index) or read(index, *args))
    monkeypatch.setattr(ledger_module, "_decode",
                        lambda raw, *args: seen.decoded.append(json.loads(raw)["number"])
                        or decode(raw, *args))
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
    assert reads.read == reads.decoded == [0]  # the savepoint's block is block 0: one read
    grow(engine, writer, 3)
    engine.close()
    assert store_files(tmp_path) == [STATE_FILE]  # SQLite's -wal and -shm went at close
    assert savepoint_height(tmp_path) == 4
    written = store_of(tmp_path).read_bytes()

    reads.clear()
    engine = reopen_engine(tmp_path)
    assert reads.read == [0, 3]  # block 0 and the savepoint's block
    assert reads.decoded == [0]  # the savepoint's block is matched, not decoded
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
    assert reads.decoded == [0, *range(BLOCKS + 1, BLOCKS + 11)]
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
    assert reads.decoded == [0, *range(queried, queried + 3)]


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
        # a full replay
        assert reads.read[-engine.height:] == list(range(engine.height))
        assert reads.decoded[-engine.height:] == list(range(engine.height))
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
            (*point.values(), ledger_module._check(*point.values())))


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
        assert reads.read[-engine.height:] == list(range(engine.height))
        assert reads.decoded[-engine.height:] == list(range(engine.height))
    finally:
        engine.close()
    # the close after a full replay wrote a good store again
    reads.clear()
    assert observe(stored) == expected
    assert reads.read == [0, expected[0] - 1]
    assert reads.decoded == [0]


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
    assert reads.decoded == [0]


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
    monkeypatch.setattr(ledger_module.sqlite3, "connect", refuse)
    reads.clear()
    assert observe(stored) == expected
    assert reads.read == reads.decoded == list(range(expected[0]))


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
    # a store whose last flush is still in its -wal file, as a crash
    # leaves it: a reader holds the store open through the close, so
    # SQLite does not fold the -wal file back, and the copy keeps all three
    engine = reopen_engine(stored)
    grow(engine, Principal.from_seed(12), 3, tag="w")
    with sqlite3.connect(store_of(stored)) as reader:
        reader.execute("SELECT count(*) FROM state").fetchall()
        engine.close()
        crashed = stored / "crashed"
        shutil.copytree(stored / "ledger", crashed / "ledger",
                        ignore=shutil.ignore_patterns(LOCK_FILE))
    reader.close()
    assert store_files(crashed) == sorted(STORE_FILES)
    assert (crashed / "ledger" / (STATE_FILE + "-wal")).stat().st_size > 0
    engine = LedgerEngine.create(crashed / "ledger", SOLO,
                                 ContentStore(crashed / "objects"), {},
                                 clock=SimClock(), force=True)
    try:
        fresh = seen(engine)
        assert [key for key, _ in engine.state.items()] == ["config/registrars"]
    finally:
        engine.close()
    assert fresh[0] == 1
    assert store_files(crashed) == [STATE_FILE]
    assert savepoint_height(crashed) == 1
    assert observe(crashed) == fresh == full_replay(crashed)


def test_a_block_cut_below_the_checkpoint_breaks_the_chain(stored):
    journal = stored / "ledger" / BLOCKS_FILE
    lines = journal.read_bytes().splitlines(keepends=True)
    journal.write_bytes(b"".join(lines[:10] + lines[11:]))
    with pytest.raises(LedgerError, match="broken chain link at block 10"):
        reopen_engine(stored)


def flip_byte_in(path, needle):
    data = path.read_bytes()
    at = data.index(needle) + len(needle) // 2
    assert data.count(needle) == 1
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


def test_a_zeroed_store_header_rebuilds_the_store(stored, reads):
    store = store_of(stored)
    store.write_bytes(bytes(4096) + store.read_bytes()[4096:])
    expected = full_replay(stored)
    reads.clear()
    assert observe(stored) == expected
    assert reads.read[-expected[0]:] == list(range(expected[0]))
    assert reads.decoded[-expected[0]:] == list(range(expected[0]))
    assert savepoint_height(stored) == expected[0]


def test_a_truncated_store_rebuilds_the_store(stored, reads):
    # SQLite finds the file shorter than its header says at the first read
    store = store_of(stored)
    data = store.read_bytes()
    store.write_bytes(data[:len(data) // 2])
    expected = full_replay(stored)
    reads.clear()
    assert observe(stored) == expected
    assert reads.read[-expected[0]:] == list(range(expected[0]))
    assert reads.decoded[-expected[0]:] == list(range(expected[0]))
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
    flip_byte_in(store_of(tmp_path), b"reading-1.txt")
    assert cli_main([*argv, "asset-list", "--mine", "dev1"]) == 1
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
    assert reads.decoded == [0]
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
        assert [key for key, _, _ in rows] == \
            [f"asset/{r.data_id.hex}" for r in query_owned_assets(engine.state, session, 0)]
        assert engine.state not in assets_module._views  # and it built no view
    finally:
        engine.close()


_keys = st.builds(lambda p, s: p + s, st.sampled_from(["a/", "ab/", "asset/", "b/"]),
                  st.text("ab/x", max_size=3))
_values = st.one_of(st.binary(min_size=1, max_size=2),
                    st.sampled_from([b'{"owner":"o1"}', b'{"owner":"o2"}']))
_steps = st.lists(st.one_of(
    st.tuples(st.just("apply"), st.lists(st.tuples(_keys, _values), min_size=1, max_size=4)),
    st.tuples(st.just("flush"), st.none()),
    st.tuples(st.just("reopen"), st.none()),
    st.tuples(st.just("get"), _keys),
    st.tuples(st.just("range"), st.sampled_from(["", "a", "a/", "asset/", "b/", "z"])),
    st.tuples(st.just("owned"), st.sampled_from(["o1", "o2"])),
), max_size=30)


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
                    owner = b'{"owner":"%s"}' % arg.encode()
                    assert state.owned(arg) == [(k, *v) for k, v in sorted(model.items())
                                                if k.startswith("asset/") and v[0] == owner]
                    flushed = dict(model)
            assert state.items() == sorted(model.items())
            assert len(state) == len(model)
        finally:
            state.close()
