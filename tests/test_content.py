"""Upload content is written at commit, for VALID transactions only.

Endorsers stage an upload's payload on its transaction and write nothing;
the commit writes the payloads of a block's VALID transactions as one
file for the block, before it appends the block to the journal. These
tests check that rejected or uncommitted uploads leave ``objects/`` as it
was, that a fault on either side of the append leaves a ledger that
opens as it was, and that every committed payload reads back by its
dataId and the block of its state version. Expected values come from
hashlib and plain file reads, not from the code under test.
"""

import builtins
import errno
import hashlib
import io

import pytest

from iotid import ledger as ledger_module
from iotid.clock import SimClock
from iotid.journal import (
    BLOCKS_FILE,
    MVCC_CONFLICT,
    POLICY_FAILURE,
    VALID,
    GenesisConfig,
    verify_chain_file,
)
from iotid.ledger import LedgerEngine, NonSequentialBlock
from iotid.state import KEY_ASSET
from iotid.store import ContentHash, ContentNotFound, ContentStore, IntegrityFailure

from util import (
    KvContract,
    Principal,
    make_engine,
    register_device,
    reopen_engine,
    state_snapshot,
    upload_payload,
)


def objects_bytes(tmp_path) -> dict[str, bytes]:
    """Every file in ``objects/`` by name, with its bytes."""
    objects = tmp_path / "objects"
    return {p.name: p.read_bytes() for p in objects.iterdir()} if objects.exists() else {}


def upload(device, engine, payload: bytes, name: str = "reading.txt"):
    return device.proposal(engine, "asset", "uploadAsset",
                           [str(device.did), name, payload.hex()])


def data_id(payload: bytes) -> ContentHash:
    return ContentHash(hashlib.sha256(payload).digest())


def assert_contents_read_back(engine, store: ContentStore) -> int:
    """Each ``asset/`` row's payload reads back by (dataId, block of its
    version) and hashes to the dataId; returns the row count."""
    rows = engine.state.range(KEY_ASSET)
    for key, _, (block, _) in rows:
        digest = key[len(KEY_ASSET):]
        content = store.get(ContentHash.from_hex(digest), block)
        assert hashlib.sha256(content).hexdigest() == digest
    return len(rows)


@pytest.fixture
def registered(engine, registrar, device):
    register_device(engine, registrar, device)
    return device


# -- rejected and uncommitted uploads leave objects/ unchanged ----------------


def test_an_upload_that_ends_mvcc_conflict_writes_nothing(
        tmp_path, engine, registered, other_device):
    upload_payload(engine, registered, b"earlier")
    before = objects_bytes(tmp_path)
    payload = b'{"d":{"temperature":19.5}}'
    tx = engine.build_transaction(upload(registered, engine, payload))
    assert tx.content == [payload]  # staged, not written
    assert objects_bytes(tmp_path) == before
    # the device's record changes under the endorsed upload, which read it
    engine.submit(registered.proposal(engine, "idm", "transferOwnership",
                                      [str(registered.did), str(other_device.address)]))
    engine.flush()
    block = engine.order_batch([tx])
    block.validation_flags = engine.validate_block(block)
    assert block.validation_flags == [MVCC_CONFLICT]
    engine.commit_block(block)
    assert objects_bytes(tmp_path) == before
    with pytest.raises(ContentNotFound):
        engine.store.get(data_id(payload), block.number)


def test_an_upload_that_ends_policy_failure_writes_nothing(tmp_path, engine, registered):
    upload_payload(engine, registered, b"earlier")
    before = objects_bytes(tmp_path)
    payload = b'{"d":{"temperature":20.5}}'
    tx = engine.build_transaction(upload(registered, engine, payload))
    tx.endorsements.clear()  # stripped, with its staged content kept
    block = engine.order_batch([tx])
    block.validation_flags = engine.validate_block(block)
    assert block.validation_flags == [POLICY_FAILURE]
    engine.commit_block(block)
    assert objects_bytes(tmp_path) == before
    with pytest.raises(ContentNotFound):
        engine.store.get(data_id(payload), block.number)


def test_an_upload_endorsed_and_never_ordered_writes_nothing(tmp_path, engine, registered):
    upload_payload(engine, registered, b"earlier")
    before = objects_bytes(tmp_path)
    height = engine.height
    engine.submit(upload(registered, engine, b'{"d":{"temperature":21.5}}'))
    engine.close()  # before any flush
    assert objects_bytes(tmp_path) == before
    with reopen_engine(tmp_path) as again:
        assert again.height == height


# -- a fault on either side of the journal append -----------------------------


def fail_the_append(monkeypatch, engine, proposal) -> None:
    """Submit ``proposal`` and flush it with a journal append that fails with ENOSPC."""

    def no_space(path, mode="r", *args, **kwargs):
        if mode == "ab":
            raise OSError(errno.ENOSPC, "no space left on device")
        return builtins.open(path, mode, *args, **kwargs)

    monkeypatch.setattr(ledger_module, "open", no_space, raising=False)
    engine.submit(proposal)
    with pytest.raises(OSError, match="no space"):
        engine.flush()
    monkeypatch.undo()


def test_a_failed_append_after_the_content_write_leaves_the_ledger_as_it_was(
        tmp_path, engine, registered, monkeypatch):
    upload_payload(engine, registered, b"earlier")
    journal = tmp_path / "ledger" / BLOCKS_FILE
    height, state, chain = engine.height, state_snapshot(engine), journal.read_bytes()
    objects = objects_bytes(tmp_path)
    stale = b'{"d":{"temperature":22.5}}'
    fail_the_append(monkeypatch, engine, upload(registered, engine, stale))
    # the block's file was written, then removed when the append failed
    block_file = tmp_path / "objects" / f"{height}.block"
    assert objects_bytes(tmp_path) == objects
    engine.close()

    assert journal.read_bytes() == chain
    with reopen_engine(tmp_path) as again:
        assert again.height == height
        assert state_snapshot(again) == state
        assert verify_chain_file(journal).ok
        # the next commit of that block number writes the block's file anew
        fresh = b'{"d":{"temperature":23.5}}'
        tx_id = upload_payload(again, registered, fresh)
        assert (again.tx_flag(tx_id), again.block_number_of(tx_id)) == (VALID, height)
        assert block_file.read_bytes() == len(fresh).to_bytes(4, "big") + fresh
        assert again.store.get(data_id(fresh), height) == fresh
        with pytest.raises(IntegrityFailure):  # the block's file holds no stale record
            again.store.get(data_id(stale), height)
        assert assert_contents_read_back(again, again.store) == 2
        assert verify_chain_file(journal).ok


def test_a_failed_append_leaves_no_file_for_a_block_without_content(
        tmp_path, engine, registered, monkeypatch):
    # the block number whose append failed next commits with no content:
    # nothing would replace a file left for it
    upload_payload(engine, registered, b"earlier")
    height, objects = engine.height, objects_bytes(tmp_path)
    fail_the_append(monkeypatch, engine,
                    upload(registered, engine, b'{"d":{"temperature":25.5}}'))
    engine.close()
    with reopen_engine(tmp_path) as again:
        tx_id = again.submit(registered.proposal(again, "kv", "set", ["x", "1"]))
        again.flush()
        assert (again.tx_flag(tx_id), again.block_number_of(tx_id)) == (VALID, height)
    assert not (tmp_path / "objects" / f"{height}.block").exists()
    assert objects_bytes(tmp_path) == objects


def test_a_failed_append_leaves_the_warm_engine_as_it_was(tmp_path, monkeypatch):
    # one kv set whose append fails moves neither the clock nor the height
    # and keeps the block's transaction pending; the retry, and a block
    # after it, write the journal of a run whose append never failed
    journals = []
    for fails in (False, True):
        engine = make_engine(tmp_path / str(fails))
        writer = Principal.from_seed(11)
        proposal = writer.proposal(engine, "kv", "set", ["x", "1"])
        if fails:
            before = (engine.clock.now(), engine.height)
            fail_the_append(monkeypatch, engine, proposal)
            assert (engine.clock.now(), engine.height) == before
            assert [tx.proposal for tx in engine._pending] == [proposal]
        else:
            engine.submit(proposal)
        tx_id = engine.flush().transactions[0].tx_id
        assert (engine.tx_flag(tx_id), engine.height, engine._pending) == (VALID, 2, [])
        engine.submit(writer.proposal(engine, "kv", "set", ["y", "2"]))
        engine.flush()
        engine.close()
        journals.append((tmp_path / str(fails) / "ledger" / BLOCKS_FILE).read_bytes())
    assert journals[1] == journals[0]


class HalfWritten(io.FileIO):
    """A journal opened for append whose write puts down half the bytes, then runs out of space."""

    def write(self, data):
        super().write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "no space left on device")


def test_a_half_written_append_is_cut_back(tmp_path, monkeypatch):
    # the failed append leaves half its record in the journal, which it cuts
    # back off; the retry, and a block after it, write the journal of a run
    # whose append never failed, and the ledger opens
    journals = []
    for fails in (False, True):
        engine = make_engine(tmp_path / str(fails))
        journal = tmp_path / str(fails) / "ledger" / BLOCKS_FILE
        writer = Principal.from_seed(11)
        engine.submit(writer.proposal(engine, "kv", "set", ["x", "1"]))
        if fails:
            before = journal.read_bytes()
            monkeypatch.setattr(ledger_module, "open",
                                lambda path, mode="r", *args, **kwargs: HalfWritten(path, mode)
                                if mode == "ab" else builtins.open(path, mode, *args, **kwargs),
                                raising=False)
            with pytest.raises(OSError, match="no space"):
                engine.flush()
            monkeypatch.undo()
            assert journal.read_bytes() == before
        engine.flush()
        engine.submit(writer.proposal(engine, "kv", "set", ["y", "2"]))
        engine.flush()
        engine.close()
        journals.append(journal.read_bytes())
        with reopen_engine(tmp_path / str(fails)) as again:
            assert again.height == 3
    assert journals[1] == journals[0]
    assert verify_chain_file(journal).ok


def test_a_stale_second_engine_commits_nothing(tmp_path, engine, registrar, device):
    # two engines of one process share the lock; the second's tip is block 2
    # when the first commits block 3, so its own block 3 must not overwrite
    # that block's file or follow it in the journal
    register_device(engine, registrar, device)
    with reopen_engine(tmp_path) as second:
        upload_payload(engine, device, b"first's reading")
        engine.close()
        journal = tmp_path / "ledger" / BLOCKS_FILE
        chain, objects = journal.read_bytes(), objects_bytes(tmp_path)
        assert "3.block" in objects
        with pytest.raises(NonSequentialBlock):
            upload_payload(second, device, b"second's reading")
        assert (journal.read_bytes(), objects_bytes(tmp_path)) == (chain, objects)
    assert verify_chain_file(journal).ok
    with reopen_engine(tmp_path) as again:
        assert again.height == 4
        assert assert_contents_read_back(again, again.store) == 1


@pytest.mark.parametrize("left_by", ["a commit killed before its append",
                                     "a torn last record"])
def test_open_removes_the_file_of_a_block_that_never_committed(
        tmp_path, engine, registered, left_by):
    upload_payload(engine, registered, b"earlier")
    journal = tmp_path / "ledger" / BLOCKS_FILE
    if left_by == "a torn last record":
        # the upload's file was written and its record lost its newline
        upload_payload(engine, registered, b'{"d":{"temperature":26.5}}')
        engine.close()
        journal.write_bytes(journal.read_bytes()[:-1])
        height = engine.height - 1
    else:
        engine.close()
        height = engine.height
        (tmp_path / "objects" / f"{height}.block").write_bytes(b"\0\0\0\x05stale")
    objects = objects_bytes(tmp_path)
    assert f"{height}.block" in objects
    with reopen_engine(tmp_path) as again:
        assert again.height == height
        del objects[f"{height}.block"]
        assert objects_bytes(tmp_path) == objects
        # a later commit of that number without content leaves no file for it
        tx_id = again.submit(registered.proposal(again, "kv", "set", ["x", "1"]))
        again.flush()
        assert (again.tx_flag(tx_id), again.block_number_of(tx_id)) == (VALID, height)
        assert assert_contents_read_back(again, again.store) == 1
    assert objects_bytes(tmp_path) == objects
    assert verify_chain_file(journal).ok


def test_provisioning_anew_removes_the_old_chains_block_files(tmp_path, engine, registered):
    # the old chain's block 3 holds an upload; the new chain's block 3 is a
    # kv set, which has no content and so no file
    upload_payload(engine, registered, b"old chain")
    assert engine.height == 4
    engine.close()
    assert "3.block" in objects_bytes(tmp_path)
    again = LedgerEngine.create(tmp_path / "ledger", GenesisConfig.default(),
                                ContentStore(tmp_path / "objects"), {"kv": KvContract()},
                                clock=SimClock(), force=True)
    with again:
        writer = Principal.from_seed(11)
        while again.height < 5:
            again.submit(writer.proposal(again, "kv", "set", ["x", str(again.height)]))
            again.flush()
    assert objects_bytes(tmp_path) == {}
    assert verify_chain_file(tmp_path / "ledger" / BLOCKS_FILE).ok


def test_a_failed_content_write_commits_nothing(tmp_path, engine, registered):
    journal = tmp_path / "ledger" / BLOCKS_FILE
    height, state, chain = engine.height, state_snapshot(engine), journal.read_bytes()
    (tmp_path / "objects").write_bytes(b"")  # a file where the directory goes
    tx_id = engine.submit(upload(registered, engine, b'{"d":{"temperature":24.5}}'))
    with pytest.raises(OSError):
        engine.flush()
    assert journal.read_bytes() == chain
    assert (engine.height, engine.tx_flag(tx_id)) == (height, None)
    assert state_snapshot(engine) == state
    engine.close()
    with reopen_engine(tmp_path) as again:
        assert (again.height, state_snapshot(again)) == (height, state)


# -- committed content reads back ---------------------------------------------


def test_every_valid_upload_of_a_warm_engine_reads_back(tmp_path, engine, registrar,
                                                        registered, other_device):
    register_device(engine, registrar, other_device)
    payloads = [f'{{"d":{{"n":{n}}}}}'.encode() for n in range(23)]
    tx_ids = [upload_payload(engine, (registered, other_device)[n % 2], payload,
                             name=f"{n}.txt", flush=False)
              for n, payload in enumerate(payloads)]
    # the same content twice in one block: the second ends MVCC_CONFLICT
    tx_ids.append(upload_payload(engine, other_device, payloads[-1], flush=False))
    engine.flush()
    assert [engine.tx_flag(t) for t in tx_ids] == [VALID] * 23 + [MVCC_CONFLICT]
    blocks = sorted({engine.block_number_of(t) for t in tx_ids})
    assert sorted(p.name for p in (tmp_path / "objects").iterdir()) == \
        sorted(f"{n}.block" for n in blocks)
    assert assert_contents_read_back(engine, engine.store) == 23
    engine.close()
    with reopen_engine(tmp_path) as again:
        assert assert_contents_read_back(again, ContentStore(tmp_path / "objects")) == 23
