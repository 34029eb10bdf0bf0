"""The journal's scanner against the re-encode check it replaced.

The scanner hashes each record's pieces as stored and decodes them
strictly. The oracle here is the earlier check: decode each record with
``json.loads``, encode it again and compare, then check its hashes and
its link. For any single-byte flip, cut, record deletion or duplicated
record of an honest journal, both give the same ``(ok, badBlock)``, in
the serial walk and in a verify split into parts alike. Open reads
records through the same scanner, so a store-less open refuses the
block that chain-verify refuses, with its reason, and opens where
chain-verify passes.
"""

import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from iotid.codec import sha256
from iotid.ledger import (
    BLOCKS_FILE,
    FLAG_VALUES,
    STATE_FILE,
    ZERO_HASH,
    Block,
    CorruptJournal,
    GenesisConfig,
    LedgerEngine,
    LedgerError,
    encode_transactions,
    verify_chain_file,
)
from iotid.store import ContentStore

from test_ledger import _no_child_left, _serial_report, _split_report, _tamper
from util import Principal, make_engine, register_device, registrar_principal, upload_payload


@pytest.fixture(scope="module")
def honest(tmp_path_factory) -> bytes:
    """A journal of uploads and kv sets, in blocks of one and of ten transactions."""
    base = tmp_path_factory.mktemp("honest")
    engine = make_engine(base)
    device = Principal.from_seed(1)
    try:
        register_device(engine, registrar_principal(engine), device)
        engine.submit(device.proposal(engine, "kv", "set", ["k", "v"]))
        engine.flush()
        for i in range(10):  # the tenth submit cuts the block
            engine.submit(device.proposal(engine, "kv", "set", [f"k{i}", 'café "\\']))
        upload_payload(engine, device, b"one")
        for i in range(10):
            upload_payload(engine, device, b'{"d":%d}' % i, flush=False)
    finally:
        engine.close()
    journal = (base / "ledger" / BLOCKS_FILE).read_bytes()
    sizes = [len(json.loads(line)["transactions"]) for line in journal.splitlines()]
    assert sizes == [1, 1, 1, 1, 10, 1, 10]
    assert _oracle(journal) == (True, None)
    return journal


def _oracle(journal: bytes) -> tuple[bool, int | None]:
    """``(ok, badBlock)`` by decoding each record and encoding it again."""
    height, tip = 0, ZERO_HASH
    for raw in io.BytesIO(journal):
        try:
            block = Block.from_dict(json.loads(raw))
            record, header_hash = block.encode()
        except (KeyError, TypeError, ValueError):
            return False, height
        if not (raw == record + b"\n" and block.number == height and block.prev_hash == tip
                and len(block.validation_flags) == len(block.transactions)
                and all(flag in FLAG_VALUES for flag in block.validation_flags)
                and block.data_hash == sha256(encode_transactions(block.transactions))):
            return False, height
        if height == 0:
            try:
                GenesisConfig.from_block(block)
            except LedgerError:
                return False, 0
        height, tip = height + 1, header_hash
    return (True, None) if height else (False, 0)


def _open_verdict(path: Path) -> tuple:
    """``(ok, height or badBlock, reason)`` of a store-less open of the journal at ``path``."""
    try:
        with LedgerEngine.open(path.parent, ContentStore(path.parent / "objects"), {}) as engine:
            return True, engine.height, None
    except CorruptJournal as exc:
        return False, exc.index, exc.reason


def _opened_as(report: tuple) -> tuple:
    """The ``_open_verdict`` that the serial walk's report implies: the
    same, except that open cuts a torn last record off after block 0."""
    ok, height, bad_block, reason = report
    if ok or (reason == "unterminated last record" and height > 0):
        return True, height, None
    return False, bad_block, reason


@given(kind=st.sampled_from(["flip", "cut", "delete", "duplicate"]), data=st.data())
def test_the_scanner_gives_the_re_encode_verdict(honest, kind, data):
    records = honest.splitlines(keepends=True)
    if kind in ("flip", "cut"):
        where = data.draw(st.integers(0, len(honest) - 1))
    else:
        where = data.draw(st.integers(0, len(records) - 1))
    with tempfile.TemporaryDirectory() as base:
        path = Path(base) / BLOCKS_FILE
        _tamper(path, honest, kind, where, data.draw(st.integers(1, 255)))
        want = _oracle(path.read_bytes())
        serial = _serial_report(path)
        assert (serial[0], serial[2]) == want
        split = _split_report(path)
        assert (split[0], split[2]) == want
        assert _open_verdict(path) == _opened_as(serial)
    assert _no_child_left()


def _restamp(record: bytes) -> bytes:
    """The last ``record`` with each txId and its data hash taken anew over its bytes."""
    at = 0
    while (body := record.find(b'"proposal":', at)) != -1:
        end = record.index(b',"txId":"', body)
        tx_id = sha256(b"{" + record[body:end] + b"}").hex().encode()
        at = end + len(b',"txId":"')
        record = record[:at] + tx_id + record[at + 64:]
    data = record[record.index(b'"transactions":') + 15:record.index(b',"validationFlags":')]
    return record[:13] + sha256(data).hex().encode() + record[13 + 64:]


def _at(marker: bytes, change):
    """A change to the byte just after the first ``marker`` in a record."""
    def apply(record: bytes) -> bytes:
        at = record.index(marker) + len(marker)
        return record[:at] + bytes([change(record[at])]) + record[at + 1:]
    return apply


def _other_hex(byte: int) -> int:
    return ord("1") if byte == ord("0") else ord("0")


def _upper(marker: bytes):
    """The 64 hex digits after the first ``marker`` in a record, in upper case."""
    def apply(record: bytes) -> bytes:
        at = record.index(marker) + len(marker)
        return record[:at] + record[at:at + 64].upper() + record[at + 64:]
    return apply


def _reorder(record: bytes) -> bytes:
    return record.replace(b'"contract":"asset","function":"uploadAsset"',
                          b'"function":"uploadAsset","contract":"asset"', 1)


# a change to one stored piece, or to the glue, of the last record, and the
# reason verify gives
_PIECES = {
    "a header field": (_at(b'"dataHash":"', _other_hex), "data hash does not match transactions"),
    "a body": (_at(b'"args":["', lambda b: b ^ 1), "non-canonical block encoding"),
    "an endorsement list": (_at(b'"peerId":"', lambda b: b ^ 1),
                            "data hash does not match transactions"),
    "a txId": (_at(b'"txId":"', _other_hex), "non-canonical block encoding"),
    "the flags": (_at(b'"validationFlags":["', lambda b: b ^ 1), "non-canonical block encoding"),
    "a byte >= 0x80": (_at(b'"contract":"', lambda b: b | 0x80), "undecodable block"),
    "the closing brace": (lambda r: r[:-2] + b"]\n", "non-canonical block encoding"),
    "a re-ordered key": (_reorder, "non-canonical block encoding"),
    "a re-ordered key under recomputed hashes": (lambda r: _restamp(_reorder(r)),
                                                 "non-canonical block encoding"),
    "upper-case hex in the header": (_upper(b'"prevHash":"'), "non-canonical block encoding"),
    "upper-case hex under recomputed hashes": (lambda r: _restamp(_upper(b'"nonce":"')(r)),
                                               "non-canonical block encoding"),
    "a dataId digit in an rwset write": (_at(b'"writes":[["asset/', _other_hex),
                                         "non-canonical block encoding"),
}


@pytest.mark.parametrize("piece", _PIECES)
def test_a_changed_piece_fails_at_its_block(honest, tmp_path, piece):
    # the last block: no later prevHash covers its header
    change, reason = _PIECES[piece]
    records = honest.splitlines(keepends=True)
    last = len(records) - 1
    changed = change(records[last])
    assert changed != records[last]
    path = tmp_path / BLOCKS_FILE
    path.write_bytes(b"".join(records[:last]) + changed)
    report = verify_chain_file(path)
    assert (report.ok, report.bad_block, report.reason) == (False, last, reason)
    assert _oracle(path.read_bytes()) == (False, last)
    assert _open_verdict(path) == (False, last, reason)


def test_a_rehashed_body_in_other_whitespace_passes_the_shallow_check(honest, tmp_path):
    # blocks carry no signature, and verify hashes what is stored: a proposal
    # re-spaced and hashed anew passes, where the re-encode check failed it;
    # space in the glue around the proposal still fails
    records = honest.splitlines(keepends=True)
    last = len(records) - 1
    path = tmp_path / BLOCKS_FILE
    path.write_bytes(b"".join(records[:last])
                     + _restamp(records[last].replace(b'"args":[', b'"args": [', 1)))
    assert verify_chain_file(path).ok
    assert _oracle(path.read_bytes()) == (False, last)
    assert _open_verdict(path) == (True, last + 1, None)
    for glue in (b'"proposal":', b',"rwset":'):
        spaced = glue.replace(b":", b": ")
        path.write_bytes(b"".join(records[:last])
                         + _restamp(records[last].replace(glue, spaced, 1)))
        report = verify_chain_file(path)
        assert (report.ok, report.bad_block) == (False, last)
        assert _open_verdict(path) == (False, last, report.reason)


def test_a_forged_record_in_the_journal_is_never_applied(honest, tmp_path):
    # one hex digit of an upload's dataId in block 5's rwset changes, and
    # every hash stays as it was: the txId no longer matches its body
    records = honest.splitlines(keepends=True)
    forged = 5
    change, reason = _PIECES["a dataId digit in an rwset write"]
    ledger = tmp_path / "ledger"
    ledger.mkdir()
    journal = ledger / BLOCKS_FILE
    journal.write_bytes(honest)
    store = ContentStore(tmp_path / "objects")
    LedgerEngine.open(ledger, store, {}).close()  # a savepoint at the tip
    records[forged] = change(records[forged])
    journal.write_bytes(b"".join(records))
    report = verify_chain_file(journal)
    assert (report.ok, report.bad_block, report.reason) == (False, forged, reason)
    # an open from the savepoint reads block 0 and the tip's record alone;
    # reading every block reaches the forged one
    with LedgerEngine.open(ledger, store, {}) as engine:
        assert engine.height == len(records)
        with pytest.raises(CorruptJournal) as refused:
            engine.read_blocks()
        assert (refused.value.index, refused.value.reason) == (forged, reason)
    (ledger / STATE_FILE).unlink()
    with pytest.raises(CorruptJournal) as refused:
        LedgerEngine.open(ledger, store, {})
    assert (refused.value.index, refused.value.reason) == (forged, reason)
