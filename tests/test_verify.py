"""The journal's one reader against a decode-and-re-encode oracle.

Open, replay, ``read_blocks`` and chain-verify read each record alike:
they match it against one compiled grammar and hash its pieces as
stored, and decode it only where they need its objects. The oracle
decodes each record with ``json.loads`` and ``Block.from_dict``, encodes
it again and compares, then checks its hashes, block 0's config and its
link. Its one rule for a record it cannot take back is the reader's: a
byte from 0x80 makes an undecodable block, and anything else that does
not decode or encode back a non-canonical block encoding. For any
single-byte flip, cut, record deletion or duplicated record of an honest
journal, and any change of ``_MUTATIONS`` as it is and under recomputed
hashes, the serial walk, a verify split into parts and a store-less open
all give the oracle's ``(ok, badBlock, reason)``. The reader decodes no
record that it refuses, and refuses a hostile one in linear time.
"""

import io
import json
import os
import re
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from iotid import journal as journal_module
from iotid.codec import from_canonical_json, sha256
from iotid.journal import (
    BLOCKS_FILE,
    FLAG_VALUES,
    ZERO_HASH,
    Block,
    CorruptJournal,
    GenesisConfig,
    encode_transactions,
    verify_chain_file,
)
from iotid.ledger import STATE_FILE, LedgerEngine
from iotid.store import ContentStore

from test_ledger import (  # noqa: F401 (grown_journal is a fixture)
    _blocks,
    _no_child_left,
    _rewrite_block,
    _serial_report,
    _split_report,
    _tamper,
    _three_parts,
    grown_journal,
)
from util import (Principal, deep_config, make_engine, register_device, registrar_principal,
                  upload_payload)


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
    assert _oracle(journal) == (True, None, None)
    return journal


_NON_CANONICAL, _UNDECODABLE = "non-canonical block encoding", "undecodable block"


def _oracle(journal: bytes) -> tuple[bool, int | None, str | None]:
    """``(ok, badBlock, reason)`` by decoding each record and encoding it again.

    A record that is not ASCII is undecodable; one that is no JSON, whose
    JSON ``Block.from_dict`` refuses, or that does not encode back, is
    non-canonical.
    """
    height, tip = 0, ZERO_HASH
    for raw in io.BytesIO(journal):
        if not raw.endswith(b"\n"):
            return False, height, "unterminated last record"
        if not raw.isascii():
            return False, height, _UNDECODABLE
        try:
            block = Block.from_dict(json.loads(raw))
        except (KeyError, RecursionError, TypeError, ValueError):
            return False, height, _NON_CANONICAL
        record, header_hash = block.encode()
        if raw != record + b"\n":
            return False, height, _NON_CANONICAL
        if not all(flag in FLAG_VALUES for flag in block.validation_flags):
            return False, height, "unknown validation flag"
        if block.data_hash != sha256(encode_transactions(block.transactions)):
            return False, height, "data hash does not match transactions"
        if block.number == 0:
            try:
                arg = block.transactions[0].proposal.args[0]
                GenesisConfig.from_dict(from_canonical_json(arg.encode()))
            except (IndexError, KeyError, TypeError, ValueError) as exc:
                return False, height, f"block 0 carries no network config: {exc}"
        if problem := journal_module._link_problem(block.link, height, tip):
            return False, height, problem
        height, tip = height + 1, header_hash
    return (True, None, None) if height else (False, 0, "empty chain")


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


def _check_verdicts(path: Path) -> None:
    """The serial walk, a verify in three parts and a store-less open of the
    journal at ``path`` give the oracle's verdict."""
    want = _oracle(path.read_bytes())
    serial = _serial_report(path)
    assert (serial[0], serial[2], serial[3]) == want
    split = _split_report(path)
    assert (split[0], split[2], split[3]) == want
    assert _open_verdict(path) == _opened_as(serial)


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
        _check_verdicts(path)
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


def _with_flags(record: bytes, flags: bytes) -> bytes:
    """``record`` with ``flags`` as its flag list, under a flags hash taken anew."""
    changed = record[:record.rindex(b',"validationFlags":') + 19] + flags + b"}\n"
    at = changed.index(b'"flagsHash":"') + 13
    return changed[:at] + sha256(flags).hex().encode() + changed[at + 64:]


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
    # bytes that decode to the values commit wrote, or to a value it could write
    "a space in a body under recomputed hashes": (
        lambda r: _restamp(r.replace(b'"args":[', b'"args": [', 1)),
        "non-canonical block encoding"),
    "a \\u escape in a body under recomputed hashes": (
        lambda r: _restamp(r.replace(b'"contract":"a', b'"contract":"\\u0061', 1)),
        "non-canonical block encoding"),
    "-0 in a body under recomputed hashes": (
        lambda r: _restamp(_TIMESTAMP.sub(b'"timestamp":-0', r, 1)),
        "non-canonical block encoding"),
    # a string where commit writes an array, which iterating would take apart
    "the flags as one string": (
        lambda r: re.sub(rb'"validationFlags":\[[^\]]*\]', b'"validationFlags":"VALID"', r),
        "non-canonical block encoding"),
    "the args as one string": (
        lambda r: re.sub(rb'"args":\[("[^"]*")[^\]]*\]', rb'"args":\1', r, count=1),
        "non-canonical block encoding"),
    # deeper than json.loads recurses
    "a flag list nested 100,000 deep under a recomputed flags hash": (
        lambda r: _with_flags(r, b"[" * 100_000 + b'"VALID"' + b"]" * 100_000),
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
    assert _serial_report(path) == _split_report(path) == (False, last, last, reason)
    assert _oracle(path.read_bytes()) == (False, last, reason)
    assert _open_verdict(path) == (False, last, reason)


@pytest.mark.parametrize("piece", [piece for piece, (_, reason) in _PIECES.items()
                                   if reason in (_NON_CANONICAL, _UNDECODABLE)])
def test_a_refused_record_is_never_decoded(honest, tmp_path, monkeypatch, piece):
    # each decode is logged with the index of the record being read when it
    # ran: verify and a store-less open report the last record, and decode
    # the earlier ones' flags, but nothing while they read the last
    change, reason = _PIECES[piece]
    records = honest.splitlines(keepends=True)
    last = len(records) - 1
    path = tmp_path / BLOCKS_FILE
    path.write_bytes(b"".join(records[:last]) + change(records[last]))
    reading, decoded = [None], []
    read_record = journal_module._read_record

    def read_logged(index, raw):
        reading[0] = index
        return read_record(index, raw)

    def logged(decode):
        return lambda value: decoded.append(reading[0]) or decode(value)

    monkeypatch.setattr(journal_module, "_read_record", read_logged)
    monkeypatch.setattr(json, "loads", logged(json.loads))
    monkeypatch.setattr(journal_module, "from_canonical_json", logged(from_canonical_json))
    monkeypatch.setattr(Block, "from_dict", staticmethod(logged(Block.from_dict)))
    report = verify_chain_file(path)
    assert (report.ok, report.bad_block, report.reason) == (False, last, reason)
    assert _open_verdict(path) == (False, last, reason)
    assert last not in decoded
    assert set(decoded) == set(range(last))


def test_a_block_0_config_nested_too_deep_is_refused_by_name(tmp_path):
    # the links and hashes hold; only block 0's config argument is too deep to decode
    make_engine(tmp_path).close()
    ledger = tmp_path / "ledger"
    (ledger / STATE_FILE).unlink()
    _rewrite_block(ledger / BLOCKS_FILE, 0, deep_config)
    reason = "block 0 carries no network config: JSON nested too deep"
    report = verify_chain_file(ledger / BLOCKS_FILE)
    assert (report.ok, report.bad_block, report.reason) == (False, 0, reason)
    assert _oracle((ledger / BLOCKS_FILE).read_bytes()) == (False, 0, reason)
    assert _open_verdict(ledger / BLOCKS_FILE) == (False, 0, reason)


def test_a_rehashed_body_in_other_whitespace_is_refused(honest, grown_journal, tmp_path):
    # blocks carry no signature, so hashes taken anew over a re-spaced
    # proposal hold; its bytes are not what commit writes, and every reader
    # refuses them, the worker that verifies the last of three parts too
    for n, journal in enumerate((honest, grown_journal)):
        records = journal.splitlines(keepends=True)
        last = len(records) - 1
        for k, glue in enumerate((b'"args":[', b'"proposal":', b',"rwset":')):
            path = tmp_path / f"{n}.{k}" / BLOCKS_FILE
            path.parent.mkdir()
            spaced = glue.replace(b":", b": ")
            path.write_bytes(b"".join(records[:last])
                             + _restamp(records[last].replace(glue, spaced, 1)))
            assert _oracle(path.read_bytes()) == (False, last, "non-canonical block encoding")
            _check_verdicts(path)
    assert _no_child_left()


@given(_blocks)
def test_every_record_that_commit_can_write_is_read_back(block):
    # any strings, hex and integers, in a block other than block 0, whose
    # config is checked too: the reader accepts the record, but for an
    # unknown flag, and reads back what commit encoded: the link, hashes,
    # flags and bodies, each write set as replay decodes it, and the block
    # as read_blocks decodes it
    cut = Block.cut(block.number + 1, block.prev_hash, block.transactions,
                    block.validation_flags)
    record, header_hash = cut.encode()
    try:
        read = journal_module._read_record(cut.number, record + b"\n")
    except CorruptJournal as exc:
        assert exc.reason == "unknown validation flag"
        assert not set(cut.validation_flags) <= set(FLAG_VALUES)
    else:
        assert (read.link, read.header_hash, read.flags, read.config) == \
            (cut.link, header_hash, cut.validation_flags, None)
        assert read.bodies == [tx._body for tx in cut.transactions]
        assert [journal_module._writes(body) for body in read.bodies] == \
            [tx.rwset.writes for tx in cut.transactions]
        assert Block.from_dict(json.loads(record)) == cut


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


# -- the grammar that verify matches each record against --------------------

_HEX_VALUE = re.compile(rb'"[0-9a-f]+"')
_LETTERED_HEX = re.compile(rb'"[0-9a-f]*[a-f][0-9a-f]*"')
_STRING_PAIR = re.compile(rb'("\w+":"[^"\\]*"),("\w+":"[^"\\]*")')
_TIMESTAMP = re.compile(rb'"timestamp":(\d+)')
_FLAG = re.compile(rb'"(?:VALID|MVCC_CONFLICT|POLICY_FAILURE)"')
_VALUE = re.compile(rb'(?<=[:\[,])(?:"(?:[^"\\]|\\.)*"(?!:)|-?[0-9]+|null)')
# values of another type, or another form, than the ones a record holds
_OTHER_VALUES = (b"1", b"1.5", b"true", b"null", b'"x"', b"[]", b"{}", b"[1,2,3]",
                 b"12345678901234567890", b'"\x7f"', b"-0", b"1e3")


def _nth(pattern: re.Pattern, record: bytes, n: int) -> re.Match:
    """Match ``n`` of ``pattern`` in ``record``, counting round."""
    found = list(pattern.finditer(record))
    return found[n % len(found)]


def _replace(record: bytes, match: re.Match, new: bytes) -> bytes:
    return record[:match.start()] + new + record[match.end():]


def _flip(record: bytes, n: int) -> bytes:
    at = n % len(record)
    return record[:at] + bytes([record[at] ^ (1 << (n // len(record) % 7))]) + record[at + 1:]


def _respace(record: bytes, n: int) -> bytes:
    at = _nth(re.compile(rb"[:,\[{]"), record, n).end()
    return record[:at] + b" " + record[at:]


def _re_escape(record: bytes, n: int) -> bytes:
    # one letter or digit as its \u escape, as \u0041 for A
    char = _nth(re.compile(rb"[0-9A-Za-z]"), record, n)
    return _replace(record, char, b"\\u%04x" % char[0][0])


def _other_flag(record: bytes, n: int) -> bytes:
    # an unknown flag, or a value that is no string, under a flags hash taken anew
    flag = _nth(_FLAG, record, n)
    changed = _replace(record, flag,
                       (b'"TRUSTED"', b'"valid"', b'"VALID\\u0020"', b"1", b"null")[n % 5])
    return _with_flags(changed, changed[changed.rindex(b',"validationFlags":') + 19:-2])


def _timestamp(record: bytes, n: int) -> bytes:
    stamp = _nth(_TIMESTAMP, record, n)
    value = (stamp[1] + b".0", b"-0", b"1e3", b"-" + stamp[1], b"0" + stamp[1])[n % 5]
    return _replace(record, stamp, b'"timestamp":' + value)


def _other_value(record: bytes, n: int) -> bytes:
    value = _nth(_VALUE, record, n // len(_OTHER_VALUES))
    return _replace(record, value, _OTHER_VALUES[n % len(_OTHER_VALUES)])


# a change to a record, which every reader must judge as the oracle does
_MUTATIONS = {
    "flip": _flip,
    "respace": _respace,
    "re-escape": _re_escape,
    "odd-length hex": lambda r, n: _replace(r, m := _nth(_HEX_VALUE, r, n), m[0][:1] + m[0][2:]),
    "upper-case hex": lambda r, n: _replace(r, m := _nth(_LETTERED_HEX, r, n), m[0].upper()),
    "a byte 0x80 in hex": lambda r, n: _replace(r, m := _nth(_HEX_VALUE, r, n),
                                                b'"\x80' + m[0][2:]),
    "timestamp": _timestamp,
    "unknown flag": _other_flag,
    "swapped keys": lambda r, n: _replace(r, m := _nth(_STRING_PAIR, r, n),
                                          m[2] + b"," + m[1]),
    "another value": _other_value,
}


def _restamped(record: bytes) -> bytes:
    """``_restamp(record)``, or the record as it is where a change took a txId's glue away."""
    try:
        return _restamp(record)
    except ValueError:
        return record


def _check_change(honest: bytes, kind: str, index: int, n: int) -> None:
    """Record ``index`` changed by ``_MUTATIONS[kind]``, as it is and under
    recomputed hashes: every reader gives the oracle's verdict."""
    records = honest.splitlines(keepends=True)
    changed = _MUTATIONS[kind](records[index], n)
    for record in (changed, _restamped(changed)):
        with tempfile.TemporaryDirectory() as base:
            path = Path(base) / BLOCKS_FILE
            path.write_bytes(b"".join([*records[:index], record, *records[index + 1:]]))
            _check_verdicts(path)


@given(kind=st.sampled_from(sorted(_MUTATIONS)), index=st.integers(0, 6),
       n=st.integers(0, 2**20))
def test_a_changed_record_gets_the_oracles_verdict(honest, kind, index, n):
    _check_change(honest, kind, index, n)


@pytest.mark.parametrize("kind", sorted(_MUTATIONS))
def test_the_first_changes_of_each_kind_to_a_block_of_uploads(honest, kind):
    # the first eight places in the last record: every pair of adjacent
    # string keys in its first transaction, and the first hex values
    for n in range(8):
        _check_change(honest, kind, 6, n)


def test_each_value_of_a_transaction_in_another_type_or_form(honest, tmp_path):
    # every value up to the end of the last record's first transaction, as
    # each of _OTHER_VALUES, as it is and under recomputed hashes: the
    # reader decodes what the grammar refuses no more leniently than the
    # oracle, and the grammar accepts what encodes back
    records = honest.splitlines(keepends=True)
    first_tx_end = records[6].index(b',"txId":"') + 75
    values = sum(1 for m in _VALUE.finditer(records[6]) if m.end() <= first_tx_end)
    path = tmp_path / BLOCKS_FILE
    for n in range(values * len(_OTHER_VALUES)):
        changed = _other_value(records[6], n)
        for record in (changed, _restamped(changed)):
            path.write_bytes(b"".join([*records[:6], record]))
            serial = _serial_report(path)
            assert (serial[0], serial[2], serial[3]) == _oracle(path.read_bytes())


@pytest.fixture
def decoded(tmp_path, monkeypatch) -> Path:
    """A file to which every ``Block.from_dict`` call, in this process or a
    forked worker, appends ``<pid> <block number>``."""
    log = tmp_path / "decoded"
    log.touch()
    real = Block.from_dict

    def logged(d):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {d['number']}\n")
        return real(d)

    monkeypatch.setattr(Block, "from_dict", staticmethod(logged))
    return log


def _decodes(log: Path) -> list[tuple[int, int]]:
    return [tuple(map(int, line.split())) for line in log.read_text().splitlines()]


def test_verify_decodes_only_block_0_of_an_honest_journal(honest, grown_journal, tmp_path,
                                                          decoded):
    # block 0's config comes from its first transaction's body: no record is decoded whole
    path = tmp_path / BLOCKS_FILE
    for journal in (honest, grown_journal):
        path.write_bytes(journal)
        decoded.write_text("")
        assert verify_chain_file(path).ok
        assert _decodes(decoded) == []
    decoded.write_text("")
    with _three_parts():
        assert len(journal_module._part_starts(path)) == 3
        assert verify_chain_file(path).ok
    assert _decodes(decoded) == []
    assert _no_child_left()


_LONG = 200_000


def _adversarial(record: bytes) -> dict[str, bytes]:
    """Records built to make a backtracking matcher try many ways to fail."""
    nonce = record.index(b'"nonce":"') + 9
    arg = record.index(b'"args":["') + 9
    return {
        "an odd-length hex value": record[:nonce] + b"a" * (_LONG + 1) + record[nonce + 64:],
        "a run of backslashes, then a bad escape": record[:arg] + b"\\" * _LONG + b"\\x"
                                                   + record[arg:],
        "an odd run of backslashes": record[:arg] + b"\\" * (_LONG + 1) + record[arg:],
        "a string left open": record[:arg] + b"a" * _LONG + b"\n",
        "escapes, then a bad one": record[:arg] + b"\\u0041" * (_LONG // 6) + b"\\x"
                                   + record[arg:],
        "canonical escapes, then a non-canonical one": record[:arg]
                                                       + b"\\u00e9" * (_LONG // 6)
                                                       + b"\\u0041" + record[arg:],
    }


@pytest.mark.parametrize("case", sorted(_adversarial(b'"nonce":"' + b"0" * 64 + b'"args":["')))
def test_an_adversarial_record_is_refused_in_linear_time(honest, tmp_path, case):
    records = honest.splitlines(keepends=True)
    last = len(records) - 1
    path = tmp_path / BLOCKS_FILE
    changed = _adversarial(records[last])[case]
    for record in (changed, _restamped(changed)):
        path.write_bytes(b"".join(records[:last]) + record)
        started = time.perf_counter()
        report = verify_chain_file(path)
        assert time.perf_counter() - started < 1.0
        assert (report.ok, report.height, report.bad_block, report.reason) == \
            _serial_report(path)
        assert (report.ok, report.bad_block) == (False, last)
