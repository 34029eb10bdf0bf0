"""Permissioned ledger with an execute-order-validate pipeline.

Transaction flow mirrors the Fabric model at desk scale, entirely
in-process:

1. execute: a signed proposal runs against the current committed state and
   yields an unendorsed transaction: the proposal, its read/write set and
   the content it staged. Contract functions return nothing, and contract
   errors abort here with no rwset. Its signature is verified once, and
   each endorser's execution shares that verdict.
2. endorse: as Fabric's client does, the collector asks only as many peers
   as the policy needs, the first ``threshold`` of the roster in roster
   order. Each executes the proposal once and signs the txId of its own
   transaction; the collector checks that they computed the same txId and
   merges their endorsements into one transaction. The body is encoded
   and the txId hashed once: a peer whose rwset equals the first peer's
   takes the first's, and one whose rwset differs computes its own, which
   the check then rejects.
3. order: a solo orderer batches transactions in arrival order, cutting a
   block when it is full or on ``flush()``.
4. validate: per transaction, endorsement policy first, then MVCC (every
   read must still be at the version it saw, counting writes by earlier
   valid transactions in the same block); exactly one flag each. An
   endorsement this engine's own peer signed since the last commit counts
   by equality with the signature it made; every other one is verified.
   A peer's key is derived only when that peer signs or one of its
   endorsements is checked.
5. commit: the content that the block's VALID transactions staged in
   execution is written to the content store, as one file for the block;
   then the block is appended to the hash-chained journal and valid
   writes land in the versioned world state.

Blocks persist as one append-only file of canonically encoded JSON lines,
so replaying valid transactions from genesis reproduces the world state
exactly. Every hash covers bytes that the record stores verbatim. Every
reader, open and replay, ``read_blocks`` and chain-verify, checks a
record one way: it matches a compiled grammar of exactly the bytes that
commit writes, and its hashes hold over the slices as stored. A changed
byte fails in its own record, and nothing is encoded again. A record is
decoded only where its objects are needed: block 0 for its network
config, and the blocks that replay applies or ``read_blocks`` returns.
Open cuts off a torn last record. Beside the journal, an SQLite
store holds the world state as of its savepoint block, so open reads
block 0 and the savepoint's record, replays only the blocks after it and
reads only the keys a command touches. It is a cache: open uses it only
while its savepoint matches the journal, and otherwise rebuilds it from
block 0. No reader checks signatures.
"""

from __future__ import annotations

import fcntl
import json
import os
import re
import signal
import sqlite3
import sys
import threading
import zlib
from dataclasses import dataclass, field
from functools import cache, cached_property
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path
from typing import Iterator, Protocol

from .clock import Clock, WallClock
from .codec import canonical_json, from_canonical_json, sha256
from .did import SEED_BYTES, Address, KeyPair, derive_address, generate_keypair, verify_signature
from .store import ContentStore

VALID = "VALID"
MVCC_CONFLICT = "MVCC_CONFLICT"
POLICY_FAILURE = "POLICY_FAILURE"
FLAG_VALUES = (VALID, MVCC_CONFLICT, POLICY_FAILURE)

ZERO_HASH = bytes(32)
ZERO_ADDRESS = Address(bytes(20))

BLOCKS_FILE = "blocks.jsonl"
STATE_FILE = "state.sqlite"
LOCK_FILE = ".lock"

# world-state key namespaces; prefix scans implement the "view all" queries
KEY_DID = "did/"
KEY_DEVICE = "device/"
KEY_ASSET = "asset/"
KEY_NONCE = "nonce/"
KEY_CONFIG = "config/"

Version = tuple[int, int]  # (block number, tx index within block)


class LedgerError(Exception):
    """Base for ledger pipeline failures."""


class InvalidProposalSignature(LedgerError):
    """Proposal rejected before execution: bad signature or key/address mismatch."""


class UnknownContract(LedgerError):
    pass


class UnknownFunction(LedgerError):
    pass


class RwsetMismatch(LedgerError):
    """Endorsing peers computed different read/write sets for one proposal."""


class EmptyBatch(LedgerError):
    pass


class NonSequentialBlock(LedgerError):
    """Block does not extend the chain: wrong number, flag count or prevHash."""


class CorruptJournal(LedgerError):
    """A bad journal record; ``torn_at`` is the offset of a torn last one."""

    what = "corrupt journal"

    def __init__(self, index: int, reason: str, torn_at: int | None = None):
        super().__init__(f"{self.what} at block {index}: {reason}")
        self.index, self.reason, self.torn_at = index, reason, torn_at


class BrokenChainLink(CorruptJournal):
    what = "broken chain link"  # a record that decodes but does not extend the chain


class LedgerLocked(LedgerError):
    """Another live process holds the ledger directory."""


class UnsupportedFormat(LedgerError):
    """A value in a form that this program no longer writes, and so no longer reads."""


class CorruptStore(LedgerError):
    """A read from the world-state store failed its row check or SQLite's own.

    The store is deleted before this is raised, so the next open rebuilds
    it from the journal.
    """


class ContractError(LedgerError):
    """Typed business-logic failure; carries a stable code and no state change."""

    def __init__(self, code: str, message: str, details: dict | None = None):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.details = details or {}


@dataclass
class TxProposal:
    """A signed request to run one contract function.

    ``invoker_key`` must hash to ``invoker`` (that is how the signature is
    checked against the invoker's registered key) and ``timestamp`` is the
    submission-time clock reading, so contract execution is reproducible
    on every endorsing peer.
    """

    invoker: Address
    invoker_key: bytes
    contract: str
    function: str
    args: list[str]
    nonce: bytes
    timestamp: int
    signature: bytes = b""

    def _unsigned_dict(self) -> dict:
        return {
            "args": list(self.args),
            "contract": self.contract,
            "function": self.function,
            "invoker": str(self.invoker),
            "invokerKey": self.invoker_key.hex(),
            "nonce": self.nonce.hex(),
            "timestamp": self.timestamp,
        }

    def signing_bytes(self) -> bytes:
        return canonical_json(self._unsigned_dict())

    def sign(self, keypair: KeyPair) -> "TxProposal":
        self.signature = keypair.sign(self.signing_bytes())
        return self

    def to_dict(self) -> dict:
        d = self._unsigned_dict()
        d["signature"] = self.signature.hex()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TxProposal":
        args, contract, function, timestamp = (list(d["args"]), d["contract"], d["function"],
                                               d["timestamp"])
        if not (type(contract) is type(function) is str and type(timestamp) is int
                and all(type(arg) is str for arg in args)):
            raise TypeError("a proposal field of the wrong type")
        return cls(
            invoker=Address.from_text(d["invoker"]),
            invoker_key=bytes.fromhex(d["invokerKey"]),
            contract=contract,
            function=function,
            args=args,
            nonce=bytes.fromhex(d["nonce"]),
            timestamp=timestamp,
            signature=bytes.fromhex(d["signature"]),
        )


def _version(value: list) -> Version:
    """A read version as JSON holds it: two integers, and JSON's true is none."""
    block, tx = value
    if type(block) is not int or type(tx) is not int:
        raise TypeError(f"bad read version {value!r}")
    return block, tx


@dataclass
class ReadWriteSet:
    """Keys read (with the version seen, None if absent) and keys written."""

    reads: list[tuple[str, Version | None]] = field(default_factory=list)
    writes: list[tuple[str, bytes]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "reads": [[k, list(v) if v is not None else None] for k, v in self.reads],
            "writes": [[k, v.hex()] for k, v in self.writes],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ReadWriteSet":
        rwset = cls(
            reads=[(k, _version(v) if v is not None else None) for k, v in d["reads"]],
            writes=[(k, bytes.fromhex(v)) for k, v in d["writes"]],
        )
        if not all(type(k) is str for k, _ in rwset.reads) or \
                not all(type(k) is str for k, _ in rwset.writes):
            raise TypeError("a key that is no string")
        return rwset


@dataclass
class Endorsement:
    peer_id: str
    signature: bytes

    def to_dict(self) -> dict:
        return {"peerId": self.peer_id, "signature": self.signature.hex()}

    @classmethod
    def from_dict(cls, d: dict) -> "Endorsement":
        if type(peer_id := d["peerId"]) is not str:
            raise TypeError("a peer id that is no string")
        return cls(peer_id=peer_id, signature=bytes.fromhex(d["signature"]))


@dataclass
class Transaction:
    """An executed proposal, its read/write set and the peers' endorsements.

    The proposal and rwset are never mutated once a Transaction holds
    them, so they are encoded, and the txId hashed, once per object; one
    decoded from a journal keeps its body as stored instead.
    ``content`` is what its execution staged for the content store, which
    the commit writes if the transaction is VALID. It is never encoded nor
    hashed, so a transaction decoded from a journal has none.
    """

    proposal: TxProposal
    rwset: ReadWriteSet
    endorsements: list[Endorsement]
    content: list[bytes] = field(default_factory=list, compare=False, repr=False)

    @cached_property
    def _body(self) -> bytes:
        """Canonical encoding of ``{"proposal", "rwset"}``, the txId preimage."""
        return canonical_json({"proposal": self.proposal.to_dict(),
                               "rwset": self.rwset.to_dict()})

    @cached_property
    def tx_id(self) -> bytes:
        """Hash of the ``{"proposal", "rwset"}`` body.

        Endorsements are excluded so that attaching or stripping them never
        changes a transaction's identity. It is always computed from the
        body, never taken from a journal's stored ``txId``: chain-verify
        hashes the body as stored and refuses a record whose ``txId``
        differs.
        """
        return sha256(self._body)

    def encode(self) -> bytes:
        """``canonical_json(self.to_dict())``, assembled around the cached body.

        Canonical key order is endorsements < proposal < rwset < txId, so
        the body's two members sit in the record verbatim; only the
        endorsement list is encoded here, by ``encode_endorsements``.
        """
        return b"".join((b'{"endorsements":', encode_endorsements(self.endorsements),
                         b",", self._body[1:-1], b',"txId":"',
                         self.tx_id.hex().encode("ascii"), b'"}'))

    def to_dict(self) -> dict:
        return {
            "endorsements": [e.to_dict() for e in self.endorsements],
            "proposal": self.proposal.to_dict(),
            "rwset": self.rwset.to_dict(),
            "txId": self.tx_id.hex(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Transaction":
        return cls(
            proposal=TxProposal.from_dict(d["proposal"]),
            rwset=ReadWriteSet.from_dict(d["rwset"]),
            endorsements=[Endorsement.from_dict(e) for e in d["endorsements"]],
        )


@dataclass
class Block:
    """One journal entry; ``validation_flags`` is None until validated.

    The transaction list is never changed once a Block holds it, so it is
    encoded once per object. The flags are set after ordering, so they and
    the header that hashes them are encoded when the record is.
    """

    number: int
    prev_hash: bytes
    data_hash: bytes
    transactions: list[Transaction]
    validation_flags: list[str] | None = None

    @classmethod
    def cut(cls, number: int, prev_hash: bytes, transactions: list[Transaction],
            validation_flags: list[str] | None = None) -> "Block":
        """A new block whose data hash covers the encoding its record reuses."""
        block = cls(number, prev_hash, ZERO_HASH, list(transactions), validation_flags)
        block.data_hash = sha256(block._encoded_transactions)
        return block

    @cached_property
    def _encoded_transactions(self) -> bytes:
        return encode_transactions(self.transactions)

    def _encoded_flags(self) -> bytes:
        if self.validation_flags is None:
            raise ValueError("validation flags not set")
        return canonical_json(self.validation_flags)

    def flags_hash(self) -> bytes:
        return sha256(self._encoded_flags())

    def _header_dict(self, flags_hash: bytes) -> dict:
        return {
            "dataHash": self.data_hash.hex(),
            "flagsHash": flags_hash.hex(),
            "number": self.number,
            "prevHash": self.prev_hash.hex(),
        }

    def header_hash(self) -> bytes:
        """Hash chained into the next block's prevHash."""
        return sha256(canonical_json(self._header_dict(self.flags_hash())))

    @property
    def link(self) -> tuple[int, bytes, int | None, int]:
        """What extending a chain checks: ``(number, prevHash, flag count,
        transaction count)``, the flag count None until validated."""
        flags = self.validation_flags
        return (self.number, self.prev_hash, None if flags is None else len(flags),
                len(self.transactions))

    @cached_property
    def config(self) -> "GenesisConfig":
        """The network config that block 0 carries, decoded once per block."""
        return GenesisConfig.from_block(self)

    def to_dict(self) -> dict:
        d = self._header_dict(self.flags_hash())
        d["transactions"] = [t.to_dict() for t in self.transactions]
        d["validationFlags"] = list(self.validation_flags)
        return d

    def encode(self) -> tuple[bytes, bytes]:
        """``canonical_json(self.to_dict())`` and ``header_hash()``, each part encoded once.

        The header keys sort before ``transactions``, and ``validationFlags``
        after it, so the record is the header with the two lists appended.
        """
        flags = self._encoded_flags()
        header = canonical_json(self._header_dict(sha256(flags)))
        return (b"".join((header[:-1], b',"transactions":', self._encoded_transactions,
                          b',"validationFlags":', flags, b"}")),
                sha256(header))

    @classmethod
    def from_dict(cls, d: dict) -> "Block":
        """The block of a record's JSON. Like the decoders of its parts, it
        raises TypeError on a field of another JSON type than commit writes
        (JSON's true is no integer), so that a record which encodes back
        from its decode is one that the journal's grammar accepts."""
        number, flags = d["number"], list(d["validationFlags"])
        if type(number) is not int or not all(type(flag) is str for flag in flags):
            raise TypeError("a block number or flag of the wrong type")
        return cls(
            number=number,
            prev_hash=bytes.fromhex(d["prevHash"]),
            data_hash=bytes.fromhex(d["dataHash"]),
            transactions=[Transaction.from_dict(t) for t in d["transactions"]],
            validation_flags=flags,
        )


def encode_endorsements(endorsements: list[Endorsement]) -> bytes:
    """``canonical_json([e.to_dict() for e in endorsements])``, joined by hand.

    Canonical key order is peerId < signature, the signature is hex, and
    the peer id is escaped by the function that the canonical encoder
    itself escapes a string with, so no encoder is set up per list.
    """
    return ("[" + ",".join([f'{{"peerId":{_json_string(e.peer_id)},'
                            f'"signature":"{e.signature.hex()}"}}' for e in endorsements])
            + "]").encode("ascii")


def encode_transactions(transactions: list[Transaction]) -> bytes:
    """``canonical_json([t.to_dict() for t in transactions])``: what the data hash covers."""
    return b"[" + b",".join(t.encode() for t in transactions) + b"]"


# WAL, never synced, as no other ledger write is yet (ROADMAP item 8): a
# flush appends to the -wal file, and the last connection's close copies
# it back. A killed process leaves the file whole; a power cut may not.
# synchronous=NORMAL would sync that copy at every close: two fsyncs per
# command that commits.
_PRAGMAS = """
PRAGMA journal_mode = WAL;
PRAGMA synchronous = OFF;
"""
# The store's format, which PRAGMA user_version names: a store of any
# other format is refused at open, and rebuilt from the journal.
_STORE_FORMAT = 2
# An asset/ row also holds its record's listed fields, NULL when the value
# is no record that the asset contract writes. The listing index covers
# every asset/ row, so one ordered read meets a row without them first.
_ASSET_ROWS = "key >= 'asset/' AND key < 'asset0'"  # every key under KEY_ASSET
_SCHEMA = f"""
CREATE TABLE state (
    key TEXT PRIMARY KEY, value BLOB NOT NULL, block INTEGER NOT NULL,
    tx INTEGER NOT NULL, owner TEXT, added_at INTEGER, asset_name TEXT,
    checksum INTEGER NOT NULL) WITHOUT ROWID;
CREATE INDEX state_listing ON state (added_at, key) WHERE {_ASSET_ROWS};
CREATE INDEX state_owner ON state (owner, added_at, key) WHERE owner IS NOT NULL;
CREATE TABLE savepoint (
    height INTEGER NOT NULL, tip_hash BLOB NOT NULL, tip_start INTEGER NOT NULL,
    checksum INTEGER NOT NULL);
PRAGMA user_version = {_STORE_FORMAT};
"""
_SELECT_ROWS = "SELECT key, value, block, tx, owner, added_at, asset_name, checksum FROM state"
_MEMORY = ":memory:"  # SQLite's name for a store that lives in memory only

_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1  # the integers that SQLite stores
_DATA_ID = re.compile(r"[0-9a-f]{64}")


def _check(key: object, value: bytes, block: object = None, tx: object = None,
           owner: object = None, added_at: object = None, asset_name: object = None) -> int:
    """The check value stored in a row: crc32 over its other columns."""
    return zlib.crc32(value, zlib.crc32(
        f"{key}\0{block}\0{tx}\0{owner}\0{added_at}\0{asset_name}".encode()))


def listable(owner: object, added_at: object, asset_name: object) -> bool:
    """Whether a listing reads back an asset record of these fields.

    ``addedAt`` must be an integer in SQLite's range, which JSON's true is
    not, and the two names strings that UTF-8 encodes. The asset contract
    writes only a record whose fields pass, and ``asset_fields`` applies
    it after its decode. A field is judged as canonical JSON encodes it,
    so a subclass of str or int passes as its value does.
    """
    try:
        str.encode(owner), str.encode(asset_name)  # a non-str or a lone surrogate raises
    except (TypeError, UnicodeEncodeError):
        return False
    return (isinstance(added_at, int) and type(added_at) is not bool
            and _INT64_MIN <= added_at <= _INT64_MAX)


def asset_fields(key: str, value: bytes) -> tuple[str, int, str] | None:
    """``(owner, addedAt, assetName)`` of the asset record ``value`` under ``key``.

    None unless it is a record as the asset contract writes it: exactly
    the four keys, ``dataId`` the key's 64 lower-case hex digits and the
    other three ``listable``. The store's listed columns hold these fields.
    Only readers decode a record here, the flush and the warm listing view,
    each once per write: the contract applies ``listable`` to the fields
    before it encodes them, so no execution decodes its own write.
    """
    data_id = key[len(KEY_ASSET):]
    if not (key.startswith(KEY_ASSET) and _DATA_ID.fullmatch(data_id)):
        return None
    try:
        record = from_canonical_json(value)
        fields = record["owner"], record["addedAt"], record["assetName"]
        if len(record) == 4 and record["dataId"] == data_id and listable(*fields):
            return fields
    except (KeyError, TypeError, ValueError):
        pass
    return None


def asset_row(key: str, owner: str, added_at: int, asset_name: str) -> dict:
    """What a listing shows of the asset record under ``key``."""
    return {"addedAt": added_at, "assetName": asset_name, "dataId": key[len(KEY_ASSET):],
            "owner": owner}


def unlisted(key: str) -> UnsupportedFormat:
    """The refusal of a value under ``asset/`` that is no asset record."""
    return UnsupportedFormat(f"{key} holds no asset record in the form this program writes")


def _store_files(path: Path) -> list[Path]:
    """The store and the -wal and -shm files SQLite keeps beside it."""
    return [path.with_name(path.name + suffix) for suffix in ("", "-wal", "-shm")]


class WorldState:
    """Current key -> (value, version) view of all valid transactions.

    One SQLite store, a file or ``:memory:`` for ``WorldState()``, holds
    the state as of its savepoint, and ``tip`` names the block the state
    has reached: ``(height, tip hash, tipStart)``. ``apply`` writes to
    memory only. ``get`` serves a key from memory, a remembered miss
    included, and otherwise runs one point query. ``range`` and
    ``assets`` first ``flush``, then answer with one SQL query. Every row
    read from the store must match its check value: a mismatch or an
    SQLite error deletes the store and raises ``CorruptStore``, as does
    every later read that needs it, so no answer comes from a damaged file.

    The flush decodes each ``asset/`` value it writes once, through
    ``asset_fields``, and stores the record's listed fields beside it,
    indexed in listing order, so that ``assets`` answers a listing from
    those columns and decodes no value.

    A reader that keeps its own index over a prefix follows later writes
    through a feed: ``watch(prefix)`` returns a list to which every later
    ``apply`` appends the key of each write under that prefix, in write
    order. The reader drains the list when it reads; the flush drains a
    feed of its own, over every key.
    """

    def __init__(self, path: str | Path = _MEMORY):
        """Open the store at ``path``, empty if new.

        sqlite3.Error if it is unusable, or a store of another format.
        """
        self._data: dict[str, tuple[bytes, Version] | None] = {}
        self.tip: tuple[int, bytes, int] = (0, ZERO_HASH, 0)
        self._watchers: list[tuple[str, list[str]]] = []
        self._unflushed = self.watch("")
        self._path = path
        self._gone: LedgerError | None = None  # why store reads now fail
        db = sqlite3.connect(path, isolation_level=None)
        try:
            db.executescript(_PRAGMAS)
            (version,), = db.execute("PRAGMA user_version")
            if version != _STORE_FORMAT:
                if version or db.execute("SELECT 1 FROM sqlite_master").fetchall():
                    raise sqlite3.DatabaseError(f"a store of format {version}")
                db.executescript(_SCHEMA)
        except sqlite3.Error:
            db.close()
            raise
        self._db: sqlite3.Connection | None = db

    def __len__(self) -> int:
        self.flush()
        return len(self._rows(""))

    def get(self, key: str) -> tuple[bytes, Version] | None:
        try:
            return self._data[key]
        except KeyError:
            rows = self._rows(" WHERE key = ?", (key,))
            entry = self._data[key] = (rows[0][1], rows[0][2:4]) if rows else None
            return entry

    def range(self, prefix: str) -> list[tuple[str, bytes, Version]]:
        """All entries whose key starts with prefix, sorted by key."""
        self.flush()
        return [(key, value, (block, tx)) for key, value, block, tx, *_ in
                self._rows(" WHERE key >= ? ORDER BY key", (prefix,), prefix)]

    def assets(self, owner: str | None = None) -> list[dict]:
        """The listing rows of every asset record, or of ``owner``'s, by (addedAt, dataId).

        One ordered read of the listed columns, through the listing index,
        or the owner index for one owner, which reads that owner's rows
        only. A listing of all refuses an ``asset/`` value that is no
        record with UnsupportedFormat, rather than leave it out; such a
        row has no owner, so no owner's listing holds it.
        """
        self.flush()
        if owner is None:
            rows = self._rows(f" INDEXED BY state_listing WHERE {_ASSET_ROWS}"
                              " ORDER BY added_at, key")
            if rows and rows[0][5] is None:  # the rows without fields sort first
                raise unlisted(rows[0][0])
        else:
            rows = self._rows(" WHERE owner = ? ORDER BY added_at, key", (owner,))
        return [asset_row(row[0], *row[4:7]) for row in rows]

    def _rows(self, where: str, params: tuple = (), prefix: str = "") -> list[tuple]:
        """Checked rows of every column, up to the first key outside ``prefix``."""
        if self._db is None:
            raise self._gone
        rows = []
        try:
            for row in self._db.execute(_SELECT_ROWS + where, params):
                key, value, block, tx, owner, added_at, name, check = row
                if not key.startswith(prefix):
                    break
                if check != _check(key, value, block, tx, owner, added_at, name):
                    raise ValueError(f"row {key!r} fails its check")
                rows.append(row)
        except (sqlite3.Error, AttributeError, TypeError, ValueError) as exc:
            raise self._drop(f"state store unreadable, deleted: {exc}") from exc
        return rows

    def apply(self, writes: list[tuple[str, bytes]], version: Version) -> None:
        data = self._data
        for key, value in writes:
            data[key] = (value, version)
        for prefix, feed in self._watchers:
            feed.extend([key for key, _ in writes if key.startswith(prefix)])

    def watch(self, prefix: str) -> list[str]:
        """A feed of the keys under ``prefix`` that later applies write."""
        feed: list[str] = []
        self._watchers.append((prefix, feed))
        return feed

    def items(self) -> list[tuple[str, tuple[bytes, Version]]]:
        return [(key, (value, version)) for key, value, version in self.range("")]

    # -- the store ---------------------------------------------------------

    def savepoint(self) -> tuple[int, bytes, int] | None:
        """``(height, tip hash, tipStart)`` of the last flush, None unless it checks."""
        try:
            (height, tip_hash, tip_start, check), = self._db.execute(
                "SELECT height, tip_hash, tip_start, checksum FROM savepoint").fetchall()
            if check != _check(height, tip_hash, tip_start):
                return None
        except (sqlite3.Error, TypeError, ValueError):
            return None
        return height, tip_hash, tip_start

    def flush(self) -> None:
        """Write the keys applied since the last flush, and ``tip`` as the savepoint.

        One transaction, with nothing written when no key was applied. A
        savepoint above ``tip`` is left as it is: another engine on the
        same journal wrote it, and the store already holds what this
        state would write. An SQLite error deletes the store instead,
        which holds nothing the journal does not.
        """
        db = self._db
        if db is None or not self._unflushed:
            return
        data, rows = self._data, []
        for key in dict.fromkeys(self._unflushed):
            value, (block, tx) = data[key]
            row = (key, value, block, tx, *(asset_fields(key, value) or (None, None, None)))
            rows.append((*row, _check(*row)))
        self._unflushed.clear()
        height, tip_hash, tip_start = self.tip
        try:
            db.execute("BEGIN")
            if not db.execute("SELECT 1 FROM savepoint WHERE height > ?", (height,)).fetchall():
                db.executemany("INSERT OR REPLACE INTO state VALUES (?, ?, ?, ?, ?, ?, ?, ?)", rows)
                db.execute("DELETE FROM savepoint")
                db.execute("INSERT INTO savepoint VALUES (?, ?, ?, ?)",
                           (height, tip_hash, tip_start, _check(height, tip_hash, tip_start)))
            db.execute("COMMIT")
        except sqlite3.Error as exc:
            self._drop(f"state store flush failed, deleted: {exc}")

    def _drop(self, reason: str) -> CorruptStore:
        """Close and delete the store: the error that its reads raise from now on."""
        self.close()
        if self._path != _MEMORY:
            for path in _store_files(Path(self._path)):
                path.unlink(missing_ok=True)
        self._gone = CorruptStore(reason)
        return self._gone

    def close(self) -> None:
        """Close the store; a read that needs it raises LedgerError from now on."""
        if self._db is not None:
            self._db.close()
            self._db = None
            self._gone = LedgerError("world state read after its ledger closed")


class TxContext:
    """Execution context handed to contract functions.

    Records every state read with the version it saw and stages writes in
    a deterministic order; reads of keys already written in this
    transaction return the staged value without touching the snapshot.
    Content for the content store is staged too, in ``content``: execution
    writes nothing to disk, and reads nothing but the snapshot.
    """

    def __init__(self, snapshot: WorldState, proposal: TxProposal):
        self._snapshot = snapshot
        self.proposal = proposal
        self._reads: dict[str, Version | None] = {}
        self._writes: dict[str, bytes] = {}
        self.content: list[bytes] = []

    @property
    def invoker(self) -> Address:
        return self.proposal.invoker

    @property
    def timestamp(self) -> int:
        return self.proposal.timestamp

    def get(self, key: str) -> bytes | None:
        if key in self._writes:
            return self._writes[key]
        entry = self._snapshot.get(key)
        if key not in self._reads:
            self._reads[key] = entry[1] if entry is not None else None
        return entry[0] if entry is not None else None

    def put(self, key: str, value: bytes) -> None:
        self._writes[key] = value

    def rwset(self) -> ReadWriteSet:
        return ReadWriteSet(
            reads=list(self._reads.items()),
            writes=list(self._writes.items()),
        )


class Contract(Protocol):
    """Deterministic business logic dispatched by name."""

    name: str

    def invoke(self, ctx: TxContext, function: str, args: list[str]) -> None: ...


@dataclass
class Member:
    """A peer or registrar of the network: its name and 32-byte key seed."""

    name: str
    seed: bytes

    @cached_property
    def keypair(self) -> KeyPair:
        return generate_keypair(self.seed)

    @property
    def address(self) -> Address:
        return derive_address(self.keypair.public_key)


# fixed provisioning seeds for the default desk-scale network
_DEFAULT_PEER_SEEDS = {
    "peer1": sha256(b"iotid/peer/1"),
    "peer2": sha256(b"iotid/peer/2"),
    "peer3": sha256(b"iotid/peer/3"),
}
_DEFAULT_REGISTRAR_SEED = sha256(b"iotid/registrar/1")


def _json_int(d: dict, name: str, default: int | None) -> int | None:
    if name not in d:
        return default
    value = d[name]
    # int() would truncate 2.7, and JSON true is a Python int
    if type(value) is not int:
        raise ValueError(f"{name} must be a JSON integer, got {value!r}")
    return value


@dataclass
class GenesisConfig:
    """Network provisioning: peer roster, endorsement policy, block size.

    m-of-n endorsement: a transaction needs ``threshold`` distinct valid
    peer signatures; ``None`` at construction means a majority. Seeds,
    peer and registrar names, the threshold and the block size are checked
    here, before any key is derived.
    """

    peers: list[Member]
    registrars: list[Member]
    threshold: int | None = None
    max_block_txs: int = 10

    def __post_init__(self):
        members = (*self.peers, *self.registrars)
        if any(len(m.seed) != SEED_BYTES for m in members):
            raise ValueError(f"seed must be {SEED_BYTES} bytes")
        if any(type(m.name) is not str for m in members):
            raise ValueError("peer ids and registrar names must be strings")
        if len({p.name for p in self.peers}) != len(self.peers):
            raise ValueError("duplicate peer ids in roster")
        if self.threshold is None:
            self.threshold = len(self.peers) // 2 + 1
        if not 1 <= self.threshold <= len(self.peers):
            raise ValueError(
                f"threshold {self.threshold} out of range for roster of {len(self.peers)}")
        if self.max_block_txs < 1:
            raise ValueError(f"maxBlockTxs must be at least 1, got {self.max_block_txs}")

    def registrar_addresses(self) -> list[str]:
        return sorted(str(r.address) for r in self.registrars)

    def to_dict(self) -> dict:
        return {
            "maxBlockTxs": self.max_block_txs,
            "endorsementThreshold": self.threshold,
            "peers": [{"id": p.name, "seed": p.seed.hex(),
                       "publicKey": p.keypair.public_key.hex()} for p in self.peers],
            "registrars": [{"name": r.name, "seed": r.seed.hex(),
                            "address": str(r.address)} for r in self.registrars],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GenesisConfig":
        return cls(
            peers=[Member(p["id"], bytes.fromhex(p["seed"])) for p in d["peers"]],
            registrars=[Member(r["name"], bytes.fromhex(r["seed"]))
                        for r in d.get("registrars", [])],
            threshold=_json_int(d, "endorsementThreshold", None),
            max_block_txs=_json_int(d, "maxBlockTxs", 10),
        )

    @classmethod
    def default(cls) -> "GenesisConfig":
        return cls(
            peers=[Member(pid, seed) for pid, seed in _DEFAULT_PEER_SEEDS.items()],
            registrars=[Member("registrar", _DEFAULT_REGISTRAR_SEED)],
        )

    @classmethod
    def from_block(cls, block: Block) -> "GenesisConfig":
        try:  # block 0's one transaction carries the config as its argument
            return cls.from_dict(json.loads(block.transactions[0].proposal.args[0]))
        except (IndexError, KeyError, TypeError, ValueError) as exc:
            raise LedgerError(f"block 0 carries no network config: {exc}") from exc


@dataclass
class ChainReport:
    ok: bool
    height: int
    bad_block: int | None = None
    reason: str | None = None

    def to_dict(self) -> dict:
        return {"ok": self.ok, "height": self.height,
                "badBlock": self.bad_block, "reason": self.reason}


class LedgerEngine:
    """Single-channel ledger: solo ordering, m-of-n endorsement, MVCC commit.

    A proposal is endorsed by the first m peers of the roster, and validation
    accepts any m distinct roster signatures. Each endorser executes and
    signs, while the body is encoded and the txId hashed once per proposal
    (``build_transaction``); a divergent rwset still rejects the proposal.
    Proposal execution yields a deterministic rwset over the committed
    state and writes nothing: an
    upload's payload rides on its transaction, and the commit writes the
    payloads of the block's VALID transactions to the content store, one
    file per block, before it appends the block to the journal. A content
    write that fails commits nothing. Ordering, validation, and commit run
    as one serialized pipeline. A peer's signing key is derived when it
    first endorses or when validation first verifies its endorsement, so an
    engine that only reads derives none, and one that commits only its own
    submissions derives only its endorsers' keys.
    The engine remembers ``(signer public key, txId, signature)`` of each
    endorsement it has made since its last commit, and validation counts
    an endorsement that matches one of them without verifying it again;
    the commit forgets them all. Queries only ever see fully committed
    blocks. Each commit advances the clock ``commit_tick`` seconds: a
    ``SimClock`` one second by default.
    """

    def __init__(self, directory: str | Path, store: ContentStore,
                 contracts: dict[str, Contract], clock: Clock | None = None,
                 commit_tick: float = 1.0, genesis: GenesisConfig | None = None,
                 force: bool = False):
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self.store = store
        self.contracts = dict(contracts)
        self.clock = clock if clock is not None else WallClock()
        self.commit_tick = commit_tick
        self._offset = 0  # journal bytes up to the end of the tip block
        self._pending: list[Transaction] = []
        # txId -> (flag, block) of every tx this engine instance committed
        self._receipts: dict[bytes, tuple[str, int]] = {}
        # (signing bytes, signature) of the last proposal that authenticated
        self._authenticated: tuple[bytes, bytes] | None = None
        # (public key, txId, signature) of each endorsement made since the
        # last commit: signatures that verify, as Ed25519 signing is
        # deterministic and RFC 8032 verify accepts all that a key makes
        self._signed: set[tuple[bytes, bytes, bytes]] = set()
        self._held: Path | None = None  # the directory whose .lock we share
        self._acquire_lock()
        try:
            journal = self._dir / BLOCKS_FILE
            if genesis is None:
                self.genesis = self._replay()
                # a commit cut short after its content write, or a torn last
                # record that replay cut off, may have left the file of the
                # block number that the next commit takes
                self.store.remove_block(self.height)
            elif journal.exists() and not force:
                raise LedgerError(f"ledger already exists at {self._dir}")
            else:  # provisioning replaces any old ledger
                self.genesis = genesis
                block = self._genesis_block()  # a bad config raises before the unlink
                journal.unlink(missing_ok=True)
                self.store.remove_blocks()  # the old chain's, which the new one would inherit
                self._new_store()
                self.commit_block(block)
        except BaseException:
            if hasattr(self, "state"):  # none yet when provisioning is refused
                self.state.close()
            self._release()
            raise

    # -- lifecycle -----------------------------------------------------

    @classmethod
    def create(cls, directory: str | Path, genesis: GenesisConfig,
               store: ContentStore, contracts: dict[str, Contract],
               clock: Clock | None = None, commit_tick: float = 1.0,
               force: bool = False) -> "LedgerEngine":
        """Provision a ledger; ``force`` replaces its journal under the lock."""
        return cls(directory, store, contracts, clock, commit_tick,
                   genesis=genesis, force=force)

    @classmethod
    def open(cls, directory: str | Path, store: ContentStore,
             contracts: dict[str, Contract], clock: Clock | None = None,
             commit_tick: float = 1.0) -> "LedgerEngine":
        """Open an existing ledger: config and world state come from replay."""
        if not (Path(directory) / BLOCKS_FILE).exists():
            raise LedgerError(f"no ledger at {directory}")
        return cls(directory, store, contracts, clock, commit_tick)

    def close(self) -> None:
        """Flush the state store, then release the directory; a second call is a no-op.

        The flush runs under the lock and writes, in one transaction, the
        keys applied since the last flush (a query's, or else the open's
        savepoint) with the tip block as the new savepoint. The lock is
        freed when the last engine of this process closes.
        """
        try:
            if self._held is not None:
                self.state.flush()
        finally:
            self.state.close()
            self._release()

    def _release(self) -> None:
        key, self._held = self._held, None
        if key is None:
            return
        held = _open_engines[key]
        held[1] -= 1
        if not held[1]:
            del _open_engines[key]
            os.close(held[0])  # never unlinked: a new inode would be a second lock

    def __enter__(self) -> "LedgerEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _acquire_lock(self) -> None:
        """Hold an ``flock`` on ``.lock``; engines in one process share its fd.

        The kernel frees the lock when its holder exits, however it exits.
        """
        key = self._dir.resolve()
        if key not in _open_engines:
            fd = os.open(key / LOCK_FILE, os.O_RDWR | os.O_CREAT, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                os.close(fd)
                raise LedgerLocked(f"ledger in use: {key / LOCK_FILE}") from None
            _open_engines[key] = [fd, 0]
        _open_engines[key][1] += 1
        self._held = key

    # -- genesis and replay ---------------------------------------------

    def _genesis_block(self) -> Block:
        """Block 0: an engine-built config transaction, exempt from policy."""
        config = self.genesis
        proposal = TxProposal(
            invoker=ZERO_ADDRESS,
            invoker_key=bytes(32),
            contract="config",
            function="genesis",
            args=[canonical_json(config.to_dict()).decode("utf-8")],
            nonce=bytes(32),
            timestamp=int(self.clock.now()),
        )
        # the one config key a contract reads (idm.create_identity)
        rwset = ReadWriteSet(writes=[
            (KEY_CONFIG + "registrars", canonical_json(config.registrar_addresses())),
        ])
        tx = Transaction(proposal=proposal, rwset=rwset, endorsements=[])
        return Block.cut(0, ZERO_HASH, [tx], [VALID])

    def _replay(self) -> GenesisConfig:
        """Rebuild the world state up to the journal's last block; return block 0's config.

        Replay starts after the store's savepoint if it matches the journal;
        otherwise the store is made anew and replay starts at block 0. A
        record that fails chain-verify's checks raises CorruptJournal before
        it is applied. A torn last record was never committed: it is cut
        off, and the ledger opens at the height before it (never below block 0).
        """
        path = self._dir / BLOCKS_FILE
        genesis = self._open_store(path)
        if genesis is None:
            self._new_store()
        height, tip_hash, _ = self.state.tip
        try:
            for block, header_hash, size in _walk(path, self._offset, height, tip_hash,
                                                  decode=True):
                if block.number == 0:
                    genesis = block.config
                self._apply_block(block, header_hash, size)
        except CorruptJournal as exc:
            if exc.torn_at is None or genesis is None:
                raise
            os.truncate(path, exc.torn_at)
        return genesis

    def _open_store(self, journal: Path) -> GenesisConfig | None:
        """Take the state store, at its savepoint's tip, if that savepoint matches.

        It matches when the journal holds a whole record at its ``tipStart``
        that is its last block: the number and header hash agree. Returns
        block 0's config then; otherwise None, with the store closed.
        """
        try:
            state = WorldState(self._dir / STATE_FILE)
        except sqlite3.Error:  # unreadable, not an SQLite file, or of another format
            return None
        point = state.savepoint()
        if point is not None:
            height, tip_hash, tip_start = point
            # a record past the end raises StopIteration; the full replay
            # reports what is wrong. A savepoint at height 1 names block 0,
            # which the first walk has read already
            try:
                block, last_hash, size = next(_walk(journal))
                genesis = block.config
                if (height, tip_start) != (1, 0):
                    _, last_hash, size = next(_walk(journal, tip_start, height - 1, None))
            except (LedgerError, OSError, StopIteration, TypeError):
                last_hash = None
            if last_hash == tip_hash:
                self.state, state.tip = state, point
                self._offset = tip_start + size
                return genesis
        state.close()
        return None

    def _new_store(self) -> None:
        """Replace the state store with an empty one, which the next flush fills.

        Runs under the lock, before any block is applied. A store that
        cannot be made is made in memory instead.
        """
        for path in _store_files(self._dir / STATE_FILE):
            path.unlink(missing_ok=True)
        try:
            self.state = WorldState(self._dir / STATE_FILE)
        except sqlite3.Error:
            self.state = WorldState()

    def _apply_block(self, block: Block, header_hash: bytes, size: int) -> None:
        """Apply VALID writes; ``size`` is the block's record length, newline included."""
        for idx, (tx, flag) in enumerate(zip(block.transactions,
                                             block.validation_flags)):
            if flag == VALID:
                self.state.apply(tx.rwset.writes, (block.number, idx))
        self.state.tip = (block.number + 1, header_hash, self._offset)
        self._offset += size

    # -- execution -------------------------------------------------------

    def execute_proposal(self, proposal: TxProposal) -> Transaction:
        """Authenticate the proposal, then run its contract function on the snapshot.

        Returns the unendorsed transaction: the proposal, its rwset and the
        content the contract staged for the content store. Identical
        snapshot and proposal always yield an identical result, and nothing
        is written. The execution harness brackets the call with nonce
        replay protection (a read+write of the invoker's nonce key), so
        replays fail here and same-block duplicates fall out of MVCC.
        """
        self._authenticate(proposal)
        contract = self.contracts.get(proposal.contract)
        if contract is None:
            raise UnknownContract(proposal.contract)
        ctx = TxContext(self.state, proposal)
        nonce_key = f"{KEY_NONCE}{proposal.invoker}/{proposal.nonce.hex()}"
        if ctx.get(nonce_key) is not None:
            raise ContractError("NonceReplayed",
                                f"nonce already used by {proposal.invoker}")
        contract.invoke(ctx, proposal.function, proposal.args)
        ctx.put(nonce_key, b"\x01")
        return Transaction(proposal, ctx.rwset(), [], ctx.content)

    def _authenticate(self, proposal: TxProposal) -> None:
        """Refuse a proposal unless its key hashes to the invoker and signed it.

        The last proposal that passed is remembered by its signing bytes,
        which name the invoker and its key, and its signature: the endorsers'
        executions of one proposal share one Ed25519 verify. A changed field
        is checked afresh, and a proposal that fails is never remembered.
        """
        checked = (proposal.signing_bytes(), proposal.signature)
        if checked == self._authenticated:
            return
        if derive_address(proposal.invoker_key) != proposal.invoker:
            raise InvalidProposalSignature("invoker key does not match invoker address")
        if not verify_signature(proposal.invoker_key, *checked):
            raise InvalidProposalSignature("proposal signature invalid")
        self._authenticated = checked

    @cached_property
    def _peers(self) -> dict[str, Member]:
        """Roster peer id -> member; a member's key is derived when it is first used."""
        return {p.name: p for p in self.genesis.peers}

    def endorse(self, peer: Member, proposal: TxProposal,
                first: Transaction | None = None) -> Transaction:
        """One roster peer executes the proposal and signs the txId of the result.

        ``first`` is another peer's transaction of this same proposal
        object. A result whose rwset equals first's has first's body, so it
        takes first's body and txId, as a record read from the journal
        keeps the ones it stores, instead of encoding and hashing them
        again; any other result computes its own.
        """
        tx = self.execute_proposal(proposal)
        if first is not None and tx.rwset == first.rwset:
            tx._body, tx.tx_id = first._body, first.tx_id
        signature = peer.keypair.sign(tx.tx_id)
        self._signed.add((peer.keypair.public_key, tx.tx_id, signature))
        tx.endorsements.append(Endorsement(peer.name, signature))
        return tx

    def build_transaction(self, proposal: TxProposal) -> Transaction:
        """Collect the endorsements of the first ``threshold`` roster peers.

        Those are all the policy needs, and roster order keeps the journal
        the same from run to run. Each executes the proposal and signs; the
        body is encoded and the txId hashed once, by the first, and every
        later peer whose rwset equals the first's shares them. A peer whose
        rwset differs computes its own txId and signs it, and once every
        peer has signed, the first disagreeing txId raises RwsetMismatch.
        """
        first, *rest = self.genesis.peers[:self.genesis.threshold]
        tx = self.endorse(first, proposal)
        others = [self.endorse(peer, proposal, tx) for peer in rest]
        for other in others:
            if other.tx_id != tx.tx_id:
                raise RwsetMismatch(
                    f"peer {other.endorsements[0].peer_id} computed a different rwset")
            tx.endorsements += other.endorsements
        return tx

    # -- ordering ----------------------------------------------------------

    def order_batch(self, transactions: list[Transaction]) -> Block:
        """Solo ordering: arrival order, hashes filled, flags unset."""
        if not transactions:
            raise EmptyBatch("no transactions to order")
        height, tip_hash, _ = self.state.tip
        return Block.cut(height, tip_hash, transactions)

    # -- validation ---------------------------------------------------------

    def _endorsements_satisfy_policy(self, tx: Transaction) -> bool:
        """True once ``threshold`` distinct roster peers have signed the txId.

        Peers off the roster and peers already counted are skipped unchecked,
        and checking stops at the threshold, so only the keys of the peers
        checked are derived. An endorsement whose ``(roster key, txId,
        signature)`` this engine made in ``endorse`` counts without a verify;
        any other, forged, relabelled, read from a journal or made elsewhere,
        is verified. The verdict is that of verifying every endorsement, with
        fewer signature checks.
        """
        tx_hash, counted, signed = tx.tx_id, set(), self._signed
        peers, threshold = self._peers, self.genesis.threshold
        for end in tx.endorsements:
            peer = peers.get(end.peer_id)
            if peer is None or end.peer_id in counted:
                continue
            key = peer.keypair.public_key
            if (key, tx_hash, end.signature) in signed or \
                    verify_signature(key, tx_hash, end.signature):
                counted.add(end.peer_id)
                if len(counted) >= threshold:
                    return True
        return False

    def validate_block(self, block: Block) -> list[str]:
        """Flag each transaction: policy first, then MVCC, else VALID.

        Pure with respect to the committed state; earlier VALID writes in
        the same block are visible to later MVCC checks via an overlay.
        The policy check skips the verify of an endorsement this engine
        signed since its last commit, so a block of its own submissions
        costs no Ed25519 verify. The flags are those an engine that signed
        nothing, and so verifies every endorsement, would give.
        """
        flags: list[str] = []
        overlay: dict[str, Version] = {}
        for idx, tx in enumerate(block.transactions):
            if not self._endorsements_satisfy_policy(tx):
                flags.append(POLICY_FAILURE)
                continue
            conflict = False
            for key, seen_version in tx.rwset.reads:
                if key in overlay:
                    current = overlay[key]
                else:
                    entry = self.state.get(key)
                    current = entry[1] if entry is not None else None
                if current != seen_version:
                    conflict = True
                    break
            if conflict:
                flags.append(MVCC_CONFLICT)
                continue
            flags.append(VALID)
            for key, _ in tx.rwset.writes:
                overlay[key] = (block.number, idx)
        return flags

    # -- commitment -----------------------------------------------------------

    def commit_block(self, block: Block) -> Block:
        """Write its VALID content, append the validated block, apply its VALID
        writes, forget what was signed.

        The content goes first, so a block in the journal never lacks its
        file, and a write that fails leaves the journal and state as they
        were. An append that fails removes the block's file again and
        leaves the clock as it was, so no file names a block that was not
        committed and a retry stamps what an unfailed run stamps.
        """
        if problem := _link_problem(block.link, *self.state.tip[:2]):
            raise NonSequentialBlock(problem)
        if content := [data for tx, flag in zip(block.transactions, block.validation_flags)
                       if flag == VALID for data in tx.content]:
            self.store.put_block(block.number, content)
        record, header_hash = block.encode()
        try:
            with open(self._dir / BLOCKS_FILE, "ab") as fh:
                fh.write(record + b"\n")
        except BaseException:
            if content:
                self.store.remove_block(block.number)
            raise
        self.clock.advance(self.commit_tick)
        self._apply_block(block, header_hash, len(record) + 1)
        for tx, flag in zip(block.transactions, block.validation_flags):
            # a txId submitted twice lands twice; its first copy is the receipt
            self._receipts.setdefault(tx.tx_id, (flag, block.number))
        self._signed.clear()
        return block

    # -- submission pipeline ------------------------------------------------

    def submit(self, proposal: TxProposal) -> bytes:
        """Endorse on the peers the policy needs and queue; cuts a block when the batch fills."""
        tx = self.build_transaction(proposal)
        self._pending.append(tx)
        if len(self._pending) >= self.genesis.max_block_txs:
            self.flush()
        return tx.tx_id

    def flush(self) -> Block | None:
        """Cut, validate and commit whatever is pending; None if nothing is.

        What is pending stays so until the commit succeeds, so a flush that
        raises can be retried.
        """
        if not self._pending:
            return None
        block = self.order_batch(self._pending)
        block.validation_flags = self.validate_block(block)
        self.commit_block(block)
        self._pending = []
        return block

    # -- queries ---------------------------------------------------------------

    @property
    def height(self) -> int:
        return self.state.tip[0]

    def tx_flag(self, tx_id: bytes) -> str | None:
        """Validation flag of a tx this engine committed, else None."""
        receipt = self._receipts.get(tx_id)
        return receipt[0] if receipt is not None else None

    def block_number_of(self, tx_id: bytes) -> int | None:
        """Block that committed a tx through this engine.

        None while the tx is pending, and for any tx this engine instance
        did not commit (e.g. one committed before the ledger was reopened);
        the journal itself is never re-read.
        """
        receipt = self._receipts.get(tx_id)
        return receipt[1] if receipt is not None else None

    def read_blocks(self) -> list[Block]:
        return [block for block, _, _ in _walk(self._dir / BLOCKS_FILE, decode=True)]


# ledger directory -> [fd holding the flock on its .lock, engines open on it]
# in this process; flock conflicts between two fds even in one process
_open_engines: dict[Path, list[int]] = {}


def _walk(path: str | Path, start: int = 0, height: int | None = 0,
          tip_hash: bytes | None = ZERO_HASH, end: int | None = None,
          decode: bool = False) -> Iterator[tuple[Block | None, bytes, int]]:
    """Stream the journal from byte ``start``: ``(block, header hash, record size)``.

    Block ``height`` begins at ``start`` and must extend ``tip_hash`` (None:
    unknown, so its number or prevHash goes unchecked), each later block the
    one before it; the walk stops at the record boundary ``end`` (None: the
    end of the file). It is the journal's one framing-and-link loop, and
    ``_read_record`` its one check of a record. The block is None unless
    ``decode`` asks for it, as open's replay and ``read_blocks`` do, or it is
    block 0, whose config every reader checks. Raises CorruptJournal at the
    first bad record, on an empty journal, or with ``torn_at`` set at an
    unterminated (torn) last record.
    """
    with open(path, "rb") as fh:
        fh.seek(start)
        for raw in fh:
            if start == end:
                break
            if not raw.endswith(b"\n"):
                raise CorruptJournal(height, "unterminated last record", torn_at=start)
            block, link, header_hash = _read_record(height, raw, decode)
            if height is None:
                height = link[0]
            if problem := _link_problem(link, height, tip_hash or link[1]):
                raise BrokenChainLink(height, problem)
            yield block, header_hash, len(raw)
            start, height, tip_hash = start + len(raw), height + 1, header_hash
    if height == 0:
        raise CorruptJournal(0, "empty chain")


def _link_problem(link: tuple[int, bytes, int | None, int], height: int,
                  tip_hash: bytes) -> str | None:
    """Why a block of ``Block.link`` cannot extend a chain of ``height`` blocks
    ending in ``tip_hash``."""
    number, prev_hash, flags, transactions = link
    if number != height:
        return f"block number {number} at height {height}"
    if flags != transactions:
        return "flag count does not match transaction count"
    if prev_hash != tip_hash:
        return "previous-hash link broken"
    return None


@cache
def _grammar() -> tuple[re.Pattern, re.Pattern, re.Pattern]:
    """The journal's patterns: a record's header, one transaction, and its tail.

    An ASCII record matches them, with its txIds and flags hash, iff
    ``Block.from_dict(json.loads(raw)).encode()`` gives it back: keys in
    order, no space, lower-case even-length hex, integers with neither a
    leading zero nor ``-0`` nor more digits than ``json.loads`` reads, and
    strings as ``canonical_json`` writes them. A string's plain bytes run
    from space to ``~`` but for the quote and the backslash; its escapes are
    ``\\"``, ``\\\\``, ``\\b\\f\\n\\r\\t``, and lower-case ``\\uXXXX`` only for
    the other bytes below space, 0x7f and code points from 0x80. A flag is
    any string, so that an unknown one is refused as such. No repeat can
    match one text in two ways, so a refusal takes time linear in the
    record. Compiled on first use, once per process.
    """
    # re tests a byte against a class of three or more ranges with one
    # bitmap lookup, and against two ranges, or a negated class, in two
    # steps; a walk over hex and strings took a tenth longer for each. So a
    # hex digit also names \x80, which no ASCII record holds, and a string's
    # plain bytes are named, not negated.
    digit = rb'[0-9a-f\x80]'
    plain = rb'[\x20\x21\x23-\x5b\x5d-\x7e]*'
    # \u and four lower-case hex digits, but not those of a byte written as itself
    # or as a short escape: 0x08-0x0d but 0x0b, and 0x20-0x7e
    escape = rb'\\(?:["\\bfnrt]|u(?!00(?:0[89acd]|[2-6]|7[0-9a-e]))[0-9a-f]{4})'
    string = rb'"%s(?:%s%s)*"' % (plain, escape, plain)
    hex_digits = rb'(?:%s{32})*(?:%s{2}){0,15}' % (digit, digit)
    hex_ = rb'"%s"' % hex_digits
    hash_ = rb'"(%s{64})"' % digit
    most = sys.get_int_max_str_digits()  # 0: no limit
    integer = rb'(?:0|-?[1-9][0-9]%s)' % (b"{0,%d}" % (most - 1) if most else b"*")

    def items(item: bytes) -> bytes:  # each item once: the pattern compiles faster
        return rb'\[(?:%s(?:,(?!\])|(?=\])))*\]' % item

    header = re.compile(
        rb'(\{"dataHash":"(%s)","flagsHash":%s,"number":(%s),"prevHash":"(%s)")'
        rb',"transactions":\[' % (hex_digits, hash_, integer, hex_digits))
    transaction = re.compile(
        rb'\{"endorsements":%s,' % items(rb'\{"peerId":%s,"signature":%s\}' % (string, hex_))
        + rb'("proposal":\{"args":%s,"contract":%s,"function":%s,' % (items(string), string, string)
        + rb'"invoker":"0x%s{40}","invokerKey":%s,"nonce":%s,"signature":%s,'
          rb'"timestamp":%s\},' % (digit, hex_, hex_, hex_, integer)
        + rb'"rwset":\{"reads":%s,' % items(rb'\[%s,(?:null|\[%s,%s\])\]' % (string, integer, integer))
        + rb'"writes":%s\})' % items(rb'\[%s,%s\]' % (string, hex_))
        + rb',"txId":%s\}(,?)' % hash_)
    tail = re.compile(rb'\],"validationFlags":(%s)\}\n' % items(string))
    return header, transaction, tail


def _read_record(index: int | None, raw: bytes,
                 decode: bool) -> tuple[Block | None, tuple[int, bytes, int, int], bytes]:
    """``(block, Block.link, header hash)`` of a record the journal accepts;
    the block None unless ``decode`` is set or it is block 0.

    Commit writes a record as fixed glue around the pieces that its hashes
    cover, and they are hashed as stored: each txId its transaction's
    ``"proposal":…,"rwset":…`` in braces, the flags hash the flag list, the
    data hash the transaction list, and the header hash the bytes before
    ``,"transactions"`` and a closing brace. CorruptJournal gives the first
    of these reasons:

    1. a record that ``_grammar`` refuses is an "undecodable block" if it is
       not ASCII, or if it is JSON that ``Block.from_dict`` refuses, and
       otherwise a "non-canonical block encoding", as is one whose txId or
       flags hash does not hold;
    2. an "unknown validation flag";
    3. the data hash;
    4. block 0's network config.

    So a changed byte fails in its own record. Blocks carry no signature;
    checking those is for the planned deep audit.
    """
    header, transaction, tail = _grammar()
    head = header.match(raw) if raw.isascii() else None
    flags, bodies, stored = None, [], []
    if head is not None:
        at = head.end()
        more = not raw.startswith(b"]", at)
        while more and (tx := transaction.match(raw, at)) is not None:
            bodies.append(b"{" + tx[1] + b"}")
            stored.append(tx[2])
            at, more = tx.end(), tx[3]
        flags = None if more else tail.fullmatch(raw, at)
    if flags is None:
        raise CorruptJournal(index, _refusal(raw))
    tx_ids = [sha256(body) for body in bodies]
    if sha256(flags[1]).hex().encode() != head[3] or \
            [tx_id.hex().encode() for tx_id in tx_ids] != stored:
        raise CorruptJournal(index, "non-canonical block encoding")
    flag_list = json.loads(flags[1])
    if any(flag not in FLAG_VALUES for flag in flag_list):
        raise CorruptJournal(index, "unknown validation flag")
    if sha256(raw[head.end() - 1:at + 1]).hex().encode() != head[2]:
        raise CorruptJournal(index, "data hash does not match transactions")
    number = int(head[4])
    block = _decode(raw, bodies, tx_ids) if decode or number == 0 else None
    if number == 0:
        try:
            block.config
        except LedgerError as exc:
            raise CorruptJournal(index, str(exc)) from exc
    return (block, (number, bytes.fromhex(head[5].decode()), len(flag_list), len(bodies)),
            sha256(head[1] + b"}"))


def _refusal(raw: bytes) -> str:
    """Why the journal refuses a record that ``_grammar`` refuses."""
    if not raw.isascii():
        return "undecodable block"
    try:
        value = json.loads(raw)
    except (RecursionError, ValueError):
        return "non-canonical block encoding"
    try:
        Block.from_dict(value)
    except (KeyError, TypeError, ValueError):
        return "undecodable block"
    return "non-canonical block encoding"


def _decode(raw: bytes, bodies: list[bytes], tx_ids: list[bytes]) -> Block:
    """The block of a record that ``_read_record`` accepted; each transaction
    keeps its body and txId as stored, so neither is encoded again."""
    block = Block.from_dict(json.loads(raw))
    for tx, body, tx_id in zip(block.transactions, bodies, tx_ids):
        tx._body, tx.tx_id = body, tx_id
    return block


# chain-verify splits a journal into record-aligned parts of at least
# _VERIFY_PART_BYTES, one per usable CPU and at most _VERIFY_MAX_PARTS, and
# verifies every part but the first in a forked worker. On a 2-vCPU VM a
# fork round trip costs about 2.5 ms, and verifying 512 KiB of journal 4-5
# ms: a 1.1 MiB journal takes 8.8 ms serially and 7.9 ms in two parts.
_VERIFY_PART_BYTES = 512 * 1024
_VERIFY_MAX_PARTS = 4


def verify_chain_file(path: str | Path) -> ChainReport:
    """Recompute every hash and link over a persisted journal file.

    Works directly on the raw bytes, without replaying state, so it stays
    usable on a journal too damaged to open; reports the first bad block,
    a torn last record included, and never modifies the file. A large
    journal is verified in parallel parts, with the serial walk's report.
    """
    try:
        return ChainReport(ok=True, height=_verify_parts(path, _part_starts(path)))
    except FileNotFoundError:
        return ChainReport(ok=False, height=0, bad_block=0, reason="no journal file")
    except CorruptJournal as exc:
        return ChainReport(ok=False, height=exc.index, bad_block=exc.index,
                           reason=exc.reason)


def _part_starts(path: str | Path) -> list[int]:
    """Where verify's parts begin: 0, then a record boundary for each later part.

    One part, the serial walk, on a platform that cannot name the usable
    CPUs, and while other threads run: a forked child gets copies of the
    locks they may hold.
    """
    size = os.stat(path).st_size
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if threading.active_count() > 1:
        cpus = 1
    parts = min(cpus, size // _VERIFY_PART_BYTES, _VERIFY_MAX_PARTS)
    starts = [0]
    if parts < 2:
        return starts
    with open(path, "rb") as fh:
        for k in range(1, parts):
            fh.seek(k * size // parts)
            fh.readline()  # on to the end of the record the cut falls in
            if starts[-1] < fh.tell() < size:
                starts.append(fh.tell())
    return starts


def _verify_parts(path: str | Path, starts: list[int]) -> int:
    """Height of a sound journal; else CorruptJournal at its first bad record.

    The parent walks the first part while a forked worker walks each later
    one, then combines the answers in journal order. A worker cannot know
    the tip before its part, so the parent checks each part's first block
    against it as the serial walk does. Where no worker answers (fork
    failed, or the worker died), the parent walks on from there itself.
    """
    ends = [*starts[1:], None]
    workers: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    _grammar()  # compiled once, before the workers fork
    try:
        for start, end in zip(starts[1:], ends[1:]):
            try:
                workers.append(_fork_part(path, start, end))
            except OSError:
                break
        height, tip = _verify_range(path, 0, ends[0], 0, ZERO_HASH)
        rest = ends[0]  # where the blocks not yet verified begin; None: none are left
        for (_, fd), start, end in zip(workers, starts[1:], ends[1:]):
            answer = _answer(fd)
            if answer is None:
                break
            # the part's first block against the tip before it, as the serial walk checks it
            next(_walk(path, start, height, tip))
            if "reason" in answer:
                raise CorruptJournal(height + answer["count"], answer["reason"])
            height, tip, rest = height + answer["count"], bytes.fromhex(answer["tip"]), end
        if rest is not None:
            count, tip = _verify_range(path, rest, None, height, tip)
            height += count
        return height
    finally:
        # a worker that has answered is a zombie, which the signal leaves as it is
        for pid, fd in workers:
            os.kill(pid, signal.SIGKILL)
            os.close(fd)
            os.waitpid(pid, 0)


def _verify_range(path: str | Path, start: int, end: int | None, height: int,
                  tip_hash: bytes) -> tuple[int, bytes]:
    """Verify the blocks from ``start`` to ``end``: their count and the last one's hash."""
    count = 0
    for _, tip_hash, _ in _walk(path, start, height, tip_hash, end):
        count += 1
    return count, tip_hash


def _fork_part(path: str | Path, start: int, end: int | None) -> tuple[int, int]:
    """Fork a worker that verifies one part: its pid and the read end of its pipe.

    The worker writes one short answer and leaves through ``os._exit``, so it
    runs no atexit handler or finaliser, on an inherited SQLite connection
    say, and flushes no stdio buffer it inherited.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        try:
            os.write(write_fd, _part_answer(path, start, end))
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, read_fd


def _part_answer(path: str | Path, start: int, end: int | None) -> bytes:
    """A worker's answer: its block count and last hash, or where and why it failed.

    The part's first block sets its height and tip, which the parent checks.
    """
    count, tip_hash = 0, b""
    try:
        for _, tip_hash, _ in _walk(path, start, None, None, end):
            count += 1
    except CorruptJournal as exc:
        return canonical_json({"count": count, "reason": exc.reason})
    return canonical_json({"count": count, "tip": tip_hash.hex()})


def _answer(fd: int) -> dict | None:
    """The answer a worker wrote to its pipe; None if it ended without one."""
    chunks = []
    while chunk := os.read(fd, 4096):
        chunks.append(chunk)
    try:
        return json.loads(b"".join(chunks))
    except ValueError:
        return None
