"""The ledger's journal: its record format, its one reader, and chain-verify.

Blocks persist as one append-only file of canonically encoded JSON lines,
so replaying valid transactions from genesis reproduces the world state
exactly. Every hash covers bytes that the record stores verbatim. Every
reader, open and replay, ``read_blocks`` and chain-verify, checks a
record one way: it matches a compiled grammar of exactly the bytes that
commit writes, and its hashes hold over the slices as stored. A changed
byte fails in its own record, and nothing is encoded again. A record
that the grammar refuses is never decoded: it is an "undecodable block"
if it holds a byte from 0x80, and a "non-canonical block encoding"
otherwise. Replay decodes only the write sets it applies, and every
reader block 0's config, from the bodies the match sliced; a whole record
is decoded only by ``read_blocks``. Open cuts off a torn last record. No
reader checks signatures.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import signal
import sys
import threading
from dataclasses import dataclass, field
from functools import cache, cached_property
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path
from typing import Iterator, NamedTuple

from .codec import canonical_json, from_canonical_json, sha256
from .did import SEED_BYTES, Address, KeyPair, derive_address, generate_keypair

VALID = "VALID"
MVCC_CONFLICT = "MVCC_CONFLICT"
POLICY_FAILURE = "POLICY_FAILURE"
FLAG_VALUES = (VALID, MVCC_CONFLICT, POLICY_FAILURE)

ZERO_HASH = bytes(32)

BLOCKS_FILE = "blocks.jsonl"

Version = tuple[int, int]  # (block number, tx index within block)


class LedgerError(Exception):
    """Base for ledger failures."""


class CorruptJournal(LedgerError):
    """A bad journal record; ``torn_at`` is the offset of a torn last one."""

    what = "corrupt journal"

    def __init__(self, index: int, reason: str, torn_at: int | None = None):
        super().__init__(f"{self.what} at block {index}: {reason}")
        self.index, self.reason, self.torn_at = index, reason, torn_at


class BrokenChainLink(CorruptJournal):
    what = "broken chain link"  # a record that decodes but does not extend the chain


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
        if not _well_typed(d["contract"], d["function"], d["args"], d["timestamp"]):
            raise TypeError("a proposal field of the wrong type")
        return cls(
            invoker=Address.from_text(d["invoker"]),
            invoker_key=bytes.fromhex(d["invokerKey"]),
            contract=d["contract"],
            function=d["function"],
            args=d["args"],
            nonce=bytes.fromhex(d["nonce"]),
            timestamp=d["timestamp"],
            signature=bytes.fromhex(d["signature"]),
        )


def _well_typed(contract: object, function: object, args: object, timestamp: object) -> bool:
    """Whether a proposal's fields are exactly of the types that a journal record holds."""
    return (type(contract) is type(function) is str and type(timestamp) is int
            and type(args) is list and all(type(arg) is str for arg in args))


def _array(value: object) -> list:
    """A JSON array; TypeError for a string or object, which iteration takes apart."""
    if type(value) is not list:
        raise TypeError(f"{value!r} is no array")
    return value


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
        """TypeError unless each read and write is a ``[key string, value]`` array
        and each read version null or two integers (JSON's true is none)."""
        reads, writes = _array(d["reads"]), _array(d["writes"])
        if not all(type(p) is list and len(p) == 2 and type(p[0]) is str for p in reads + writes) \
                or not all(v is None or list(map(type, _array(v))) == [int, int] for _, v in reads):
            raise TypeError("a read or write of the wrong shape")
        return cls(reads=[(k, None if v is None else tuple(v)) for k, v in reads],
                   writes=[(k, bytes.fromhex(v)) for k, v in writes])


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
    them, so they are encoded, and the txId hashed, once per object.
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
            endorsements=[Endorsement.from_dict(e) for e in _array(d["endorsements"])],
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
        (JSON's true is no integer, nor a string an array), so that a record
        which encodes back from its decode is one the journal's grammar accepts."""
        number, flags = d["number"], _array(d["validationFlags"])
        if type(number) is not int or not all(type(flag) is str for flag in flags):
            raise TypeError("a block number or flag of the wrong type")
        return cls(
            number=number,
            prev_hash=bytes.fromhex(d["prevHash"]),
            data_hash=bytes.fromhex(d["dataHash"]),
            transactions=[Transaction.from_dict(t) for t in _array(d["transactions"])],
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


@dataclass
class ChainReport:
    ok: bool
    height: int
    bad_block: int | None = None
    reason: str | None = None

    def to_dict(self) -> dict:
        return {"ok": self.ok, "height": self.height,
                "badBlock": self.bad_block, "reason": self.reason}


# _walk's read buffer: one read takes in a typical record (an upload block of
# ten transactions is about 20 KB), where the default 8 KiB took three reads
# and a join. On the benchmark's cold_commands journal a 128 KiB buffer walks
# no faster, and every open reads the buffer twice: for block 0 and for the
# savepoint's record.
_READ_BUFFER = 64 * 1024


def _walk(path: str | Path, start: int = 0, height: int | None = 0,
          tip_hash: bytes | None = ZERO_HASH,
          end: int | None = None) -> Iterator[tuple[bytes, _Record]]:
    """Stream the journal from byte ``start``: ``(record bytes, _read_record's reading)``.

    Block ``height`` begins at ``start`` and must extend ``tip_hash`` (None:
    unknown, so its number or prevHash goes unchecked), each later block the
    one before it; the walk stops at the record boundary ``end`` (None: the
    end of the file). It is the journal's one framing-and-link loop, and
    ``_read_record`` its one check of a record. Raises CorruptJournal at the
    first bad record, on an empty journal, or with ``torn_at`` set at an
    unterminated (torn) last record.
    """
    with open(path, "rb", buffering=_READ_BUFFER) as fh:
        fh.seek(start)
        for raw in fh:
            if start == end:
                break
            if not raw.endswith(b"\n"):
                raise CorruptJournal(height, "unterminated last record", torn_at=start)
            record = _read_record(height, raw)
            link = record.link
            if height is None:
                height = link[0]
            if problem := _link_problem(link, height, tip_hash or link[1]):
                raise BrokenChainLink(height, problem)
            yield raw, record
            start, height, tip_hash = start + len(raw), height + 1, record.header_hash
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


class _Record(NamedTuple):
    """What every reader takes from a record the journal accepts: ``Block.link``, header
    hash, flags, each transaction's body as stored, block 0's network config or None."""

    link: tuple[int, bytes, int, int]
    header_hash: bytes
    flags: list[str]
    bodies: list[bytes]
    config: GenesisConfig | None


def _read_record(index: int | None, raw: bytes) -> _Record:
    """What the journal reads from ``raw``, a record it accepts.

    Commit writes a record as fixed glue around the pieces that its hashes
    cover, and they are hashed as stored: each txId its transaction's
    ``"proposal":…,"rwset":…`` in braces, the flags hash the flag list, the
    data hash the transaction list, and the header hash the bytes before
    ``,"transactions"`` and a closing brace. CorruptJournal gives the first
    of these reasons:

    1. a record that ``_grammar`` refuses, never decoded, is an
       "undecodable block" if it holds a byte from 0x80 and otherwise a
       "non-canonical block encoding", as is one whose txId or flags hash
       does not hold;
    2. an "unknown validation flag";
    3. the data hash;
    4. block 0's network config.

    So a changed byte fails in its own record. Blocks carry no signature;
    checking those is for the planned deep audit.
    """
    header, transaction, tail = _grammar()
    head = header.match(raw) if (is_ascii := raw.isascii()) else None
    flags, bodies, stored = None, [], []
    if head is not None:
        at = head.end()
        more = not raw.startswith(b"]", at)
        while more and (tx := transaction.match(raw, at)) is not None:
            bodies.append(b"{" + tx[1] + b"}")
            stored.append(tx[2])
            at, more = tx.end(), tx[3]
        flags = None if more else tail.fullmatch(raw, at)
    if flags is None or hashlib.sha256(flags[1]).hexdigest().encode() != head[3] or \
            [hashlib.sha256(body).hexdigest().encode() for body in bodies] != stored:
        raise CorruptJournal(index, "non-canonical block encoding" if is_ascii
                             else "undecodable block")
    flag_list = json.loads(flags[1])
    if any(flag not in FLAG_VALUES for flag in flag_list):
        raise CorruptJournal(index, "unknown validation flag")
    if hashlib.sha256(memoryview(raw)[head.end() - 1:at + 1]).hexdigest().encode() != head[2]:
        raise CorruptJournal(index, "data hash does not match transactions")
    number, config = int(head[4]), None
    if number == 0:
        try:  # block 0's one transaction carries the config as its argument
            arg = json.loads(bodies[0])["proposal"]["args"][0]
            config = GenesisConfig.from_dict(from_canonical_json(arg.encode()))
        except (IndexError, KeyError, TypeError, ValueError) as exc:
            raise CorruptJournal(index, f"block 0 carries no network config: {exc}") from exc
    return _Record((number, bytes.fromhex(head[5].decode()), len(flag_list), len(bodies)),
                   sha256(head[1] + b"}"), flag_list, bodies, config)


def _writes(body: bytes) -> list[tuple[str, bytes]]:
    """The write set of a body that ``_read_record`` matched, decoded with no
    check from its ``"writes":[…]}}`` tail: a quote in a string is escaped,
    so ``,"writes":`` occurs nowhere else."""
    return [(key, bytes.fromhex(value))
            for key, value in json.loads(body.rpartition(b',"writes":')[2][:-2])]


# chain-verify splits a journal into record-aligned parts of at least
# _VERIFY_PART_BYTES, one per usable CPU and at most _VERIFY_MAX_PARTS, and
# verifies every part but the first in a forked worker. On a 2-vCPU VM, in a
# process that has imported only this module, a fork round trip costs about
# 1.3 ms, and verifying 512 KiB of journal about 2.5 ms: the first 1.1 MiB of
# the benchmark's cold_commands journal takes 5.4 ms serially and 4.1 ms in
# two parts.
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
            if "reason" in answer:  # at a later block of the part, so its index is known
                raise CorruptJournal(answer["index"], answer["reason"])
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


def _verify_range(path: str | Path, start: int, end: int | None, height: int | None,
                  tip_hash: bytes | None) -> tuple[int, bytes]:
    """Verify the blocks from ``start`` to ``end``: their count and the last one's hash."""
    count = 0
    for _, record in _walk(path, start, height, tip_hash, end):
        count, tip_hash = count + 1, record.header_hash
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
    try:
        count, tip_hash = _verify_range(path, start, end, None, None)
    except CorruptJournal as exc:
        return canonical_json({"index": exc.index, "reason": exc.reason})
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
