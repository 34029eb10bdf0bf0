"""The ledger's journal: its record format, its one reader, and chain-verify.

Blocks persist as one append-only file of canonically encoded JSON lines,
so replaying valid transactions from genesis reproduces the world state
exactly. Every hash covers bytes that the record stores verbatim, and no
field is stored that a reader derives: a txId is its body's hash, an
invoker its key's address. Block 0's config names the journal's format,
read first, as every format stores it, so a journal of another format is
refused at block 0 by name. Every reader, open and replay, ``read_blocks``
and chain-verify, then checks a record one way: it matches a compiled
grammar of exactly the bytes that commit writes, and its hashes hold over
the slices as stored. A changed byte fails in its own record, and nothing
is encoded again. A record that the grammar refuses is never decoded: it
is an "undecodable block" if it holds a byte from 0x80, and a
"non-canonical block encoding" otherwise. The reader copies no
transaction out of its record: it keeps where each one's groups lie, and
replay decodes only the write sets it applies and each VALID proposal's
key and nonce, from those spans. Only ``read_blocks`` decodes a whole
record. Open cuts off a torn last record. No reader checks signatures.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from dataclasses import dataclass, field
from functools import cache, cached_property
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path
from typing import Iterator, NamedTuple

from .codec import canonical_json, from_canonical_json, sha256
from .did import (PUBLIC_KEY_BYTES, SEED_BYTES, Address, KeyPair, derive_address,
                  generate_keypair)

VALID = "VALID"
MVCC_CONFLICT = "MVCC_CONFLICT"
POLICY_FAILURE = "POLICY_FAILURE"
FLAG_VALUES = (VALID, MVCC_CONFLICT, POLICY_FAILURE)

ZERO_HASH = bytes(32)

BLOCKS_FILE = "blocks.jsonl"
# What block 0's config names as ``format``. Format 2 also stored the txIds and
# invoker addresses that format 3 derives; a config that names none is of format
# 1, which wrote write values as hex and kept used nonces in world state.
JOURNAL_FORMAT = 3

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


class UnsupportedFormat(LedgerError):
    """A value in a form that this program no longer writes, and so no longer reads."""


class UnsupportedJournal(CorruptJournal, UnsupportedFormat):
    """A journal whose block 0 names format ``found``, where this program
    writes and reads format ``expected``, ``JOURNAL_FORMAT``, only."""

    what = "unsupported journal"

    def __init__(self, found: object):
        super().__init__(0, f"journal format {found!r}, where this program reads "
                            f"format {JOURNAL_FORMAT}")
        self.found, self.expected = found, JOURNAL_FORMAT


@dataclass
class TxProposal:
    """A signed request to run one contract function.

    ``invoker_key`` must hash to ``invoker``, which a record does not store
    (so the signature is checked against the invoker's registered key), and
    ``timestamp`` is the submission-time clock reading, so contract
    execution is reproducible on every endorsing peer.
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
        invoker_key = bytes.fromhex(d["invokerKey"])
        if not _well_typed(d["contract"], d["function"], d["args"], d["timestamp"], invoker_key):
            raise TypeError("a proposal field of the wrong type")
        return cls(
            invoker=derive_address(invoker_key),
            invoker_key=invoker_key,
            contract=d["contract"],
            function=d["function"],
            args=d["args"],
            nonce=bytes.fromhex(d["nonce"]),
            timestamp=d["timestamp"],
            signature=bytes.fromhex(d["signature"]),
        )


def _well_typed(contract: object, function: object, args: object, timestamp: object,
                invoker_key: object) -> bool:
    """Whether a proposal's fields are exactly of the types that a journal record holds,
    its invoker key of the one length too."""
    return (type(contract) is type(function) is str and type(timestamp) is int
            and type(args) is list and all(type(arg) is str for arg in args)
            and type(invoker_key) is bytes and len(invoker_key) == PUBLIC_KEY_BYTES)


def _array(value: object) -> list:
    """A JSON array; TypeError for a string or object, which iteration takes apart."""
    if type(value) is not list:
        raise TypeError(f"{value!r} is no array")
    return value


@dataclass
class ReadWriteSet:
    """Keys read (with the version seen, None if absent) and keys written.

    A value written is UTF-8 text, which the record holds as a JSON string:
    execution refuses any other value.
    """

    reads: list[tuple[str, Version | None]] = field(default_factory=list)
    writes: list[tuple[str, bytes]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "reads": [[k, list(v) if v is not None else None] for k, v in self.reads],
            "writes": [[k, v.decode("utf-8")] for k, v in self.writes],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ReadWriteSet":
        """TypeError unless each read and write is a ``[key string, value]`` array,
        each read version null or two integers (JSON's true is none) and each
        value written a string; UnicodeEncodeError for a value with a lone surrogate."""
        reads, writes = _array(d["reads"]), _array(d["writes"])
        if not all(type(p) is list and len(p) == 2 and type(p[0]) is str for p in reads + writes) \
                or not all(type(v) is str for _, v in writes) \
                or not all(v is None or list(map(type, _array(v))) == [int, int] for _, v in reads):
            raise TypeError("a read or write of the wrong shape")
        return cls(reads=[(k, None if v is None else tuple(v)) for k, v in reads],
                   writes=[(k, v.encode("utf-8")) for k, v in writes])


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
        """Hash of the ``{"proposal", "rwset"}`` body, which the data hash covers; no record
        stores it. Endorsements are excluded so that attaching or stripping them
        never changes a transaction's identity."""
        return sha256(self._body)

    def encode(self) -> bytes:
        """``canonical_json(self.to_dict())``, assembled around the cached body: keys
        sort endorsements < proposal < rwset, so the body after its opening brace
        ends the record verbatim, and only the endorsement list is encoded here."""
        return b"".join((b'{"endorsements":', encode_endorsements(self.endorsements),
                         b",", self._body[1:]))

    def to_dict(self) -> dict:
        return {
            "endorsements": [e.to_dict() for e in self.endorsements],
            "proposal": self.proposal.to_dict(),
            "rwset": self.rwset.to_dict(),
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
        """The config as block 0 carries it, with the journal's format number."""
        return {
            "format": JOURNAL_FORMAT,
            "maxBlockTxs": self.max_block_txs,
            "endorsementThreshold": self.threshold,
            "peers": [{"id": p.name, "seed": p.seed.hex(),
                       "publicKey": p.keypair.public_key.hex()} for p in self.peers],
            "registrars": [{"name": r.name, "seed": r.seed.hex(),
                            "address": str(r.address)} for r in self.registrars],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GenesisConfig":
        """The config of ``d``; its ``format``, which names the journal's, is not read here."""
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


def _walk(path: str | Path, start: int = 0, height: int = 0,
          tip_hash: bytes | None = ZERO_HASH) -> Iterator[tuple[bytes, _Record]]:
    """Stream the journal from byte ``start``: ``(record bytes, _read_record's reading)``.

    Block ``height`` begins at ``start`` and must extend ``tip_hash`` (None:
    unknown, so its prevHash goes unchecked), each later block the one
    before it. It is the journal's one framing-and-link loop, and
    ``_read_record`` its one check of a record. Raises CorruptJournal at the
    first bad record, on an empty journal, or with ``torn_at`` set at an
    unterminated (torn) last record.
    """
    with open(path, "rb", buffering=_READ_BUFFER) as fh:
        fh.seek(start)
        for raw in fh:
            if not raw.endswith(b"\n"):
                raise CorruptJournal(height, "unterminated last record", torn_at=start)
            record = _read_record(height, raw)
            link = record.link
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

    An ASCII record matches them, with its flags hash, iff
    ``Block.from_dict(json.loads(raw)).encode()`` gives it back: keys in
    order, no space, lower-case even-length hex, integers with neither a
    leading zero nor ``-0`` nor more digits than ``json.loads`` reads, and
    strings as ``canonical_json`` writes them. A string's plain bytes run
    from space to ``~`` but for the quote and the backslash; its escapes are
    ``\\"``, ``\\\\``, ``\\b\\f\\n\\r\\t``, and lower-case ``\\uXXXX`` only for
    the other bytes below space, 0x7f and code points from 0x80. A key has
    the 64 digits an address derives from. A value written is such a string
    of text: it holds a surrogate only as the high half of a pair before its
    low half, so that it encodes to UTF-8. A flag is any string, so that an
    unknown one is refused as such. Compiled on first use, once per process.

    No repeat can match one text in two ways. A string's plain run stops
    only at a quote or a backslash, where an escape or the closing quote
    begins; a run of n hex digits splits only as n // 32 blocks and then
    pairs; an integer's digits end at a non-digit; and an item list goes on
    only past a comma that no ``]`` follows. Backtracking into a repeat thus
    never leads to a match, so every repeat whose count can vary is
    possessive (``*+``, ``?+``, ``{m,n}+``): it keeps what it matched and no
    state to backtrack to, and accepts exactly the text, with the same
    groups, that the greedy repeat accepts. A refusal takes time linear in
    the record.
    """
    # re tests a byte against a class of three or more ranges with one
    # bitmap lookup, and against two ranges, or a negated class, in two
    # steps; a walk over hex and strings took a tenth longer for each. So a
    # hex digit also names \x80, which no ASCII record holds, and a string's
    # plain bytes are named, not negated.
    digit = rb'[0-9a-f\x80]'
    plain = rb'[\x20\x21\x23-\x5b\x5d-\x7e]*+'
    # \u and four lower-case hex digits, but not those of a byte written as itself
    # or as a short escape: 0x08-0x0d but 0x0b, and 0x20-0x7e
    unicode = rb'u(?!00(?:0[89acd]|[2-6]|7[0-9a-e])%s)[0-9a-f]{4}'
    escape = rb'\\(?:["\\bfnrt]|%s)' % (unicode % b"")
    string = rb'"%s(?:%s%s)*+"' % (plain, escape, plain)
    # text: no surrogate but a high one, 0xd800-0xdbff, just before a low one
    text_escape = rb'\\(?:["\\bfnrt]|%s|ud[89ab][0-9a-f]{2}\\ud[c-f][0-9a-f]{2})' % (
        unicode % rb'|d[89a-f]')
    text = rb'"%s(?:%s%s)*+"' % (plain, text_escape, plain)
    hex_digits = rb'(?:%s{32})*+(?:%s{2}){0,15}+' % (digit, digit)
    hex_ = rb'"%s"' % hex_digits
    hash_ = rb'"(%s{64})"' % digit
    most = sys.get_int_max_str_digits()  # 0: no limit
    integer = rb'(?:0|-?+[1-9][0-9]%s)' % (b"{0,%d}+" % (most - 1) if most else b"*+")

    def items(item: bytes) -> bytes:  # each item once: the pattern compiles faster
        return rb'\[(?:%s(?:,(?!\])|(?=\])))*+\]' % item

    header = re.compile(
        rb'(\{"dataHash":"(%s)","flagsHash":%s,"number":(%s),"prevHash":"(%s)")'
        rb',"transactions":\[' % (hex_digits, hash_, integer, hex_digits))
    # groups: the invoker key, the nonce, the write set, and the comma before
    # the next transaction
    transaction = re.compile(
        rb'\{"endorsements":%s,' % items(rb'\{"peerId":%s,"signature":%s\}' % (string, hex_))
        + rb'"proposal":\{"args":%s,"contract":%s,"function":%s,' % (items(string), string, string)
        + rb'"invokerKey":%s,"nonce":"(%s)","signature":%s,'
          rb'"timestamp":%s\},' % (hash_, hex_digits, hex_, integer)
        + rb'"rwset":\{"reads":%s,' % items(rb'\[%s,(?:null|\[%s,%s\])\]' % (string, integer, integer))
        + rb'"writes":(%s)\}' % items(rb'\[%s,%s\]' % (string, text))
        + rb'\}(,?+)')
    tail = re.compile(rb'\],"validationFlags":(%s)\}\n' % items(string))
    return header, transaction, tail


class _Record(NamedTuple):
    """What every reader takes from a record the journal accepts: ``Block.link``, header
    hash, flags, each transaction's match of ``_grammar``'s transaction pattern in the
    record, which holds where its groups lie, and block 0's network config or None."""

    link: tuple[int, bytes, int, int]
    header_hash: bytes
    flags: list[str]
    spans: list[re.Match]
    config: GenesisConfig | None


def _read_record(index: int, raw: bytes) -> _Record:
    """What the journal reads from ``raw``, a record it accepts.

    Commit writes a record as fixed glue around the pieces that its hashes
    cover, and they are hashed as stored: the flags hash the flag list, the
    data hash the transaction list, and the header hash the bytes before
    ``,"transactions"`` and a closing brace; a txId hashes its body,
    ``"proposal":…,"rwset":…`` in braces. CorruptJournal gives the first of:

    1. at index 0, UnsupportedJournal unless the config names ``JOURNAL_FORMAT``;
    2. a record that ``_grammar`` refuses, never decoded, is an
       "undecodable block" if it holds a byte from 0x80 and otherwise a
       "non-canonical block encoding", as is one whose flags hash does not
       hold;
    3. an "unknown validation flag";
    4. the data hash, which a changed body fails;
    5. block 0's network config.

    So a changed byte fails in its own record. Blocks carry no signature;
    checking those is for the planned deep audit.
    """
    header, transaction, tail = _grammar()
    if (is_ascii := raw.isascii()) and index == 0:
        try:  # every format's block 0 carries the config as its first argument
            arg = from_canonical_json(raw)["transactions"][0]["proposal"]["args"][0]
            found = from_canonical_json(arg.encode()).get("format", 1)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            found = JOURNAL_FORMAT  # for the checks below to refuse
        if found != JOURNAL_FORMAT or type(found) is not int:
            raise UnsupportedJournal(found)
    head = header.match(raw) if is_ascii else None
    flags, spans = None, []
    if head is not None:
        at = head.end()
        more = not raw.startswith(b"]", at)
        while more and (tx := transaction.match(raw, at)) is not None:
            spans.append(tx)
            at, more = tx.end(), tx[4]
        flags = None if more else tail.fullmatch(raw, at)
    if flags is None or hashlib.sha256(flags[1]).hexdigest().encode() != head[3]:
        raise CorruptJournal(index, "non-canonical block encoding" if is_ascii
                             else "undecodable block")
    flag_list = json.loads(flags[1])
    if any(flag not in FLAG_VALUES for flag in flag_list):
        raise CorruptJournal(index, "unknown validation flag")
    if hashlib.sha256(memoryview(raw)[head.end() - 1:at + 1]).hexdigest().encode() != head[2]:
        raise CorruptJournal(index, "data hash does not match transactions")
    number, config = int(head[4]), None
    if number == 0:
        try:  # block 0's first transaction, up to its comma, carries the config as its argument
            arg = json.loads(raw[spans[0].start():spans[0].start(4)])["proposal"]["args"][0]
            config = GenesisConfig.from_dict(from_canonical_json(arg.encode()))
        except (IndexError, KeyError, TypeError, ValueError) as exc:
            raise CorruptJournal(index, f"block 0 carries no network config: {exc}") from exc
    return _Record((number, bytes.fromhex(head[5].decode()), len(flag_list), len(spans)),
                   sha256(head[1] + b"}"), flag_list, spans, config)


def _invoker_nonce(tx: re.Match) -> tuple[str, bytes]:
    """The ``(invoker address, nonce)`` of the proposal that ``tx``, one of
    ``_read_record``'s spans, matched, which the replay index holds."""
    return str(derive_address(bytes.fromhex(tx[1].decode()))), bytes.fromhex(tx[2].decode())


def _writes(tx: re.Match) -> list[tuple[str, bytes]]:
    """The write set of the transaction that ``tx``, one of ``_read_record``'s
    spans, matched, decoded with no check: the grammar matched it, and its
    text encodes to UTF-8."""
    return [(key, value.encode("utf-8")) for key, value in json.loads(tx[3])]


def verify_chain_file(path: str | Path) -> ChainReport:
    """Recompute every hash and link over a persisted journal file.

    Works directly on the raw bytes, without replaying state, so it stays
    usable on a journal too damaged to open; reports the first bad block,
    a torn last record included, and never modifies the file.
    """
    try:
        return ChainReport(ok=True, height=sum(1 for _ in _walk(path)))
    except FileNotFoundError:
        return ChainReport(ok=False, height=0, bad_block=0, reason="no journal file")
    except CorruptJournal as exc:
        return ChainReport(ok=False, height=exc.index, bad_block=exc.index,
                           reason=exc.reason)
