"""Permissioned ledger with an execute-order-validate pipeline.

Transaction flow mirrors the Fabric model at desk scale, entirely
in-process:

1. execute: a signed proposal runs against the current committed state and
   yields a read/write set; contract errors abort here with no rwset.
2. endorse: every roster peer executes the proposal once and signs the
   txId of its own rwset; the collector checks that all peers computed
   the same txId and merges their endorsements into one transaction.
3. order: a solo orderer batches transactions in arrival order, cutting a
   block on size or timeout.
4. validate: per transaction, endorsement policy first, then MVCC (every
   read must still be at the version it saw, counting writes by earlier
   valid transactions in the same block); exactly one flag each.
5. commit: the block is appended to the hash-chained journal and valid
   writes land in the versioned world state.

Blocks persist as one append-only file of canonically encoded JSON lines,
so replaying valid transactions from genesis reproduces the world state
exactly, and any byte-level tampering is detectable from hashes alone.
Block 0 carries the network config, so the engine keeps only the journal
and a lock file in its directory; open cuts off a torn last record.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_left, insort
from contextlib import suppress
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import Iterator, Protocol

from .clock import Clock, WallClock
from .codec import canonical_json, sha256
from .did import Address, KeyPair, derive_address, generate_keypair, verify_signature
from .store import ContentStore

VALID = "VALID"
MVCC_CONFLICT = "MVCC_CONFLICT"
POLICY_FAILURE = "POLICY_FAILURE"
FLAG_VALUES = (VALID, MVCC_CONFLICT, POLICY_FAILURE)

ZERO_HASH = bytes(32)
ZERO_ADDRESS = Address(bytes(20))

BLOCKS_FILE = "blocks.jsonl"
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


class UnknownPeer(LedgerError):
    pass


class RwsetMismatch(LedgerError):
    """Endorsing peers computed different read/write sets for one proposal."""


class EmptyBatch(LedgerError):
    pass


class NonSequentialBlock(LedgerError):
    """Block does not extend the chain: wrong number, flag count or prevHash."""


class CorruptJournal(LedgerError):
    """Undecodable journal record; ``torn_at`` is the offset of a torn last one."""

    def __init__(self, index: int, reason: str, torn_at: int | None = None):
        super().__init__(f"corrupt journal at block {index}: {reason}")
        self.index, self.reason, self.torn_at = index, reason, torn_at


class LedgerLocked(LedgerError):
    """Another live process holds the ledger directory."""


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
        return cls(
            invoker=Address.from_text(d["invoker"]),
            invoker_key=bytes.fromhex(d["invokerKey"]),
            contract=d["contract"],
            function=d["function"],
            args=list(d["args"]),
            nonce=bytes.fromhex(d["nonce"]),
            timestamp=int(d["timestamp"]),
            signature=bytes.fromhex(d["signature"]),
        )


@dataclass
class ReadWriteSet:
    """Keys read (with the version seen) and keys written (None = delete)."""

    reads: list[tuple[str, Version | None]] = field(default_factory=list)
    writes: list[tuple[str, bytes | None]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "reads": [[k, list(v) if v is not None else None] for k, v in self.reads],
            "writes": [[k, v.hex() if v is not None else None] for k, v in self.writes],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ReadWriteSet":
        return cls(
            reads=[(k, tuple(v) if v is not None else None) for k, v in d["reads"]],
            writes=[(k, bytes.fromhex(v) if v is not None else None) for k, v in d["writes"]],
        )


@dataclass
class Endorsement:
    peer_id: str
    signature: bytes

    def to_dict(self) -> dict:
        return {"peerId": self.peer_id, "signature": self.signature.hex()}

    @classmethod
    def from_dict(cls, d: dict) -> "Endorsement":
        return cls(peer_id=d["peerId"], signature=bytes.fromhex(d["signature"]))


@dataclass
class Transaction:
    """An executed proposal, its read/write set and the peers' endorsements.

    The proposal and rwset are never mutated once a Transaction holds
    them, so the txId is hashed once per object.
    """

    proposal: TxProposal
    rwset: ReadWriteSet
    endorsements: list[Endorsement]

    @cached_property
    def tx_id(self) -> bytes:
        """Hash of the canonical (proposal, rwset) encoding.

        Endorsements are excluded so that attaching or stripping them never
        changes a transaction's identity. It is always computed from the
        decoded fields, never taken from a journal's stored ``txId``, so a
        tampered id fails ``verify_chain_file``'s re-encoding check.
        """
        return sha256(canonical_json({"proposal": self.proposal.to_dict(),
                                      "rwset": self.rwset.to_dict()}))

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
    """One journal entry; ``validation_flags`` is None until validated."""

    number: int
    prev_hash: bytes
    data_hash: bytes
    transactions: list[Transaction]
    validation_flags: list[str] | None = None

    @staticmethod
    def compute_data_hash(transactions: list[Transaction]) -> bytes:
        return sha256(canonical_json([t.to_dict() for t in transactions]))

    def flags_hash(self) -> bytes:
        if self.validation_flags is None:
            raise ValueError("validation flags not set")
        return sha256(canonical_json(self.validation_flags))

    def header_dict(self) -> dict:
        return {
            "dataHash": self.data_hash.hex(),
            "flagsHash": self.flags_hash().hex(),
            "number": self.number,
            "prevHash": self.prev_hash.hex(),
        }

    def header_hash(self) -> bytes:
        """Hash chained into the next block's prevHash."""
        return sha256(canonical_json(self.header_dict()))

    def to_dict(self) -> dict:
        d = self.header_dict()
        d["transactions"] = [t.to_dict() for t in self.transactions]
        d["validationFlags"] = list(self.validation_flags)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Block":
        return cls(
            number=int(d["number"]),
            prev_hash=bytes.fromhex(d["prevHash"]),
            data_hash=bytes.fromhex(d["dataHash"]),
            transactions=[Transaction.from_dict(t) for t in d["transactions"]],
            validation_flags=list(d["validationFlags"]),
        )


@dataclass(frozen=True)
class EndorsementPolicy:
    """m-of-n: a transaction needs ``threshold`` distinct valid peer signatures."""

    threshold: int
    roster: dict[str, bytes]  # peer id -> public key

    def __post_init__(self):
        if not 1 <= self.threshold <= len(self.roster):
            raise ValueError(
                f"threshold {self.threshold} out of range for roster of {len(self.roster)}")


class WorldState:
    """Current key -> (value, version) view of all valid transactions.

    Range reads walk a sorted key list kept beside the data. The first
    read builds it with one sort; from then on ``apply`` keeps it current.
    Replay only applies, so a state that is never read never sorts.
    """

    def __init__(self):
        self._data: dict[str, tuple[bytes, Version]] = {}
        self._keys: list[str] | None = None

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: str) -> tuple[bytes, Version] | None:
        return self._data.get(key)

    def _sorted_keys(self) -> list[str]:
        if self._keys is None:
            self._keys = sorted(self._data)
        return self._keys

    def range(self, prefix: str) -> list[tuple[str, bytes, Version]]:
        """All entries whose key starts with prefix, sorted by key."""
        keys, data = self._sorted_keys(), self._data
        rows = []
        for key in islice(keys, bisect_left(keys, prefix), None):
            if not key.startswith(prefix):
                break
            value, version = data[key]
            rows.append((key, value, version))
        return rows

    def apply(self, writes: list[tuple[str, bytes | None]], version: Version) -> None:
        data, keys = self._data, self._keys
        for key, value in writes:
            if value is None:
                if data.pop(key, None) is not None and keys is not None:
                    del keys[bisect_left(keys, key)]
            else:
                if keys is not None and key not in data:
                    insort(keys, key)
                data[key] = (value, version)

    def items(self) -> list[tuple[str, tuple[bytes, Version]]]:
        data = self._data
        return [(key, data[key]) for key in self._sorted_keys()]


class StateView(Protocol):
    """Read-only state access, satisfied by WorldState."""

    def get(self, key: str) -> tuple[bytes, Version] | None: ...

    def range(self, prefix: str) -> list[tuple[str, bytes, Version]]: ...


class TxContext:
    """Execution context handed to contract functions.

    Records every state read with the version it saw and stages writes in
    a deterministic order; reads of keys already written in this
    transaction return the staged value without touching the snapshot.
    """

    def __init__(self, snapshot: StateView, store: ContentStore, proposal: TxProposal):
        self._snapshot = snapshot
        self.store = store
        self.proposal = proposal
        self._reads: dict[str, Version | None] = {}
        self._writes: dict[str, bytes | None] = {}

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

    def delete(self, key: str) -> None:
        self._writes[key] = None

    def rwset(self) -> ReadWriteSet:
        return ReadWriteSet(
            reads=list(self._reads.items()),
            writes=list(self._writes.items()),
        )


class Contract(Protocol):
    """Deterministic business logic dispatched by name."""

    name: str

    def invoke(self, ctx: TxContext, function: str, args: list[str]) -> bytes: ...


@dataclass
class PeerSpec:
    peer_id: str
    seed: bytes

    @cached_property
    def keypair(self) -> KeyPair:
        return generate_keypair(self.seed)


@dataclass
class RegistrarSpec:
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


@dataclass
class GenesisConfig:
    """Network provisioning: peer roster, endorsement policy, block cutting."""

    peers: list[PeerSpec]
    registrars: list[RegistrarSpec]
    threshold: int | None = None  # None -> majority
    max_block_txs: int = 10
    batch_timeout: float = 2.0

    def effective_threshold(self) -> int:
        if self.threshold is not None:
            return self.threshold
        return len(self.peers) // 2 + 1

    def policy(self) -> EndorsementPolicy:
        roster = {p.peer_id: p.keypair.public_key for p in self.peers}
        if len(roster) != len(self.peers):
            raise ValueError("duplicate peer ids in roster")
        return EndorsementPolicy(threshold=self.effective_threshold(), roster=roster)

    def registrar_addresses(self) -> list[str]:
        return sorted(str(r.address) for r in self.registrars)

    def to_dict(self) -> dict:
        return {
            "batchTimeoutSeconds": self.batch_timeout,
            "maxBlockTxs": self.max_block_txs,
            "endorsementThreshold": self.effective_threshold(),
            "peers": [{"id": p.peer_id, "seed": p.seed.hex(),
                       "publicKey": p.keypair.public_key.hex()} for p in self.peers],
            "registrars": [{"name": r.name, "seed": r.seed.hex(),
                            "address": str(r.address)} for r in self.registrars],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GenesisConfig":
        return cls(
            peers=[PeerSpec(p["id"], bytes.fromhex(p["seed"])) for p in d["peers"]],
            registrars=[RegistrarSpec(r["name"], bytes.fromhex(r["seed"]))
                        for r in d.get("registrars", [])],
            threshold=int(d["endorsementThreshold"]) if "endorsementThreshold" in d else None,
            max_block_txs=int(d.get("maxBlockTxs", 10)),
            batch_timeout=float(d.get("batchTimeoutSeconds", 2.0)),
        )

    @classmethod
    def default(cls) -> "GenesisConfig":
        return cls(
            peers=[PeerSpec(pid, seed) for pid, seed in _DEFAULT_PEER_SEEDS.items()],
            registrars=[RegistrarSpec("registrar", _DEFAULT_REGISTRAR_SEED)],
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

    Proposal execution is pure over the committed state; ordering,
    validation, and commit run as one serialized pipeline. Queries only
    ever see fully committed blocks.
    """

    def __init__(self, directory: str | Path, store: ContentStore,
                 contracts: dict[str, Contract], clock: Clock | None = None,
                 commit_tick: float = 0.0, genesis: GenesisConfig | None = None,
                 force: bool = False):
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self.store = store
        self.contracts = dict(contracts)
        self.clock = clock if clock is not None else WallClock()
        self.commit_tick = commit_tick
        self.state = WorldState()
        self._height = 0
        self._tip_hash = ZERO_HASH
        self._pending: list[Transaction] = []
        self._pending_since: float | None = None
        # txId -> (flag, block) of every tx this engine instance committed
        self._receipts: dict[bytes, tuple[str, int]] = {}
        self._held: Path | None = None  # the directory whose .lock we share
        self._acquire_lock()
        try:
            journal = self._dir / BLOCKS_FILE
            if genesis is None:
                genesis = self._replay()
            elif journal.exists() and not force:
                raise LedgerError(f"ledger already exists at {self._dir}")
            self.genesis = genesis
            self.policy = genesis.policy()
            self._peers = {p.peer_id: p.keypair for p in genesis.peers}
            if self._height == 0:  # provisioning replaces any old journal
                journal.unlink(missing_ok=True)
                self.commit_block(self._genesis_block())
        except BaseException:
            self.close()
            raise

    # -- lifecycle -----------------------------------------------------

    @classmethod
    def create(cls, directory: str | Path, genesis: GenesisConfig,
               store: ContentStore, contracts: dict[str, Contract],
               clock: Clock | None = None, commit_tick: float = 0.0,
               force: bool = False) -> "LedgerEngine":
        """Provision a ledger; ``force`` replaces its journal under the lock."""
        return cls(directory, store, contracts, clock, commit_tick,
                   genesis=genesis, force=force)

    @classmethod
    def open(cls, directory: str | Path, store: ContentStore,
             contracts: dict[str, Contract], clock: Clock | None = None,
             commit_tick: float = 0.0) -> "LedgerEngine":
        """Open an existing ledger: config and world state come from replay."""
        if not (Path(directory) / BLOCKS_FILE).exists():
            raise LedgerError(f"no ledger at {directory}")
        return cls(directory, store, contracts, clock, commit_tick)

    def close(self) -> None:
        """Release this engine's hold on the directory; a second call is a no-op.

        ``.lock`` is unlinked when the last engine of this process closes.
        """
        key, self._held = self._held, None
        if key is None:
            return
        _open_engines[key] -= 1
        if _open_engines[key]:
            return
        del _open_engines[key]
        lock = key / LOCK_FILE
        with suppress(OSError):
            if lock.read_text().strip() == str(os.getpid()):
                lock.unlink()

    def __enter__(self) -> "LedgerEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _acquire_lock(self) -> None:
        """Hold ``.lock`` for this process; engines in one process share it."""
        key = self._dir.resolve()
        if key not in _open_engines:
            lock = key / LOCK_FILE
            for retry in (False, True):
                try:
                    fd = os.open(lock, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
                except FileExistsError:
                    if retry or not _lock_is_stale(lock):
                        raise LedgerLocked(f"ledger in use: {lock}") from None
                    lock.unlink(missing_ok=True)
                    continue
                with os.fdopen(fd, "w") as fh:
                    fh.write(str(os.getpid()))
                break
        _open_engines[key] = _open_engines.get(key, 0) + 1
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
        roster = {p.peer_id: p.keypair.public_key.hex() for p in config.peers}
        rwset = ReadWriteSet(writes=[
            (KEY_CONFIG + "registrars", canonical_json(config.registrar_addresses())),
            (KEY_CONFIG + "peers", canonical_json(roster)),
            (KEY_CONFIG + "policy", canonical_json({
                "maxBlockTxs": config.max_block_txs,
                "threshold": config.effective_threshold(),
            })),
        ])
        tx = Transaction(proposal=proposal, rwset=rwset, endorsements=[])
        return Block(number=0, prev_hash=ZERO_HASH,
                     data_hash=Block.compute_data_hash([tx]), transactions=[tx],
                     validation_flags=[VALID])

    def _replay(self) -> GenesisConfig:
        """Rebuild height, tip hash and world state; return block 0's config.

        A torn last record was never committed: it is cut off, and the
        ledger opens at the height before it (never below block 0).
        """
        path = self._dir / BLOCKS_FILE
        genesis = None
        try:
            for index, _, block in _read_journal(path):
                if problem := _link_problem(block, self._height, self._tip_hash):
                    raise LedgerError(f"broken chain link at block {index}: {problem}")
                if index == 0:
                    genesis = GenesisConfig.from_block(block)
                self._apply_block(block)
        except CorruptJournal as exc:
            if exc.torn_at is None or genesis is None:
                raise
            os.truncate(path, exc.torn_at)
        return genesis

    def _apply_block(self, block: Block) -> None:
        for idx, (tx, flag) in enumerate(zip(block.transactions,
                                             block.validation_flags)):
            if flag == VALID:
                self.state.apply(tx.rwset.writes, (block.number, idx))
        self._height = block.number + 1
        self._tip_hash = block.header_hash()

    # -- execution -------------------------------------------------------

    def execute_proposal(self, proposal: TxProposal) -> tuple[ReadWriteSet, bytes]:
        """Run the named contract function against the committed snapshot.

        Pure: identical snapshot and proposal always yield an identical
        rwset. The execution harness brackets the call with nonce replay
        protection (a read+write of the invoker's nonce key), so replays
        fail here and same-block duplicates fall out of MVCC.
        """
        if derive_address(proposal.invoker_key) != proposal.invoker:
            raise InvalidProposalSignature("invoker key does not match invoker address")
        if not verify_signature(proposal.invoker_key, proposal.signing_bytes(),
                                proposal.signature):
            raise InvalidProposalSignature("proposal signature invalid")
        contract = self.contracts.get(proposal.contract)
        if contract is None:
            raise UnknownContract(proposal.contract)
        ctx = TxContext(self.state, self.store, proposal)
        nonce_key = f"{KEY_NONCE}{proposal.invoker}/{proposal.nonce.hex()}"
        if ctx.get(nonce_key) is not None:
            raise ContractError("NonceReplayed",
                                f"nonce already used by {proposal.invoker}")
        response = contract.invoke(ctx, proposal.function, proposal.args)
        ctx.put(nonce_key, b"\x01")
        return ctx.rwset(), response

    def endorse(self, peer_id: str, proposal: TxProposal) -> Transaction:
        """One peer executes the proposal and signs the txId of its own rwset."""
        keypair = self._peers.get(peer_id)
        if keypair is None:
            raise UnknownPeer(peer_id)
        rwset, _ = self.execute_proposal(proposal)
        tx = Transaction(proposal=proposal, rwset=rwset, endorsements=[])
        tx.endorsements.append(Endorsement(peer_id, keypair.sign(tx.tx_id)))
        return tx

    def build_transaction(self, proposal: TxProposal) -> Transaction:
        """Collect every roster peer's endorsement; their txIds must agree."""
        tx, *others = [self.endorse(pid, proposal) for pid in self._peers]
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
        return Block(
            number=self._height,
            prev_hash=self._tip_hash,
            data_hash=Block.compute_data_hash(transactions),
            transactions=list(transactions),
        )

    # -- validation ---------------------------------------------------------

    def _endorsements_satisfy_policy(self, tx: Transaction) -> bool:
        tx_hash = tx.tx_id
        valid_peers = set()
        for end in tx.endorsements:
            key = self.policy.roster.get(end.peer_id)
            if key is not None and verify_signature(key, tx_hash, end.signature):
                valid_peers.add(end.peer_id)
        return len(valid_peers) >= self.policy.threshold

    def validate_block(self, block: Block) -> list[str]:
        """Flag each transaction: policy first, then MVCC, else VALID.

        Pure with respect to the committed state; earlier VALID writes in
        the same block are visible to later MVCC checks via an overlay.
        """
        flags: list[str] = []
        overlay: dict[str, Version | None] = {}
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
            for key, value in tx.rwset.writes:
                overlay[key] = (block.number, idx) if value is not None else None
        return flags

    # -- commitment -----------------------------------------------------------

    def commit_block(self, block: Block) -> Block:
        """Append the validated block and apply its VALID writes."""
        if problem := _link_problem(block, self._height, self._tip_hash):
            raise NonSequentialBlock(problem)
        self.clock.advance(self.commit_tick)
        with open(self._dir / BLOCKS_FILE, "ab") as fh:
            fh.write(canonical_json(block.to_dict()) + b"\n")
        self._apply_block(block)
        for tx, flag in zip(block.transactions, block.validation_flags):
            # a txId submitted twice lands twice; its first copy is the receipt
            self._receipts.setdefault(tx.tx_id, (flag, block.number))
        return block

    # -- submission pipeline ------------------------------------------------

    def submit(self, proposal: TxProposal) -> bytes:
        """Endorse on every peer and queue; cuts a block when the batch fills."""
        submit_time = self.clock.now()
        tx = self.build_transaction(proposal)
        self._pending.append(tx)
        if self._pending_since is None:
            self._pending_since = submit_time
        if len(self._pending) >= self.genesis.max_block_txs:
            self.commit_pending()
        return tx.tx_id

    def tick(self) -> Block | None:
        """Cut on timeout: commit pending txs older than the batch timeout."""
        if self._pending and self._pending_since is not None:
            if self.clock.now() - self._pending_since >= self.genesis.batch_timeout:
                return self.commit_pending()
        return None

    def flush(self) -> Block | None:
        """Force-cut whatever is pending."""
        if not self._pending:
            return None
        return self.commit_pending()

    def commit_pending(self) -> Block:
        block = self.order_batch(self._pending)
        self._pending = []
        self._pending_since = None
        block.validation_flags = self.validate_block(block)
        return self.commit_block(block)

    # -- queries ---------------------------------------------------------------

    @property
    def height(self) -> int:
        return self._height

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
        return [block for _, _, block in _read_journal(self._dir / BLOCKS_FILE)]

    # -- integrity ---------------------------------------------------------------

    def verify_chain(self) -> ChainReport:
        """Recompute every hash and link over the persisted journal."""
        return verify_chain_file(self._dir / BLOCKS_FILE)


# ledger directory -> engines open on it in this process, which share one .lock
_open_engines: dict[Path, int] = {}


def _lock_is_stale(lock: Path) -> bool:
    """True unless ``lock`` names another live process.

    Our own pid counts as stale: an engine of this process that holds the
    directory is counted in ``_open_engines``, so such a file is a leftover.
    """
    try:
        pid = int(lock.read_text().strip())
    except (ValueError, OSError):
        return True
    if pid <= 0 or pid == os.getpid():
        return True
    try:
        os.kill(pid, 0)
    except OSError as exc:  # PermissionError: alive, owned by another user
        return isinstance(exc, ProcessLookupError)
    return False


def _read_journal(path: Path) -> Iterator[tuple[int, bytes, Block]]:
    """Decode a journal record by record: ``(index, raw line, block)``.

    Raises CorruptJournal at the first undecodable record, on an empty
    journal, or with ``torn_at`` set at an unterminated (torn) last record.
    """
    data = path.read_bytes()
    *lines, tail = data.split(b"\n")
    for index, raw in enumerate(lines):
        try:
            block = Block.from_dict(json.loads(raw))
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptJournal(index, "undecodable block") from exc
        yield index, raw, block
    if tail:
        raise CorruptJournal(len(lines), "unterminated last record",
                             torn_at=len(data) - len(tail))
    if not lines:
        raise CorruptJournal(0, "empty chain")


def _link_problem(block: Block, height: int, tip_hash: bytes) -> str | None:
    """Why ``block`` cannot extend a chain of ``height`` blocks ending in ``tip_hash``."""
    if block.number != height:
        return f"block number {block.number} at height {height}"
    if block.validation_flags is None or \
            len(block.validation_flags) != len(block.transactions):
        return "flag count does not match transaction count"
    if block.prev_hash != tip_hash:
        return "previous-hash link broken"
    return None


def verify_chain_file(path: str | Path) -> ChainReport:
    """Recompute every hash and link over a persisted journal file.

    Works directly on the raw bytes, without replaying state, so it stays
    usable on a journal too damaged to open; reports the first bad block,
    a torn last record included, and never modifies the file.
    """
    path = Path(path)
    if not path.exists():
        return ChainReport(ok=False, height=0, bad_block=0, reason="no journal file")
    height, tip_hash = 0, ZERO_HASH
    try:
        for index, raw, block in _read_journal(path):
            problem = _link_problem(block, index, tip_hash)
            if problem is None:
                # the journal is written canonically, so any surviving byte
                # change in derived fields (txId, flagsHash, hex case) shows
                # up as a re-encoding mismatch even when parsing succeeded
                if canonical_json(block.to_dict()) != raw:
                    problem = "non-canonical block encoding"
                elif any(f not in FLAG_VALUES for f in block.validation_flags):
                    problem = "unknown validation flag"
                elif block.data_hash != Block.compute_data_hash(block.transactions):
                    problem = "data hash does not match transactions"
            if problem is not None:
                return ChainReport(ok=False, height=index, bad_block=index,
                                   reason=problem)
            height, tip_hash = index + 1, block.header_hash()
    except CorruptJournal as exc:
        return ChainReport(ok=False, height=exc.index, bad_block=exc.index,
                           reason=exc.reason)
    return ChainReport(ok=True, height=height)
