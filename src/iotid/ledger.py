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
   order. Each executes the proposal once. The first peer's result is the
   transaction, and its body is encoded and its txId hashed once; each
   later peer compares its rwset with that transaction's and signs the
   same txId, and one whose rwset differs rejects the proposal, signing
   nothing.
3. order: a solo orderer batches transactions in arrival order, cutting a
   block when it is full or on ``flush()``.
4. validate: per transaction, endorsement policy first, then MVCC (every
   read must still be at the version it saw, counting writes by earlier
   valid transactions in the same block, and no VALID proposal, committed
   or earlier in the block, may have the same invoker and nonce); exactly
   one flag each. An endorsement this engine's own peer signed since the
   last commit counts by equality with the signature it made; every other
   one is verified. A peer's key is derived only when that peer signs or
   one of its endorsements is checked.
5. commit: the content that the block's VALID transactions staged in
   execution is appended to the content store's log, as one chunk for the
   block; then the block is appended to the hash-chained journal, valid writes
   land in the versioned world state, and the proposals of valid
   transactions in its replay index. Each append writes through a
   descriptor that the commit opens and closes, and the journal's length
   is read from its own descriptor.
"""

from __future__ import annotations

import fcntl
import json
import os
import sqlite3
from contextlib import suppress
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Protocol

from .clock import Clock, WallClock
from .codec import canonical_json, write_all
from .codec import sha256  # noqa: F401 -- perfbench/tracing.py wraps ledger.sha256
from .did import Address, derive_address, verify_signature
from .did import generate_keypair  # noqa: F401 -- perfbench/tracing.py wraps ledger.generate_keypair
from .journal import (
    BLOCKS_FILE,
    MVCC_CONFLICT,
    POLICY_FAILURE,
    VALID,
    ZERO_HASH,
    Block,
    CorruptJournal,
    Endorsement,
    GenesisConfig,
    LedgerError,
    Member,
    ReadWriteSet,
    Transaction,
    TxProposal,
    Version,
    _invoker_nonce,
    _link_problem,
    _Record,
    _walk,
    _well_typed,
    _writes,
)
from .journal import FLAG_VALUES  # noqa: F401 -- perfbench/workloads.py reads ledger.FLAG_VALUES
from .journal import verify_chain_file  # noqa: F401 -- perfbench/ reads and wraps ledger.verify_chain_file
from .state import KEY_CONFIG, WorldState, _store_files
from .store import ContentStore

STATE_FILE = "state.sqlite"
LOCK_FILE = ".lock"


class InvalidProposalSignature(LedgerError):
    """Proposal rejected before execution: bad signature or key/address mismatch."""


class MalformedProposal(LedgerError):
    """A proposal field of a type, or an invoker key of a length, that no journal
    record reads back."""


class NonTextValue(LedgerError):
    """A contract wrote a value that is not UTF-8 text, which no journal record holds."""


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


class LedgerLocked(LedgerError):
    """Another live process holds the ledger directory."""


class ContractError(LedgerError):
    """Typed business-logic failure; carries a stable code and no state change."""

    def __init__(self, code: str, message: str, details: dict | None = None):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.details = details or {}


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
        try:
            value.decode("utf-8")
        except UnicodeDecodeError:
            raise NonTextValue(f"the value written to {key!r} is not UTF-8 text") from None
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


class LedgerEngine:
    """Single-channel ledger: solo ordering, m-of-n endorsement, MVCC commit.

    A proposal is endorsed by the first m peers of the roster, and validation
    accepts any m distinct roster signatures. Each endorser executes and
    signs the first endorser's transaction, whose body is encoded and txId
    hashed once per proposal (``build_transaction``); an endorser whose
    rwset differs rejects the proposal before it signs.
    Proposal execution yields a deterministic rwset over the committed
    state and writes nothing: an
    upload's payload rides on its transaction, and the commit appends the
    payloads of the block's VALID transactions to the content store's log,
    one chunk per block, before it appends the block to the journal; the
    tip names the log's length up to it. A content write that fails
    commits nothing, and open cuts off a chunk that no committed block
    names. Ordering, validation, and commit run
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
        if genesis is not None:  # open has found the journal, and so the directory
            self._dir.mkdir(parents=True, exist_ok=True)
        self.store = store
        self.contracts = dict(contracts)
        self.clock = clock if clock is not None else WallClock()
        self.commit_tick = commit_tick
        self._offset = 0  # journal bytes up to the end of the tip block
        self._pending: list[Transaction] = []
        # txId -> (flag, block) of every tx this engine instance committed
        self._receipts: dict[bytes, tuple[str, int]] = {}
        # the fields and signature of the last proposal that authenticated
        self._authenticated: tuple | None = None
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
                # record that replay cut off, may have left a chunk of the
                # block number that the next commit takes
                *tip, end = self.state.tip
                self.state.tip = (*tip, self.store.cut(end, self.height))
            elif journal.exists() and not force:
                raise LedgerError(f"ledger already exists at {self._dir}")
            else:  # provisioning replaces any old ledger
                self.genesis = genesis
                block = self._genesis_block()  # a bad config raises before the unlink
                journal.unlink(missing_ok=True)
                self.store.clear()  # the old chain's content, which the new one would inherit
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
            except OSError as exc:
                os.close(fd)
                if isinstance(exc, BlockingIOError):
                    raise LedgerLocked(f"ledger in use: {key / LOCK_FILE}") from None
                raise
            _open_engines[key] = [fd, 0]
        _open_engines[key][1] += 1
        self._held = key

    # -- genesis and replay ---------------------------------------------

    def _genesis_block(self) -> Block:
        """Block 0: an engine-built config transaction of the all-zero key, exempt from policy."""
        config = self.genesis
        proposal = TxProposal(
            invoker=derive_address(bytes(32)),
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

        Block 0 is read once, for its config and the savepoint's check.
        Replay starts after the store's savepoint if it matches the journal;
        otherwise the store is made anew and replay goes on from block 0. A
        record that fails chain-verify's checks raises CorruptJournal before
        it is applied. A torn last record was never committed: it is cut
        off, and the ledger opens at the height before it (never below block 0).
        """
        path = self._dir / BLOCKS_FILE
        walk = _walk(path)
        first = next(walk)
        if self._open_store(path, first):
            walk.close()  # and with it the journal file
            walk = _walk(path, self._offset, *self.state.tip[:2])
        else:
            self._new_store()
            walk = chain([first], walk)
        try:
            for raw, record in walk:
                valid = [(idx, tx) for idx, (flag, tx)
                         in enumerate(zip(record.flags, record.spans)) if flag == VALID]
                self._apply_block(record.link[0],
                                  [(idx, _writes(tx)) for idx, tx in valid],
                                  [_invoker_nonce(tx) for _, tx in valid],
                                  record.header_hash, len(raw), self.state.tip[3])
        except CorruptJournal as exc:
            if exc.torn_at is None:
                raise
            os.truncate(path, exc.torn_at)
        return first[1].config

    def _open_store(self, journal: Path, first: tuple[bytes, _Record]) -> bool:
        """Take the state store, at its savepoint's tip, if that savepoint matches.

        It matches when the journal holds a whole record at its ``tipStart``
        that is its last block: the number and header hash agree. ``first``
        is block 0's record, which a savepoint at height 1 names. False, with
        the store closed, if it does not match.
        """
        try:
            state = WorldState(self._dir / STATE_FILE)
        except sqlite3.Error:  # unreadable, not an SQLite file, or of another format
            return False
        point = state.savepoint()
        if point is not None:
            height, tip_hash, tip_start, _ = point
            raw, record = first
            # a record past the end raises StopIteration; the full replay
            # reports what is wrong
            try:
                if (height, tip_start) != (1, 0):
                    raw, record = next(_walk(journal, tip_start, height - 1, None))
            except (LedgerError, OSError, StopIteration, TypeError):
                record = None
            if record is not None and record.header_hash == tip_hash:
                self.state, state.tip = state, point
                self._offset = tip_start + len(raw)
                return True
        state.close()
        return False

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

    def _apply_block(self, number: int, writes: list, proposals: list[tuple[str, bytes]],
                     header_hash: bytes, size: int, content_end: int) -> None:
        """Apply block ``number``'s writes, the ``(tx index, write set)`` of each VALID
        transaction, index the ``(invoker, nonce)`` of each one's proposal, and make
        the block the tip; ``size`` is its record's length and ``content_end`` the
        content log's length up to it."""
        for idx, tx_writes in writes:
            self.state.apply(tx_writes, (number, idx))
        self.state.add_proposals(proposals)
        self.state.tip = (number + 1, header_hash, self._offset, content_end)
        self._offset += size

    # -- execution -------------------------------------------------------

    def execute_proposal(self, proposal: TxProposal) -> Transaction:
        """Authenticate the proposal, then run its contract function on the snapshot.

        Returns the unendorsed transaction: the proposal, its rwset and the
        content the contract staged for the content store. Identical
        snapshot and proposal always yield an identical result, and nothing
        is written. A proposal whose invoker and nonce the replay index
        holds is refused here, and validation flags a same-block duplicate.
        A contract's write of a value that is not UTF-8 text raises
        NonTextValue.
        """
        self._authenticate(proposal)
        contract = self.contracts.get(proposal.contract)
        if contract is None:
            raise UnknownContract(proposal.contract)
        if self.state.has_proposal(str(proposal.invoker), proposal.nonce):
            raise ContractError("NonceReplayed",
                                f"nonce already used by {proposal.invoker}")
        ctx = TxContext(self.state, proposal)
        contract.invoke(ctx, proposal.function, proposal.args)
        return Transaction(proposal, ctx.rwset(), [], ctx.content)

    def _authenticate(self, proposal: TxProposal) -> None:
        """Refuse a proposal unless it is well typed, and signed by its invoker's key.

        A field of another type than a journal record holds, or an invoker key
        of another length than 32 bytes, is refused first, with
        MalformedProposal: no reader accepts such a record, so its commit would
        close the ledger. Then the key must hash to the invoker and have
        signed the proposal. The last proposal that passed is remembered by
        its fields, ``args`` copied to a tuple, and its signature: the
        endorsers' executions of one proposal share one encode of its
        signing bytes and one Ed25519 verify. A changed field, an ``args``
        list changed in place included, is checked afresh, and a proposal
        that fails is never remembered.
        """
        if not _well_typed(proposal.contract, proposal.function, proposal.args,
                           proposal.timestamp, proposal.invoker_key):
            raise MalformedProposal("a proposal field of the wrong type")
        checked = (proposal.invoker, proposal.invoker_key, proposal.contract,
                   proposal.function, tuple(proposal.args), proposal.nonce,
                   proposal.timestamp, proposal.signature)
        if checked == self._authenticated:
            return
        if derive_address(proposal.invoker_key) != proposal.invoker:
            raise InvalidProposalSignature("invoker key does not match invoker address")
        if not verify_signature(proposal.invoker_key, proposal.signing_bytes(),
                                proposal.signature):
            raise InvalidProposalSignature("proposal signature invalid")
        self._authenticated = checked

    @cached_property
    def _peers(self) -> dict[str, Member]:
        """Roster peer id -> member; a member's key is derived when it is first used."""
        return {p.name: p for p in self.genesis.peers}

    def endorse(self, peer: Member, proposal: TxProposal,
                tx: Transaction | None = None) -> Transaction:
        """One roster peer executes the proposal and signs the transaction's txId.

        Without ``tx`` the peer's result is the transaction. ``tx`` is an
        earlier peer's transaction of this same proposal: a result whose
        rwset differs from ``tx.rwset`` raises RwsetMismatch, naming the
        peer, before it signs; otherwise the peer's endorsement joins ``tx``.
        """
        result = self.execute_proposal(proposal)
        if tx is None:
            tx = result
        elif result.rwset != tx.rwset:
            raise RwsetMismatch(f"peer {peer.name} computed a different rwset")
        signature = peer.keypair.sign(tx.tx_id)
        self._signed.add((peer.keypair.public_key, tx.tx_id, signature))
        tx.endorsements.append(Endorsement(peer.name, signature))
        return tx

    def build_transaction(self, proposal: TxProposal) -> Transaction:
        """Collect the endorsements of the first ``threshold`` roster peers.

        Those are all the policy needs, and roster order keeps the journal
        the same from run to run. The first peer's result is the
        transaction, whose body is encoded and txId hashed once; each later
        peer executes, then endorses it or, on another rwset, raises.
        """
        tx = None
        for peer in self.genesis.peers[:self.genesis.threshold]:
            tx = self.endorse(peer, proposal, tx)
        return tx

    # -- ordering ----------------------------------------------------------

    def order_batch(self, transactions: list[Transaction]) -> Block:
        """Solo ordering: arrival order, hashes filled, flags unset."""
        if not transactions:
            raise EmptyBatch("no transactions to order")
        height, tip_hash = self.state.tip[:2]
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
        the same block are visible to later MVCC checks via an overlay. A
        proposal whose invoker and nonce are those of a committed VALID
        proposal, or of one VALID earlier in the block, is an MVCC conflict.
        The policy check skips the verify of an endorsement this engine
        signed since its last commit, so a block of its own submissions
        costs no Ed25519 verify. The flags are those an engine that signed
        nothing, and so verifies every endorsement, would give.
        """
        flags: list[str] = []
        overlay: dict[str, Version] = {}
        proposals: set[tuple[str, bytes]] = set()  # of the VALID transactions so far
        for idx, tx in enumerate(block.transactions):
            if not self._endorsements_satisfy_policy(tx):
                flags.append(POLICY_FAILURE)
                continue
            proposal = (str(tx.proposal.invoker), tx.proposal.nonce)
            if proposal in proposals or self.state.has_proposal(*proposal) or \
                    self._read_changed(tx.rwset.reads, overlay):
                flags.append(MVCC_CONFLICT)
                continue
            flags.append(VALID)
            proposals.add(proposal)
            for key, _ in tx.rwset.writes:
                overlay[key] = (block.number, idx)
        return flags

    def _read_changed(self, reads: list[tuple[str, Version | None]],
                      overlay: dict[str, Version]) -> bool:
        """Whether a key read is no longer at the version seen, in ``overlay`` or else
        in the committed state."""
        for key, seen_version in reads:
            if key in overlay:
                current = overlay[key]
            else:
                entry = self.state.get(key)
                current = entry[1] if entry is not None else None
            if current != seen_version:
                return True
        return False

    # -- commitment -----------------------------------------------------------

    def commit_block(self, block: Block) -> Block:
        """Append its VALID content, append the validated block, apply its VALID
        writes, forget what was signed.

        A block off this engine's tip, or a journal that another engine has
        extended past it, raises NonSequentialBlock before any write.
        The content goes first, as the block's chunk in the content log, so
        a block in the journal never lacks its content, and a write that
        fails leaves the journal and state as they were. An append that
        fails cuts the journal and the log back to their old lengths and
        leaves the clock as it was, so nothing names a block that was not
        committed and a retry writes what an unfailed run writes.
        """
        if problem := _link_problem(block.link, *self.state.tip[:2]):
            raise NonSequentialBlock(problem)
        valid = [(idx, tx) for idx, (tx, flag) in
                 enumerate(zip(block.transactions, block.validation_flags)) if flag == VALID]
        content = [data for _, tx in valid for data in tx.content]
        content_end = end = self.state.tip[3]
        journal = self._dir / BLOCKS_FILE
        # only block 0 makes the journal: one missing past it was removed
        flags = os.O_WRONLY | os.O_APPEND | (os.O_CREAT if block.number == 0 else 0)
        try:
            fd = os.open(journal, flags, 0o666)
        except FileNotFoundError:
            raise NonSequentialBlock(f"no journal, not the tip's {self._offset} bytes") from None
        try:
            if (length := os.fstat(fd).st_size) != self._offset:
                raise NonSequentialBlock(
                    f"journal has {length} bytes, not the tip's {self._offset}")
            if content:
                content_end = self.store.put_block(block.number, content, end)
            record, header_hash = block.encode()
            try:
                write_all(fd, record + b"\n")
            except BaseException:
                with suppress(OSError):  # the append's error is the one raised
                    os.truncate(journal, self._offset)
                if content:
                    self.store.truncate(end)
                raise
        finally:
            os.close(fd)
        self.clock.advance(self.commit_tick)
        self._apply_block(block.number, [(idx, tx.rwset.writes) for idx, tx in valid],
                          [(str(tx.proposal.invoker), tx.proposal.nonce) for _, tx in valid],
                          header_hash, len(record) + 1, content_end)
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

    def last_nonce(self, invoker: Address) -> int:
        """The highest 32-byte nonce of ``invoker``'s VALID proposals, 0 if none."""
        return self.state.last_nonce(str(invoker))

    def read_blocks(self) -> list[Block]:
        """Every block of the journal, each decoded whole from a record that the walk
        accepts, so that it encodes back to that record."""
        return [Block.from_dict(json.loads(raw)) for raw, _ in _walk(self._dir / BLOCKS_FILE)]


# ledger directory -> [fd holding the flock on its .lock, engines open on it]
# in this process; flock conflicts between two fds even in one process
_open_engines: dict[Path, list[int]] = {}
