"""Engine pipeline: signing, endorsement, ordering, MVCC, commit, replay.

Expected flag vectors and receipts are hand-walked from the pipeline
rules before being asserted, not read back from the implementation.
"""

import contextlib
import itertools
import json
import os
import tempfile
import threading
import time
from copy import deepcopy
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from iotid import journal as journal_module
from iotid import ledger as ledger_module
from iotid.clock import SimClock
from iotid.codec import canonical_json, sha256
from iotid.did import Address, KeyPair, generate_keypair, verify_signature
from iotid.store import ContentStore
from iotid.journal import (
    BLOCKS_FILE,
    FLAG_VALUES,
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
    encode_endorsements,
    encode_transactions,
    verify_chain_file,
)
from iotid.ledger import (
    LOCK_FILE,
    STATE_FILE,
    ContractError,
    EmptyBatch,
    InvalidProposalSignature,
    LedgerEngine,
    LedgerLocked,
    MalformedProposal,
    NonSequentialBlock,
    RwsetMismatch,
    TxContext,
    UnknownContract,
    UnknownFunction,
)
from iotid.state import WorldState

from util import (
    Principal,
    foreign_hold,
    lock_is_free,
    make_engine,
    reopen_engine,
    state_snapshot,
)


@pytest.fixture
def alice():
    return Principal.from_seed(11)


@pytest.fixture
def bob():
    return Principal.from_seed(12)


# -- genesis -----------------------------------------------------------------


def test_genesis_block_provisions_the_network(tmp_path, engine):
    assert engine.height == 1
    registrars, version = engine.state.get("config/registrars")
    assert version == (0, 0)
    assert json.loads(registrars) == engine.genesis.registrar_addresses()
    assert verify_chain_file(tmp_path / "ledger" / BLOCKS_FILE).ok


def test_genesis_prev_hash_is_zero(engine):
    genesis = engine.read_blocks()[0]
    assert genesis.number == 0
    assert genesis.prev_hash == ZERO_HASH
    assert genesis.validation_flags == [VALID]


def test_create_refuses_existing_ledger(tmp_path, engine):
    with pytest.raises(LedgerError):
        make_engine(tmp_path)


def test_forced_create_with_a_bad_config_keeps_the_old_ledger(tmp_path, engine):
    # a bad key is refused with the config, before any engine could open
    engine.close()
    journal = tmp_path / "ledger" / BLOCKS_FILE
    before = journal.read_bytes()
    with pytest.raises(ValueError, match="seed must be 32 bytes"):
        bad = GenesisConfig(peers=GenesisConfig.default().peers,
                            registrars=[Member("registrar", b"short")])
        LedgerEngine.create(tmp_path / "ledger", bad, ContentStore(tmp_path / "objects"),
                            {}, force=True)
    assert journal.read_bytes() == before
    assert lock_is_free(tmp_path / "ledger")


# -- proposals and signatures ---------------------------------------------------


def test_submit_and_commit(engine, alice):
    tx_id = engine.submit(alice.proposal(engine, "kv", "set", ["x", "1"]))
    engine.flush()
    assert engine.tx_flag(tx_id) == VALID
    value, version = engine.state.get("kv/x")
    assert value == b"1"
    assert version == (1, 0)
    assert engine.block_number_of(tx_id) == 1


def test_tampered_proposal_rejected(engine, alice):
    proposal = alice.proposal(engine, "kv", "set", ["x", "1"])
    proposal.args = ["x", "999"]  # args changed after signing
    with pytest.raises(InvalidProposalSignature):
        engine.submit(proposal)


def test_invoker_must_match_key(engine, alice, bob):
    proposal = alice.proposal(engine, "kv", "set", ["x", "1"])
    proposal.invoker = bob.address
    with pytest.raises(InvalidProposalSignature):
        engine.submit(proposal)


def test_submit_verifies_the_proposal_signature_once(engine, alice, monkeypatch):
    # the two endorsers of a 2-of-3 policy execute the proposal; only the
    # first verifies its signature
    proposal = alice.proposal(engine, "kv", "set", ["x", "1"])
    checks, executions = [], []
    monkeypatch.setattr(ledger_module, "verify_signature",
                        lambda *args: checks.append(args) or verify_signature(*args))
    execute = engine.execute_proposal
    monkeypatch.setattr(engine, "execute_proposal",
                        lambda p: executions.append(p) or execute(p))
    engine.submit(proposal)
    assert checks == [(proposal.invoker_key, proposal.signing_bytes(), proposal.signature)]
    assert len(executions) == 2


def test_submissions_and_their_blocks_verify_only_the_proposals(engine, alice, bob,
                                                                 monkeypatch):
    # validation counts the endorsements this engine made without a second
    # verify: 13 submissions, cut into a full block of 10 and a flushed
    # block of 3, make 13 verifies, each a proposal check
    proposals = [(alice, bob)[n % 2].proposal(engine, "kv", "set", [f"k{n}", "1"])
                 for n in range(13)]
    checks = []
    monkeypatch.setattr(ledger_module, "verify_signature",
                        lambda *args: checks.append(args) or verify_signature(*args))
    tx_ids = [engine.submit(proposal) for proposal in proposals]
    # the full block's commit forgot its 10 transactions' signatures
    assert len(engine._signed) == 3 * engine.genesis.threshold
    engine.flush()
    assert engine.height == 3
    assert [engine.tx_flag(tx_id) for tx_id in tx_ids] == [VALID] * 13
    assert checks == [(p.invoker_key, p.signing_bytes(), p.signature) for p in proposals]


class StoringContract:
    """Stages its argument as content and writes its hash to state; counts its calls."""

    name = "storing"

    def __init__(self):
        self.calls = 0

    def invoke(self, ctx, function, args):
        self.calls += 1
        data = args[0].encode("utf-8")
        ctx.content.append(data)
        ctx.put(f"storing/{args[0]}", sha256(data))


_FIELD_CHANGES = st.sampled_from(["signature", "args", "args in place", "nonce", "timestamp",
                                   "invoker", "invoker_key", "signer"])


@given(change=_FIELD_CHANGES, data=st.data())
def test_a_changed_proposal_is_verified_afresh(change, data):
    # the engine has just authenticated ``signed``; a copy with one field
    # changed must be refused by every entry point before any contract runs
    with tempfile.TemporaryDirectory() as base:
        engine = make_engine(Path(base))
        try:
            contract = engine.contracts["storing"] = StoringContract()
            alice, bob = Principal.from_seed(11), Principal.from_seed(12)
            signed = alice.proposal(engine, "storing", "put", ["first"])
            engine.submit(signed)
            engine.flush()
            if change == "signature":
                forged = replace(signed, signature=data.draw(
                    st.binary(min_size=64, max_size=64).filter(lambda b: b != signed.signature)))
            elif change == "args":
                forged = replace(signed, args=[data.draw(
                    st.text(min_size=1, max_size=8).filter(lambda a: a != "first"))])
            elif change == "args in place":  # the authenticated proposal's own list
                forged = signed
                signed.args[0] = data.draw(st.text(min_size=1, max_size=8).filter(
                    lambda a: a != "first"))
            elif change == "nonce":
                forged = replace(signed, nonce=data.draw(
                    st.binary(min_size=32, max_size=32).filter(lambda n: n != signed.nonce)))
            elif change == "timestamp":
                forged = replace(signed, timestamp=data.draw(
                    st.integers(-2**63, 2**63).filter(lambda t: t != signed.timestamp)))
            elif change == "invoker":
                forged = replace(signed, invoker=bob.address)
            elif change == "invoker_key":
                forged = replace(signed, invoker_key=bob.public_key)
            else:  # another signer's matching address and key, alice's signature
                forged = replace(signed, invoker=bob.address, invoker_key=bob.public_key)
            calls, before = contract.calls, state_snapshot(engine)
            objects = sorted((Path(base) / "objects").rglob("*"))
            for entry in (engine.submit, engine.build_transaction, engine.execute_proposal):
                with pytest.raises(InvalidProposalSignature):
                    entry(forged)
            assert contract.calls == calls
            assert engine.flush() is None
            assert state_snapshot(engine) == before
            assert sorted((Path(base) / "objects").rglob("*")) == objects
        finally:
            engine.close()


class ProbeContract:
    """Stages and writes whatever it is handed, of any type; counts its calls."""

    name = "probe"

    def __init__(self):
        self.calls = 0

    def invoke(self, ctx, function, args):
        self.calls += 1
        data = canonical_json([function, args, ctx.timestamp])
        ctx.content.append(data)
        ctx.put(f"probe/{sha256(data).hex()}", data)


# values that canonical JSON encodes, so that a proposal holding one signs
_json_values = st.one_of(st.none(), st.booleans(), st.integers(),
                         st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=3),
                         st.lists(st.text(max_size=3), max_size=2))
# (field, value): a field of a type that no journal record holds. Args that
# are no list still sign, as the signing bytes list them
_ILL_TYPED = st.one_of(
    st.tuples(st.sampled_from(["contract", "function"]),
              _json_values.filter(lambda v: type(v) is not str)),
    st.tuples(st.just("timestamp"), _json_values.filter(lambda v: type(v) is not int)),
    st.tuples(st.just("args"), st.one_of(
        st.text(max_size=3), st.tuples(st.text(max_size=3)),
        st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))),
    st.tuples(st.just("args"), st.lists(_json_values, min_size=1, max_size=3).filter(
        lambda args: any(type(arg) is not str for arg in args))),
)


@given(_ILL_TYPED)
def test_an_ill_typed_proposal_is_refused_before_any_contract_runs(change):
    # a proposal that its signer signed, but with a field of a type that no
    # journal record holds: committed, it would close the ledger for good,
    # so every entry point refuses it and leaves nothing behind
    field, value = change
    with tempfile.TemporaryDirectory() as base:
        base = Path(base)
        journal = base / "ledger" / BLOCKS_FILE
        engine = make_engine(base)
        try:
            contract = engine.contracts["probe"] = ProbeContract()
            alice = Principal.from_seed(11)
            good = alice.proposal(engine, "probe", "put", ["first"])
            bad = replace(good, **{field: value}).sign(alice.keypair)
            written, before = journal.read_bytes(), state_snapshot(engine)
            objects = sorted((base / "objects").rglob("*"))
            for entry in (engine.submit, engine.build_transaction, engine.execute_proposal):
                with pytest.raises(MalformedProposal):
                    entry(bad)
            assert contract.calls == 0
            assert engine.flush() is None
            assert journal.read_bytes() == written
            assert state_snapshot(engine) == before
            assert sorted((base / "objects").rglob("*")) == objects
            # the well-typed proposal that it was made from still commits
            tx_id = engine.submit(good)
            engine.flush()
            assert engine.tx_flag(tx_id) == VALID
        finally:
            engine.close()
        reopened = reopen_engine(base)
        try:
            assert reopened.height == 2
        finally:
            reopened.close()
        assert verify_chain_file(journal).ok


def test_each_proposal_gets_its_own_verdict(engine, alice, monkeypatch):
    good = alice.proposal(engine, "kv", "set", ["x", "1"])
    bad = replace(good, signature=bytes(64))
    checks = []
    monkeypatch.setattr(ledger_module, "verify_signature",
                        lambda *args: checks.append(args[2]) or verify_signature(*args))
    # a refused proposal is never remembered, so the good one is verified
    with pytest.raises(InvalidProposalSignature):
        engine.execute_proposal(bad)
    engine.execute_proposal(good)
    assert checks == [bad.signature, good.signature]
    # a remembered good proposal does not vouch for a bad one that follows
    with pytest.raises(InvalidProposalSignature):
        engine.execute_proposal(bad)
    engine.execute_proposal(good)
    assert checks == [bad.signature, good.signature, bad.signature]
    other = alice.proposal(engine, "kv", "set", ["y", "2"])
    engine.execute_proposal(other)  # a second good proposal is checked too
    assert checks[3:] == [other.signature]


def test_unknown_contract_and_function(engine, alice):
    with pytest.raises(UnknownContract):
        engine.submit(alice.proposal(engine, "nope", "f", []))
    for contract in ("idm", "asset"):
        with pytest.raises(UnknownFunction):
            engine.submit(alice.proposal(engine, contract, "nope", []))


def test_nonce_replay_rejected_across_blocks(engine, alice):
    proposal = alice.proposal(engine, "kv", "set", ["x", "1"])
    engine.submit(proposal)
    engine.flush()
    replay = alice.proposal(engine, "kv", "set", ["x", "2"])
    replay.nonce = proposal.nonce
    replay.sign(alice.keypair)
    with pytest.raises(ContractError) as err:
        engine.submit(replay)
    assert err.value.code == "NonceReplayed"
    assert engine.state.get("kv/x")[0] == b"1"


def test_nonce_reuse_in_one_block_conflicts(engine, alice):
    # both executions see the nonce unset; MVCC lets only the first land
    first = alice.proposal(engine, "kv", "set", ["x", "1"])
    second = alice.proposal(engine, "kv", "set", ["y", "2"])
    second.nonce = first.nonce
    second.sign(alice.keypair)
    engine.submit(first)
    engine.submit(second)
    block = engine.flush()
    assert block.validation_flags == [VALID, MVCC_CONFLICT]
    assert engine.state.get("kv/y") is None


def test_a_read_of_a_key_the_transaction_wrote_is_the_staged_value(engine, alice):
    # the committed value is never read, so the rwset records no read of the key
    engine.submit(alice.proposal(engine, "kv", "set", ["x", "1"]))
    engine.flush()
    ctx = TxContext(engine.state, alice.proposal(engine, "kv", "bump", ["x"]))
    ctx.put("kv/x", b"5")
    assert ctx.get("kv/x") == b"5"
    assert ctx.rwset() == ReadWriteSet(reads=[], writes=[("kv/x", b"5")])


def test_the_sim_clock_moves_only_forward():
    clock = SimClock(5)
    clock.advance(0)
    with pytest.raises(ValueError, match="forward"):
        clock.advance(-1)
    assert clock.now() == 5.0


def test_proposal_submitted_twice_keeps_first_receipt(engine, alice):
    # both copies share one txId; MVCC flags the second, the first is the receipt
    proposal = alice.proposal(engine, "kv", "set", ["x", "1"])
    first = engine.submit(proposal)
    second = engine.submit(proposal)
    assert first == second
    block = engine.flush()
    assert block.validation_flags == [VALID, MVCC_CONFLICT]
    assert engine.tx_flag(first) == VALID
    assert engine.block_number_of(first) == block.number


def test_receipts_cover_only_this_engines_submissions(tmp_path, engine, alice):
    tx_id = engine.submit(alice.proposal(engine, "kv", "set", ["x", "1"]))
    assert engine.block_number_of(tx_id) is None  # still pending
    engine.flush()
    assert engine.block_number_of(tx_id) == 1
    engine.close()
    reopened = reopen_engine(tmp_path)
    try:
        assert reopened.block_number_of(tx_id) is None
        assert reopened.tx_flag(tx_id) is None
    finally:
        reopened.close()


# -- ordering -----------------------------------------------------------------


def test_block_cuts_at_max_txs(engine, alice):
    for i in range(engine.genesis.max_block_txs):
        engine.submit(alice.proposal(engine, "kv", "set", [f"k{i}", "v"]))
    # the tenth submission triggered the cut on its own
    assert engine.height == 2
    assert engine.flush() is None


def test_batch_preserves_arrival_order(engine, alice, bob):
    a = engine.submit(alice.proposal(engine, "kv", "set", ["a", "1"]))
    b = engine.submit(bob.proposal(engine, "kv", "set", ["b", "2"]))
    block = engine.flush()
    assert [t.tx_id for t in block.transactions] == [a, b]


def test_empty_order_batch_rejected(engine):
    with pytest.raises(EmptyBatch):
        engine.order_batch([])
    assert engine.flush() is None


# -- endorsement policy -----------------------------------------------------------


def build_tx(engine, proposal):
    return engine.build_transaction(proposal)


def test_roster_endorsements_satisfy_policy(engine, alice):
    tx = build_tx(engine, alice.proposal(engine, "kv", "set", ["x", "1"]))
    assert len(tx.endorsements) == engine.genesis.threshold
    block = engine.order_batch([tx])
    assert engine.validate_block(block) == [VALID]


def test_stripped_endorsements_fail_policy(engine, alice):
    tx = build_tx(engine, alice.proposal(engine, "kv", "set", ["x", "1"]))
    bare = Transaction(proposal=tx.proposal, rwset=tx.rwset, endorsements=[])
    assert engine.validate_block(engine.order_batch([bare])) == [POLICY_FAILURE]


def test_threshold_is_exact(engine, alice):
    # default policy: 2 of 3
    tx = build_tx(engine, alice.proposal(engine, "kv", "set", ["x", "1"]))
    threshold = engine.genesis.threshold
    enough = Transaction(tx.proposal, tx.rwset, tx.endorsements[:threshold])
    short = Transaction(tx.proposal, tx.rwset, tx.endorsements[:threshold - 1])
    assert engine.validate_block(engine.order_batch([enough]))[0] == VALID
    assert engine.validate_block(engine.order_batch([short]))[0] == POLICY_FAILURE


def test_duplicate_peer_signatures_count_once(engine, alice):
    tx = build_tx(engine, alice.proposal(engine, "kv", "set", ["x", "1"]))
    stuffed = Transaction(tx.proposal, tx.rwset, [tx.endorsements[0]] * 3)
    assert engine.validate_block(engine.order_batch([stuffed])) == [POLICY_FAILURE]


def test_forged_endorsement_does_not_count(engine, alice):
    tx = build_tx(engine, alice.proposal(engine, "kv", "set", ["x", "1"]))
    forged = list(tx.endorsements)
    forged[0] = type(forged[0])(peer_id=forged[0].peer_id, signature=b"\x00" * 64)
    forged[1] = type(forged[1])(peer_id=forged[1].peer_id, signature=b"\x00" * 64)
    doctored = Transaction(tx.proposal, tx.rwset, forged)
    assert engine.validate_block(engine.order_batch([doctored])) == [POLICY_FAILURE]


def test_policy_stops_checking_at_the_threshold(engine, alice, monkeypatch):
    # 2 of 3, with all three roster peers' signatures made with their keys
    # outside ``endorse``, so that each one counted must be verified: with
    # every signature good the third is never checked; with peer1's
    # forged, peers 2 and 3 make the threshold on the third check
    tx = engine.execute_proposal(alice.proposal(engine, "kv", "set", ["x", "1"]))
    assert tx.endorsements == []
    signed = [Endorsement(peer.name, peer.keypair.sign(tx.tx_id))
              for peer in engine.genesis.peers]
    forged = [Endorsement(signed[0].peer_id, bytes(64)), *signed[1:]]
    block = engine.order_batch([Transaction(tx.proposal, tx.rwset, signed),
                                Transaction(tx.proposal, tx.rwset, forged)])
    checks = []
    monkeypatch.setattr(ledger_module, "verify_signature",
                        lambda *args: checks.append(args[2]) or verify_signature(*args))
    assert engine.validate_block(block) == [VALID, MVCC_CONFLICT]
    assert checks == [e.signature for e in signed[:2] + forged]


def test_threshold_endorsements_with_one_forged_fail_policy(engine, alice):
    # exactly the endorsements the policy needs, so one bad signature is one too few
    tx = build_tx(engine, alice.proposal(engine, "kv", "set", ["x", "1"]))
    assert len(tx.endorsements) == engine.genesis.threshold
    for index, endorsement in enumerate(tx.endorsements):
        forged = list(tx.endorsements)
        forged[index] = Endorsement(endorsement.peer_id, bytes(64))
        doctored = Transaction(tx.proposal, tx.rwset, forged)
        assert engine.validate_block(engine.order_batch([doctored])) == [POLICY_FAILURE]


def _tampered(kind: str, tx: Transaction, peer3: Member) -> Transaction:
    """``tx``, which the engine endorsed, changed before validation as ``kind`` says."""
    first, *rest = tx.endorsements
    rwset = tx.rwset
    if kind == "flipped-signature":
        endorsements = [Endorsement(first.peer_id, bytes([first.signature[0] ^ 1]) +
                                    first.signature[1:]), *rest]
    elif kind == "relabelled":  # peer1's signature, labelled as peer3's
        endorsements = [Endorsement(peer3.name, first.signature), *rest]
    elif kind == "changed-rwset":  # a new txId under the old signatures
        rwset = ReadWriteSet(rwset.reads, [*rwset.writes, ("kv/y", b"2")])
        endorsements = tx.endorsements
    elif kind == "duplicated":
        endorsements = [first, first]
    elif kind == "stripped":
        endorsements = []
    else:  # peer3's signature, made with its key outside ``endorse``, put first
        endorsements = [Endorsement(peer3.name, peer3.keypair.sign(tx.tx_id)), first, *rest]
    return Transaction(tx.proposal, rwset, endorsements)


@pytest.mark.parametrize("kind, flag", [
    ("flipped-signature", POLICY_FAILURE), ("relabelled", POLICY_FAILURE),
    ("changed-rwset", POLICY_FAILURE), ("duplicated", POLICY_FAILURE),
    ("stripped", POLICY_FAILURE), ("peer3-added", VALID)])
def test_a_tampered_endorsement_gets_the_flags_of_an_engine_that_signed_nothing(
        tmp_path, engine, alice, bob, kind, flag):
    # the engine endorses two transactions and one is tampered with before
    # validation; an engine opened on a copy of the journal, which endorsed
    # nothing and so verifies every signature, must give the same flags
    tx = build_tx(engine, alice.proposal(engine, "kv", "set", ["x", "1"]))
    honest = build_tx(engine, bob.proposal(engine, "kv", "set", ["z", "1"]))
    block = engine.order_batch([_tampered(kind, tx, engine.genesis.peers[2]), honest])
    (tmp_path / "copy" / "ledger").mkdir(parents=True)
    (tmp_path / "copy" / "ledger" / BLOCKS_FILE).write_bytes(
        (tmp_path / "ledger" / BLOCKS_FILE).read_bytes())
    with reopen_engine(tmp_path / "copy") as fresh:
        assert fresh._signed == set()
        expected = fresh.validate_block(block)
    assert expected == [flag, VALID]
    block.validation_flags = engine.validate_block(block)
    assert block.validation_flags == expected
    engine.commit_block(block)
    assert engine._signed == set()


_PEER_SEEDS = [bytes([n]) * 32 for n in range(40, 45)]
_PEER_KEYS = [generate_keypair(seed) for seed in _PEER_SEEDS]
_POLICY_TX = Transaction(
    TxProposal(invoker=Address(bytes(20)), invoker_key=bytes(32), contract="kv",
               function="set", args=["x", "1"], nonce=bytes(32), timestamp=1),
    ReadWriteSet(writes=[("kv/x", b"1")]), [])
# (peer number, kind): peers numbered from the roster size up are off the
# roster; a forgery is another key's signature, or the right key's over
# other bytes
_endorsement_picks = st.lists(
    st.tuples(st.integers(0, len(_PEER_KEYS) - 1),
              st.sampled_from(["valid", "foreign", "other-message"])),
    max_size=8)


@given(st.data())
def test_early_stop_policy_matches_a_full_count(data):
    n = data.draw(st.integers(1, len(_PEER_KEYS) - 1), label="roster size")
    threshold = data.draw(st.integers(1, n), label="threshold")
    roster = {f"peer{i}": _PEER_KEYS[i].public_key for i in range(n)}
    peers = {f"peer{i}": Member(f"peer{i}", _PEER_SEEDS[i]) for i in range(n)}
    tx_id = _POLICY_TX.tx_id
    endorsements, made = [], []
    for peer, kind in data.draw(_endorsement_picks, label="endorsements"):
        signer = _PEER_KEYS[(peer + 1) % len(_PEER_KEYS)] if kind == "foreign" \
            else _PEER_KEYS[peer]
        message = tx_id if kind != "other-message" else sha256(tx_id)
        endorsements.append(Endorsement(f"peer{peer}", signer.sign(message)))
        made.append((signer.public_key, message, endorsements[-1].signature))
    tx = Transaction(_POLICY_TX.proposal, _POLICY_TX.rwset, endorsements)
    full_count = len({e.peer_id for e in endorsements if e.peer_id in roster and
                      verify_signature(roster[e.peer_id], tx_id, e.signature)})
    # the engine's record of what it signed holds genuine triples only; any
    # subset of those made here, off-roster signers and signatures over
    # other bytes included, must leave the verdict that of the full count
    kept = data.draw(st.lists(st.booleans(), min_size=len(made), max_size=len(made)),
                     label="signed by the engine")
    holder = SimpleNamespace(_peers=peers, genesis=SimpleNamespace(threshold=threshold),
                             _signed={t for t, keep in zip(made, kept) if keep})
    assert LedgerEngine._endorsements_satisfy_policy(holder, tx) == \
        (full_count >= threshold)


class DriftContract:
    """Non-deterministic on purpose: every execution writes a new value."""

    name = "drift"

    def __init__(self):
        self.runs = 0

    def invoke(self, ctx, function, args):
        self.runs += 1
        ctx.put("drift/x", str(self.runs).encode("utf-8"))


def test_endorsement_rejects_divergent_rwset(engine, alice):
    engine.contracts["drift"] = DriftContract()
    proposal = alice.proposal(engine, "drift", "set", [])
    with pytest.raises(RwsetMismatch):
        engine.submit(proposal)
    assert engine.flush() is None  # nothing was queued


def test_each_commit_forgets_what_the_engine_signed(engine, alice):
    assert engine._signed == set()  # after the genesis commit
    engine.contracts["drift"] = DriftContract()
    with pytest.raises(RwsetMismatch):
        engine.submit(alice.proposal(engine, "drift", "set", []))
    assert len(engine._signed) == 1  # the first endorser signed before the mismatch
    engine.submit(alice.proposal(engine, "kv", "set", ["x", "1"]))
    assert len(engine._signed) == 3
    engine.flush()
    assert engine._signed == set()
    # a direct endorse is remembered too, and forgotten at the next commit
    peer3 = engine.genesis.peers[2]
    tx = engine.endorse(peer3, alice.proposal(engine, "kv", "set", ["y", "1"]))
    assert [e.peer_id for e in tx.endorsements] == ["peer3"]
    assert engine._signed == {(peer3.keypair.public_key, tx.tx_id,
                               tx.endorsements[0].signature)}
    block = engine.order_batch([tx])
    block.validation_flags = engine.validate_block(block)
    assert block.validation_flags == [POLICY_FAILURE]  # one endorsement of the two
    engine.commit_block(block)
    assert engine._signed == set()


@pytest.mark.parametrize("threshold", [1, 2, 3])
def test_build_transaction_executes_once_per_peer(tmp_path, alice, monkeypatch, threshold):
    # of a 3-peer roster, exactly the first ``threshold`` peers execute and
    # sign the one txId, which is encoded and hashed once for them all
    default = GenesisConfig.default()
    engine = make_engine(tmp_path, genesis=GenesisConfig(
        peers=default.peers, registrars=default.registrars, threshold=threshold))
    try:
        proposal = alice.proposal(engine, "kv", "set", ["x", "1"])
        calls, signed, encoded, hashed = [], [], [], []
        execute, sign = engine.execute_proposal, KeyPair.sign
        encode, digest = journal_module.canonical_json, journal_module.sha256
        monkeypatch.setattr(engine, "execute_proposal",
                            lambda proposal: calls.append(proposal) or execute(proposal))
        monkeypatch.setattr(KeyPair, "sign",
                            lambda keypair, message: signed.append(
                                (keypair.public_key, message)) or sign(keypair, message))
        monkeypatch.setattr(journal_module, "canonical_json",
                            lambda value: encoded.append(value) or encode(value))
        monkeypatch.setattr(journal_module, "sha256",
                            lambda data: hashed.append(data) or digest(data))
        tx = engine.build_transaction(proposal)
        endorsers = ["peer1", "peer2", "peer3"][:threshold]
        assert calls == [proposal] * threshold
        assert [e.peer_id for e in tx.endorsements] == endorsers
        assert signed == [(p.keypair.public_key, tx.tx_id)
                          for p in engine.genesis.peers[:threshold]]
        # the first execution's proposal check encodes the signing bytes,
        # which the later ones share, and the one body
        assert [value for value in encoded if "invokerKey" in value] == \
            [proposal._unsigned_dict()]
        assert [value for value in encoded if "rwset" in value] == \
            [{"proposal": proposal.to_dict(), "rwset": tx.rwset.to_dict()}]
        assert hashed == [tx._body]
        assert engine.validate_block(engine.order_batch([tx])) == [VALID]
    finally:
        engine.close()


# rwsets of the shapes TxContext.rwset() builds, over few keys, versions
# and values, so that two drawn apart are often equal
_RWSET_KEYS = st.sampled_from(["kv/x", "nonce/a", 'q"', "\\", "é", "\udcff"])
_rwset_shapes = st.builds(
    ReadWriteSet,
    reads=st.lists(st.tuples(_RWSET_KEYS, st.none() | st.tuples(st.integers(0, 1),
                                                                st.integers(0, 1))),
                   max_size=3, unique_by=lambda read: read[0]),
    writes=st.lists(st.tuples(_RWSET_KEYS, st.sampled_from([b"", b"\x01", b"1"])),
                    max_size=3, unique_by=lambda write: write[0]))
_ENDORSER = Member("peer1", _PEER_SEEDS[0])


@given(_rwset_shapes, _rwset_shapes)
def test_an_endorser_shares_the_first_txid_just_when_their_rwsets_are_equal(first, other):
    proposal = _POLICY_TX.proposal
    shared = Transaction(proposal, first, [])
    assert (other == first) == (Transaction(proposal, other, []).tx_id == shared.tx_id)
    # the endorse path: an equal rwset signs the first's txId; any other
    # raises before the endorser signs, and its result is never hashed
    executed = Transaction(proposal, deepcopy(other), [])
    engine = SimpleNamespace(_signed=set(), execute_proposal=lambda p: executed)
    if other == first:
        assert LedgerEngine.endorse(engine, _ENDORSER, proposal, shared) is shared
        signature = shared.endorsements[0].signature
        assert verify_signature(_ENDORSER.keypair.public_key, shared.tx_id, signature)
        assert engine._signed == {(_ENDORSER.keypair.public_key, shared.tx_id, signature)}
    else:
        with pytest.raises(RwsetMismatch, match="peer peer1 "):
            LedgerEngine.endorse(engine, _ENDORSER, proposal, shared)
        assert (engine._signed, shared.endorsements) == (set(), [])
    assert "tx_id" not in vars(executed)


# peer ids that JSON escapes or writes as \u escapes, lone surrogates included
_PEER_IDS = st.one_of(st.text(st.characters(exclude_categories=()), max_size=8),
                      st.sampled_from(['"', '"q"', "back\\slash", "\x00", "\n\t\x1f",
                                       "\x7f", "ünïcødé", "名前", "\U0001f600",
                                       "\udcff", "\ud83d"]))


@given(st.lists(st.builds(Endorsement, peer_id=_PEER_IDS, signature=st.binary()),
                max_size=3))
def test_the_joined_endorsement_list_is_the_canonical_encoding(endorsements):
    assert encode_endorsements(endorsements) == \
        canonical_json([e.to_dict() for e in endorsements])


def test_policy_failure_wins_over_mvcc(engine, alice, bob):
    # one tx with both problems gets exactly the policy flag
    t1 = build_tx(engine, alice.proposal(engine, "kv", "bump", ["x"]))
    t2 = build_tx(engine, bob.proposal(engine, "kv", "bump", ["x"]))
    bare = Transaction(t2.proposal, t2.rwset, [])
    block = engine.order_batch([t1, bare])
    assert engine.validate_block(block) == [VALID, POLICY_FAILURE]


def test_policy_threshold_bounds():
    peers = [Member("p", bytes(32))]
    with pytest.raises(ValueError):
        GenesisConfig(peers=peers, registrars=[], threshold=0)
    with pytest.raises(ValueError):
        GenesisConfig(peers=peers, registrars=[], threshold=2)


def test_genesis_config_majority_and_validation():
    cfg = GenesisConfig.default()
    assert cfg.threshold == 2  # majority of 3
    with pytest.raises(ValueError):
        GenesisConfig(peers=cfg.peers, registrars=[], threshold=4)
    with pytest.raises(ValueError):
        GenesisConfig(peers=[Member("p", bytes(32)), Member("p", bytes(32))],
                      registrars=[])
    assert GenesisConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()


@pytest.mark.parametrize("change", [
    {"peers": [Member("p", bytes(16))]},
    {"registrars": [Member("r", bytes(16))]},
    {"peers": [Member("p", bytes(32)), Member("p", bytes(32))]},
    {"threshold": 0},
    {"threshold": 4},
    {"max_block_txs": 0},
    {"peers": [Member(5, bytes(32))]},
    {"registrars": [Member(5, bytes(32))]},
], ids=["short-peer-seed", "short-registrar-seed", "duplicate-peer", "threshold-0",
        "threshold-above-roster", "no-block-txs", "peer-id-a-number",
        "registrar-name-a-number"])
def test_a_bad_genesis_config_is_refused_before_any_key_is_derived(monkeypatch, change):
    fields = {"peers": GenesisConfig.default().peers, "registrars": [], **change}
    monkeypatch.setattr(journal_module, "generate_keypair",
                        lambda seed: pytest.fail("derived a key"))
    with pytest.raises(ValueError):
        GenesisConfig(**fields)


# -- MVCC ---------------------------------------------------------------------


def test_same_block_same_key_conflict(engine, alice, bob):
    # hand-walked: both read kv/x at version None; the first write wins,
    # the second read is stale against the in-block overlay
    t1 = build_tx(engine, alice.proposal(engine, "kv", "bump", ["x"]))
    t2 = build_tx(engine, bob.proposal(engine, "kv", "bump", ["x"]))
    block = engine.order_batch([t1, t2])
    block.validation_flags = engine.validate_block(block)
    assert block.validation_flags == [VALID, MVCC_CONFLICT]
    engine.commit_block(block)
    assert engine.state.get("kv/x")[0] == b"1"


def test_same_block_distinct_keys_both_valid(engine, alice, bob):
    t1 = build_tx(engine, alice.proposal(engine, "kv", "bump", ["x"]))
    t2 = build_tx(engine, bob.proposal(engine, "kv", "bump", ["y"]))
    block = engine.order_batch([t1, t2])
    assert engine.validate_block(block) == [VALID, VALID]


def test_cross_block_stale_read_conflicts(engine, alice, bob):
    stale = build_tx(engine, alice.proposal(engine, "kv", "bump", ["x"]))
    engine.submit(bob.proposal(engine, "kv", "bump", ["x"]))
    engine.flush()  # kv/x now at a newer version than stale read
    block = engine.order_batch([stale])
    block.validation_flags = engine.validate_block(block)
    assert block.validation_flags == [MVCC_CONFLICT]
    engine.commit_block(block)
    assert engine.state.get("kv/x")[0] == b"1"  # conflicting write discarded


def test_exactly_one_flag_per_transaction(engine, alice, bob):
    third = build_tx(engine, alice.proposal(engine, "kv", "set", ["z", "9"]))
    txs = [build_tx(engine, alice.proposal(engine, "kv", "bump", ["x"])),
           build_tx(engine, bob.proposal(engine, "kv", "bump", ["x"])),
           Transaction(third.proposal, third.rwset, [])]
    block = engine.order_batch(txs)
    flags = engine.validate_block(block)
    assert len(flags) == len(txs)
    assert flags == [VALID, MVCC_CONFLICT, POLICY_FAILURE]


# -- commit and chain shape ----------------------------------------------------


def test_commit_requires_flags_and_sequence(engine, alice):
    tx = build_tx(engine, alice.proposal(engine, "kv", "set", ["x", "1"]))
    block = engine.order_batch([tx])
    with pytest.raises(LedgerError):
        engine.commit_block(block)  # unvalidated
    block.validation_flags = engine.validate_block(block)
    wrong_number = Block(number=5, prev_hash=block.prev_hash,
                         data_hash=block.data_hash, transactions=[tx],
                         validation_flags=block.validation_flags)
    with pytest.raises(NonSequentialBlock):
        engine.commit_block(wrong_number)
    wrong_link = Block(number=block.number, prev_hash=bytes(32),
                       data_hash=block.data_hash, transactions=[tx],
                       validation_flags=block.validation_flags)
    with pytest.raises(NonSequentialBlock):
        engine.commit_block(wrong_link)
    engine.commit_block(block)
    assert engine.height == 2


def test_headers_chain(tmp_path, engine, alice, bob):
    engine.submit(alice.proposal(engine, "kv", "set", ["a", "1"]))
    engine.flush()
    engine.submit(bob.proposal(engine, "kv", "set", ["b", "2"]))
    engine.flush()
    blocks = engine.read_blocks()
    for prev, cur in zip(blocks, blocks[1:]):
        assert cur.prev_hash == prev.header_hash()
    report = verify_chain_file(tmp_path / "ledger" / BLOCKS_FILE)
    assert report == verify_chain_file(tmp_path / "ledger" / BLOCKS_FILE)
    assert report.height == len(blocks)


def test_flags_hash_requires_validation():
    block = Block(number=0, prev_hash=ZERO_HASH, data_hash=ZERO_HASH,
                  transactions=[])
    with pytest.raises(ValueError):
        block.flags_hash()


# -- world state reads ----------------------------------------------------------

_PREFIXES = ["", "a", "a/", "ab/", "asset/", "b/", "z"]
_state_keys = st.builds(lambda p, s: p + s, st.sampled_from(_PREFIXES[1:]),
                  st.text("ab/x", max_size=3))
_writes = st.lists(st.tuples(_state_keys, st.binary(min_size=1, max_size=2)),
                   min_size=1, max_size=4)
_steps = st.lists(st.one_of(st.tuples(st.just("apply"), _writes),
                            st.tuples(st.just("range"), st.sampled_from(_PREFIXES)),
                            st.tuples(st.just("items"), st.none())),
                  max_size=40)


@given(_steps)
def test_range_and_items_match_a_sorted_filter(steps):
    # reads at random points between writes must match a plain dict
    state, model = WorldState(), {}
    for n, (kind, arg) in enumerate(steps):
        if kind == "apply":
            state.apply(arg, (n, 0))
            for key, value in arg:
                model[key] = (value, (n, 0))
        elif kind == "range":
            assert state.range(arg) == [(k, v[0], v[1]) for k, v in sorted(model.items())
                                        if k.startswith(arg)]
        else:
            assert state.items() == sorted(model.items())
    assert state.range("") == [(k, v[0], v[1]) for k, v in sorted(model.items())]
    assert len(state) == len(model)


@given(st.lists(_writes, max_size=4), st.sampled_from(_PREFIXES[1:]), st.integers(0, 3))
def test_last_is_the_greatest_key_of_its_width(batches, prefix, width):
    state, model = WorldState(), set()
    for n, writes in enumerate(batches):
        state.apply(writes, (n, 0))
        model.update(key for key, _ in writes)
    assert state.last(prefix, width) == max(
        (k for k in model if k.startswith(prefix) and len(k) == len(prefix) + width),
        default=None)


def test_len_does_not_go_through_range(monkeypatch):
    # perfbench's traced runs wrap WorldState.range and size each call with
    # len() of the state, so a len() that called range would recurse
    real = WorldState.range
    monkeypatch.setattr(WorldState, "range",
                        lambda state, prefix: (len(state), real(state, prefix))[1])
    state = WorldState()
    state.apply([("a/1", b"x"), ("b/1", b"y")], (1, 0))
    assert state.range("a/") == [("a/1", b"x", (1, 0))]
    assert len(state) == 2


# -- persistence and replay ------------------------------------------------------


def test_replay_reproduces_state(tmp_path, engine, alice, bob):
    engine.submit(alice.proposal(engine, "kv", "set", ["x", "1"]))
    engine.submit(bob.proposal(engine, "kv", "bump", ["x"]))  # conflicts
    engine.flush()
    engine.submit(bob.proposal(engine, "kv", "bump", ["x"]))  # lands
    engine.flush()
    before = state_snapshot(engine)
    height = engine.height
    engine.close()
    reopened = reopen_engine(tmp_path)
    try:
        assert state_snapshot(reopened) == before
        assert reopened.height == height
    finally:
        reopened.close()


def test_valid_writes_replayed_from_raw_journal(tmp_path, engine, alice, bob):
    # independent replay oracle: parse the journal with plain json and
    # apply writes of VALID transactions in order
    engine.submit(alice.proposal(engine, "kv", "set", ["x", "1"]))
    engine.submit(bob.proposal(engine, "kv", "bump", ["x"]))
    engine.flush()
    engine.submit(bob.proposal(engine, "kv", "set", ["x", "7"]))
    engine.flush()
    expected: dict[str, tuple[bytes, tuple[int, int]]] = {}
    journal = (tmp_path / "ledger" / BLOCKS_FILE).read_text().splitlines()
    for line in journal:
        raw = json.loads(line)
        for idx, (tx, flag) in enumerate(zip(raw["transactions"],
                                             raw["validationFlags"])):
            if flag != "VALID":
                continue
            for key, value in tx["rwset"]["writes"]:
                expected[key] = (bytes.fromhex(value), (raw["number"], idx))
    assert state_snapshot(engine) == expected


def test_a_store_less_open_replays_only_valid_writes_at_their_versions(tmp_path, engine,
                                                                      alice, bob):
    # rejected transactions of both kinds at several indices, writing keys
    # that later valid ones read or that nothing else writes: a replay from
    # block 0 must give the live engine's state, versions included
    def starved(principal, *call):  # one endorsement, below the 2-of-3 policy
        tx = engine.build_transaction(principal.proposal(engine, "kv", *call))
        return Transaction(tx.proposal, tx.rwset, tx.endorsements[:1])

    def commit(transactions):
        block = engine.order_batch(transactions)
        block.validation_flags = engine.validate_block(block)
        engine.commit_block(block)
        return block.validation_flags

    def built(principal, *call):
        return engine.build_transaction(principal.proposal(engine, "kv", *call))

    assert commit([starved(alice, "set", ["cold", "9"]), built(alice, "bump", ["hot"]),
                   built(bob, "bump", ["hot"]), built(bob, "set", ["x", "1"]),
                   starved(bob, "set", ["ghost", "1"])]) == \
        [POLICY_FAILURE, VALID, MVCC_CONFLICT, VALID, POLICY_FAILURE]
    late = built(alice, "bump", ["x"])  # reads x at block 1's version
    assert commit([built(bob, "bump", ["cold"]), starved(alice, "bump", ["hot"]),
                   built(bob, "bump", ["x"])]) == [VALID, POLICY_FAILURE, VALID]
    assert commit([late, built(bob, "bump", ["hot"])]) == [MVCC_CONFLICT, VALID]
    live = engine.state.items()
    assert {key: entry for key, entry in live if key.startswith("kv/")} == {
        "kv/cold": (b"1", (2, 0)), "kv/hot": (b"2", (3, 1)), "kv/x": (b"2", (2, 2))}
    engine.close()
    (tmp_path / "ledger" / STATE_FILE).unlink()
    reopened = reopen_engine(tmp_path)
    try:
        assert reopened.state.items() == live
    finally:
        reopened.close()


def test_corrupt_journal_refuses_to_open(tmp_path, engine, alice):
    engine.submit(alice.proposal(engine, "kv", "set", ["x", "1"]))
    engine.flush()
    engine.close()
    path = tmp_path / "ledger" / BLOCKS_FILE
    data = bytearray(path.read_bytes())
    data[10] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(LedgerError):
        reopen_engine(tmp_path)
    assert not verify_chain_file(path).ok


def test_replay_rejects_a_missing_block(tmp_path, engine, alice):
    # every block parses on its own; only the number/prevHash links show
    # that block 1 (the one writing kv/k1) was cut out of the journal
    for i in range(1, 4):
        engine.submit(alice.proposal(engine, "kv", "set", [f"k{i}", "v"]))
        engine.flush()
    engine.close()
    path = tmp_path / "ledger" / BLOCKS_FILE
    lines = path.read_bytes().splitlines(keepends=True)
    assert len(lines) == 4
    path.write_bytes(b"".join(lines[:1] + lines[2:]))
    with pytest.raises(LedgerError, match="broken chain link at block 1"):
        reopen_engine(tmp_path)
    assert not verify_chain_file(path).ok


def test_read_blocks_refuses_a_missing_block(tmp_path, engine, alice):
    for i in range(1, 4):
        engine.submit(alice.proposal(engine, "kv", "set", [f"k{i}", "v"]))
        engine.flush()
    path = tmp_path / "ledger" / BLOCKS_FILE
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:1] + lines[2:]))
    with pytest.raises(CorruptJournal, match="broken chain link at block 1"):
        engine.read_blocks()


def test_a_partly_read_walk_closes_its_journal(three_blocks, monkeypatch):
    opened = []
    monkeypatch.setattr(journal_module, "open",
                        lambda *args, **kwargs: opened.append(open(*args, **kwargs)) or opened[-1],
                        raising=False)
    _, record = next(journal_module._walk(three_blocks))
    assert record.link[0] == 0
    assert len(opened) == 1 and opened[0].closed


def _padded_record(number: int, prev_hash: bytes, size: int) -> tuple[bytes, bytes]:
    """A record of ``size`` bytes, newline included, that extends ``prev_hash``,
    and its header hash: one transaction whose argument is padded to fit."""
    def encode(pad: int) -> tuple[bytes, bytes]:
        proposal = TxProposal(Address(bytes(20)), b"", "kv", "set", ["k", "x" * pad], b"", 0)
        return Block.cut(number, prev_hash, [Transaction(proposal, ReadWriteSet(), [])],
                         [VALID]).encode()
    record, header_hash = encode(size - len(encode(0)[0]) - 1)
    assert len(record) + 1 == size
    return record + b"\n", header_hash


def _walked(path, start: int, height: int, tip_hash: bytes):
    """What ``_walk`` yields from ``start``, and ``(index, reason, torn_at)`` of its refusal."""
    read = []
    try:
        read.extend(journal_module._walk(path, start, height, tip_hash))
    except CorruptJournal as exc:
        return read, (exc.index, exc.reason, exc.torn_at)
    return read, None


def _read_by_lines(journal: bytes):
    """``_walked``'s answer from the journal's lines, each through ``_read_record``."""
    read, at = [], 0
    for index, raw in enumerate(journal.splitlines(keepends=True)):
        if not raw.endswith(b"\n"):
            return read, (index, "unterminated last record", at)
        try:
            read.append((raw, journal_module._read_record(index, raw)))
        except CorruptJournal as exc:
            return read, (exc.index, exc.reason, exc.torn_at)
        at += len(raw)
    return read, None


_BUFFER = journal_module._READ_BUFFER
# record sizes about the walk's read buffer; half a buffer and a bit, three
# times over, puts a record across each buffer boundary
_LAYOUTS = {
    "shorter": [600, 700, _BUFFER - 2000],
    "equal": [_BUFFER, _BUFFER],
    "longer": [_BUFFER + 1, 2 * _BUFFER + 5],
    "straddling": [_BUFFER // 2 + 7] * 3,
}


@pytest.mark.parametrize("tail", ["none", "torn", "refused"])
@pytest.mark.parametrize("layout", _LAYOUTS)
def test_the_walk_reads_records_of_any_size_as_their_lines(grown_journal, tmp_path,
                                                           layout, tail):
    # a torn or refused last record is longer than the buffer; the walk from
    # each record boundary gives the lines' reading from there on
    genesis = grown_journal.splitlines(keepends=True)[0]
    records, tip = [genesis], journal_module._read_record(0, genesis).header_hash
    for size in _LAYOUTS[layout] + ([] if tail == "none" else [_BUFFER * 3 // 2]):
        record, tip = _padded_record(len(records), tip, size)
        records.append(record)
    if tail == "torn":
        records[-1] = records[-1][:-1]
    elif tail == "refused":  # a padding byte, under the txId that covered it
        records[-1] = records[-1].replace(b"xxx", b"xyx", 1)
    path = tmp_path / BLOCKS_FILE
    path.write_bytes(b"".join(records))
    want, refusal = _read_by_lines(path.read_bytes())
    assert len(want) == len(records) - (tail != "none")
    assert refusal == {"none": None,
                       "torn": (len(want), "unterminated last record",
                                sum(map(len, records[:-1]))),
                       "refused": (len(want), "non-canonical block encoding", None)}[tail]
    start, tip = 0, ZERO_HASH
    for height in range(len(want) + 1):
        assert _walked(path, start, height, tip) == (want[height:], refusal)
        if height < len(want):
            start, tip = start + len(records[height]), want[height][1].header_hash


def test_failed_open_releases_the_lock(tmp_path, engine, alice):
    for i in range(1, 4):
        engine.submit(alice.proposal(engine, "kv", "set", [f"k{i}", "v"]))
        engine.flush()
    engine.close()
    path = tmp_path / "ledger" / BLOCKS_FILE
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:1] + lines[2:]))
    with pytest.raises(LedgerError, match="broken chain link at block 1"):
        reopen_engine(tmp_path)
    assert lock_is_free(tmp_path / "ledger")


def test_torn_last_record_opens_at_the_previous_height(tmp_path, alice):
    # a one-peer network keeps each of the ~1,200 reopen-and-commit rounds cheap
    solo = GenesisConfig(peers=[Member("peer1", bytes(32))], registrars=[])
    engine = make_engine(tmp_path, genesis=solo)
    engine.submit(alice.proposal(engine, "kv", "set", ["k1", "v"]))
    engine.flush()
    engine.submit(alice.proposal(engine, "kv", "set", ["k2", "v"]))
    engine.flush()
    engine.close()
    path = tmp_path / "ledger" / BLOCKS_FILE
    intact = path.read_bytes()
    last = intact.rindex(b"\n", 0, len(intact) - 1) + 1  # start of block 2
    # the torn state reverts, so one signed proposal commits on every reopen
    retry = alice.proposal(engine, "kv", "set", ["k3", "v"])
    # every cut inside block 2, up to the full line without its newline
    for cut in range(last + 1, len(intact)):
        path.write_bytes(intact[:cut])
        report = verify_chain_file(path)
        assert (report.ok, report.bad_block, report.reason) == \
            (False, 2, "unterminated last record")
        assert path.read_bytes() == intact[:cut]  # verify never writes
        reopened = reopen_engine(tmp_path)
        try:
            assert reopened.height == 2
            assert path.read_bytes() == intact[:last]
            assert reopened.state.get("kv/k2") is None
            assert reopened.tx_flag(reopened.submit(retry)) is None
            reopened.flush()
            assert reopened.height == 3
        finally:
            reopened.close()
        assert verify_chain_file(path).ok


def test_a_torn_newline_after_the_checkpoints_last_block(tmp_path, alice):
    # the block the state store's savepoint names is whole but for its
    # newline: it was never committed, so open cuts it off and rebuilds
    # the store from block 0
    solo = GenesisConfig(peers=[Member("peer1", bytes(32))], registrars=[])
    engine = make_engine(tmp_path, genesis=solo)
    for n in range(5):
        engine.submit(alice.proposal(engine, "kv", "set", [f"k{n}", "v"]))
        engine.flush()
    engine.close()
    assert (tmp_path / "ledger" / STATE_FILE).exists()
    path = tmp_path / "ledger" / BLOCKS_FILE
    intact = path.read_bytes()
    path.write_bytes(intact[:-1])
    reopened = reopen_engine(tmp_path)
    try:
        assert reopened.height == 5
        assert reopened.state.get("kv/k4") is None
        assert reopened.state.get("kv/k3") is not None
        assert path.read_bytes() == intact[:intact.rindex(b"\n", 0, len(intact) - 1) + 1]
    finally:
        reopened.close()
    assert verify_chain_file(path).ok


def test_torn_genesis_block_refuses_to_open(tmp_path, engine):
    engine.close()
    path = tmp_path / "ledger" / BLOCKS_FILE
    torn = path.read_bytes()[:-1]
    path.write_bytes(torn)
    with pytest.raises(LedgerError, match="unterminated last record"):
        reopen_engine(tmp_path)
    assert path.read_bytes() == torn
    assert lock_is_free(tmp_path / "ledger")


def test_open_takes_the_network_config_from_block_0(tmp_path, engine):
    engine.close()
    ledger_dir = tmp_path / "ledger"
    # the close leaves the store and its journal, truncated, and no -wal or -shm file
    assert sorted(p.name for p in ledger_dir.iterdir()) == \
        [LOCK_FILE, BLOCKS_FILE, STATE_FILE, STATE_FILE + "-journal"]
    assert (ledger_dir / (STATE_FILE + "-journal")).stat().st_size == 0
    # a config file planted beside the journal, with a foreign peer1 key
    # and a 1-of-3 policy, must not change who may endorse
    planted = GenesisConfig.default().to_dict()
    planted["peers"][0]["seed"] = bytes(32).hex()
    planted["endorsementThreshold"] = 1
    (ledger_dir / "genesis.json").write_text(json.dumps(planted))
    reopened = reopen_engine(tmp_path)
    try:
        assert reopened.genesis == GenesisConfig.default()
        assert reopened.genesis.threshold == 2
    finally:
        reopened.close()


@pytest.mark.parametrize("start", ["a savepoint", "a full replay"])
def test_each_open_decodes_the_config_once(tmp_path, engine, alice, monkeypatch, start):
    # block 0's check and the engine's config are one decode
    engine.submit(alice.proposal(engine, "kv", "set", ["x", "1"]))
    engine.flush()
    engine.close()
    if start == "a full replay":
        (tmp_path / "ledger" / STATE_FILE).unlink()
    decoded = []
    real = GenesisConfig.from_dict
    monkeypatch.setattr(GenesisConfig, "from_dict",
                        staticmethod(lambda d: decoded.append(d) or real(d)))
    reopened = reopen_engine(tmp_path)
    try:
        assert decoded == [GenesisConfig.default().to_dict()]
        assert reopened.genesis == GenesisConfig.default()
        assert reopened.height == 2
    finally:
        reopened.close()


def test_open_derives_no_key_and_commits_derive_each_peer_key_once(tmp_path, engine, alice,
                                                                    monkeypatch):
    # a read-only opener needs no peer key; the endorsers' keys are derived
    # when they first sign, and validation of their own endorsements derives
    # no other peer's key
    engine.close()
    seeds = []
    real = journal_module.generate_keypair
    monkeypatch.setattr(journal_module, "generate_keypair",
                        lambda seed: seeds.append(seed) or real(seed))
    reopened = reopen_engine(tmp_path)
    try:
        assert seeds == []
        for value in ("1", "2"):
            reopened.submit(alice.proposal(reopened, "kv", "set", ["x", value]))
            reopened.flush()
    finally:
        reopened.close()
    assert seeds == [p.seed for p in GenesisConfig.default().peers[:2]]


def test_directory_lock(tmp_path, engine):
    # a foreign flock holder is refused; once it lets go, the ledger opens
    engine.close()
    ledger_dir = tmp_path / "ledger"
    with foreign_hold(ledger_dir):
        with pytest.raises(LedgerLocked):
            reopen_engine(tmp_path)
    reopened = reopen_engine(tmp_path)
    try:
        assert reopened.height == 1
        assert not lock_is_free(ledger_dir)
    finally:
        reopened.close()
    assert lock_is_free(ledger_dir)


def test_engines_in_one_process_share_the_lock(tmp_path, engine):
    # the flock stays held until the last engine of this process closes
    ledger_dir = tmp_path / "ledger"
    second = reopen_engine(tmp_path)
    second.close()
    assert not lock_is_free(ledger_dir)
    second.close()  # a second close releases nothing more
    assert not lock_is_free(ledger_dir)
    with pytest.raises(LedgerError):
        make_engine(tmp_path)  # a failed open gives back only its own hold
    assert not lock_is_free(ledger_dir)
    engine.close()
    assert lock_is_free(ledger_dir)
    assert (ledger_dir / LOCK_FILE).exists()  # never unlinked
    reopen_engine(tmp_path).close()
    assert lock_is_free(ledger_dir)
    with foreign_hold(ledger_dir):
        with pytest.raises(LedgerLocked):
            reopen_engine(tmp_path)


def test_verify_reports_missing_and_empty(tmp_path):
    assert verify_chain_file(tmp_path / "absent.jsonl").reason == "no journal file"
    empty = tmp_path / "empty.jsonl"
    empty.write_bytes(b"")
    assert verify_chain_file(empty).reason == "empty chain"


def test_verify_finds_transactions_changed_under_their_data_hash(tmp_path, engine, alice):
    # block 2 is re-encoded canonically with one transaction altered: its
    # header, and so every link, is unchanged; only the data hash differs
    for i in range(1, 4):
        engine.submit(alice.proposal(engine, "kv", "set", [f"k{i}", "v"]))
        engine.flush()
    engine.close()
    path = tmp_path / "ledger" / BLOCKS_FILE
    lines = path.read_bytes().splitlines(keepends=True)
    record = json.loads(lines[2])
    record["transactions"][0]["proposal"]["args"][1] = "forged"
    block = Block.from_dict(record)
    assert block.header_hash() == Block.from_dict(json.loads(lines[2])).header_hash()
    lines[2] = canonical_json(block.to_dict()) + b"\n"
    path.write_bytes(b"".join(lines))
    report = verify_chain_file(path)
    assert (report.ok, report.bad_block, report.reason) == \
        (False, 2, "data hash does not match transactions")


def _header_hash(record: dict) -> bytes:
    return sha256(canonical_json({k: record[k] for k in
                                  ("dataHash", "flagsHash", "number", "prevHash")}))


def _rewrite_block(path, index: int, change) -> None:
    """Apply ``change`` to one block's record, then recompute its dataHash over
    the changed transaction list and every later block's prevHash, so that
    only the record's own encoding can give the change away."""
    lines = path.read_bytes().splitlines(keepends=True)
    records = [json.loads(line) for line in lines[index:]]
    change(records[0])
    records[0]["dataHash"] = sha256(canonical_json(records[0]["transactions"])).hex()
    for prev, record in zip(records, records[1:]):
        record["prevHash"] = _header_hash(prev).hex()
    path.write_bytes(b"".join(lines[:index] + [canonical_json(r) + b"\n" for r in records]))


@pytest.fixture
def three_blocks(tmp_path, engine, alice):
    for i in range(1, 4):
        engine.submit(alice.proposal(engine, "kv", "set", [f"k{i}", "v"]))
        engine.flush()
    engine.close()
    return tmp_path / "ledger" / BLOCKS_FILE


def test_verify_refuses_uppercase_hex_under_recomputed_hashes(three_blocks):
    def shout(record):
        endorsement = record["transactions"][0]["endorsements"][0]
        endorsement["signature"] = endorsement["signature"].upper()

    _rewrite_block(three_blocks, 2, shout)
    report = verify_chain_file(three_blocks)
    assert (report.ok, report.bad_block, report.reason) == \
        (False, 2, "non-canonical block encoding")


def test_verify_refuses_a_changed_tx_id_under_recomputed_hashes(three_blocks):
    def rename(record):
        record["transactions"][0]["txId"] = "ab" * 32

    _rewrite_block(three_blocks, 2, rename)
    report = verify_chain_file(three_blocks)
    assert (report.ok, report.bad_block, report.reason) == \
        (False, 2, "non-canonical block encoding")


def test_verify_refuses_an_unknown_flag_under_recomputed_hashes(three_blocks):
    def promote(record):
        record["validationFlags"] = ["TRUSTED"]
        record["flagsHash"] = sha256(canonical_json(record["validationFlags"])).hex()

    _rewrite_block(three_blocks, 2, promote)
    report = verify_chain_file(three_blocks)
    assert (report.ok, report.bad_block, report.reason) == \
        (False, 2, "unknown validation flag")


def test_a_null_write_value_is_a_non_canonical_block(tmp_path, three_blocks):
    # a write with no value is no longer a delete: the journal's grammar
    # refuses the block it sits in, under a recomputed txId and recomputed hashes
    def erase(record):
        tx = record["transactions"][0]
        tx["rwset"]["writes"][0][1] = None
        tx["txId"] = sha256(canonical_json({"proposal": tx["proposal"],
                                            "rwset": tx["rwset"]})).hex()

    _rewrite_block(three_blocks, 2, erase)
    report = verify_chain_file(three_blocks)
    assert (report.ok, report.bad_block, report.reason) == \
        (False, 2, "non-canonical block encoding")
    with pytest.raises(CorruptJournal, match="block 2: non-canonical block encoding"):
        reopen_engine(tmp_path)


def test_verify_refuses_a_block_0_config_that_open_refuses(tmp_path, three_blocks):
    # a threshold above the roster, under a recomputed txId and hashes: the
    # links and encodings all hold, and only block 0's config is wrong
    def overreach(record):
        tx = record["transactions"][0]
        config = json.loads(tx["proposal"]["args"][0])
        config["endorsementThreshold"] = 7
        tx["proposal"]["args"][0] = canonical_json(config).decode()
        tx["txId"] = sha256(canonical_json({"proposal": tx["proposal"],
                                            "rwset": tx["rwset"]})).hex()

    _rewrite_block(three_blocks, 0, overreach)
    reason = "block 0 carries no network config: threshold 7 out of range for roster of 3"
    report = verify_chain_file(three_blocks)
    assert (report.ok, report.bad_block, report.reason) == (False, 0, reason)
    with pytest.raises(LedgerError, match=reason):
        reopen_engine(tmp_path)


# -- chain-verify in parallel parts ---------------------------------------------


@pytest.fixture(scope="module")
def grown_journal(tmp_path_factory) -> bytes:
    """The bytes of a 13-block journal: block 0, then one kv write per block."""
    base = tmp_path_factory.mktemp("grown")
    engine = make_engine(base)
    alice = Principal.from_seed(11)
    try:
        for i in range(12):
            engine.submit(alice.proposal(engine, "kv", "set", [f"k{i}", "v"]))
            engine.flush()
    finally:
        engine.close()
    return (base / "ledger" / BLOCKS_FILE).read_bytes()


@contextlib.contextmanager
def _three_parts():
    """Verify a journal of a few KiB in three parts, on a host of any size."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(journal_module, "_VERIFY_PART_BYTES", 1)
        mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        yield


def _serial_report(path) -> tuple:
    """The serial walk's report: the oracle for the split verify."""
    try:
        return True, sum(1 for _ in journal_module._walk(path)), None, None
    except CorruptJournal as exc:
        return False, exc.index, exc.index, exc.reason


def _split_report(path) -> tuple:
    with _three_parts():
        report = verify_chain_file(path)
    return report.ok, report.height, report.bad_block, report.reason


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


# rewrites under recomputed hashes (_rewrite_block), each found by the
# block's own normal-form check
_REWRITES = {
    "txId": lambda record: record["transactions"][0].update(txId="ab" * 32),
    "flag": lambda record: record.update(
        validationFlags=["TRUSTED"], flagsHash=sha256(b'["TRUSTED"]').hex()),
}


def _tamper(path, journal: bytes, kind: str, where: int, xor: int = 0xFF) -> None:
    """Write ``journal`` to ``path`` with one change at byte or record ``where``."""
    records = journal.splitlines(keepends=True)
    if kind == "flip":
        data = bytearray(journal)
        data[where] ^= xor
        path.write_bytes(bytes(data))
    elif kind == "cut":
        path.write_bytes(journal[:where])
    elif kind == "delete":
        path.write_bytes(b"".join(records[:where] + records[where + 1:]))
    elif kind == "duplicate":
        path.write_bytes(b"".join(records[:where + 1] + records[where:]))
    else:
        path.write_bytes(journal)
        _rewrite_block(path, where, _REWRITES[kind])


def _junctions(journal: bytes) -> list[tuple[int, int]]:
    """(offset, record index) where the second and the third part begin."""
    with tempfile.TemporaryDirectory() as base:
        path = Path(base) / BLOCKS_FILE
        path.write_bytes(journal)
        with _three_parts():
            starts = journal_module._part_starts(path)
    assert len(starts) == 3
    ends = list(itertools.accumulate(len(r) for r in journal.splitlines(keepends=True)))
    return [(start, ends.index(start) + 1) for start in starts[1:]]


@pytest.mark.parametrize("parts", [2, 3, 4])
def test_each_part_starts_after_the_record_its_cut_falls_in(tmp_path, monkeypatch,
                                                            grown_journal, parts):
    # part k begins at the end of the record that holds byte k * size // parts
    path = tmp_path / BLOCKS_FILE
    path.write_bytes(grown_journal)
    monkeypatch.setattr(journal_module, "_VERIFY_PART_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(parts)), raising=False)
    size = len(grown_journal)
    ends = list(itertools.accumulate(map(len, grown_journal.splitlines(keepends=True))))
    assert journal_module._part_starts(path) == \
        [0, *(next(end for end in ends if end > k * size // parts) for k in range(1, parts))]


@given(kind=st.sampled_from(["flip", "cut", "delete", "duplicate", *_REWRITES]),
       data=st.data())
def test_a_split_verify_gives_the_serial_report(grown_journal, kind, data):
    # the positions drawn include both sides of each junction between parts
    records = grown_journal.splitlines(keepends=True)
    junctions = _junctions(grown_journal)
    if kind in ("flip", "cut"):
        near = [start + d for start, _ in junctions for d in (-2, -1, 0, 1)]
        where = data.draw(st.sampled_from(near) | st.integers(0, len(grown_journal) - 1))
    else:
        near = [index + d for _, index in junctions for d in (-1, 0)]
        where = data.draw(st.sampled_from(near) | st.integers(0, len(records) - 1))
    with tempfile.TemporaryDirectory() as base:
        path = Path(base) / BLOCKS_FILE
        _tamper(path, grown_journal, kind, where, data.draw(st.integers(1, 255)))
        tampered = path.read_bytes()
        report = _split_report(path)
        assert report == _serial_report(path)
        assert path.read_bytes() == tampered
    if kind == "flip":
        # any flipped byte is found at its block, in every part
        block = sum(1 for end in itertools.accumulate(map(len, records)) if end <= where)
        assert report[0] is False and report[2] == block
    assert _no_child_left()


@pytest.mark.parametrize("case", ["passes", "fails in the parent's part",
                                  "fails in a worker's part", "parent's part raises"])
def test_a_split_verify_leaves_no_child(tmp_path, monkeypatch, grown_journal, case):
    path = tmp_path / BLOCKS_FILE
    if case == "fails in the parent's part":
        _tamper(path, grown_journal, "delete", 1)
    elif case == "fails in a worker's part":
        _tamper(path, grown_journal, "duplicate", len(grown_journal.splitlines()) - 1)
    else:
        path.write_bytes(grown_journal)
    before = path.read_bytes()
    if case == "parent's part raises":
        # the workers would run for a minute: only killing them ends the verify
        parent, walk = os.getpid(), journal_module._walk
        monkeypatch.setattr(journal_module, "_part_answer", lambda *args: time.sleep(60))

        def interrupted(*args, **kwargs):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return walk(*args, **kwargs)

        monkeypatch.setattr(journal_module, "_walk", interrupted)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            _split_report(path)
        assert time.monotonic() - started < 30
    else:
        report = _split_report(path)
        assert report == _serial_report(path)
        assert report[0] is (case == "passes")
    assert _no_child_left()
    assert path.read_bytes() == before


def _raise(exc: BaseException):
    raise exc


@pytest.mark.parametrize("fallback", ["fork fails", "a worker dies", "a thread runs"])
def test_a_verify_without_workers_gives_the_serial_report(tmp_path, monkeypatch,
                                                          grown_journal, fallback):
    forks = []
    fork = os.fork
    if fallback == "fork fails":
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or _raise(OSError(11, "EAGAIN")))
    else:
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    if fallback == "a worker dies":
        monkeypatch.setattr(journal_module, "_part_answer", lambda *args: _raise(MemoryError))
    done = threading.Event()
    if fallback == "a thread runs":
        waiter = threading.Thread(target=done.wait)
        waiter.start()
    try:
        path = tmp_path / BLOCKS_FILE
        last = len(grown_journal.splitlines()) - 1
        for kind, where in (("cut", len(grown_journal)), ("duplicate", last), ("txId", last)):
            _tamper(path, grown_journal, kind, where)
            assert _split_report(path) == _serial_report(path)
            assert _no_child_left()
    finally:
        done.set()
        if fallback == "a thread runs":
            waiter.join(timeout=10)
    assert len(forks) == {"fork fails": 3, "a worker dies": 6, "a thread runs": 0}[fallback]


# -- canonical encodings -----------------------------------------------------


def test_block_round_trips_canonically(engine, alice):
    engine.submit(alice.proposal(engine, "kv", "set", ["x", "1"]))
    block = engine.flush()
    encoded = canonical_json(block.to_dict())
    assert canonical_json(Block.from_dict(json.loads(encoded)).to_dict()) == encoded


def test_tx_id_ignores_endorsements(engine, alice):
    tx = build_tx(engine, alice.proposal(engine, "kv", "set", ["x", "1"]))
    stripped = Transaction(tx.proposal, tx.rwset, [])
    assert tx.tx_id == stripped.tx_id


# any text, with characters JSON must escape or writes as \u escapes
_texts = st.text(max_size=8) | st.sampled_from(['"', "\\", "\n", "\x00", "é", "\u2028", "😀"])
_proposals = st.builds(
    TxProposal, invoker=st.binary(min_size=20, max_size=20).map(Address),
    invoker_key=st.binary(max_size=32), contract=_texts, function=_texts,
    args=st.lists(_texts, max_size=3), nonce=st.binary(max_size=32),
    timestamp=st.integers(-2**63, 2**63), signature=st.binary(max_size=64))
_versions = st.none() | st.tuples(st.integers(0, 2**31), st.integers(0, 2**31))
_rwsets = st.builds(
    ReadWriteSet, reads=st.lists(st.tuples(_texts, _versions), max_size=3),
    writes=st.lists(st.tuples(_texts, st.binary(max_size=16)), max_size=3))
_transactions = st.builds(
    Transaction, proposal=_proposals, rwset=_rwsets,
    endorsements=st.lists(st.builds(Endorsement, peer_id=_texts,
                                    signature=st.binary(max_size=64)), max_size=3))
_hashes = st.binary(min_size=32, max_size=32)
_blocks = st.builds(
    Block, number=st.integers(0, 2**31), prev_hash=_hashes, data_hash=_hashes,
    transactions=st.lists(_transactions, max_size=3),
    validation_flags=st.lists(st.sampled_from(FLAG_VALUES) | _texts, max_size=3))


@given(_blocks)
def test_assembled_records_equal_the_canonical_encoding(block):
    for tx in block.transactions:
        assert tx.encode() == canonical_json(tx.to_dict())
    transactions = encode_transactions(block.transactions)
    assert transactions == canonical_json([t.to_dict() for t in block.transactions])
    assert block.encode() == (canonical_json(block.to_dict()), block.header_hash())
    cut = Block.cut(block.number, block.prev_hash, block.transactions,
                    block.validation_flags)
    assert cut.data_hash == sha256(transactions)
    assert cut.encode()[0] == canonical_json(cut.to_dict())
