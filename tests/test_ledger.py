"""Engine pipeline: signing, endorsement, ordering, MVCC, commit, replay.

Expected flag vectors and receipts are hand-walked from the pipeline
rules before being asserted, not read back from the implementation.
"""

import json
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from iotid import ledger as ledger_module
from iotid.codec import canonical_json
from iotid.ledger import (
    BLOCKS_FILE,
    LOCK_FILE,
    MVCC_CONFLICT,
    POLICY_FAILURE,
    VALID,
    ZERO_HASH,
    Block,
    ContractError,
    EmptyBatch,
    EndorsementPolicy,
    GenesisConfig,
    InvalidProposalSignature,
    LedgerError,
    LedgerLocked,
    NonSequentialBlock,
    PeerSpec,
    RwsetMismatch,
    Transaction,
    UnknownContract,
    UnknownFunction,
    UnknownPeer,
    WorldState,
    verify_chain_file,
)

from util import Principal, make_engine, reopen_engine, state_snapshot


@pytest.fixture
def alice():
    return Principal.from_seed(11)


@pytest.fixture
def bob():
    return Principal.from_seed(12)


# -- genesis -----------------------------------------------------------------


def test_genesis_block_provisions_the_network(engine):
    assert engine.height == 1
    registrars, version = engine.state.get("config/registrars")
    assert version == (0, 0)
    assert json.loads(registrars) == engine.genesis.registrar_addresses()
    assert engine.verify_chain().ok


def test_genesis_prev_hash_is_zero(engine):
    genesis = engine.read_blocks()[0]
    assert genesis.number == 0
    assert genesis.prev_hash == ZERO_HASH
    assert genesis.validation_flags == [VALID]


def test_create_refuses_existing_ledger(tmp_path, engine):
    with pytest.raises(LedgerError):
        make_engine(tmp_path)


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


def test_unknown_contract_and_function(engine, alice):
    with pytest.raises(UnknownContract):
        engine.submit(alice.proposal(engine, "nope", "f", []))
    with pytest.raises(UnknownFunction):
        engine.submit(alice.proposal(engine, "idm", "nope", []))


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


def test_tick_cuts_on_timeout(engine, alice, clock):
    engine.submit(alice.proposal(engine, "kv", "set", ["x", "1"]))
    assert engine.tick() is None  # too early
    clock.advance(engine.genesis.batch_timeout)
    block = engine.tick()
    assert block is not None
    assert engine.state.get("kv/x") is not None


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
    assert len(tx.endorsements) == 3
    block = engine.order_batch([tx])
    assert engine.validate_block(block) == [VALID]


def test_stripped_endorsements_fail_policy(engine, alice):
    tx = build_tx(engine, alice.proposal(engine, "kv", "set", ["x", "1"]))
    bare = Transaction(proposal=tx.proposal, rwset=tx.rwset, endorsements=[])
    assert engine.validate_block(engine.order_batch([bare])) == [POLICY_FAILURE]


def test_threshold_is_exact(engine, alice):
    # default policy: 2 of 3
    tx = build_tx(engine, alice.proposal(engine, "kv", "set", ["x", "1"]))
    threshold = engine.policy.threshold
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


class DriftContract:
    """Non-deterministic on purpose: every execution writes a new value."""

    name = "drift"

    def __init__(self):
        self.runs = 0

    def invoke(self, ctx, function, args):
        self.runs += 1
        ctx.put("drift/x", str(self.runs).encode("utf-8"))
        return b"ok"


def test_endorsement_rejects_divergent_rwset(engine, alice):
    engine.contracts["drift"] = DriftContract()
    proposal = alice.proposal(engine, "drift", "set", [])
    with pytest.raises(RwsetMismatch):
        engine.submit(proposal)
    assert engine.flush() is None  # nothing was queued
    with pytest.raises(UnknownPeer):
        engine.endorse("peer9", proposal)


def test_build_transaction_executes_once_per_peer(engine, alice, monkeypatch):
    calls = []
    execute = engine.execute_proposal

    def counting(proposal):
        calls.append(proposal)
        return execute(proposal)

    monkeypatch.setattr(engine, "execute_proposal", counting)
    tx = engine.build_transaction(alice.proposal(engine, "kv", "set", ["x", "1"]))
    assert len(calls) == len(engine.genesis.peers) == 3
    assert [e.peer_id for e in tx.endorsements] == ["peer1", "peer2", "peer3"]


def test_policy_failure_wins_over_mvcc(engine, alice, bob):
    # one tx with both problems gets exactly the policy flag
    t1 = build_tx(engine, alice.proposal(engine, "kv", "bump", ["x"]))
    t2 = build_tx(engine, bob.proposal(engine, "kv", "bump", ["x"]))
    bare = Transaction(t2.proposal, t2.rwset, [])
    block = engine.order_batch([t1, bare])
    assert engine.validate_block(block) == [VALID, POLICY_FAILURE]


def test_policy_threshold_bounds():
    with pytest.raises(ValueError):
        EndorsementPolicy(threshold=0, roster={"p": b"k"})
    with pytest.raises(ValueError):
        EndorsementPolicy(threshold=2, roster={"p": b"k"})


def test_genesis_config_majority_and_validation():
    cfg = GenesisConfig.default()
    assert cfg.effective_threshold() == 2  # majority of 3
    bad = GenesisConfig(peers=cfg.peers, registrars=[], threshold=4)
    with pytest.raises(ValueError):
        bad.policy()
    dup = GenesisConfig(peers=[PeerSpec("p", bytes(32)), PeerSpec("p", bytes(32))],
                        registrars=[])
    with pytest.raises(ValueError):
        dup.policy()
    assert GenesisConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()


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


def test_headers_chain(engine, alice, bob):
    engine.submit(alice.proposal(engine, "kv", "set", ["a", "1"]))
    engine.flush()
    engine.submit(bob.proposal(engine, "kv", "set", ["b", "2"]))
    engine.flush()
    blocks = engine.read_blocks()
    for prev, cur in zip(blocks, blocks[1:]):
        assert cur.prev_hash == prev.header_hash()
    assert engine.verify_chain() == engine.verify_chain()
    assert engine.verify_chain().height == len(blocks)


def test_flags_hash_requires_validation():
    block = Block(number=0, prev_hash=ZERO_HASH, data_hash=ZERO_HASH,
                  transactions=[])
    with pytest.raises(ValueError):
        block.flags_hash()


# -- world state index ----------------------------------------------------------

_PREFIXES = ["", "a", "a/", "ab/", "asset/", "b/", "z"]
_state_keys = st.builds(lambda p, s: p + s, st.sampled_from(_PREFIXES[1:]),
                  st.text("ab/x", max_size=3))
_writes = st.lists(st.tuples(_state_keys, st.none() | st.binary(min_size=1, max_size=2)),
                   min_size=1, max_size=4)
_steps = st.lists(st.one_of(st.tuples(st.just("apply"), _writes),
                            st.tuples(st.just("range"), st.sampled_from(_PREFIXES)),
                            st.tuples(st.just("items"), st.none())),
                  max_size=40)


@given(_steps)
def test_range_and_items_match_a_sorted_filter(steps):
    # reads at random points build the key index mid-stream; later writes
    # and deletes must keep it in step with a plain dict
    state, model = WorldState(), {}
    for n, (kind, arg) in enumerate(steps):
        if kind == "apply":
            state.apply(arg, (n, 0))
            for key, value in arg:
                if value is None:
                    model.pop(key, None)
                else:
                    model[key] = (value, (n, 0))
        elif kind == "range":
            assert state.range(arg) == [(k, v[0], v[1]) for k, v in sorted(model.items())
                                        if k.startswith(arg)]
        else:
            assert state.items() == sorted(model.items())
    assert state.range("") == [(k, v[0], v[1]) for k, v in sorted(model.items())]
    assert len(state) == len(model)


def test_replay_leaves_the_key_index_unbuilt(tmp_path, engine, alice):
    # a cold open pays no sort; the first range read does
    engine.submit(alice.proposal(engine, "kv", "set", ["x", "1"]))
    engine.flush()
    engine.close()
    reopened = reopen_engine(tmp_path)
    try:
        assert reopened.state._keys is None
        assert [k for k, _, _ in reopened.state.range("kv/")] == ["kv/x"]
    finally:
        reopened.close()


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
                if value is None:
                    expected.pop(key, None)
                else:
                    expected[key] = (bytes.fromhex(value), (raw["number"], idx))
    assert state_snapshot(engine) == expected


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
    assert not (tmp_path / "ledger" / LOCK_FILE).exists()


def test_torn_last_record_opens_at_the_previous_height(tmp_path, alice):
    # a one-peer network keeps each of the ~1,200 reopen-and-commit rounds cheap
    solo = GenesisConfig(peers=[PeerSpec("peer1", bytes(32))], registrars=[])
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


def test_torn_genesis_block_refuses_to_open(tmp_path, engine):
    engine.close()
    path = tmp_path / "ledger" / BLOCKS_FILE
    torn = path.read_bytes()[:-1]
    path.write_bytes(torn)
    with pytest.raises(LedgerError, match="unterminated last record"):
        reopen_engine(tmp_path)
    assert path.read_bytes() == torn
    assert not (tmp_path / "ledger" / LOCK_FILE).exists()


def test_open_takes_the_network_config_from_block_0(tmp_path, engine):
    engine.close()
    ledger_dir = tmp_path / "ledger"
    assert sorted(p.name for p in ledger_dir.iterdir()) == [BLOCKS_FILE]
    # a config file planted beside the journal, with a foreign peer1 key
    # and a 1-of-3 policy, must not change who may endorse
    planted = GenesisConfig.default().to_dict()
    planted["peers"][0]["seed"] = bytes(32).hex()
    planted["endorsementThreshold"] = 1
    (ledger_dir / "genesis.json").write_text(json.dumps(planted))
    reopened = reopen_engine(tmp_path)
    try:
        assert reopened.policy == GenesisConfig.default().policy()
        assert reopened.policy.threshold == 2
    finally:
        reopened.close()


def test_open_derives_each_genesis_key_once(tmp_path, engine, monkeypatch):
    engine.close()
    seeds = []
    real = ledger_module.generate_keypair
    monkeypatch.setattr(ledger_module, "generate_keypair",
                        lambda seed: seeds.append(seed) or real(seed))
    reopen_engine(tmp_path).close()
    peer_seeds = [p.seed for p in GenesisConfig.default().peers]
    assert sorted(seeds) == sorted(peer_seeds)


def test_directory_lock(tmp_path, engine):
    # the lock rejects other live processes and reclaims dead ones
    engine.close()
    lock = tmp_path / "ledger" / LOCK_FILE
    lock.write_text(str(os.getppid()))
    with pytest.raises(LedgerLocked):
        reopen_engine(tmp_path)
    lock.write_text("999999999")  # no such pid: stale, reclaimed
    reopened = reopen_engine(tmp_path)
    try:
        assert reopened.height == 1
    finally:
        reopened.close()


def test_engines_in_one_process_share_the_lock(tmp_path, engine):
    # .lock stays until the last engine of this process closes
    lock = tmp_path / "ledger" / LOCK_FILE
    second = reopen_engine(tmp_path)
    second.close()
    assert lock.read_text() == str(os.getpid())
    second.close()  # a second close releases nothing more
    assert lock.read_text() == str(os.getpid())
    with pytest.raises(LedgerError):
        make_engine(tmp_path)  # a failed open gives back only its own hold
    assert lock.read_text() == str(os.getpid())
    engine.close()
    assert not lock.exists()
    lock.write_text(str(os.getpid()))  # our pid, no engine open: a leftover
    reopen_engine(tmp_path).close()
    assert not lock.exists()
    lock.write_text(str(os.getppid()))
    with pytest.raises(LedgerLocked):
        reopen_engine(tmp_path)
    assert lock.read_text() == str(os.getppid())


def test_verify_reports_missing_and_empty(tmp_path):
    assert verify_chain_file(tmp_path / "absent.jsonl").reason == "no journal file"
    empty = tmp_path / "empty.jsonl"
    empty.write_bytes(b"")
    assert verify_chain_file(empty).reason == "empty chain"


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
