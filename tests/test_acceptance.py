"""Acceptance suite: seven end-to-end guarantees, one test each.

Each test prints one ``ACCEPTANCE <n> <label>: PASS|FAIL`` line on the
real stdout (capture suspended) so the outcome is visible in any run.
Expected values are computed inside the tests from independent
primitives (hashlib, random, plain json), never read back from the code
under test.
"""

import contextlib
import hashlib
import json
import random
import time
from collections import Counter

import pytest

from iotid.clock import SimClock
from iotid.codec import canonical_json, sha256
from iotid.did import generate_keypair, make_possession_proof
from iotid.gateway import Gateway
from iotid.idm import (
    BadSignatureError,
    LoginService,
    NoSuchChallengeError,
    NotRegisteredError,
    login_message,
    resolve_did,
)
from iotid.journal import (
    BLOCKS_FILE,
    MVCC_CONFLICT,
    POLICY_FAILURE,
    VALID,
    Transaction,
    verify_chain_file,
)
from iotid.ledger import ContractError

from util import (
    AssetRecord,
    Principal,
    make_engine,
    register_device,
    registrar_principal,
    reopen_engine,
    state_snapshot,
)


@contextlib.contextmanager
def criterion(capsys, number: int, label: str):
    outcome = "PASS"
    try:
        yield
    except BaseException:
        outcome = "FAIL"
        raise
    finally:
        with capsys.disabled():
            print(f"ACCEPTANCE {number} {label}: {outcome}", flush=True)


def principal(tag: str) -> Principal:
    return Principal(keypair=generate_keypair(sha256(tag.encode("utf-8"))))


def test_1_end_to_end_scenario(tmp_path, capsys):
    with criterion(capsys, 1, "end-to-end scenario"):
        start = time.monotonic()
        gateway = Gateway(tmp_path / "ledger", tmp_path / "keys",
                          clock=SimClock())
        data_dir = tmp_path / "data"
        report = gateway.cmd_scenario(sim_output_dir=data_dir)
        elapsed = time.monotonic() - start

        assert report["ok"] is True
        files = sorted(data_dir.rglob("*.txt"))
        assert len(files) == 50
        assert report["simFiles"] == 50
        assert report["uploaded"] == 50
        assert report["duplicatesRejected"] == 5
        # each rejection names the dataId of the surviving first upload,
        # recomputed here from the file bytes themselves
        expected_ids = [
            hashlib.sha256(
                (data_dir / f"device{i}" / "1.txt").read_bytes()).hexdigest()
            for i in range(1, 6)
        ]
        assert report["duplicateDataIds"] == expected_ids
        assert report["queryAllCount"] == 50
        assert report["queryOwnedCounts"] == {f"device{i}": 10
                                              for i in range(1, 6)}
        assert report["verifyChain"]["ok"] is True
        assert verify_chain_file(tmp_path / "ledger" / BLOCKS_FILE).ok
        assert elapsed < 30.0


def test_2_identity_creation_conformance(tmp_path, capsys):
    with criterion(capsys, 2, "identity creation conformance"):
        start = time.monotonic()
        engine = make_engine(tmp_path)
        try:
            rng = random.Random(20_240_817)
            registrar = registrar_principal(engine)
            pool = [principal(f"conformance/{i}") for i in range(200)]
            outsiders = [principal(f"outsider/{i}") for i in range(10)]
            registrars = set(engine.genesis.registrar_addresses())
            created: set[str] = set()

            intents = (["fresh"] * 100 + ["duplicate"] * 40 +
                       ["bad-proof"] * 40 + ["unauthorized"] * 40)
            rng.shuffle(intents)
            assert len(intents) >= 200
            seen: Counter = Counter()

            for intent in intents:
                uncreated = [p for p in pool if str(p.did) not in created]
                taken = [p for p in pool if str(p.did) in created]
                if intent == "duplicate" and taken:
                    device = rng.choice(taken)
                elif intent in ("fresh", "bad-proof") and uncreated:
                    device = rng.choice(uncreated)
                else:
                    device = rng.choice(pool)
                actor = rng.choice(outsiders) if intent == "unauthorized" \
                    else registrar
                good_proof = intent != "bad-proof"
                proof = (make_possession_proof(device.keypair, device.did,
                                               device.address)
                         if good_proof else bytes(64))
                args = [device.public_key.hex(), device.did.method_id,
                        str(device.address), proof.hex()]

                # reference decision, written out independently of the contract
                if str(actor.address) not in registrars:
                    expected = "Unauthorized"
                elif str(device.did) in created:
                    expected = "IdentityExists"
                elif not good_proof:
                    expected = "InvalidProof"
                else:
                    expected = "ok"
                seen[expected] += 1

                before = state_snapshot(engine)
                try:
                    engine.submit(actor.proposal(engine, "idm",
                                                 "createIdentity", args))
                    engine.flush()
                    outcome = "ok"
                except ContractError as exc:
                    outcome = exc.code
                assert outcome == expected, (intent, expected, outcome)

                if expected == "ok":
                    created.add(str(device.did))
                    document = resolve_did(engine.state, engine.store,
                                           device.did)
                    assert document.id == device.did
                    assert document.owner == device.address
                    assert document.public_key_hex == device.public_key.hex()
                else:
                    # rejected attempts leave no trace in the world state
                    assert state_snapshot(engine) == before

            assert set(seen) == {"ok", "Unauthorized", "IdentityExists",
                                 "InvalidProof"}
            assert min(seen.values()) >= 10
        finally:
            engine.close()
        assert time.monotonic() - start < 10.0


def test_3_tamper_detection(tmp_path, capsys):
    with criterion(capsys, 3, "tamper detection"):
        engine = make_engine(tmp_path)
        writer = principal("tamper/writer")
        for i in range(9):
            engine.submit(writer.proposal(engine, "kv", "set",
                                          [f"k{i}", f"v{i}"]))
            engine.flush()
        assert engine.height == 10
        engine.close()

        journal = tmp_path / "ledger" / BLOCKS_FILE
        baseline = journal.read_bytes()
        assert verify_chain_file(journal).ok
        lines = baseline.split(b"\n")[:-1]
        assert len(lines) == 10
        offsets, position = [], 0
        for line in lines:
            offsets.append((position, len(line)))
            position += len(line) + 1

        rng = random.Random(3)
        scratch = tmp_path / "mutated.jsonl"
        mutations = detected = 0
        for index, (start, length) in enumerate(offsets):
            positions = {0, length - 1}
            while len(positions) < 10:
                positions.add(rng.randrange(length))
            for offset in sorted(positions):
                mutated = bytearray(baseline)
                mutated[start + offset] ^= rng.randrange(1, 256)
                scratch.write_bytes(bytes(mutated))
                report = verify_chain_file(scratch)
                mutations += 1
                if not report.ok and report.bad_block == index:
                    detected += 1
                else:
                    raise AssertionError(
                        f"undetected flip: block {index} offset {offset}: "
                        f"{report}")
        assert mutations >= 100
        assert detected == mutations  # 100% of them, at the mutated block


def test_4_validation_flags_and_replay(tmp_path, capsys):
    with criterion(capsys, 4, "validation and replay"):
        engine = make_engine(tmp_path)
        alice = principal("replay/alice")
        bob = principal("replay/bob")

        engine.submit(alice.proposal(engine, "kv", "bump", ["hot"]))
        engine.submit(bob.proposal(engine, "kv", "bump", ["hot"]))
        contended = engine.flush()
        assert contended.validation_flags == [VALID, MVCC_CONFLICT]

        engine.submit(alice.proposal(engine, "kv", "bump", ["left"]))
        engine.submit(bob.proposal(engine, "kv", "bump", ["right"]))
        assert engine.flush().validation_flags == [VALID, VALID]

        tx = engine.build_transaction(
            alice.proposal(engine, "kv", "set", ["starved", "1"]))
        starved = Transaction(tx.proposal, tx.rwset,
                              tx.endorsements[:engine.genesis.threshold - 1])
        block = engine.order_batch([starved])
        block.validation_flags = engine.validate_block(block)
        assert block.validation_flags == [POLICY_FAILURE]
        engine.commit_block(block)
        assert engine.state.get("kv/starved") is None
        assert engine.state.get("kv/hot")[0] == b"1"

        # independent replay oracle: plain-json walk over the journal,
        # applying only writes of VALID transactions, in order
        expected: dict = {}
        journal = tmp_path / "ledger" / BLOCKS_FILE
        for line in journal.read_text(encoding="utf-8").splitlines():
            raw = json.loads(line)
            flags = raw["validationFlags"]
            for idx, (tx_raw, flag) in enumerate(zip(raw["transactions"],
                                                     flags)):
                if flag != "VALID":
                    continue
                for key, value in tx_raw["rwset"]["writes"]:
                    if value is None:
                        expected.pop(key, None)
                    else:
                        expected[key] = (value.encode("utf-8"),
                                         (raw["number"], idx))
        snapshot = state_snapshot(engine)
        assert snapshot == expected

        height = engine.height
        engine.close()
        reopened = reopen_engine(tmp_path)
        try:
            assert state_snapshot(reopened) == snapshot
            assert reopened.height == height
        finally:
            reopened.close()


def test_5_authentication_and_ownership_gates(tmp_path, capsys):
    with criterion(capsys, 5, "authentication gates"):
        clock = SimClock()
        engine = make_engine(tmp_path, clock=clock)
        try:
            registrar = registrar_principal(engine)
            device = principal("gates/device")
            register_device(engine, registrar, device)
            service = LoginService(engine.state, engine.store, clock,
                                   rng=random.Random(5))
            strangers = [principal(f"gates/stranger/{i}") for i in range(50)]
            baseline = state_snapshot(engine)

            for stranger in strangers:  # never-registered devices cannot log in
                with pytest.raises(NotRegisteredError):
                    service.begin_login(stranger.did)

            for stranger in strangers:  # wrong key on a real challenge
                challenge = service.begin_login(device.did)
                forged = stranger.keypair.sign(
                    login_message(device.did, challenge.nonce))
                with pytest.raises(BadSignatureError):
                    service.complete_login(device.did, challenge.nonce, forged)

            for _ in range(50):  # a consumed challenge cannot be replayed
                challenge = service.begin_login(device.did)
                signature = device.keypair.sign(
                    login_message(device.did, challenge.nonce))
                service.complete_login(device.did, challenge.nonce, signature)
                with pytest.raises(NoSuchChallengeError):
                    service.complete_login(device.did, challenge.nonce,
                                           signature)

            assert state_snapshot(engine) == baseline  # logins are off-chain

            for stranger in strangers:  # non-owners cannot transfer
                before = state_snapshot(engine)
                with pytest.raises(ContractError) as err:
                    engine.submit(stranger.proposal(
                        engine, "idm", "transferOwnership",
                        [str(device.did), str(stranger.address)]))
                assert err.value.code == "NotOwner"
                assert state_snapshot(engine) == before

            new_owner = principal("gates/new-owner")
            engine.submit(device.proposal(
                engine, "idm", "transferOwnership",
                [str(device.did), str(new_owner.address)]))
            engine.flush()
            after_transfer = state_snapshot(engine)
            attempts = [
                ("registerDevice", [str(device.did), "HIJACK"]),
                ("transferOwnership", [str(device.did), str(device.address)]),
            ]
            for i in range(50):  # the former owner has no residual rights
                function, args = attempts[i % 2]
                with pytest.raises(ContractError) as err:
                    engine.submit(device.proposal(engine, "idm", function,
                                                  args))
                assert err.value.code == "NotOwner"
                assert state_snapshot(engine) == after_transfer
        finally:
            engine.close()


def test_6_content_dedup(tmp_path, capsys):
    with criterion(capsys, 6, "content dedup"):
        engine = make_engine(tmp_path)
        try:
            registrar = registrar_principal(engine)
            device = principal("dedup/device")
            register_device(engine, registrar, device)

            rng = random.Random(6)
            distinct = [f"reading {i}|{rng.random():.12f}".encode("utf-8")
                        for i in range(900)]
            uploads = distinct + [rng.choice(distinct) for _ in range(100)]
            rng.shuffle(uploads)

            accepted = 0
            rejections: list[tuple[bytes, dict]] = []
            first_name: dict[str, str] = {}
            for i, payload in enumerate(uploads):
                name = f"u{i}.txt"
                try:
                    engine.submit(device.proposal(
                        engine, "asset", "uploadAsset",
                        [str(device.did), name, payload.hex()]))
                    engine.flush()  # commit per upload so repeats see it
                    accepted += 1
                    first_name[hashlib.sha256(payload).hexdigest()] = name
                except ContractError as exc:
                    assert exc.code == "DuplicateAsset"
                    rejections.append((payload, exc.details))

            assert accepted == len({bytes(p) for p in uploads}) == 900
            assert len(rejections) == 100
            for payload, details in rejections:
                digest = hashlib.sha256(payload).hexdigest()
                assert details == {"dataId": digest}
                value, _ = engine.state.get(f"asset/{digest}")
                record = AssetRecord.from_bytes(value)
                assert record.data_id.hex == digest
                assert record.asset_name == first_name[digest]
        finally:
            engine.close()


def test_7_scenario_determinism(tmp_path, capsys):
    with criterion(capsys, 7, "determinism"):
        # two full runs over the same directories, each with a fresh
        # gateway and clock; the second replaces the first
        data_dir = tmp_path / "data"
        reports, trees, data_ids = [], [], []
        for attempt in range(2):
            gateway = Gateway(tmp_path / "ledger", tmp_path / "keys",
                              clock=SimClock())
            report = gateway.cmd_scenario(sim_output_dir=data_dir,
                                          force=bool(attempt))
            assert report["ok"] is True
            reports.append(canonical_json(report))
            trees.append({
                str(p.relative_to(data_dir)): p.read_bytes()
                for p in sorted(data_dir.rglob("*.txt"))
            })
            listing = gateway.cmd_asset_list()
            data_ids.append(sorted(a["dataId"] for a in listing["assets"]))
        assert reports[0] == reports[1]
        assert trees[0] == trees[1] and len(trees[0]) == 50
        assert data_ids[0] == data_ids[1] and len(set(data_ids[0])) == 50
