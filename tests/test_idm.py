"""Identity chaincode gates and the challenge-response login flow."""

import json
import random

import pytest

from iotid.codec import canonical_json
from iotid.did import DidDocument, make_possession_proof
from iotid.idm import (
    BadSignatureError,
    DeviceRecord,
    DidRecord,
    ExpiredChallengeError,
    LoginService,
    NoSuchChallengeError,
    NotRegisteredError,
    Session,
    UnknownDidError,
    device_key,
    did_key,
    login_message,
    resolve_did,
    session_is_valid,
)
from iotid.journal import POLICY_FAILURE, VALID, Transaction
from iotid.ledger import ContractError

from util import (
    MANUFACTURER,
    Principal,
    create_identity,
    device_record,
    register_device,
    state_snapshot,
    upload_payload,
)


def rejected(engine, proposal) -> ContractError:
    with pytest.raises(ContractError) as err:
        engine.submit(proposal)
    return err.value


def did_record(engine, did) -> dict:
    """The DID record as committed, decoded as plain JSON."""
    return json.loads(engine.state.get(did_key(did))[0])


def creation_args(device, owner=None) -> list[str]:
    owner = owner if owner is not None else device.address
    proof = make_possession_proof(device.keypair, device.did, owner)
    return [device.public_key.hex(), device.did.method_id, str(owner), proof.hex()]


# -- createIdentity -----------------------------------------------------------


def test_create_identity_writes_record_and_document(tmp_path, engine, registrar,
                                                    device):
    proposal = registrar.proposal(engine, "idm", "createIdentity",
                                  creation_args(device))
    engine.submit(proposal)
    engine.flush()

    assert did_record(engine, device.did) == {
        "createdAt": proposal.timestamp, "did": str(device.did),
        "owner": str(device.address), "publicKey": device.public_key.hex()}
    # the document is built from that record; nothing went to objects/
    document = resolve_did(engine.state, engine.store, device.did)
    assert document == DidDocument(id=device.did, public_key_hex=device.public_key.hex(),
                                   owner=device.address, created=proposal.timestamp)
    assert not (tmp_path / "objects").exists()


def test_create_identity_writes_the_canonical_record(engine, registrar, device):
    tx = engine.execute_proposal(
        registrar.proposal(engine, "idm", "createIdentity", creation_args(device)))
    record = dict(tx.rwset.writes)[did_key(device.did)]
    assert canonical_json(json.loads(record)) == record
    assert sorted(json.loads(record)) == ["createdAt", "did", "owner", "publicKey"]
    assert tx.endorsements == [] and tx.content == []


def test_create_identity_with_caller_chosen_method_id(engine, registrar):
    device = Principal.from_seed(9, method_id="deadbeef" * 4)
    create_identity(engine, registrar, device)
    assert str(device.did) == "did:iotid:" + "deadbeef" * 4
    assert resolve_did(engine.state, engine.store, device.did).id == device.did


def test_only_registrars_may_create(engine, device, other_device):
    before = state_snapshot(engine)
    err = rejected(engine, other_device.proposal(
        engine, "idm", "createIdentity", creation_args(device)))
    assert err.code == "Unauthorized"
    assert state_snapshot(engine) == before


def test_duplicate_identity_rejected(engine, registrar, device):
    create_identity(engine, registrar, device)
    before = state_snapshot(engine)
    err = rejected(engine, registrar.proposal(
        engine, "idm", "createIdentity", creation_args(device)))
    assert err.code == "IdentityExists"
    assert state_snapshot(engine) == before


def test_invalid_proofs_rejected(engine, registrar, device, other_device):
    before = state_snapshot(engine)
    own_proof = make_possession_proof(device.keypair, device.did, device.address)
    cases = [
        # proof binds the wrong owner
        [device.public_key.hex(), device.did.method_id,
         str(other_device.address), own_proof.hex()],
        # proof signed by a different key
        [device.public_key.hex(), device.did.method_id, str(device.address),
         make_possession_proof(other_device.keypair, device.did,
                               device.address).hex()],
        # proof is noise
        [device.public_key.hex(), device.did.method_id,
         str(device.address), "00" * 64],
    ]
    for args in cases:
        err = rejected(engine, registrar.proposal(
            engine, "idm", "createIdentity", args))
        assert err.code == "InvalidProof"
    assert state_snapshot(engine) == before


def test_authorization_is_checked_before_existence(engine, registrar, device,
                                                   other_device):
    create_identity(engine, registrar, device)
    err = rejected(engine, other_device.proposal(
        engine, "idm", "createIdentity", creation_args(device)))
    assert err.code == "Unauthorized"


def test_existence_is_checked_before_proof(engine, registrar, device):
    create_identity(engine, registrar, device)
    args = creation_args(device)
    args[3] = "00" * 64  # would be InvalidProof on a fresh identity
    err = rejected(engine, registrar.proposal(engine, "idm", "createIdentity", args))
    assert err.code == "IdentityExists"


@pytest.mark.parametrize("mangle", [
    lambda a: a[:3],                                # arity
    lambda a: ["zz"] + a[1:],                       # public key not hex
    lambda a: a[:1] + ["bad/id"] + a[2:],           # malformed method id
    lambda a: a[:2] + ["not-an-address"] + a[3:],   # malformed owner
    lambda a: a[:3] + ["xx"],                       # proof not hex
])
def test_malformed_creation_arguments(engine, registrar, device, mangle):
    before = state_snapshot(engine)
    err = rejected(engine, registrar.proposal(
        engine, "idm", "createIdentity", mangle(creation_args(device))))
    assert err.code == "BadArguments"
    assert state_snapshot(engine) == before


def test_a_method_id_with_a_trailing_newline_is_refused(engine, registrar, device):
    # a proof that verifies for "did:iotid:abc\n", so only the method id's
    # check can refuse it; the proof message is built by hand
    owner, key = str(device.address), device.public_key.hex()
    proof = device.keypair.sign(f"PROOF|did:iotid:abc\n|{owner}|{key}".encode())
    before = state_snapshot(engine)
    err = rejected(engine, registrar.proposal(
        engine, "idm", "createIdentity", [key, "abc\n", owner, proof.hex()]))
    assert err.code == "BadArguments"
    assert state_snapshot(engine) == before


# -- registerDevice ------------------------------------------------------------


def test_register_device_records_manufacturer(engine, registrar, device):
    create_identity(engine, registrar, device)
    proposal = device.proposal(engine, "idm", "registerDevice",
                               [str(device.did), MANUFACTURER])
    engine.submit(proposal)
    engine.flush()
    record = device_record(engine.state.get(device_key(device.did))[0])
    assert record.did == device.did
    assert record.manufacturer_id == MANUFACTURER
    assert record.registered_at == proposal.timestamp


def test_register_sees_only_committed_identities(engine, registrar, device):
    create_identity(engine, registrar, device, flush=False)
    err = rejected(engine, device.proposal(
        engine, "idm", "registerDevice", [str(device.did), MANUFACTURER]))
    assert err.code == "UnknownDid"
    engine.flush()
    engine.submit(device.proposal(engine, "idm", "registerDevice",
                                  [str(device.did), MANUFACTURER]))
    engine.flush()
    assert engine.state.get(device_key(device.did)) is not None


def test_register_unknown_did(engine, device):
    err = rejected(engine, device.proposal(
        engine, "idm", "registerDevice", [str(device.did), MANUFACTURER]))
    assert err.code == "UnknownDid"


@pytest.mark.parametrize("function, args", [
    ("registerDevice", ["did:iotid", MANUFACTURER]),
    ("transferOwnership", ["did:iotid:bad/id", "0x" + "00" * 20]),
])
def test_a_malformed_did_argument_is_refused(engine, registrar, device, function, args):
    create_identity(engine, registrar, device)
    before = state_snapshot(engine)
    err = rejected(engine, device.proposal(engine, "idm", function, args))
    assert err.code == "BadArguments"
    assert state_snapshot(engine) == before


def test_register_requires_ownership(engine, registrar, device, other_device):
    create_identity(engine, registrar, device, owner=other_device.address)
    err = rejected(engine, device.proposal(
        engine, "idm", "registerDevice", [str(device.did), MANUFACTURER]))
    assert err.code == "NotOwner"
    # the actual owner may register someone else's device key
    engine.submit(other_device.proposal(
        engine, "idm", "registerDevice", [str(device.did), MANUFACTURER]))
    engine.flush()
    assert engine.state.get(device_key(device.did)) is not None


def test_register_twice_rejected(engine, registrar, device):
    register_device(engine, registrar, device)
    before = state_snapshot(engine)
    err = rejected(engine, device.proposal(
        engine, "idm", "registerDevice", [str(device.did), "OTHER"]))
    assert err.code == "DeviceAlreadyRegistered"
    assert state_snapshot(engine) == before


# -- transferOwnership ---------------------------------------------------------


def test_transfer_replaces_owner_everywhere(engine, registrar, device, other_device):
    register_device(engine, registrar, device)
    old = did_record(engine, device.did)
    engine.submit(device.proposal(engine, "idm", "transferOwnership",
                                  [str(device.did), str(other_device.address)]))
    engine.flush()
    assert did_record(engine, device.did) == {**old, "owner": str(other_device.address)}
    document = resolve_did(engine.state, engine.store, device.did)
    assert document.owner == other_device.address
    assert document.public_key_hex == device.public_key.hex()


def test_transfer_gates(engine, registrar, device, other_device):
    err = rejected(engine, device.proposal(
        engine, "idm", "transferOwnership",
        [str(device.did), str(other_device.address)]))
    assert err.code == "UnknownDid"
    create_identity(engine, registrar, device)
    err = rejected(engine, other_device.proposal(
        engine, "idm", "transferOwnership",
        [str(device.did), str(other_device.address)]))
    assert err.code == "NotOwner"


def test_former_owner_loses_all_rights(engine, registrar, device, other_device):
    create_identity(engine, registrar, device)
    engine.submit(device.proposal(engine, "idm", "transferOwnership",
                                  [str(device.did), str(other_device.address)]))
    engine.flush()
    for function, args in [
        ("registerDevice", [str(device.did), MANUFACTURER]),
        ("transferOwnership", [str(device.did), str(device.address)]),
    ]:
        err = rejected(engine, device.proposal(engine, "idm", function, args))
        assert err.code == "NotOwner"
    # the new owner can transfer it right back
    engine.submit(other_device.proposal(
        engine, "idm", "transferOwnership",
        [str(device.did), str(device.address)]))
    engine.flush()
    assert did_record(engine, device.did)["owner"] == str(device.address)


# -- resolution ----------------------------------------------------------------


def test_resolve_unknown_did(engine, device):
    with pytest.raises(UnknownDidError):
        resolve_did(engine.state, engine.store, device.did)


def test_records_round_trip(device):
    record = DidRecord(did=device.did, public_key=device.public_key,
                       owner=device.address, created_at=7)
    assert DidRecord.from_bytes(canonical_json(record.to_dict())) == record
    entry = DeviceRecord(did=device.did, manufacturer_id=MANUFACTURER,
                         registered_at=9)
    assert device_record(canonical_json(entry.to_dict())) == entry


# -- the content store: untouched by idm --------------------------------------


def test_identity_functions_use_no_store(engine, registrar, device, other_device,
                                         store_calls):
    register_device(engine, registrar, device)
    engine.submit(device.proposal(engine, "idm", "transferOwnership",
                                  [str(device.did), str(other_device.address)]))
    engine.flush()
    assert resolve_did(engine.state, engine.store, device.did).owner == other_device.address
    assert store_calls == []


def test_an_upload_takes_the_key_from_the_record(engine, registrar, device,
                                                 store_calls):
    register_device(engine, registrar, device)
    assert engine.tx_flag(upload_payload(engine, device, b"one")) == VALID
    # one block write at commit, none in the endorsers' executions, and no read
    assert [name for name, _ in store_calls] == ["put_block"]


def test_a_refused_or_uncommitted_identity_leaves_objects_unchanged(
        tmp_path, engine, registrar, device, other_device):
    register_device(engine, registrar, device)
    upload_payload(engine, device, b"one")
    objects = sorted((tmp_path / "objects").iterdir())
    assert len(objects) == 1
    # endorsed, then stripped of its endorsements: POLICY_FAILURE
    tx = engine.build_transaction(registrar.proposal(
        engine, "idm", "createIdentity", creation_args(other_device)))
    block = engine.order_batch([Transaction(tx.proposal, tx.rwset, [])])
    block.validation_flags = engine.validate_block(block)
    assert block.validation_flags == [POLICY_FAILURE]
    engine.commit_block(block)
    # endorsed and never ordered
    engine.build_transaction(registrar.proposal(
        engine, "idm", "createIdentity", creation_args(Principal.from_seed(3))))
    assert sorted((tmp_path / "objects").iterdir()) == objects


def test_a_transfer_resolves_to_the_new_document(engine, registrar, device,
                                                 other_device):
    register_device(engine, registrar, device)
    assert resolve_did(engine.state, engine.store, device.did).owner == device.address
    engine.submit(device.proposal(engine, "idm", "transferOwnership",
                                  [str(device.did), str(other_device.address)]))
    engine.flush()
    document = resolve_did(engine.state, engine.store, device.did)
    assert document.owner == other_device.address
    assert engine.tx_flag(upload_payload(engine, device, b"after transfer")) == VALID


# -- login ---------------------------------------------------------------------


@pytest.fixture
def service(engine, clock, registrar, device):
    register_device(engine, registrar, device)
    return LoginService(engine.state, engine.store, clock,
                        rng=random.Random(7))


def sign_challenge(principal, challenge) -> bytes:
    return principal.keypair.sign(login_message(challenge.did, challenge.nonce))


def test_login_round_trip(service, clock, device):
    challenge = service.begin_login(device.did)
    assert challenge.nonce == random.Random(7).randbytes(32)  # seeded oracle
    assert challenge.expires_at == challenge.issued_at + 300

    session = service.complete_login(device.did, challenge.nonce,
                                     sign_challenge(device, challenge))
    assert session.did == device.did
    assert session.expires_at == int(clock.now()) + 3600
    assert session_is_valid(session, clock.now())


def test_login_message_binds_did_and_nonce(device):
    assert login_message(device.did, b"\x01\xff") == \
        f"LOGIN|{device.did}|01ff".encode("utf-8")


def test_login_requires_registration(engine, clock, registrar, other_device):
    service = LoginService(engine.state, engine.store, clock)
    with pytest.raises(NotRegisteredError):
        service.begin_login(other_device.did)  # no identity at all
    create_identity(engine, registrar, other_device)
    with pytest.raises(NotRegisteredError):
        service.begin_login(other_device.did)  # identity but no device entry


def test_unknown_challenge_rejected(service, device):
    with pytest.raises(NoSuchChallengeError):
        service.complete_login(device.did, b"\x00" * 32, b"\x00" * 64)


def test_bad_signature_leaves_challenge_open(service, clock, device, other_device):
    challenge = service.begin_login(device.did)
    with pytest.raises(BadSignatureError):
        service.complete_login(device.did, challenge.nonce,
                               sign_challenge(other_device, challenge))
    # the same challenge still works with the right key
    session = service.complete_login(device.did, challenge.nonce,
                                     sign_challenge(device, challenge))
    assert session_is_valid(session, clock.now())


def test_challenge_is_single_use(service, device):
    challenge = service.begin_login(device.did)
    signature = sign_challenge(device, challenge)
    service.complete_login(device.did, challenge.nonce, signature)
    with pytest.raises(NoSuchChallengeError):
        service.complete_login(device.did, challenge.nonce, signature)


def test_expired_challenge_is_consumed(service, clock, device):
    challenge = service.begin_login(device.did)
    signature = sign_challenge(device, challenge)
    clock.advance(300)
    with pytest.raises(ExpiredChallengeError):
        service.complete_login(device.did, challenge.nonce, signature)
    with pytest.raises(NoSuchChallengeError):
        service.complete_login(device.did, challenge.nonce, signature)


def test_session_expires(service, clock, device):
    challenge = service.begin_login(device.did)
    session = service.complete_login(device.did, challenge.nonce,
                                     sign_challenge(device, challenge))
    clock.advance(3599)
    assert session_is_valid(session, clock.now())
    clock.advance(1)
    assert not session_is_valid(session, clock.now())
    assert not session_is_valid(None, clock.now())


def test_unseeded_nonces_differ(engine, clock, registrar, device):
    register_device(engine, registrar, device)
    service = LoginService(engine.state, engine.store, clock)
    assert service.begin_login(device.did).nonce != \
        service.begin_login(device.did).nonce


def test_seeded_services_repeat_nonces(engine, clock, registrar, device):
    register_device(engine, registrar, device)
    streams = [LoginService(engine.state, engine.store, clock,
                            rng=random.Random(99)) for _ in range(2)]
    first, second = (s.begin_login(device.did).nonce for s in streams)
    assert first == second


def test_session_serialization_round_trip(service, device):
    challenge = service.begin_login(device.did)
    session = service.complete_login(device.did, challenge.nonce,
                                     sign_challenge(device, challenge))
    assert Session.from_dict(session.to_dict()) == session
