"""Identity chaincode gates and the challenge-response login flow."""

import json
import random

import pytest

from iotid.codec import canonical_json, sha256
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
    did_key,
    get_device_record,
    get_did_record,
    login_message,
    resolve_did,
    session_is_valid,
)
from iotid.ledger import ContractError, WorldState
from iotid.store import ContentHash, ContentStore, IntegrityFailure

from util import (
    MANUFACTURER,
    Principal,
    create_identity,
    register_device,
    state_snapshot,
)


def rejected(engine, proposal) -> ContractError:
    with pytest.raises(ContractError) as err:
        engine.submit(proposal)
    return err.value


def creation_args(device, owner=None) -> list[str]:
    owner = owner if owner is not None else device.address
    proof = make_possession_proof(device.keypair, device.did, owner)
    return [device.public_key.hex(), device.did.method_id, str(owner), proof.hex()]


# -- createIdentity -----------------------------------------------------------


def test_create_identity_writes_record_and_document(engine, registrar, device):
    proposal = registrar.proposal(engine, "idm", "createIdentity",
                                  creation_args(device))
    engine.submit(proposal)
    engine.flush()

    record = get_did_record(engine.state, device.did)
    assert record.did == device.did
    assert record.owner == device.address
    assert record.created_at == proposal.timestamp

    document = resolve_did(engine.state, engine.store, device.did)
    assert document.id == device.did
    assert document.owner == device.address
    assert document.public_key_hex == device.public_key.hex()
    assert document.created == record.created_at
    assert engine.store.get(record.doc_hash) == document.canonical_bytes()


def test_create_identity_response_is_the_canonical_record(engine, registrar, device):
    rwset, response = engine.execute_proposal(
        registrar.proposal(engine, "idm", "createIdentity", creation_args(device)))
    assert canonical_json(json.loads(response)) == response
    assert sorted(json.loads(response)) == ["createdAt", "did", "docHash", "owner"]
    assert (did_key(device.did), response) in rwset.writes


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


# -- registerDevice ------------------------------------------------------------


def test_register_device_records_manufacturer(engine, registrar, device):
    create_identity(engine, registrar, device)
    proposal = device.proposal(engine, "idm", "registerDevice",
                               [str(device.did), MANUFACTURER])
    engine.submit(proposal)
    engine.flush()
    record = get_device_record(engine.state, device.did)
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
    assert get_device_record(engine.state, device.did) is not None


def test_register_unknown_did(engine, device):
    err = rejected(engine, device.proposal(
        engine, "idm", "registerDevice", [str(device.did), MANUFACTURER]))
    assert err.code == "UnknownDid"


def test_register_requires_ownership(engine, registrar, device, other_device):
    create_identity(engine, registrar, device, owner=other_device.address)
    err = rejected(engine, device.proposal(
        engine, "idm", "registerDevice", [str(device.did), MANUFACTURER]))
    assert err.code == "NotOwner"
    # the actual owner may register someone else's device key
    engine.submit(other_device.proposal(
        engine, "idm", "registerDevice", [str(device.did), MANUFACTURER]))
    engine.flush()
    assert get_device_record(engine.state, device.did) is not None


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
    old = get_did_record(engine.state, device.did)
    engine.submit(device.proposal(engine, "idm", "transferOwnership",
                                  [str(device.did), str(other_device.address)]))
    engine.flush()
    new = get_did_record(engine.state, device.did)
    assert new.owner == other_device.address
    assert new.created_at == old.created_at
    assert new.doc_hash != old.doc_hash
    document = resolve_did(engine.state, engine.store, device.did)
    assert document.owner == other_device.address
    # content addressing keeps the superseded document readable
    old_doc = DidDocument.from_bytes(engine.store.get(old.doc_hash))
    assert old_doc.owner == device.address


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
    assert get_did_record(engine.state, device.did).owner == device.address


# -- resolution ----------------------------------------------------------------


def test_resolve_unknown_did(engine, device):
    with pytest.raises(UnknownDidError):
        resolve_did(engine.state, engine.store, device.did)


def test_resolve_detects_record_document_mismatch(tmp_path, device, other_device):
    store = ContentStore(tmp_path / "objects")
    document = DidDocument(id=device.did, public_key_hex=device.public_key.hex(),
                           owner=device.address, created=5)
    doc_hash = store.put(document.canonical_bytes())
    record = DidRecord(did=device.did, doc_hash=doc_hash,
                       owner=other_device.address, created_at=5)
    state = WorldState()
    state.apply([(did_key(device.did), canonical_json(record.to_dict()))], (1, 0))
    with pytest.raises(IntegrityFailure):
        resolve_did(state, store, device.did)


def test_records_round_trip(device):
    record = DidRecord(did=device.did, doc_hash=ContentHash(sha256(b"doc")),
                       owner=device.address, created_at=7)
    assert DidRecord.from_bytes(canonical_json(record.to_dict())) == record
    entry = DeviceRecord(did=device.did, manufacturer_id=MANUFACTURER,
                         registered_at=9)
    assert DeviceRecord.from_bytes(canonical_json(entry.to_dict())) == entry


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
