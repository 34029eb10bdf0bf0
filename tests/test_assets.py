"""Asset upload, content-hash dedup, and ownership-gated queries."""

import gc
import hashlib
import weakref

import pytest

from iotid.assets import (
    AssetRecord,
    asset_key,
    get_asset_payload,
    query_all_assets,
    query_owned_assets,
)
from iotid.codec import canonical_json
from iotid.idm import NotAuthenticatedError, Session
from iotid.ledger import ContractError, WorldState
from iotid.store import ContentHash

from util import (
    create_identity,
    register_device,
    reopen_engine,
    state_snapshot,
    upload_payload,
)

PAYLOAD = b'{"d":{"temperature":21.5}}'


def rejected(engine, proposal) -> ContractError:
    with pytest.raises(ContractError) as err:
        engine.submit(proposal)
    return err.value


@pytest.fixture
def registered(engine, registrar, device):
    register_device(engine, registrar, device)
    return device


def test_upload_writes_record_and_payload(engine, registrar, registered):
    proposal = registered.proposal(
        engine, "asset", "uploadAsset",
        [str(registered.did), "device1/1.txt", PAYLOAD.hex()])
    engine.submit(proposal)
    engine.flush()

    data_id = ContentHash(hashlib.sha256(PAYLOAD).digest())
    value, _ = engine.state.get(asset_key(data_id))
    record = AssetRecord.from_bytes(value)
    assert record.data_id == data_id
    assert record.owner == registered.did
    assert record.asset_name == "device1/1.txt"
    assert record.added_at == proposal.timestamp
    assert engine.store.get(data_id) == PAYLOAD
    assert get_asset_payload(engine.state, engine.store, data_id) == PAYLOAD


def test_duplicate_content_rejected_with_original_id(engine, registrar,
                                                     registered, other_device):
    register_device(engine, registrar, other_device)
    upload_payload(engine, registered, PAYLOAD, name="first.txt")
    before = state_snapshot(engine)

    # a different uploader and name do not make the content new
    err = rejected(engine, other_device.proposal(
        engine, "asset", "uploadAsset",
        [str(other_device.did), "second.txt", PAYLOAD.hex()]))
    assert err.code == "DuplicateAsset"
    assert err.details == {"dataId": hashlib.sha256(PAYLOAD).hexdigest()}
    assert state_snapshot(engine) == before

    err = rejected(engine, registered.proposal(
        engine, "asset", "uploadAsset",
        [str(registered.did), "first.txt", PAYLOAD.hex()]))
    assert err.code == "DuplicateAsset"

    records = query_all_assets(engine.state)
    assert len(records) == 1
    assert records[0].owner == registered.did
    assert records[0].asset_name == "first.txt"


def test_dedup_applies_only_to_committed_uploads(engine, registered):
    # both uploads execute against the same committed snapshot, so the
    # loser is flagged by MVCC rather than the contract
    engine.submit(registered.proposal(
        engine, "asset", "uploadAsset",
        [str(registered.did), "a.txt", PAYLOAD.hex()]))
    engine.submit(registered.proposal(
        engine, "asset", "uploadAsset",
        [str(registered.did), "b.txt", PAYLOAD.hex()]))
    block = engine.flush()
    assert block.validation_flags == ["VALID", "MVCC_CONFLICT"]
    assert len(query_all_assets(engine.state)) == 1


def test_empty_payload_rejected(engine, registered):
    err = rejected(engine, registered.proposal(
        engine, "asset", "uploadAsset", [str(registered.did), "empty.txt", ""]))
    assert err.code == "EmptyPayload"


@pytest.mark.parametrize("args", [
    ["only-two", "args"],
    ["not a did", "name.txt", "ff"],
    ["did:iotid:{method}", "name.txt", "zz"],
])
def test_malformed_upload_arguments(engine, registered, args):
    args = [a.format(method=registered.did.method_id) for a in args]
    err = rejected(engine, registered.proposal(engine, "asset", "uploadAsset", args))
    assert err.code == "BadArguments"


def test_upload_requires_registered_device(engine, registrar, device):
    args = [str(device.did), "r.txt", PAYLOAD.hex()]
    err = rejected(engine, device.proposal(engine, "asset", "uploadAsset", args))
    assert err.code == "NotAuthenticated"  # no identity at all
    create_identity(engine, registrar, device)
    err = rejected(engine, device.proposal(engine, "asset", "uploadAsset", args))
    assert err.code == "NotAuthenticated"  # identity but never registered
    assert query_all_assets(engine.state) == []


def test_upload_must_be_signed_by_the_device_key(engine, registrar, registered,
                                                 other_device):
    register_device(engine, registrar, other_device)
    err = rejected(engine, other_device.proposal(
        engine, "asset", "uploadAsset",
        [str(registered.did), "r.txt", PAYLOAD.hex()]))
    assert err.code == "NotAuthenticated"
    assert query_all_assets(engine.state) == []


def test_query_all_orders_by_time_then_id(engine, registrar, registered,
                                          other_device):
    register_device(engine, registrar, other_device)
    first = b"payload-one"
    upload_payload(engine, registered, first, name="one.txt")
    # the next two commit together and therefore share a timestamp
    engine.submit(registered.proposal(
        engine, "asset", "uploadAsset",
        [str(registered.did), "two.txt", b"payload-two".hex()]))
    engine.submit(other_device.proposal(
        engine, "asset", "uploadAsset",
        [str(other_device.did), "three.txt", b"payload-three".hex()]))
    engine.flush()

    records = query_all_assets(engine.state)
    assert len(records) == 3
    assert records[0].asset_name == "one.txt"
    assert records[0].added_at < records[1].added_at == records[2].added_at
    tied = sorted(hashlib.sha256(p).hexdigest()
                  for p in (b"payload-two", b"payload-three"))
    assert [r.data_id.hex for r in records[1:]] == tied


def test_owned_query_requires_live_session(engine, clock, registrar, registered,
                                           other_device):
    register_device(engine, registrar, other_device)
    upload_payload(engine, registered, b"mine", name="mine.txt")
    upload_payload(engine, other_device, b"theirs", name="theirs.txt")

    session = Session(did=registered.did, expires_at=int(clock.now()) + 60)
    owned = query_owned_assets(engine.state, session, clock.now())
    assert [r.asset_name for r in owned] == ["mine.txt"]

    with pytest.raises(NotAuthenticatedError):
        query_owned_assets(engine.state, None, clock.now())
    with pytest.raises(NotAuthenticatedError):
        query_owned_assets(engine.state, session, session.expires_at)


def count_decodes(monkeypatch) -> list[AssetRecord]:
    """Record every AssetRecord.from_bytes result from here on."""
    decoded = []
    original = AssetRecord.from_bytes

    def counting(cls, data):
        decoded.append(original(data))
        return decoded[-1]

    monkeypatch.setattr(AssetRecord, "from_bytes", classmethod(counting))
    return decoded


def test_warm_queries_decode_each_record_once(tmp_path, engine, clock, registrar,
                                              registered, other_device, monkeypatch):
    register_device(engine, registrar, other_device)
    upload_payload(engine, registered, b"one", name="one.txt")
    upload_payload(engine, other_device, b"two", name="two.txt")
    decoded = count_decodes(monkeypatch)

    first = query_all_assets(engine.state)
    assert len(decoded) == 2
    decoded.clear()
    assert query_all_assets(engine.state) == first
    assert decoded == []

    upload_payload(engine, registered, b"three", name="three.txt")
    records = query_all_assets(engine.state)
    assert [r.asset_name for r in decoded] == ["three.txt"]
    assert records == first + decoded

    session = Session(did=registered.did, expires_at=int(clock.now()) + 60)
    owned = query_owned_assets(engine.state, session, clock.now())
    assert [r.asset_name for r in owned] == ["one.txt", "three.txt"]
    assert [r.asset_name for r in decoded] == ["three.txt"]

    # a second engine on the same directory replays its own state and
    # starts with nothing decoded
    decoded.clear()
    second = reopen_engine(tmp_path)
    try:
        assert query_all_assets(second.state) == records
        assert len(decoded) == 3
    finally:
        second.close()


def test_decoded_records_do_not_outlive_their_state(registered):
    record = AssetRecord(data_id=ContentHash(hashlib.sha256(b"x").digest()),
                         owner=registered.did, asset_name="x.txt", added_at=1)
    state = WorldState()
    state.apply([(asset_key(record.data_id), canonical_json(record.to_dict()))], (1, 0))
    assert query_all_assets(state) == [record]
    alive = weakref.ref(state)
    del state
    gc.collect()
    assert alive() is None


def test_missing_asset_payload_is_none(engine):
    ghost = ContentHash(hashlib.sha256(b"never uploaded").digest())
    assert get_asset_payload(engine.state, engine.store, ghost) is None


def test_asset_record_round_trip(device):
    record = AssetRecord(data_id=ContentHash(hashlib.sha256(b"x").digest()),
                         owner=device.did, asset_name="device1/1.txt",
                         added_at=42)
    assert AssetRecord.from_bytes(canonical_json(record.to_dict())) == record
