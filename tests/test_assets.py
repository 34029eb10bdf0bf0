"""Asset upload, content-hash dedup, and ownership-gated queries."""

import gc
import hashlib
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from iotid import assets as assets_module
from iotid.assets import (
    AssetRecord,
    asset_key,
    query_all_assets,
    query_owned_assets,
)
from iotid.codec import canonical_json
from iotid.did import MalformedDid, parse_did
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


def test_upload_writes_record_and_payload(tmp_path, engine, registrar, registered):
    proposal = registered.proposal(
        engine, "asset", "uploadAsset",
        [str(registered.did), "device1/1.txt", PAYLOAD.hex()])
    engine.submit(proposal)
    engine.flush()

    data_id = ContentHash(hashlib.sha256(PAYLOAD).digest())
    value, (block, _) = engine.state.get(asset_key(data_id))
    record = AssetRecord.from_bytes(value)
    assert record.data_id == data_id
    assert record.owner == registered.did
    assert record.asset_name == "device1/1.txt"
    assert record.added_at == proposal.timestamp
    # the payload is in its block's file, one length-prefixed record
    assert engine.store.get(data_id, block) == PAYLOAD
    assert [p.name for p in (tmp_path / "objects").iterdir()] == [f"{block}.block"]
    assert (tmp_path / "objects" / f"{block}.block").read_bytes() == \
        len(PAYLOAD).to_bytes(4, "big") + PAYLOAD


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

    def counting(cls, data, *dids):
        decoded.append(original(data, *dids))
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


_OWNERS = [parse_did(f"did:iotid:owner{n}") for n in range(3)]
# (payload, owner, addedAt): few timestamps, so many rows tie on addedAt
_rows = st.lists(st.tuples(st.binary(min_size=1, max_size=4),
                           st.sampled_from(_OWNERS), st.integers(0, 3)),
                 max_size=20, unique_by=lambda row: row[0])


@given(_rows)
def test_owned_assets_are_the_owners_rows_of_all_assets(rows):
    state = WorldState()
    for payload, owner, added_at in rows:
        record = AssetRecord(data_id=ContentHash(hashlib.sha256(payload).digest()),
                             owner=owner, asset_name="a.txt", added_at=added_at)
        state.apply([(asset_key(record.data_id), canonical_json(record.to_dict()))],
                    (1, 0))
    everything = query_all_assets(state)
    assert [(r.added_at, r.data_id) for r in everything] == \
        sorted((r.added_at, r.data_id) for r in everything)
    for owner in _OWNERS:
        session = Session(did=owner, expires_at=10)
        assert query_owned_assets(state, session, 0) == \
            [r for r in everything if r.owner == owner]


def reference_queries(state):
    """Both queries the slow way: decode every record, stable-sort by addedAt."""
    records = [AssetRecord.from_bytes(value) for _, value, _ in state.range("asset/")]
    records.sort(key=lambda r: r.added_at)
    return records, {owner: [r for r in records if r.owner == owner]
                     for owner in _OWNERS}


def asset_write(payload, owner, added_at):
    record = AssetRecord(data_id=ContentHash(hashlib.sha256(payload).digest()),
                         owner=owner, asset_name="a.txt", added_at=added_at)
    return asset_key(record.data_id), canonical_json(record.to_dict())


def test_a_cold_listing_parses_each_owner_once(monkeypatch):
    # six rows of two owners: the listing of all parses each owner once and
    # its records share the parsed DID; a cold owner query parses none
    writes = [asset_write(bytes([n]), _OWNERS[n % 2], n) for n in range(6)]
    parsed = []
    monkeypatch.setattr(assets_module, "parse_did",
                        lambda text: parsed.append(text) or parse_did(text))
    state = WorldState()
    state.apply(writes, (1, 0))
    records = query_all_assets(state)
    assert sorted(parsed) == [str(_OWNERS[0]), str(_OWNERS[1])]
    assert len({id(r.owner) for r in records}) == 2
    parsed.clear()
    state = WorldState()
    state.apply(writes, (1, 0))
    session = Session(did=_OWNERS[1], expires_at=10)
    assert len(query_owned_assets(state, session, 0)) == 3
    assert parsed == []


def test_a_malformed_owner_still_fails_the_listing():
    bad = canonical_json({"addedAt": 1, "assetName": "a.txt",
                          "dataId": hashlib.sha256(b"bad").hexdigest(), "owner": "did:x"})
    state = WorldState()
    state.apply([asset_write(b"good", _OWNERS[0], 0), ("asset/ff", bad)], (1, 0))
    with pytest.raises(MalformedDid):
        query_all_assets(state)


def test_a_malformed_owner_fails_every_warm_query():
    # the view is built on one good record; the bad one arrives through the
    # write feed beside a good one, and stays in the state as it would for
    # a cold listing, which every later query must match by failing too
    bad = canonical_json({"addedAt": 1, "assetName": "a.txt",
                          "dataId": hashlib.sha256(b"bad").hexdigest(), "owner": "did:x"})
    state = WorldState()
    state.apply([asset_write(b"first", _OWNERS[0], 0)], (1, 0))
    assert len(query_all_assets(state)) == 1
    state.apply([("asset/ff", bad), asset_write(b"second", _OWNERS[1], 2)], (2, 0))
    for _ in range(3):
        with pytest.raises(MalformedDid):
            query_all_assets(state)
    with pytest.raises(MalformedDid):
        query_owned_assets(state, Session(did=_OWNERS[0], expires_at=10), 0)
    with pytest.raises(MalformedDid):
        query_all_assets(state)


# one write: an asset record (a pool of 6 payloads, so keys get rewritten
# with another owner and addedAt) or a key outside the asset/ prefix
_writes = st.one_of(
    st.builds(asset_write, st.integers(0, 5).map(lambda n: bytes([n])),
              st.sampled_from(_OWNERS), st.integers(0, 3)),
    st.tuples(st.sampled_from(["assets", "asset", "did/x", "nonce/a/1", "zzz"]),
              st.binary(max_size=3)),
)
# a step: one or more applies (each one block of writes), then the queries
_steps = st.lists(st.lists(st.lists(_writes, min_size=1, max_size=3),
                           min_size=1, max_size=3), min_size=1, max_size=12)


@given(_steps, st.data())
def test_queries_equal_a_full_decode_after_every_step(steps, data):
    state, version = WorldState(), 0
    for step in steps:
        for writes in step:
            version += 1
            state.apply(writes, (version, 0))
        everything, owned = reference_queries(state)
        # the full query, which builds the view, runs before the owner
        # queries, after them or not at all, so owner queries also run on a
        # state with no view, between applies, and must build none
        full = data.draw(st.sampled_from(["before", "after", "skip"]))
        if full == "before":
            assert query_all_assets(state) == everything
        viewed = state in assets_module._views
        for owner in data.draw(st.lists(st.sampled_from(_OWNERS), unique=True)):
            session = Session(did=owner, expires_at=10)
            assert query_owned_assets(state, session, 0) == owned[owner]
        assert (state in assets_module._views) == viewed
        if full == "after":
            assert query_all_assets(state) == everything
    for owner in _OWNERS:
        assert query_owned_assets(state, Session(did=owner, expires_at=10), 0) == \
            owned[owner]


def test_changing_a_returned_list_changes_no_later_result():
    state = WorldState()
    state.apply([asset_write(bytes([n]), _OWNERS[n % 2], n % 3) for n in range(6)],
                (1, 0))
    session = Session(did=_OWNERS[0], expires_at=10)
    everything, owned = reference_queries(state)
    for query in (lambda: query_all_assets(state),
                  lambda: query_owned_assets(state, session, 0)):
        query().append(everything[0])
        query().sort(key=lambda r: r.data_id.digest, reverse=True)
        query().clear()
    assert query_all_assets(state) == everything
    assert query_owned_assets(state, session, 0) == owned[_OWNERS[0]]

    state.apply([asset_write(b"new", _OWNERS[0], 1)], (2, 0))
    everything, owned = reference_queries(state)
    assert query_all_assets(state) == everything
    assert query_owned_assets(state, session, 0) == owned[_OWNERS[0]]


def test_asset_record_round_trip(device):
    record = AssetRecord(data_id=ContentHash(hashlib.sha256(b"x").digest()),
                         owner=device.did, asset_name="device1/1.txt",
                         added_at=42)
    assert AssetRecord.from_bytes(canonical_json(record.to_dict())) == record
