"""Asset upload, content-hash dedup, and ownership-gated queries."""

import gc
import hashlib
import tempfile
import weakref
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from iotid import state as state_module
from iotid.assets import (
    AssetContract,
    asset_key,
    query_all_assets,
    query_owned_assets,
)
from iotid.clock import SimClock
from iotid.codec import canonical_json
from iotid.did import parse_did
from iotid.gateway import Gateway
from iotid.idm import DidRecord, NotAuthenticatedError, Session, device_key, did_key
from iotid.journal import TxProposal, UnsupportedFormat
from iotid.ledger import ContractError, TxContext
from iotid.state import KEY_ASSET, WorldState, asset_row
from iotid.store import LOG_FILE, ContentHash

from util import (
    AssetRecord,
    Principal,
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
    # the payload is in its block's chunk of the content log, one
    # length-prefixed record after the chunk's header
    assert engine.store.get(data_id, block) == PAYLOAD
    assert [p.name for p in (tmp_path / "objects").iterdir()] == [LOG_FILE]
    record = len(PAYLOAD).to_bytes(4, "big") + PAYLOAD
    assert (tmp_path / "objects" / LOG_FILE).read_bytes() == \
        block.to_bytes(4, "big") + len(record).to_bytes(4, "big") + record


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

    rows = query_all_assets(engine.state)
    assert len(rows) == 1
    assert rows[0]["owner"] == str(registered.did)
    assert rows[0]["assetName"] == "first.txt"


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


@pytest.mark.parametrize(("timestamp", "name"), [
    (2**63, "far.txt"), (-2**63 - 1, "far.txt"), (None, "\udcff.txt"), (None, "a\ud800")])
def test_an_upload_the_listing_cannot_read_is_refused(tmp_path, engine, registered,
                                                      timestamp, name):
    # addedAt is the proposal's timestamp, and the store holds a signed
    # 64-bit integer and UTF-8 text: the contract never writes what a
    # listing refuses. A lone surrogate is how a file name's non-UTF-8
    # byte reaches Python
    before = state_snapshot(engine)
    proposal = registered.proposal(engine, "asset", "uploadAsset",
                                   [str(registered.did), name, PAYLOAD.hex()])
    if timestamp is not None:
        proposal.timestamp = timestamp
    err = rejected(engine, proposal.sign(registered.keypair))
    assert err.code == "BadArguments"
    assert state_snapshot(engine) == before
    assert engine.flush() is None  # nothing pending
    assert not (tmp_path / "objects").exists()  # no content file either


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

    rows = query_all_assets(engine.state)
    assert len(rows) == 3
    assert rows[0]["assetName"] == "one.txt"
    assert rows[0]["addedAt"] < rows[1]["addedAt"] == rows[2]["addedAt"]
    tied = sorted(hashlib.sha256(p).hexdigest()
                  for p in (b"payload-two", b"payload-three"))
    assert [r["dataId"] for r in rows[1:]] == tied


def test_owned_query_requires_live_session(engine, clock, registrar, registered,
                                           other_device):
    register_device(engine, registrar, other_device)
    upload_payload(engine, registered, b"mine", name="mine.txt")
    upload_payload(engine, other_device, b"theirs", name="theirs.txt")

    session = Session(did=registered.did, expires_at=int(clock.now()) + 60)
    owned = query_owned_assets(engine.state, session, clock.now())
    assert [r["assetName"] for r in owned] == ["mine.txt"]

    with pytest.raises(NotAuthenticatedError):
        query_owned_assets(engine.state, None, clock.now())
    with pytest.raises(NotAuthenticatedError):
        query_owned_assets(engine.state, session, session.expires_at)


def count_decodes(monkeypatch) -> list[dict]:
    """Record every asset value decoded from here on: the flush's and the
    warm view's, which both go through ``state.asset_fields``."""
    decoded = []
    original = state_module.from_canonical_json

    def counting(data):
        decoded.append(original(data))
        return decoded[-1]

    monkeypatch.setattr(state_module, "from_canonical_json", counting)
    return decoded


def names(decoded):
    return [d["assetName"] for d in decoded]


def test_warm_queries_decode_each_record_once(tmp_path, engine, clock, registrar,
                                              registered, other_device, monkeypatch):
    register_device(engine, registrar, other_device)
    upload_payload(engine, registered, b"one", name="one.txt")
    upload_payload(engine, other_device, b"two", name="two.txt")
    decoded = count_decodes(monkeypatch)

    # the query's flush decodes each record once; the view reads the columns
    first = query_all_assets(engine.state)
    assert sorted(names(decoded)) == ["one.txt", "two.txt"]
    decoded.clear()
    assert query_all_assets(engine.state) == first
    assert decoded == []

    upload_payload(engine, registered, b"three", name="three.txt")
    # the contract checks the record it writes from its fields: an upload
    # decodes no asset value
    assert decoded == []
    rows = query_all_assets(engine.state)
    assert names(decoded) == ["three.txt"]
    assert names(rows) == ["one.txt", "two.txt", "three.txt"]
    assert rows[:2] == first

    session = Session(did=registered.did, expires_at=int(clock.now()) + 60)
    owned = query_owned_assets(engine.state, session, clock.now())
    assert names(owned) == ["one.txt", "three.txt"]
    assert names(decoded) == ["three.txt"]

    # a second engine on the same directory replays its own state from the
    # store's savepoint, the first query's: its flush decodes only the
    # record that replay applied, and its view reads the rest as stored
    decoded.clear()
    second = reopen_engine(tmp_path)
    try:
        assert query_all_assets(second.state) == rows
        assert names(decoded) == ["three.txt"]
    finally:
        second.close()


def test_decoded_records_do_not_outlive_their_state(registered):
    record = AssetRecord(data_id=ContentHash(hashlib.sha256(b"x").digest()),
                         owner=registered.did, asset_name="x.txt", added_at=1)
    state = WorldState()
    state.apply([(asset_key(record.data_id), canonical_json(record.to_dict()))], (1, 0))
    assert query_all_assets(state) == [record.to_dict()]
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
    assert [(r["addedAt"], r["dataId"]) for r in everything] == \
        sorted((r["addedAt"], r["dataId"]) for r in everything)
    for owner in _OWNERS:
        session = Session(did=owner, expires_at=10)
        assert query_owned_assets(state, session, 0) == \
            [r for r in everything if r["owner"] == str(owner)]


# a value under an asset key that is no record: it names no owner
NOT_A_RECORD = b'{"addedAt":1}'


def decoded_record(value):
    """The record in ``value`` decoded the slow way, None if it is none: a
    value that lacks a field, or whose owner is no DID."""
    try:
        return AssetRecord.from_bytes(value)
    except (KeyError, ValueError):  # MalformedDid is a ValueError
        return None


def reference_queries(state):
    """Both queries the slow way: decode every record, stable-sort by addedAt.

    The listing of all is the first key that holds no record, if one does.
    """
    entries = [(key, decoded_record(value)) for key, value, _ in state.range("asset/")]
    records = sorted((record for _, record in entries if record is not None),
                     key=lambda r: r.added_at)
    unlisted = [key for key, record in entries if record is None]
    return unlisted[0] if unlisted else [r.to_dict() for r in records], \
        {owner: [r.to_dict() for r in records if r.owner == owner] for owner in _OWNERS}


def assert_lists_all(state, everything):
    if isinstance(everything, str):  # the key named in the refusal
        with pytest.raises(UnsupportedFormat, match=everything):
            query_all_assets(state)
    else:
        assert query_all_assets(state) == everything


def asset_write(payload, owner, added_at):
    record = AssetRecord(data_id=ContentHash(hashlib.sha256(payload).digest()),
                         owner=owner, asset_name="a.txt", added_at=added_at)
    return asset_key(record.data_id), canonical_json(record.to_dict())


def test_a_listing_parses_no_owner(monkeypatch):
    # six rows of two owners: the flush judges each record once, its owner
    # included, and the listings, of all and of one owner, read the judged
    # columns or the rows kept from them
    writes = [asset_write(bytes([n]), _OWNERS[n % 2], n) for n in range(6)]
    parsed = []
    monkeypatch.setattr(state_module, "parse_did",
                        lambda text: parsed.append(text) or parse_did(text))
    state = WorldState()
    state.apply(writes, (1, 0))
    state.flush()
    assert sorted(parsed) == sorted(str(_OWNERS[n % 2]) for n in range(6))
    parsed.clear()
    session = Session(did=_OWNERS[1], expires_at=10)
    assert len(query_owned_assets(state, session, 0)) == 3
    assert len(query_all_assets(state)) == 6
    assert len(query_owned_assets(state, session, 0)) == 3
    assert parsed == []


def bad_owner_write(payload):
    """A record in the form the contract writes, but whose owner is no DID."""
    data_id = hashlib.sha256(payload).hexdigest()
    return KEY_ASSET + data_id, canonical_json({"addedAt": 1, "assetName": "a.txt",
                                                "dataId": data_id, "owner": "did:x"})


def assert_malformed_owner_is_no_record(state, bad, mine):
    # the listing of all refuses it by name, every time it is asked, and an
    # owner's listing leaves it out
    session = Session(did=_OWNERS[0], expires_at=10)
    for _ in range(2):
        assert query_owned_assets(state, session, 0) == mine
        with pytest.raises(UnsupportedFormat, match=bad[0]):
            query_all_assets(state)


def test_a_malformed_owner_still_fails_the_listing(tmp_path):
    # a fresh state reads the flushed store that holds it beside a good record
    bad, good = bad_owner_write(b"bad"), asset_write(b"good", _OWNERS[0], 0)
    written = WorldState(tmp_path / "state.sqlite")
    written.apply([good, bad], (1, 0))
    written.flush()
    written.close()
    cold = WorldState(tmp_path / "state.sqlite")
    try:
        assert_malformed_owner_is_no_record(
            cold, bad, [asset_row(good[0], str(_OWNERS[0]), 0, "a.txt")])
    finally:
        cold.close()


def test_a_malformed_owner_fails_every_warm_query(tmp_path):
    # the kept rows are built on one good record; the bad one arrives through
    # the write feed beside a good one, flushed or not
    bad = bad_owner_write(b"bad")
    first, second = asset_write(b"first", _OWNERS[0], 0), asset_write(b"second", _OWNERS[1], 2)
    mine = [asset_row(first[0], str(_OWNERS[0]), 0, "a.txt")]
    warm = WorldState(tmp_path / "state.sqlite")
    try:
        warm.apply([first], (1, 0))
        assert query_all_assets(warm) == mine
        warm.apply([bad, second], (2, 0))
        assert_malformed_owner_is_no_record(warm, bad, mine)
        warm.flush()
        assert_malformed_owner_is_no_record(warm, bad, mine)
    finally:
        warm.close()


# a value nested deeper than the JSON decoder recurses, which replay may apply
# from a forged journal: it runs no contract
_DEEP = (KEY_ASSET + "a" * 64, b"[" * 100000 + b"]" * 100000)


def test_a_deeply_nested_value_still_fails_the_listing(tmp_path):
    good = asset_write(b"good", _OWNERS[0], 0)
    written = WorldState(tmp_path / "state.sqlite")
    written.apply([good, _DEEP], (1, 0))
    written.flush()
    written.close()
    cold = WorldState(tmp_path / "state.sqlite")
    try:
        assert_malformed_owner_is_no_record(
            cold, _DEEP, [asset_row(good[0], str(_OWNERS[0]), 0, "a.txt")])
    finally:
        cold.close()


def test_a_deeply_nested_value_fails_every_warm_query(tmp_path):
    first, second = asset_write(b"first", _OWNERS[0], 0), asset_write(b"second", _OWNERS[1], 2)
    mine = [asset_row(first[0], str(_OWNERS[0]), 0, "a.txt")]
    warm = WorldState(tmp_path / "state.sqlite")
    try:
        warm.apply([first], (1, 0))
        assert query_all_assets(warm) == mine
        warm.apply([_DEEP, second], (2, 0))
        assert_malformed_owner_is_no_record(warm, _DEEP, mine)
        warm.flush()
        assert_malformed_owner_is_no_record(warm, _DEEP, mine)
    finally:
        warm.close()


# one write: an asset record (a pool of 6 payloads, so keys get rewritten
# with another owner and addedAt), a value that is no record or a record
# whose owner is no DID under one of those keys, or a key outside the
# asset/ prefix
_payloads = st.integers(0, 5).map(lambda n: bytes([n]))
_writes = st.one_of(
    st.builds(asset_write, _payloads, st.sampled_from(_OWNERS), st.integers(0, 3)),
    st.builds(lambda payload: (asset_write(payload, _OWNERS[0], 0)[0], NOT_A_RECORD),
              _payloads),
    st.builds(bad_owner_write, _payloads),
    st.tuples(st.sampled_from(["assets", "asset", "did/x", "nonce/a/1", "zzz"]),
              st.binary(max_size=3)),
)
# a step: one or more applies (each one block of writes), then the queries
_steps = st.lists(st.lists(st.lists(_writes, min_size=1, max_size=3),
                           min_size=1, max_size=3), min_size=1, max_size=12)


@given(_steps, st.data())
def test_queries_equal_a_full_decode_after_every_step(steps, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.sqlite"
        state, version = WorldState(path), 0
        try:
            for step in steps:
                for writes in step:
                    version += 1
                    state.apply(writes, (version, 0))
                everything, owned = reference_queries(state)
                # the full query, which builds the listing, runs before the
                # owner queries, after them or not at all, so owner queries
                # also run on a state with no listing, between applies, and
                # must build none (they may drop one that meets a rewrite)
                full = data.draw(st.sampled_from(["before", "after", "skip"]))
                if full == "before":
                    assert_lists_all(state, everything)
                viewed = state._listing is not None
                for owner in data.draw(st.lists(st.sampled_from(_OWNERS), unique=True)):
                    session = Session(did=owner, expires_at=10)
                    assert query_owned_assets(state, session, 0) == owned[owner]
                assert viewed or state._listing is None
                if full == "after":
                    assert_lists_all(state, everything)
                # a fresh state on the flushed file answers from the store
                # alone: each owner's listing, which keeps none, then all
                state.flush()
                cold = WorldState(path)
                try:
                    for owner in _OWNERS:
                        assert query_owned_assets(cold, Session(did=owner, expires_at=10),
                                                  0) == owned[owner]
                    assert cold._listing is None
                    assert_lists_all(cold, everything)
                finally:
                    cold.close()
            for owner in _OWNERS:
                assert query_owned_assets(state, Session(did=owner, expires_at=10), 0) == \
                    owned[owner]
        finally:
            state.close()


def test_changing_a_returned_list_changes_no_later_result():
    state = WorldState()
    state.apply([asset_write(bytes([n]), _OWNERS[n % 2], n % 3) for n in range(6)],
                (1, 0))
    session = Session(did=_OWNERS[0], expires_at=10)
    everything, owned = reference_queries(state)
    for query in (lambda: query_all_assets(state),
                  lambda: query_owned_assets(state, session, 0)):
        query().append(everything[0])
        query().sort(key=lambda r: r["dataId"], reverse=True)
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


_DEVICE = Principal.from_seed(1)
# names that JSON escapes, or writes as multi-byte UTF-8, and lone
# surrogates, which no UTF-8 encodes: how a file name's non-UTF-8 byte
# reaches Python from argv
_NAMES = st.one_of(st.text(st.characters(exclude_categories=()), max_size=12),
                   st.sampled_from(['"q"', "back\\slash", "\x00", "\n\t\x1f", " ",
                                    "ünïcødé", "名前.txt", "\U0001f600/1.txt", "\x7f",
                                    "\udcff.txt", "\ud83d"]))
_TIMES = st.one_of(st.integers(-2**63 - 2, 2**63 + 1),
                   st.sampled_from([-2**63 - 1, -2**63, -2**63 + 1,
                                    2**63 - 2, 2**63 - 1, 2**63]))


def listable(name: str, timestamp: int) -> bool:
    """Whether a listing can read back an upload's record, judged by hand."""
    try:
        name.encode()
    except UnicodeEncodeError:
        return False
    return -2**63 <= timestamp < 2**63


def contract_writes(uploads) -> list[tuple[str, bytes]]:
    """What the asset contract writes for each (payload, name, timestamp) of
    ``_DEVICE``; it refuses with BadArguments just the uploads it could not list."""
    snapshot = WorldState()  # the device's identity and registration
    record = DidRecord(did=_DEVICE.did, public_key=_DEVICE.public_key,
                       owner=_DEVICE.address, created_at=0)
    snapshot.apply([(did_key(_DEVICE.did), canonical_json(record.to_dict())),
                    (device_key(_DEVICE.did), b"{}")], (1, 0))
    writes = []
    for payload, name, timestamp in uploads:
        proposal = TxProposal(invoker=_DEVICE.address, invoker_key=_DEVICE.public_key,
                              contract="asset", function="uploadAsset", args=[],
                              nonce=bytes(32), timestamp=timestamp)
        ctx = TxContext(snapshot, proposal)
        if not listable(name, timestamp):
            with pytest.raises(ContractError) as err:
                AssetContract().upload_asset(ctx, str(_DEVICE.did), name, payload.hex())
            assert err.value.code == "BadArguments"
            continue
        AssetContract().upload_asset(ctx, str(_DEVICE.did), name, payload.hex())
        writes += ctx.rwset().writes
    return writes


@given(st.lists(st.tuples(st.binary(min_size=1, max_size=4), _NAMES, _TIMES),
                max_size=5, unique_by=lambda upload: upload[0]))
def test_every_record_the_contract_writes_lists_as_its_full_decode(uploads):
    writes = contract_writes(uploads)
    assert [key for key, _ in writes] == \
        [KEY_ASSET + hashlib.sha256(payload).hexdigest()
         for payload, name, timestamp in uploads if listable(name, timestamp)]
    oracle = sorted((AssetRecord.from_bytes(value).to_dict() for _, value in writes),
                    key=lambda row: (row["addedAt"], row["dataId"]))
    session = Session(did=_DEVICE.did, expires_at=10)
    cold = WorldState()  # read from the store's columns
    cold.apply(writes, (1, 0))
    assert query_owned_assets(cold, session, 0) == oracle
    assert query_all_assets(cold) == oracle
    warm = WorldState()  # decoded by the view's catch-up
    assert query_all_assets(warm) == []
    warm.apply(writes, (1, 0))
    assert query_all_assets(warm) == oracle
    assert query_owned_assets(warm, session, 0) == oracle


def test_a_flush_decodes_each_written_asset_value_once(engine, registered, monkeypatch):
    upload_payload(engine, registered, b"one", name="1.txt")
    upload_payload(engine, registered, b"two", name="2.txt")
    values = [engine.state.get(asset_key(ContentHash.of(payload)))[0]
              for payload in (b"one", b"two")]
    decoded = count_decodes(monkeypatch)
    engine.state.flush()
    # the DID, device and nonce keys it wrote too are no asset records
    assert sorted(canonical_json(d) for d in decoded) == sorted(values)
    decoded.clear()
    engine.state.flush()
    assert decoded == []


def test_cold_listings_decode_no_stored_value(tmp_path, monkeypatch):
    gateway = Gateway(tmp_path / "ledger", tmp_path / "keys", clock=SimClock())
    gateway.cmd_network_init()
    gateway.cmd_device_keygen("dev1", seed=bytes([5]) * 32)
    gateway.cmd_device_register("dev1", "ABCDEF00001")
    gateway.cmd_device_login("dev1")
    for n in range(3):
        path = tmp_path / f"reading-{n}.txt"
        path.write_bytes(f"reading {n}".encode())
        gateway.cmd_asset_upload("dev1", str(path))
    decoded = count_decodes(monkeypatch)
    assert gateway.cmd_asset_list()["count"] == 3
    assert gateway.cmd_asset_list(mine="dev1")["count"] == 3
    assert decoded == []
