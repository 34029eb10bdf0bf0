"""Asset chaincode: device telemetry upload with content-hash dedup.

An asset's identity is the sha256 of its payload bytes, so the same
content can never be stored twice anywhere on the chain, regardless of
uploader or filename. The payload itself goes to the content store;
world state holds only the record keyed by ``asset/<dataId>``, though the
journal keeps the payload hex-encoded in the upload proposal's arguments.

The read-side queries serve from one view per world state, kept in query
order. A state's first query seeds it with one decode per record, one
sort and one grouping by owner; later queries fold in only what commits
wrote since, through the state's write feed, so a warm query costs the
rows it returns. A freshly opened ledger, as in each CLI command, pays
the seed.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from operator import attrgetter
from weakref import WeakKeyDictionary

from .codec import canonical_json, from_canonical_json
from .did import Did, derive_address, parse_did
from .idm import (
    DidRecord,
    NotAuthenticatedError,
    Session,
    device_key,
    did_key,
    get_did_document,
    session_is_valid,
)
from .ledger import (
    KEY_ASSET,
    ContractError,
    TxContext,
    UnknownFunction,
    WorldState,
)
from .store import ContentHash


@dataclass(frozen=True)
class AssetRecord:
    """On-chain upload entry under ``asset/<dataId hex>``."""

    data_id: ContentHash
    owner: Did
    asset_name: str
    added_at: int

    def to_dict(self) -> dict:
        return {
            "addedAt": self.added_at,
            "assetName": self.asset_name,
            "dataId": self.data_id.hex,
            "owner": str(self.owner),
        }

    @classmethod
    def from_bytes(cls, data: bytes) -> "AssetRecord":
        d = from_canonical_json(data)
        return cls(data_id=ContentHash.from_hex(d["dataId"]),
                   owner=parse_did(d["owner"]),
                   asset_name=d["assetName"],
                   added_at=int(d["addedAt"]))


def asset_key(data_id: ContentHash) -> str:
    return KEY_ASSET + data_id.hex


class AssetContract:
    """Chaincode ``asset``: uploadAsset plus read-only queries."""

    name = "asset"

    def invoke(self, ctx: TxContext, function: str, args: list[str]) -> bytes:
        if function != "uploadAsset":
            raise UnknownFunction(f"asset.{function}")
        if len(args) != 3:
            raise ContractError("BadArguments",
                                f"asset.uploadAsset takes 3 args, got {len(args)}")
        return self.upload_asset(ctx, *args)

    def upload_asset(self, ctx: TxContext, did_text: str, asset_name: str,
                     payload_hex: str) -> bytes:
        try:
            did = parse_did(did_text)
            payload = bytes.fromhex(payload_hex)
        except ValueError as exc:
            raise ContractError("BadArguments", str(exc)) from exc
        if not payload:
            raise ContractError("EmptyPayload", "payload must not be empty")

        # the proposal must be signed by the device's own key: the invoker
        # address has to match the key in the device's DID document
        raw_record = ctx.get(did_key(did))
        if raw_record is None or ctx.get(device_key(did)) is None:
            raise ContractError("NotAuthenticated",
                                f"device not registered: {did}")
        document = get_did_document(ctx.store,
                                    DidRecord.from_bytes(raw_record).doc_hash)
        device_address = derive_address(bytes.fromhex(document.public_key_hex))
        if device_address != ctx.invoker:
            raise ContractError("NotAuthenticated",
                                f"proposal not signed by device key of {did}")

        data_id = ContentHash.of(payload)
        existing = ctx.get(asset_key(data_id))
        if existing is not None:
            original = AssetRecord.from_bytes(existing)
            raise ContractError("DuplicateAsset",
                                f"content already uploaded: {data_id.hex}",
                                details={"dataId": original.data_id.hex})

        ctx.store.put(payload)
        asset = AssetRecord(data_id=data_id, owner=did, asset_name=asset_name,
                            added_at=ctx.timestamp)
        encoded = canonical_json(asset.to_dict())
        ctx.put(asset_key(data_id), encoded)
        return encoded


# -- read-side queries --------------------------------------------------------


def _order(record: AssetRecord) -> tuple[int, bytes]:
    return record.added_at, record.data_id.digest


class _AssetView:
    """One state's asset records in query order: all of them, and per owner.

    Seeded once from the state's ``asset/`` range, as a cold query would
    read it: one decode per record and one stable sort, and the sorted
    rows grouped by owner. From then on each read first folds in the keys
    that the state's write feed collected since the last read: it decodes
    each new or rewritten record once and bisects it into ``by_time`` and
    its owner's list, and a rewritten key's old row leaves both. The view
    holds no reference to its state.
    """

    def __init__(self, state: WorldState):
        self._feed = state.watch(KEY_ASSET)
        # key -> its current record; key order is dataId order
        self._by_key = {key: AssetRecord.from_bytes(value)
                        for key, value, _ in state.range(KEY_ASSET)}
        # a stable sort of dataId order: (addedAt, dataId)
        self.by_time = sorted(self._by_key.values(), key=attrgetter("added_at"))
        self._by_owner: dict[Did, list[AssetRecord]] = {}
        for record in self.by_time:
            self._by_owner.setdefault(record.owner, []).append(record)

    def catch_up(self, state: WorldState) -> None:
        keys = dict.fromkeys(self._feed)  # a key written twice is read once
        self._feed.clear()
        by_owner = self._by_owner
        for key in keys:
            record = AssetRecord.from_bytes(state.get(key)[0])
            old = self._by_key.get(key)
            self._by_key[key] = record
            if old is not None:
                for rows in (self.by_time, by_owner[old.owner]):
                    del rows[bisect_left(rows, _order(old), key=_order)]
            for rows in (self.by_time, by_owner.setdefault(record.owner, [])):
                insort(rows, record, key=_order)

    def owned(self, owner: Did) -> list[AssetRecord]:
        return self._by_owner.get(owner, [])


# One view per state, living exactly as long as its state; a freshly
# opened ledger starts with none.
_views: WeakKeyDictionary[WorldState, _AssetView] = WeakKeyDictionary()


def _view(state: WorldState) -> _AssetView:
    view = _views.get(state)
    if view is None:
        view = _views[state] = _AssetView(state)
    else:
        view.catch_up(state)
    return view


def query_all_assets(state: WorldState) -> list[AssetRecord]:
    """Every committed asset record, ordered by (addedAt, dataId)."""
    return _view(state).by_time.copy()


def query_owned_assets(state: WorldState, session: Session | None,
                       now: float) -> list[AssetRecord]:
    """Assets owned by the session's device; requires a live session.

    Same order as ``query_all_assets``. On a warm state the read costs
    only the caller's rows: a copy of the owner's list.
    """
    if not session_is_valid(session, now):
        raise NotAuthenticatedError("query requires a logged-in device")
    return _view(state).owned(session.did).copy()
