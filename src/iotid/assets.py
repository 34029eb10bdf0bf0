"""Asset chaincode: device telemetry upload with content-hash dedup.

An asset's identity is the sha256 of its payload bytes, so the same
content can never be stored twice anywhere on the chain, regardless of
uploader or filename. The payload itself goes to the content store;
world state holds only the record keyed by ``asset/<dataId>``, though the
journal keeps the payload hex-encoded in the upload proposal's arguments.

The read-side queries serve from one view per world state, kept in query
order. The first query for all assets seeds the view with one decode per
record and one sort; the first query for one owner reads only that
owner's rows, through the state's owner index, so a freshly opened
ledger, as in each CLI command, pays for the rows it lists. Later queries
fold in only what commits wrote since, through the state's write feed,
so a warm query costs the rows it returns.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from weakref import WeakKeyDictionary

from .codec import canonical_json, from_canonical_json
from .did import Did, derive_address, parse_did
from .idm import (
    DidRecord,
    NotAuthenticatedError,
    Session,
    device_key,
    did_key,
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
    def from_bytes(cls, data: bytes, dids: dict[str, Did] | None = None) -> "AssetRecord":
        """Decode a record; ``dids`` caches parsed owners by their text.

        A caller that decodes many rows passes one ``dids``, so that each
        distinct owner is parsed once; ``Did`` is frozen, so records share it.
        """
        d = from_canonical_json(data)
        owner = d["owner"]
        if dids is None:
            did = parse_did(owner)
        elif (did := dids.get(owner)) is None:
            did = dids[owner] = parse_did(owner)
        return cls(data_id=ContentHash.from_hex(d["dataId"]),
                   owner=did,
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
        # address has to match the key in the device's DID record
        raw_record = ctx.get(did_key(did))
        if raw_record is None or ctx.get(device_key(did)) is None:
            raise ContractError("NotAuthenticated",
                                f"device not registered: {did}")
        public_key = DidRecord.from_bytes(raw_record, ctx.store).public_key
        if derive_address(public_key) != ctx.invoker:
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
    """One state's asset records in query order, seeded as queries ask.

    ``_by_time`` holds every record once the first query for all assets
    seeds it from the state's ``asset/`` range: one decode per record and
    one sort. An owner's list is seeded by the first query for that
    owner: cut from ``_by_time`` if that is seeded, else decoded from the
    owner's rows alone (``WorldState.owned``). From then on each read first
    folds in the keys that the state's write feed collected since the
    last read: it decodes each new or rewritten record once and bisects
    it into the seeded lists it belongs in, and a rewritten key's old row
    leaves them. The view holds no reference to its state.
    """

    def __init__(self, state: WorldState):
        self._feed = state.watch(KEY_ASSET)
        # key -> its current record, for every record a seeded list holds
        self._by_key: dict[str, AssetRecord] = {}
        self._by_time: list[AssetRecord] | None = None
        self._by_owner: dict[Did, list[AssetRecord]] = {}  # seeded owners only

    def _lists(self, owner: Did) -> list[list[AssetRecord]]:
        """The seeded lists that hold, or would hold, a record of ``owner``."""
        lists = [] if self._by_time is None else [self._by_time]
        if owner in self._by_owner:
            lists.append(self._by_owner[owner])
        return lists

    def catch_up(self, state: WorldState) -> None:
        keys = dict.fromkeys(self._feed)  # a key written twice is read once
        self._feed.clear()
        for key in keys:
            record = AssetRecord.from_bytes(state.get(key)[0])
            old = self._by_key.pop(key, None)
            if old is not None:
                for rows in self._lists(old.owner):
                    del rows[bisect_left(rows, _order(old), key=_order)]
            if lists := self._lists(record.owner):
                self._by_key[key] = record
                for rows in lists:
                    insort(rows, record, key=_order)

    def all(self, state: WorldState) -> list[AssetRecord]:
        if self._by_time is None:
            by_key, dids = self._by_key, {}
            for key, value, _ in state.range(KEY_ASSET):
                if key not in by_key:
                    by_key[key] = AssetRecord.from_bytes(value, dids)
            self._by_time = sorted(by_key.values(), key=_order)
        return self._by_time

    def owned(self, state: WorldState, owner: Did) -> list[AssetRecord]:
        rows = self._by_owner.get(owner)
        if rows is None:
            if self._by_time is not None:
                rows = [record for record in self._by_time if record.owner == owner]
            else:
                # every row names ``owner``, whose text the index matched
                rows, dids = [], {str(owner): owner}
                for key, value, _ in state.owned(str(owner)):
                    rows.append(AssetRecord.from_bytes(value, dids))
                    self._by_key[key] = rows[-1]
                rows.sort(key=_order)
            self._by_owner[owner] = rows
        return rows


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
    return _view(state).all(state).copy()


def query_owned_assets(state: WorldState, session: Session | None,
                       now: float) -> list[AssetRecord]:
    """Assets owned by the session's device; requires a live session.

    Same order as ``query_all_assets``. The read costs only the caller's
    rows: the owner's rows from the state when cold, a copy of the owner's
    list when warm.
    """
    if not session_is_valid(session, now):
        raise NotAuthenticatedError("query requires a logged-in device")
    return _view(state).owned(state, session.did).copy()
