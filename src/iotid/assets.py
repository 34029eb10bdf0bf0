"""Asset chaincode: device telemetry upload with content-hash dedup.

An asset's identity is the sha256 of its payload bytes, so the same
content can never be stored twice anywhere on the chain, regardless of
uploader or filename. The payload itself goes to the content store when
its transaction commits VALID, in the file of its block; world state holds
only the record keyed by ``asset/<dataId>``, though the journal keeps the
payload hex-encoded in the upload proposal's arguments.

The first query for all assets builds one view per world state, kept in
query order: one decode per record and one sort. Later queries fold in
only what commits wrote since, through the state's write feed, so a warm
query costs the rows it returns. An owner query on a state with no view
builds none: it decodes only that owner's rows, read through the state's
owner index, so a freshly opened ledger, as in a CLI ``asset-list
--mine``, pays for the rows it lists.
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

    def invoke(self, ctx: TxContext, function: str, args: list[str]) -> None:
        if function != "uploadAsset":
            raise UnknownFunction(f"asset.{function}")
        if len(args) != 3:
            raise ContractError("BadArguments",
                                f"asset.uploadAsset takes 3 args, got {len(args)}")
        self.upload_asset(ctx, *args)

    def upload_asset(self, ctx: TxContext, did_text: str, asset_name: str,
                     payload_hex: str) -> None:
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
        public_key = DidRecord.from_bytes(raw_record).public_key
        if derive_address(public_key) != ctx.invoker:
            raise ContractError("NotAuthenticated",
                                f"proposal not signed by device key of {did}")

        data_id = ContentHash.of(payload)
        if ctx.get(asset_key(data_id)) is not None:
            raise ContractError("DuplicateAsset",
                                f"content already uploaded: {data_id.hex}",
                                details={"dataId": data_id.hex})

        ctx.content.append(payload)
        asset = AssetRecord(data_id=data_id, owner=did, asset_name=asset_name,
                            added_at=ctx.timestamp)
        ctx.put(asset_key(data_id), canonical_json(asset.to_dict()))


# -- read-side queries --------------------------------------------------------


def _order(record: AssetRecord) -> tuple[int, bytes]:
    return record.added_at, record.data_id.digest


class _AssetView:
    """One state's asset records in query order: all of them, and each owner's.

    The first query for all assets builds it from the state's ``asset/``
    range: one decode per record, with one DID cache shared by the rows,
    one sort, and one pass that splits the sorted list by owner. From then
    on each query first folds in the keys that the state's write feed
    collected since the last query: it decodes each new or rewritten
    record once and bisects it into the full list and its owner's, and a
    rewritten key's old record leaves both. The feed is cleared only once
    every key is folded in, so a record that fails to decode fails every
    later query, as it fails every cold listing. The view holds no
    reference to its state.
    """

    def __init__(self, state: WorldState):
        dids: dict[str, Did] = {}
        # key -> its current record
        self._by_key = {key: AssetRecord.from_bytes(value, dids)
                        for key, value, _ in state.range(KEY_ASSET)}
        self.by_time = sorted(self._by_key.values(), key=_order)
        self.by_owner: dict[Did, list[AssetRecord]] = {}
        for record in self.by_time:
            self.by_owner.setdefault(record.owner, []).append(record)
        # watched once the build has succeeded, so a failed one leaves no feed
        self._feed = state.watch(KEY_ASSET)

    def catch_up(self, state: WorldState) -> None:
        for key in dict.fromkeys(self._feed):  # a key written twice is read once
            record = AssetRecord.from_bytes(state.get(key)[0])
            old = self._by_key.get(key)
            if old is not None:
                for rows in (self.by_time, self.by_owner[old.owner]):
                    del rows[bisect_left(rows, _order(old), key=_order)]
            self._by_key[key] = record
            for rows in (self.by_time, self.by_owner.setdefault(record.owner, [])):
                insort(rows, record, key=_order)
        self._feed.clear()


# One view per state, living exactly as long as its state; a freshly
# opened ledger starts with none.
_views: WeakKeyDictionary[WorldState, _AssetView] = WeakKeyDictionary()


def query_all_assets(state: WorldState) -> list[AssetRecord]:
    """Every committed asset record, ordered by (addedAt, dataId)."""
    view = _views.get(state)
    if view is None:
        view = _views[state] = _AssetView(state)
    else:
        view.catch_up(state)
    return view.by_time.copy()


def query_owned_assets(state: WorldState, session: Session | None,
                       now: float) -> list[AssetRecord]:
    """Assets owned by the session's device; requires a live session.

    Same order as ``query_all_assets``. The read costs only the caller's
    rows: on a state with no view, the owner's rows through the state's
    owner index, decoded and sorted; otherwise a copy of the owner's list.
    """
    if not session_is_valid(session, now):
        raise NotAuthenticatedError("query requires a logged-in device")
    owner = session.did
    view = _views.get(state)
    if view is None:
        # every row names ``owner``, whose text the index matched
        dids = {str(owner): owner}
        return sorted((AssetRecord.from_bytes(value, dids)
                       for _, value, _ in state.owned(str(owner))), key=_order)
    view.catch_up(state)
    return view.by_owner.get(owner, []).copy()
