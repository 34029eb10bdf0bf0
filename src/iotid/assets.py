"""Asset chaincode: device telemetry upload with content-hash dedup.

An asset's identity is the sha256 of its payload bytes, so the same
content can never be stored twice anywhere on the chain, regardless of
uploader or filename. The payload itself goes to the content store;
only the record keyed by ``asset/<dataId>`` goes on chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from weakref import WeakKeyDictionary

from .codec import canonical_json, from_canonical_json
from .did import Did, derive_address, parse_did
from .idm import (
    NotAuthenticatedError,
    Session,
    device_key,
    did_key,
    session_is_valid,
)
from .ledger import (
    KEY_ASSET,
    ContractError,
    StateView,
    TxContext,
    UnknownFunction,
)
from .store import ContentHash, ContentStore


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
        record = from_canonical_json(raw_record)
        doc_bytes = ctx.store.get(ContentHash.from_hex(record["docHash"]))
        document = from_canonical_json(doc_bytes)
        device_address = derive_address(bytes.fromhex(document["publicKey"]))
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


# Decoded records per state, keyed by their committed bytes. Those bytes
# never change and ``asset/<dataId>`` is never rewritten, so an entry
# cannot go stale; the memo lives exactly as long as its state, and a
# freshly opened ledger starts with none.
_decoded: WeakKeyDictionary[StateView, dict[bytes, AssetRecord]] = WeakKeyDictionary()


def query_all_assets(state: StateView) -> list[AssetRecord]:
    """Every committed asset record, ordered by (addedAt, dataId)."""
    memo = _decoded.setdefault(state, {})
    records = []
    for _, value, _ in state.range(KEY_ASSET):
        record = memo.get(value)
        if record is None:
            record = memo[value] = AssetRecord.from_bytes(value)
        records.append(record)
    # range yields key order, which is dataId order; the stable sort keeps
    # it among records that share a timestamp
    records.sort(key=attrgetter("added_at"))
    return records


def query_owned_assets(state: StateView, session: Session | None,
                       now: float) -> list[AssetRecord]:
    """Assets owned by the session's device; requires a live session."""
    if not session_is_valid(session, now):
        raise NotAuthenticatedError("query requires a logged-in device")
    return [r for r in query_all_assets(state) if r.owner == session.did]


def get_asset_payload(state: StateView, store: ContentStore,
                      data_id: ContentHash) -> bytes | None:
    """Payload bytes for a committed asset, or None if never uploaded."""
    if state.get(asset_key(data_id)) is None:
        return None
    return store.get(data_id)
