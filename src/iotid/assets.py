"""Asset chaincode: device telemetry upload with content-hash dedup.

An asset's identity is the sha256 of its payload bytes, so the same
content can never be stored twice anywhere on the chain, regardless of
uploader or filename. The payload itself goes to the content store when
its transaction commits VALID, in the file of its block; world state holds
only the record keyed by ``asset/<dataId>``, though the journal keeps the
payload hex-encoded in the upload proposal's arguments.

A query returns listing rows, the dicts that ``asset-list`` prints, in
(addedAt, dataId) order. The world state answers both queries through
``WorldState.listing``: the state module owns the rows' shape, their
order, the one rule of what is a record (``asset_fields``), the refusal
of a value that is not, and the rows kept in memory between queries.
This module adds only the session gate of an owner query.
"""

from __future__ import annotations

from .codec import canonical_json
from .did import derive_address, parse_did
from .idm import (
    DidRecord,
    NotAuthenticatedError,
    Session,
    device_key,
    did_key,
    session_is_valid,
)
from .ledger import ContractError, TxContext, UnknownFunction
from .state import KEY_ASSET, WorldState, asset_row, listable
from .store import ContentHash


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
        data_id = ContentHash.of(payload)
        key = asset_key(data_id)
        # the record holds the timestamp as addedAt; the contract writes
        # only a record whose every field a listing can read back
        fields = str(did), ctx.timestamp, asset_name
        if not listable(*fields):
            raise ContractError("BadArguments",
                                f"no listing holds asset name {asset_name!r} at timestamp "
                                f"{ctx.timestamp}: a name must be UTF-8 text, a timestamp "
                                "a signed 64-bit integer")
        if not payload:
            raise ContractError("EmptyPayload", "payload must not be empty")

        # the proposal must be signed by the device's own key: the invoker
        # address has to match the key in the device's DID record
        raw_record = ctx.get(did_key(did))
        if raw_record is None or ctx.get(device_key(did)) is None:
            raise ContractError("NotAuthenticated",
                                f"device not registered: {did}")
        public_key = DidRecord.from_bytes(did, raw_record).public_key
        if derive_address(public_key) != ctx.invoker:
            raise ContractError("NotAuthenticated",
                                f"proposal not signed by device key of {did}")

        if ctx.get(key) is not None:
            raise ContractError("DuplicateAsset",
                                f"content already uploaded: {data_id.hex}",
                                details={"dataId": data_id.hex})

        ctx.content.append(payload)
        ctx.put(key, canonical_json(asset_row(key, *fields)))


# -- read-side queries --------------------------------------------------------


def query_all_assets(state: WorldState) -> list[dict]:
    """Every committed asset's listing row, ordered by (addedAt, dataId).

    ``WorldState.listing`` answers it: the list is the caller's, and a
    value under ``asset/`` that is no record fails with UnsupportedFormat.
    """
    return state.listing()


def query_owned_assets(state: WorldState, session: Session | None,
                       now: float) -> list[dict]:
    """The listing rows of the session's device; requires a live session.

    ``WorldState.listing`` answers it for the session DID's text, so
    nothing is parsed; a value under ``asset/`` that is no record names
    no owner, so it is in no owner's listing.
    """
    if not session_is_valid(session, now):
        raise NotAuthenticatedError("query requires a logged-in device")
    return state.listing(str(session.did))
