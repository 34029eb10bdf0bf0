"""Asset chaincode: device telemetry upload with content-hash dedup.

An asset's identity is the sha256 of its payload bytes, so the same
content can never be stored twice anywhere on the chain, regardless of
uploader or filename. The payload itself goes to the content store when
its transaction commits VALID, in the file of its block; world state holds
only the record keyed by ``asset/<dataId>``, though the journal keeps the
payload hex-encoded in the upload proposal's arguments.

A query returns listing rows, the dicts that ``asset-list`` prints, in
(addedAt, dataId) order. The state's store keeps each record's listed
fields in columns, indexed in that order, so a query reads rows already
ordered and decodes no record. The first query for all assets keeps them
as one view per world state; later queries fold in only what commits
wrote since, through the state's write feed, so a warm query costs the
rows it returns. An owner query on a state with no view builds none: it
reads only that owner's rows, through the store's owner index, so a
freshly opened ledger, as in a CLI ``asset-list --mine``, pays for the
rows it lists.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from weakref import WeakKeyDictionary

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
from .ledger import (
    KEY_ASSET,
    ContractError,
    TxContext,
    UnknownFunction,
    WorldState,
    asset_fields,
    asset_row,
    unlisted,
)
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
        # only a value whose every field a listing can read back
        value = canonical_json(asset_row(key, str(did), ctx.timestamp, asset_name))
        if asset_fields(key, value) is None:
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
        public_key = DidRecord.from_bytes(raw_record).public_key
        if derive_address(public_key) != ctx.invoker:
            raise ContractError("NotAuthenticated",
                                f"proposal not signed by device key of {did}")

        if ctx.get(key) is not None:
            raise ContractError("DuplicateAsset",
                                f"content already uploaded: {data_id.hex}",
                                details={"dataId": data_id.hex})

        ctx.content.append(payload)
        ctx.put(key, value)


# -- read-side queries --------------------------------------------------------


def _order(row: dict) -> tuple[int, str]:
    # lower-case hex sorts as the digest it spells
    return row["addedAt"], row["dataId"]


class _AssetView:
    """One state's listing rows in query order: all of them, and each owner's.

    The first query for all assets builds it from the state's ordered
    read, with no sort: one pass splits the rows by owner, and each
    distinct owner text is parsed once, so that a malformed owner fails
    the query. From then on each query first folds in the keys that the
    state's write feed collected since the last query: it decodes each new
    or rewritten record once, through ``asset_fields``, and bisects its
    row into the full list and its owner's, and a rewritten key's old row
    leaves both. A value that is no record, as ``asset_fields`` reads it,
    has no row: its key waits in ``unlisted`` and fails every later query
    for all assets, while an owner query leaves it out, as the store's
    cold reads do. An owner that fails to parse keeps the feed, so it
    fails every later query. The view holds no reference to its state.
    """

    def __init__(self, state: WorldState):
        self.by_time = state.assets()
        self.by_owner: dict[str, list[dict]] = {}
        for row in self.by_time:
            self.by_owner.setdefault(row["owner"], []).append(row)
        for owner in self.by_owner:
            parse_did(owner)
        # key -> its current row
        self._by_key = {KEY_ASSET + row["dataId"]: row for row in self.by_time}
        self.unlisted: set[str] = set()  # keys whose value is no record
        # watched once the build has succeeded, so a failed one leaves no feed
        self._feed = state.watch(KEY_ASSET)

    def catch_up(self, state: WorldState) -> None:
        for key in dict.fromkeys(self._feed):  # a key written twice is read once
            fields = asset_fields(key, state.get(key)[0])
            if fields is not None and fields[0] not in self.by_owner:
                parse_did(fields[0])
            old = self._by_key.pop(key, None)
            if old is not None:
                for rows in (self.by_time, self.by_owner[old["owner"]]):
                    del rows[bisect_left(rows, _order(old), key=_order)]
            self.unlisted.discard(key)
            if fields is None:
                self.unlisted.add(key)
                continue
            row = self._by_key[key] = asset_row(key, *fields)
            for rows in (self.by_time, self.by_owner.setdefault(row["owner"], [])):
                insort(rows, row, key=_order)
        self._feed.clear()


# One view per state, living exactly as long as its state; a freshly
# opened ledger starts with none.
_views: WeakKeyDictionary[WorldState, _AssetView] = WeakKeyDictionary()


def query_all_assets(state: WorldState) -> list[dict]:
    """Every committed asset's listing row, ordered by (addedAt, dataId).

    The list is the caller's; its rows are shared with later results, so
    a caller changes none. UnsupportedFormat names a value under
    ``asset/`` that is no record, rather than leave it out.
    """
    view = _views.get(state)
    if view is None:
        view = _views[state] = _AssetView(state)
    else:
        view.catch_up(state)
        if view.unlisted:  # named as the store's ordered read names it
            raise unlisted(min(view.unlisted))
    return view.by_time.copy()


def query_owned_assets(state: WorldState, session: Session | None,
                       now: float) -> list[dict]:
    """The listing rows of the session's device; requires a live session.

    Same order and sharing as ``query_all_assets``. The read costs only
    the caller's rows: on a state with no view, the owner's rows through
    the store's owner index, looked up by the session DID's text, so
    nothing is parsed; otherwise a copy of the owner's list. A value
    under ``asset/`` that is no record names no owner, so it is in no
    owner's listing.
    """
    if not session_is_valid(session, now):
        raise NotAuthenticatedError("query requires a logged-in device")
    owner = str(session.did)
    view = _views.get(state)
    if view is None:
        return state.assets(owner)
    view.catch_up(state)
    return view.by_owner.get(owner, []).copy()
