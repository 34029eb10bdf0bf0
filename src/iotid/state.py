"""The ledger's world state, and the SQLite store that keeps it between runs.

Beside the journal, an SQLite store holds the world state as of its
savepoint block, and the replay index: the ``(invoker, nonce)`` of every
VALID proposal up to it. So open reads block 0 and the savepoint's record,
replays only the blocks after it and reads only the keys and proposals a
command touches. It is a cache: open uses it only while its savepoint
matches the journal, and otherwise rebuilds it from block 0.
"""

from __future__ import annotations

import re
import sqlite3
import zlib
from bisect import insort
from pathlib import Path

from .codec import from_canonical_json
from .did import parse_did
from .journal import ZERO_HASH, LedgerError, UnsupportedFormat, Version

# world-state key namespaces; prefix scans implement the "view all" queries
KEY_DID = "did/"
KEY_DEVICE = "device/"
KEY_ASSET = "asset/"
KEY_CONFIG = "config/"


class CorruptStore(LedgerError):
    """A read from the world-state store failed its row check or SQLite's own.

    The store is deleted before this is raised, so the next open rebuilds
    it from the journal.
    """


# A rollback journal, never synced, as no other ledger write is yet
# (ROADMAP item 8). A flush copies each page it changes to the -journal
# file before it writes the page in place, and its commit truncates that
# file to zero length, so a command creates and deletes no file: WAL mode
# makes a -wal and a -shm file at each open and removes them at each close.
# A killed flush leaves a hot journal, which the next open rolls back; a
# power cut may leave worse. Readers and a writer exclude each other here,
# as the directory's flock already makes commands do.
_PRAGMAS = """
PRAGMA journal_mode = TRUNCATE;
PRAGMA synchronous = OFF;
"""
# The store's format, which PRAGMA user_version names: a store of any
# other format is refused at open, and rebuilt from the journal. Format 4
# lists no record whose owner is no DID, as format 3 took "did:a:b\n" for one;
# format 5 keeps the replay index, where format 4 held nonce/ keys; format 6's
# savepoint names the content log's committed length too.
_STORE_FORMAT = 6
# An asset/ row also holds its record's listed fields, NULL when the value
# is no record that the asset contract writes. The listing index covers
# every asset/ row, so one ordered read meets a row without them first.
_ASSET_ROWS = "key >= 'asset/' AND key < 'asset0'"  # every key under KEY_ASSET
_SCHEMA = f"""
CREATE TABLE state (
    key TEXT PRIMARY KEY, value BLOB NOT NULL, block INTEGER NOT NULL,
    tx INTEGER NOT NULL, owner TEXT, added_at INTEGER, asset_name TEXT,
    checksum INTEGER NOT NULL) WITHOUT ROWID;
CREATE INDEX state_listing ON state (added_at, key) WHERE {_ASSET_ROWS};
CREATE INDEX state_owner ON state (owner, added_at, key) WHERE owner IS NOT NULL;
CREATE TABLE proposal (
    invoker TEXT NOT NULL, nonce BLOB NOT NULL, checksum INTEGER NOT NULL,
    PRIMARY KEY (invoker, nonce)) WITHOUT ROWID;
CREATE TABLE savepoint (
    height INTEGER NOT NULL, tip_hash BLOB NOT NULL, tip_start INTEGER NOT NULL,
    content_end INTEGER NOT NULL, checksum INTEGER NOT NULL);
PRAGMA user_version = {_STORE_FORMAT};
"""
_SELECT_ROWS = "SELECT key, value, block, tx, owner, added_at, asset_name, checksum FROM state"
_SELECT_PROPOSALS = "SELECT invoker, nonce, checksum FROM proposal"
_MEMORY = ":memory:"  # SQLite's name for a store that lives in memory only

_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1  # the integers that SQLite stores
_DATA_ID = re.compile(r"[0-9a-f]{64}")


def _check(key: object, value: bytes, block: object = None, tx: object = None,
           owner: object = None, added_at: object = None, asset_name: object = None) -> int:
    """The check value stored in a row: crc32 over its other columns."""
    return zlib.crc32(value, zlib.crc32(
        f"{key}\0{block}\0{tx}\0{owner}\0{added_at}\0{asset_name}".encode()))


def listable(owner: object, added_at: object, asset_name: object) -> bool:
    """Whether a listing reads back an asset record of these fields.

    ``addedAt`` must be an integer in SQLite's range, which JSON's true is
    not, and the two names strings that UTF-8 encodes. The asset contract
    writes only a record whose fields pass, and ``asset_fields`` applies
    it after its decode. A field is judged as canonical JSON encodes it,
    so a subclass of str or int passes as its value does.
    """
    try:
        str.encode(owner), str.encode(asset_name)  # a non-str or a lone surrogate raises
    except (TypeError, UnicodeEncodeError):
        return False
    return (isinstance(added_at, int) and type(added_at) is not bool
            and _INT64_MIN <= added_at <= _INT64_MAX)


def asset_fields(key: str, value: bytes) -> tuple[str, int, str] | None:
    """``(owner, addedAt, assetName)`` of the asset record ``value`` under ``key``.

    None unless it is a record as the asset contract writes it: exactly
    the four keys, ``dataId`` the key's 64 lower-case hex digits, the other
    three ``listable`` and the owner a DID. This is the one judge of a
    record: the store's listed columns hold these fields, and the kept
    listing takes in no other. Only readers decode a record here, the flush
    and the kept listing, each once per write: the contract checks the
    fields before it encodes them, so no execution decodes its own write.
    """
    data_id = key[len(KEY_ASSET):]
    if not (key.startswith(KEY_ASSET) and _DATA_ID.fullmatch(data_id)):
        return None
    try:
        record = from_canonical_json(value)
        fields = record["owner"], record["addedAt"], record["assetName"]
        if len(record) == 4 and record["dataId"] == data_id and listable(*fields):
            parse_did(fields[0])  # MalformedDid is a ValueError
            return fields
    except (KeyError, TypeError, ValueError):
        pass
    return None


def asset_row(key: str, owner: str, added_at: int, asset_name: str) -> dict:
    """What a listing shows of the asset record under ``key``."""
    return {"addedAt": added_at, "assetName": asset_name, "dataId": key[len(KEY_ASSET):],
            "owner": owner}


def _order(row: dict) -> tuple[int, str]:
    """A row's place in a listing: the store's ``ORDER BY added_at, key``."""
    return row["addedAt"], row["dataId"]


class _Listing:
    """A state's listing rows in query order: all of them, and each owner's.

    Built from the store's ordered read, with no sort. It takes in new
    records only: ``catch_up`` decodes each key in ``fresh`` once and
    bisects its row into place, and returns False at a key it listed
    before or a value that is no record, which only the store answers.
    """

    def __init__(self, rows: list[dict]):
        self.by_time = rows
        self.by_owner: dict[str, list[dict]] = {}
        for row in rows:
            self.by_owner.setdefault(row["owner"], []).append(row)
        self.keys = {KEY_ASSET + row["dataId"] for row in rows}
        self.fresh: list[str] = []

    def catch_up(self, data: dict[str, tuple[bytes, Version] | None]) -> bool:
        for key in dict.fromkeys(self.fresh):  # a key written twice is read once
            fields = asset_fields(key, data[key][0])
            if fields is None or key in self.keys:
                return False
            self.keys.add(key)
            row = asset_row(key, *fields)
            for rows in (self.by_time, self.by_owner.setdefault(row["owner"], [])):
                insort(rows, row, key=_order)
        self.fresh.clear()
        return True


def _store_files(path: Path) -> list[Path]:
    """The store and every file SQLite keeps beside it.

    The -journal of TRUNCATE mode, and the -wal and -shm of a store that
    an older version left in WAL mode. A journal belongs to its store
    alone: a hot one beside another store would be applied to it.
    """
    return [path.with_name(path.name + suffix)
            for suffix in ("", "-journal", "-wal", "-shm")]


class WorldState:
    """Current key -> (value, version) view of all valid transactions, and
    the replay index of their proposals.

    One SQLite store, a file or ``:memory:`` for ``WorldState()``, holds
    the state as of its savepoint, and ``tip`` names the block the state
    has reached: ``(height, tip hash, tipStart, contentEnd)``, where
    ``contentEnd`` is the content log's length up to the tip. ``apply`` and
    ``add_proposals`` write to memory only. ``get`` and ``has_proposal``
    serve a key or a proposal from memory, a remembered miss included, and
    otherwise run one point query. ``range``, ``last_nonce`` and
    ``assets`` first ``flush``, then answer with one SQL query. Every row
    read from the store must match its check value: a mismatch or an
    SQLite error deletes the store and raises ``CorruptStore``, as does
    every later read that needs it, so no answer comes from a damaged file.

    The flush decodes each ``asset/`` value it writes once, through
    ``asset_fields``, and stores the record's listed fields beside it,
    indexed in listing order, so that ``assets`` answers from those
    columns and decodes no value. ``listing`` keeps the rows of the first
    listing of all in memory, and ``apply`` hands them the ``asset/`` keys
    it writes: new records go into the kept rows, so a warm listing costs
    the rows written since, and any other write drops them for the store
    to answer.
    """

    def __init__(self, path: str | Path = _MEMORY):
        """Open the store at ``path``, empty if new.

        sqlite3.Error if it is unusable, or a store of another format.
        """
        self._data: dict[str, tuple[bytes, Version] | None] = {}
        # (invoker, nonce) -> whether a VALID proposal of the pair is committed
        self._proposals: dict[tuple[str, bytes], bool] = {}
        self.tip: tuple[int, bytes, int, int] = (0, ZERO_HASH, 0, 0)
        self._unflushed: list[str] = []  # keys applied since the last flush
        self._unflushed_proposals: list[tuple[str, bytes]] = []
        self._listing: _Listing | None = None  # built by the first listing of all
        self._path = path
        self._gone: LedgerError | None = None  # why store reads now fail
        db = sqlite3.connect(path, isolation_level=None)
        try:
            db.executescript(_PRAGMAS)
            (version,), = db.execute("PRAGMA user_version")
            if version != _STORE_FORMAT:
                if version or db.execute("SELECT 1 FROM sqlite_master").fetchall():
                    raise sqlite3.DatabaseError(f"a store of format {version}")
                db.executescript(_SCHEMA)
        except sqlite3.Error:
            db.close()
            raise
        self._db: sqlite3.Connection | None = db

    def __len__(self) -> int:
        self.flush()
        return len(self._rows(""))

    def get(self, key: str) -> tuple[bytes, Version] | None:
        try:
            return self._data[key]
        except KeyError:
            rows = self._rows(" WHERE key = ?", (key,))
            entry = self._data[key] = (rows[0][1], rows[0][2:4]) if rows else None
            return entry

    def range(self, prefix: str) -> list[tuple[str, bytes, Version]]:
        """All entries whose key starts with prefix, sorted by key."""
        self.flush()
        return [(key, value, (block, tx)) for key, value, block, tx, *_ in
                self._rows(" WHERE key >= ? ORDER BY key", (prefix,), prefix)]

    def has_proposal(self, invoker: str, nonce: bytes) -> bool:
        """Whether a VALID proposal of ``invoker`` with ``nonce`` is committed."""
        try:
            return self._proposals[invoker, nonce]
        except KeyError:
            found = self._proposals[invoker, nonce] = bool(self._rows(
                " WHERE invoker = ? AND nonce = ?", (invoker, nonce), select=_SELECT_PROPOSALS))
            return found

    def last_nonce(self, invoker: str) -> int:
        """The highest 32-byte nonce of ``invoker``'s committed proposals, 0 if none."""
        self.flush()
        rows = self._rows(" WHERE invoker = ? AND length(nonce) = 32 ORDER BY nonce DESC LIMIT 1",
                          (invoker,), select=_SELECT_PROPOSALS)
        return int.from_bytes(rows[0][1], "big") if rows else 0

    def assets(self, owner: str | None = None) -> list[dict]:
        """The listing rows of every asset record, or of ``owner``'s, as stored.

        One ordered read of the listed columns after a flush, through the
        listing index, or the owner index for one owner, which reads that
        owner's rows only. A listing of all refuses an ``asset/`` value
        that is no record with UnsupportedFormat, rather than leave it
        out; such a row has no owner, so no owner's listing holds it.
        """
        self.flush()
        if owner is None:
            rows = self._rows(f" INDEXED BY state_listing WHERE {_ASSET_ROWS}"
                              " ORDER BY added_at, key")
            if rows and rows[0][5] is None:  # the rows without fields sort first
                raise UnsupportedFormat(
                    f"{rows[0][0]} holds no asset record in the form this program writes")
        else:
            rows = self._rows(" WHERE owner = ? ORDER BY added_at, key", (owner,))
        return [asset_row(row[0], *row[4:7]) for row in rows]

    def listing(self, owner: str | None = None) -> list[dict]:
        """What ``assets`` returns, from rows that the first listing of all keeps.

        The list is the caller's; its rows are shared with later results,
        so a caller changes none. Once kept, the rows take in the new
        records applied since, with no flush; any other write under
        ``asset/`` drops them, and ``assets`` answers. An owner's listing
        keeps none.
        """
        listing = self._listing
        if listing is not None and not listing.catch_up(self._data):
            listing = self._listing = None
        if listing is None:
            if owner is not None:
                return self.assets(owner)
            listing = self._listing = _Listing(self.assets())
        elif owner is not None:
            return listing.by_owner.get(owner, []).copy()
        return listing.by_time.copy()

    def _rows(self, where: str, params: tuple = (), prefix: str = "",
              select: str = _SELECT_ROWS) -> list[tuple]:
        """Checked rows of every column of the ``select``ed table, up to the first
        key outside ``prefix``; a row's check is the last column, over the others."""
        if self._db is None:
            raise self._gone
        rows = []
        try:
            for row in self._db.execute(select + where, params):
                if not row[0].startswith(prefix):
                    break
                if row[-1] != _check(*row[:-1]):
                    raise ValueError(f"row {row[0]!r} fails its check")
                rows.append(row)
        except (sqlite3.Error, AttributeError, TypeError, ValueError) as exc:
            raise self._drop(f"state store unreadable, deleted: {exc}") from exc
        return rows

    def apply(self, writes: list[tuple[str, bytes]], version: Version) -> None:
        data = self._data
        for key, value in writes:
            data[key] = (value, version)
        keys = [key for key, _ in writes]
        self._unflushed += keys
        if self._listing is not None:
            self._listing.fresh += [key for key in keys if key.startswith(KEY_ASSET)]

    def add_proposals(self, proposals: list[tuple[str, bytes]]) -> None:
        """Index the ``(invoker, nonce)`` of committed VALID proposals."""
        for proposal in proposals:
            self._proposals[proposal] = True
        self._unflushed_proposals += proposals

    def items(self) -> list[tuple[str, tuple[bytes, Version]]]:
        return [(key, (value, version)) for key, value, version in self.range("")]

    # -- the store ---------------------------------------------------------

    def savepoint(self) -> tuple[int, bytes, int, int] | None:
        """``(height, tip hash, tipStart, contentEnd)`` of the last flush, None unless
        it checks."""
        try:
            (*point, check), = self._db.execute(
                "SELECT height, tip_hash, tip_start, content_end, checksum FROM savepoint"
            ).fetchall()
            if check != _check(*point):
                return None
        except (sqlite3.Error, TypeError, ValueError):
            return None
        return tuple(point)

    def flush(self) -> None:
        """Write the keys applied and proposals indexed since the last flush, and
        ``tip`` as the savepoint.

        One transaction, with nothing written when nothing was. A
        savepoint above ``tip`` is left as it is: another engine on the
        same journal wrote it, and the store already holds what this
        state would write. An SQLite error deletes the store instead,
        which holds nothing the journal does not.
        """
        db = self._db
        if db is None or not (self._unflushed or self._unflushed_proposals):
            return
        data, rows = self._data, []
        for key in dict.fromkeys(self._unflushed):
            value, (block, tx) = data[key]
            row = (key, value, block, tx, *(asset_fields(key, value) or (None, None, None)))
            rows.append((*row, _check(*row)))
        proposals = [(invoker, nonce, _check(invoker, nonce))
                     for invoker, nonce in self._unflushed_proposals]
        self._unflushed.clear()
        self._unflushed_proposals.clear()
        height = self.tip[0]
        try:
            db.execute("BEGIN")
            if not db.execute("SELECT 1 FROM savepoint WHERE height > ?", (height,)).fetchall():
                db.executemany("INSERT OR REPLACE INTO state VALUES (?, ?, ?, ?, ?, ?, ?, ?)", rows)
                db.executemany("INSERT OR REPLACE INTO proposal VALUES (?, ?, ?)", proposals)
                db.execute("DELETE FROM savepoint")
                db.execute("INSERT INTO savepoint VALUES (?, ?, ?, ?, ?)",
                           (*self.tip, _check(*self.tip)))
            db.execute("COMMIT")
        except sqlite3.Error as exc:
            self._drop(f"state store flush failed, deleted: {exc}")

    def _drop(self, reason: str) -> CorruptStore:
        """Close and delete the store: the error that its reads raise from now on."""
        self.close()
        if self._path != _MEMORY:
            for path in _store_files(Path(self._path)):
                path.unlink(missing_ok=True)
        self._gone = CorruptStore(reason)
        return self._gone

    def close(self) -> None:
        """Close the store; a read that needs it raises LedgerError from now on."""
        if self._db is not None:
            self._db.close()
            self._db = None
            self._gone = LedgerError("world state read after its ledger closed")
