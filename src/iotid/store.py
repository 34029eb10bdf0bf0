"""Content-addressed payload store.

The off-chain half of the system: asset payloads live here, keyed by the
SHA-256 of their bytes, while the chain holds only the hashes. Contracts
never read it. The ledger writes a block's content when it commits the
block, as one chunk appended to the store's one log, ``content.log``:
an 8-byte header, the block number and the length of what follows, each
4-byte big-endian, then the content of the block's VALID transactions in
transaction order, each record a 4-byte big-endian length and then the
bytes. A block's chunk is appended before its journal record, so a commit
creates no file; the ledger keeps the log's committed length beside its
tip, cuts back an append whose commit failed, and at open cuts off what
a commit cut short left after it. ``put``, ``len()`` and the digest-file
branch of ``get`` serve one file per content, named by its hex digest,
which the ledger no longer writes; ``perfbench`` still traces ``put`` and
counts its files. Integrity is re-checked on every read from disk because
this store is the trust boundary for those bytes.
"""

from __future__ import annotations

import os
import struct
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator

from .codec import HASH_BYTES, replace_file, sha256

LOG_FILE = "content.log"  # the log of every committed block's chunk
_HEADER = struct.Struct(">II")  # a chunk's block number and the length of its records
_LENGTH_BYTES = 4  # the length before each record of a chunk
# what opening the log raises where there is none: no file, or no directory
_NO_LOG = (FileNotFoundError, NotADirectoryError)


class EmptyContent(ValueError):
    """Refused to store an empty byte string."""


class ContentNotFound(LookupError):
    """No content stored under that hash."""


class IntegrityFailure(Exception):
    """Stored bytes no longer hash to their key."""


@dataclass(frozen=True, order=True)
class ContentHash:
    """32-byte digest identifying stored content; text form is 64 hex chars."""

    digest: bytes

    def __post_init__(self):
        if len(self.digest) != HASH_BYTES:
            raise ValueError(f"content hash must be {HASH_BYTES} bytes")

    @property
    def hex(self) -> str:
        return self.digest.hex()

    @classmethod
    def of(cls, data: bytes) -> "ContentHash":
        return cls(sha256(data))

    @classmethod
    def from_hex(cls, text: str) -> "ContentHash":
        return cls(bytes.fromhex(text))


class ContentStore:
    """Directory-backed store: the log of block chunks, and files named by digest.

    ``len()`` counts the digest-named files once, then adds this store's
    own new puts. Identical concurrent puts are safe because put is
    idempotent. A directory that is missing, as in a ledger copied without
    it, is made by the first write that needs it.
    """

    def __init__(self, directory: str | Path):
        self._dir = Path(directory)
        self._log = self._dir / LOG_FILE
        self._count: int | None = None

    def __len__(self) -> int:
        if self._count is None:
            try:
                self._count = sum(len(p.name) == HASH_BYTES * 2 for p in self._dir.iterdir())
            except FileNotFoundError:
                self._count = 0
        return self._count

    def _replace(self, path: Path, data: bytes) -> None:
        """``replace_file``, making the store's directory if it is missing."""
        try:
            replace_file(path, data)
        except FileNotFoundError:
            self._dir.mkdir(parents=True, exist_ok=True)
            replace_file(path, data)

    def put(self, data: bytes) -> ContentHash:
        """Store bytes in the file named by their hash, returning it. Re-putting is a no-op."""
        if not data:
            raise EmptyContent("cannot store empty content")
        key = ContentHash.of(data)
        path = self._dir / key.hex
        if not path.exists():
            self._replace(path, data)
            if self._count is not None:
                self._count += 1
        return key

    def put_block(self, block: int, contents: list[bytes], end: int) -> int:
        """Append block ``block``'s chunk of ``contents``, in order, to the log, whose
        committed length is ``end``; return the log's new length.

        The log is made at mode 0o600 by its first append. Until the
        block's record is in the journal no reader looks for its chunk,
        so the append needs no temp file: a write that fails cuts the log
        back to ``end``.
        """
        records = b"".join(len(data).to_bytes(_LENGTH_BYTES, "big") + data for data in contents)
        chunk = _HEADER.pack(block, len(records)) + records
        flags = os.O_WRONLY | os.O_CREAT | os.O_APPEND
        try:
            fd = os.open(self._log, flags, 0o600)
        except FileNotFoundError:
            self._dir.mkdir(parents=True, exist_ok=True)
            fd = os.open(self._log, flags, 0o600)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(chunk)
        except BaseException:
            self.truncate(end)
            raise
        return end + len(chunk)

    def truncate(self, end: int) -> None:
        """Cut the log back to ``end`` bytes; a log cut to nothing is removed."""
        if end:
            os.truncate(self._log, end)
        else:
            with suppress(*_NO_LOG):
                self._log.unlink()

    def cut(self, end: int, height: int) -> int:
        """Cut the log after its last whole chunk of a block below ``height``,
        and return its length.

        The walk starts at ``end``, the committed length that the ledger's
        savepoint names, or at 0 for a log shorter than that, as in a
        ledger copied without it. It passes each chunk whose header names
        a block below ``height`` and that ends inside the log, and cuts
        the log at the first that does not: the chunk of a commit cut
        short, or of a block whose torn journal record open cut off. A
        log that ends where the walk stops, the usual case, is only read.
        """
        try:
            size = os.stat(self._log).st_size
        except _NO_LOG:
            return 0
        at = end if end <= size else 0
        if at < size:
            with open(self._log, "rb") as fh:
                for number, _, chunk_end in _chunks(fh, at, size):
                    if number >= height:
                        break
                    at = chunk_end
            if at != size:
                self.truncate(at)
        return at

    def _chunk(self, block: int) -> bytes | None:
        """The records of block ``block``'s chunk, None if the log holds none."""
        try:
            fh = open(self._log, "rb")
        except _NO_LOG:
            return None
        with fh:
            for number, start, end in _chunks(fh, 0, os.fstat(fh.fileno()).st_size):
                if number == block:
                    fh.seek(start)
                    return fh.read(end - start)
        return None

    def get(self, key: ContentHash, block: int | None = None) -> bytes:
        """Fetch bytes by hash, verifying them against the key before return.

        With ``block``, the log's chunk of that block is searched first,
        then the file named by the digest. A chunk that holds no record
        hashing to ``key``, where no digest file does either, has lost it:
        IntegrityFailure, as for a digest file whose bytes changed.
        """
        data = self._chunk(block) if block is not None else None
        if data is not None:
            for record in _records(data, block):
                if sha256(record) == key.digest:
                    return record
        try:
            content = (self._dir / key.hex).read_bytes()
        except FileNotFoundError:
            if data is not None:
                raise IntegrityFailure(
                    f"content {key.hex} is not intact in block {block}'s chunk") from None
            raise ContentNotFound(f"no content stored under {key.hex}") from None
        if sha256(content) != key.digest:
            raise IntegrityFailure(f"content {key.hex} failed verification")
        return content


def _chunks(fh: BinaryIO, at: int, size: int) -> Iterator[tuple[int, int, int]]:
    """``(block number, start of its records, end)`` of each whole chunk of the log
    ``fh``, of ``size`` bytes, from offset ``at`` up to a torn one."""
    while at + _HEADER.size <= size:
        fh.seek(at)
        number, length = _HEADER.unpack(fh.read(_HEADER.size))
        start, at = at + _HEADER.size, at + _HEADER.size + length
        if at > size:
            return
        yield number, start, at


def _records(data: bytes, block: int) -> Iterator[bytes]:
    """The records of a block's chunk, in order; IntegrityFailure where one overruns it."""
    at = 0
    while at < len(data):
        start = at + _LENGTH_BYTES
        at = start + int.from_bytes(data[at:start], "big")
        if at > len(data):
            raise IntegrityFailure(f"block {block}'s chunk has a record past its end")
        yield data[start:at]
