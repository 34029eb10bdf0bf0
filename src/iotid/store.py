"""Content-addressed payload store.

The off-chain half of the system: asset payloads live here, keyed by the
SHA-256 of their bytes, while the chain holds only the hashes. Contracts
never read it. The ledger writes a block's content when it commits the
block: one file per block, named by its number, that holds the content of
the block's VALID transactions in transaction order, each record a 4-byte
big-endian length and then the bytes. A block's file is written in place
before its journal record, so a commit changes the directory once.
``put``, ``len()`` and the digest-file branch of ``get`` serve one file
per content, named by its hex digest, which the ledger no longer writes;
``perfbench`` still traces ``put`` and counts its files. Integrity is
re-checked on every read from disk because this store is the trust
boundary for those bytes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .codec import HASH_BYTES, replace_file, sha256

_LENGTH_BYTES = 4  # the length before each record of a block file


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
    """Directory-backed store whose only index is its file names.

    ``len()`` counts the digest-named files once, then adds this store's
    own new puts. Identical concurrent puts are safe because put is
    idempotent. A directory that is missing, as in a ledger copied without
    it, is made by the first write that needs it.
    """

    def __init__(self, directory: str | Path):
        self._dir = Path(directory)
        self._count: int | None = None

    def __len__(self) -> int:
        if self._count is None:
            try:
                self._count = sum(len(p.name) == HASH_BYTES * 2 for p in self._dir.iterdir())
            except FileNotFoundError:
                self._count = 0
        return self._count

    def _block_file(self, block: int) -> Path:
        return self._dir / f"{block}.block"  # never a 64-hex digest

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

    def put_block(self, block: int, contents: list[bytes]) -> None:
        """Write block ``block``'s contents, in order, as that block's file.

        The file is written in place at mode 0o600, with no temp file and
        rename: until the block's record is in the journal no reader looks
        for it, and open removes the file of a block that was not committed.
        It truncates any file of that number, which only a commit of that
        block that was cut short can have left, and a failed write removes it.
        """
        path = self._block_file(block)
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        try:
            fd = os.open(path, flags, 0o600)
        except FileNotFoundError:
            self._dir.mkdir(parents=True, exist_ok=True)
            fd = os.open(path, flags, 0o600)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(b"".join(len(data).to_bytes(_LENGTH_BYTES, "big") + data
                                  for data in contents))
        except BaseException:
            path.unlink()
            raise

    def remove_block(self, block: int) -> None:
        """Remove block ``block``'s file, which a commit cut short may have left.

        A store without that file, the usual case, is only looked at.
        """
        path = self._block_file(block)
        if path.exists():
            path.unlink()

    def remove_blocks(self) -> None:
        """Remove every block's file: a new chain's blocks have none yet."""
        for path in self._dir.glob("*.block"):
            path.unlink()

    def get(self, key: ContentHash, block: int | None = None) -> bytes:
        """Fetch bytes by hash, verifying them against the key before return.

        With ``block``, the block's file is searched first, then the file
        named by the digest. A block file that exists but holds no record
        hashing to ``key``, where no digest file does either, has lost it:
        IntegrityFailure, as for a digest file whose bytes changed.
        """
        in_block = False
        if block is not None:
            try:
                data = self._block_file(block).read_bytes()
            except FileNotFoundError:
                pass
            else:
                in_block = True
                for record in _records(data, block):
                    if sha256(record) == key.digest:
                        return record
        try:
            data = (self._dir / key.hex).read_bytes()
        except FileNotFoundError:
            if in_block:
                raise IntegrityFailure(
                    f"content {key.hex} is not intact in block {block}'s file") from None
            raise ContentNotFound(f"no content stored under {key.hex}") from None
        if sha256(data) != key.digest:
            raise IntegrityFailure(f"content {key.hex} failed verification")
        return data


def _records(data: bytes, block: int) -> Iterator[bytes]:
    """The records of a block file, in order; IntegrityFailure where one overruns it."""
    at = 0
    while at < len(data):
        start = at + _LENGTH_BYTES
        at = start + int.from_bytes(data[at:start], "big")
        if at > len(data):
            raise IntegrityFailure(f"block {block}'s file has a record past its end")
        yield data[start:at]
