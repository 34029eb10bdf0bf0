"""Content-addressed document store.

The off-chain half of the system: DID documents and asset payloads live
here, keyed by the SHA-256 of their bytes, while the chain holds only the
hashes. One file per content under the store directory, named by hex
digest; integrity is re-checked on every read because this store is the
trust boundary for document bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .codec import HASH_BYTES, sha256


class EmptyContent(ValueError):
    """Refused to store an empty byte string."""


class ContentNotFound(KeyError):
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

    def __str__(self) -> str:
        return self.hex

    @classmethod
    def of(cls, data: bytes) -> "ContentHash":
        return cls(sha256(data))

    @classmethod
    def from_hex(cls, text: str) -> "ContentHash":
        return cls(bytes.fromhex(text))


class ContentStore:
    """Directory-backed store whose only index is its file names.

    ``len()`` counts the files once, then adds this store's own new puts.
    Identical concurrent puts are safe because put is idempotent.
    """

    def __init__(self, directory: str | Path):
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._count: int | None = None

    def __len__(self) -> int:
        if self._count is None:
            self._count = sum(len(p.name) == HASH_BYTES * 2 for p in self._dir.iterdir())
        return self._count

    def put(self, data: bytes) -> ContentHash:
        """Store bytes, returning their hash. Re-putting is a no-op."""
        if not data:
            raise EmptyContent("cannot store empty content")
        key = ContentHash.of(data)
        path = self._dir / key.hex
        if not path.exists():
            tmp = path.with_suffix(".tmp")
            tmp.write_bytes(data)
            tmp.replace(path)
            if self._count is not None:
                self._count += 1
        return key

    def get(self, key: ContentHash) -> bytes:
        """Fetch bytes by hash, verifying them against the key before return."""
        try:
            data = (self._dir / key.hex).read_bytes()
        except FileNotFoundError:
            raise ContentNotFound(key.hex) from None
        if sha256(data) != key.digest:
            raise IntegrityFailure(f"content {key.hex} failed verification")
        return data
