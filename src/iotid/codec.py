"""Canonical byte encodings shared across the ledger, store, and contracts.

Everything that gets hashed, signed, or persisted goes through these
helpers so that equal values always produce equal bytes, and files that
are rewritten in place are replaced whole.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any

HASH_BYTES = 32

# json.dumps with non-default arguments builds a new encoder per call; this
# one is configured the same way, so it gives the same bytes
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(value: Any) -> bytes:
    """Serialize to UTF-8 JSON with sorted keys and no insignificant whitespace."""
    return _CANONICAL.encode(value).encode("utf-8")


def from_canonical_json(data: bytes) -> Any:
    """UTF-8 JSON from outside the program; ValueError for any refusal, deep nesting too."""
    try:
        return json.loads(data.decode("utf-8"))
    except RecursionError:
        raise ValueError("JSON nested too deep") from None


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def canonical_number(value: float) -> float | int:
    """Collapse whole-valued floats to ints so JSON carries no trailing zeros."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def replace_file(path: Path, data: bytes) -> None:
    """Write ``path`` whole: a failed write leaves the old file as it was.

    The bytes go to a sibling temp file, which mkstemp creates with mode
    0o600, and a rename puts it in place.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
