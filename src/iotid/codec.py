"""Canonical byte encodings shared across the ledger, store, and contracts.

Everything that gets hashed, signed, or persisted goes through these
helpers so that equal values always produce equal bytes, and files that
are rewritten in place are replaced whole. ``canonical_json`` calls one
encoder prepared at import, the one ``json.dumps(value, sort_keys=True,
separators=(",", ":"))`` builds on every call, but with no circular-reference
check: a dict of those markers shared between calls would carry what one
failed call left in it into the next. So a cyclic value, which no caller
builds, raises RecursionError where ``json.dumps`` raises ValueError.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Any

HASH_BYTES = 32

# the arguments JSONEncoder(sort_keys=True, separators=(",", ":")).iterencode
# passes to the C encoder it builds per call, with markers None for no
# circular check: its default (TypeError), the ASCII string encoder, no
# indent, the separators, sort_keys, no skipkeys and allow_nan
_ENCODE = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii,
                         None, ":", ",", True, False, True)


def canonical_json(value: Any) -> bytes:
    """Serialize to UTF-8 JSON with sorted keys and no insignificant whitespace."""
    return "".join(_ENCODE(value, 0)).encode("utf-8")


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


def write_all(fd: int, data: bytes) -> None:
    """Write all of ``data`` to the descriptor ``fd``, finishing a short write."""
    written = os.write(fd, data)
    while written < len(data):
        written += os.write(fd, data[written:])


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
