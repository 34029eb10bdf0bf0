"""Decentralized identifiers, key material, addresses, and possession proofs.

A device identity is a DID of the form ``did:<method>:<methodId>`` bound to
an Ed25519 verification key. The key also determines the device's 20-byte
account address (first 20 bytes of the SHA-256 of the public key), and the
default method-specific id (first 16 bytes of the same digest, hex) when the
caller does not supply a technology identifier such as an IMEI or UUID.

All functions here are pure over immutable inputs; callers may use them
concurrently without coordination.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.serialization import (
    Encoding,
    NoEncryption,
    PrivateFormat,
    PublicFormat,
)

from .codec import canonical_json, sha256

DEFAULT_METHOD = "iotid"

SEED_BYTES = 32
PUBLIC_KEY_BYTES = 32
ADDRESS_BYTES = 20

_METHOD_RE = re.compile(r"^[a-z0-9]{1,32}$")
_METHOD_ID_RE = re.compile(r"^[a-zA-Z0-9]{1,128}$")
_ADDRESS_RE = re.compile(r"^0x[0-9a-f]{40}$")


class MalformedDid(ValueError):
    """The text is not a valid ``did:<method>:<methodId>`` identifier."""


@dataclass(frozen=True, order=True)
class Did:
    """Parsed decentralized identifier."""

    method: str
    method_id: str

    def __post_init__(self):
        if not _METHOD_RE.match(self.method):
            raise MalformedDid(f"invalid DID method: {self.method!r}")
        if not _METHOD_ID_RE.match(self.method_id):
            raise MalformedDid(f"invalid DID method-specific id: {self.method_id!r}")

    def __str__(self) -> str:
        return format_did(self)


def parse_did(text: str) -> Did:
    """Parse ``did:<method>:<methodId>`` into its components.

    Raises:
        MalformedDid: missing ``did:`` scheme, empty component, or
            characters outside the allowed alphabets.
    """
    parts = text.split(":")
    if len(parts) != 3 or parts[0] != "did":
        raise MalformedDid(f"not a did:<method>:<id> identifier: {text!r}")
    return Did(method=parts[1], method_id=parts[2])


def format_did(did: Did) -> str:
    """Render a Did to its canonical text form. Inverse of :func:`parse_did`."""
    return f"did:{did.method}:{did.method_id}"


@dataclass(frozen=True)
class KeyPair:
    """Ed25519 keypair. The private half never appears in any serialized output."""

    public_key: bytes
    private_key: bytes = field(repr=False)

    @cached_property
    def _signer(self) -> Ed25519PrivateKey:
        return Ed25519PrivateKey.from_private_bytes(self.private_key)

    def sign(self, message: bytes) -> bytes:
        return self._signer.sign(message)


def generate_keypair(seed: bytes) -> KeyPair:
    """Derive an Ed25519 keypair from 32 bytes of entropy.

    Deterministic: the same seed always yields the same keypair.
    """
    if len(seed) != SEED_BYTES:
        raise ValueError(f"seed must be {SEED_BYTES} bytes, got {len(seed)}")
    private = Ed25519PrivateKey.from_private_bytes(seed)
    public = private.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
    raw = private.private_bytes(Encoding.Raw, PrivateFormat.Raw, NoEncryption())
    return KeyPair(public_key=public, private_key=raw)


def verify_signature(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """True iff ``signature`` signs ``message`` under ``public_key``. Never raises."""
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


@dataclass(frozen=True, order=True)
class Address:
    """20-byte account identifier derived from a public key."""

    raw: bytes

    def __post_init__(self):
        if len(self.raw) != ADDRESS_BYTES:
            raise ValueError(f"address must be {ADDRESS_BYTES} bytes")

    def __str__(self) -> str:
        return "0x" + self.raw.hex()

    @classmethod
    def from_text(cls, text: str) -> "Address":
        if not _ADDRESS_RE.match(text):
            raise ValueError(f"invalid address text: {text!r}")
        return cls(bytes.fromhex(text[2:]))


def derive_address(public_key: bytes) -> Address:
    """First 20 bytes of the SHA-256 of the public key."""
    if len(public_key) != PUBLIC_KEY_BYTES:
        raise ValueError(f"public key must be {PUBLIC_KEY_BYTES} bytes")
    return Address(sha256(public_key)[:ADDRESS_BYTES])


def make_did(public_key: bytes, method_id: str | None = None,
             method: str = DEFAULT_METHOD) -> Did:
    """Build a device DID.

    With no explicit ``method_id`` the id is the hex of the first 16 bytes
    of the key's SHA-256 digest; devices with a technology identifier
    (IMEI, UUID hex, ...) may pass it instead.
    """
    if method_id is None:
        method_id = sha256(public_key)[:16].hex()
    return Did(method=method, method_id=method_id)


@dataclass(frozen=True)
class DidDocument:
    """The resolvable record binding a DID to its key and owner."""

    id: Did
    public_key_hex: str
    owner: Address
    created: int
    service_endpoints: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if not self.public_key_hex:
            raise ValueError("document public key must be non-empty")

    def to_dict(self) -> dict:
        return {
            "created": self.created,
            "id": str(self.id),
            "owner": str(self.owner),
            "publicKey": self.public_key_hex,
            "serviceEndpoints": [[name, uri] for name, uri in self.service_endpoints],
        }

    def canonical_bytes(self) -> bytes:
        """Byte-stable serialization: sorted keys, no insignificant whitespace."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "DidDocument":
        return cls(
            id=parse_did(data["id"]),
            public_key_hex=data["publicKey"],
            owner=Address.from_text(data["owner"]),
            created=int(data["created"]),
            service_endpoints=tuple((n, u) for n, u in data["serviceEndpoints"]),
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "DidDocument":
        import json

        return cls.from_dict(json.loads(data.decode("utf-8")))


def _proof_message(did: Did, owner: Address, public_key: bytes) -> bytes:
    return f"PROOF|{format_did(did)}|{owner}|{public_key.hex()}".encode("utf-8")


def make_possession_proof(keypair: KeyPair, did: Did, owner: Address) -> bytes:
    """Sign the canonical proof message demonstrating control of the key."""
    return keypair.sign(_proof_message(did, owner, keypair.public_key))


def verify_possession_proof(public_key: bytes, did: Did, owner: Address,
                            proof: bytes) -> bool:
    """True iff ``proof`` signs the exact canonical message under ``public_key``."""
    return verify_signature(public_key, _proof_message(did, owner, public_key), proof)
