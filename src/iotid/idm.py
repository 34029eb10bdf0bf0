"""Identity-management chaincode and the off-chain login service.

On-chain (dispatched through the ledger's execute-order-validate
pipeline): identity creation gated on an authorized registrar and a key
possession proof, device registration gated on ownership, and ownership
transfer that replaces the former owner. The DID document bytes live in
the content store; only the record with the document hash goes on chain.

Off-chain: challenge-response login. Challenges and sessions are
ephemeral gateway state; putting them on chain would bloat blocks and
leak login cadence.
"""

from __future__ import annotations

import random
import secrets
from dataclasses import dataclass, replace

from .clock import Clock
from .codec import canonical_json, from_canonical_json
from .codec import sha256  # noqa: F401 -- perfbench/tracing.py wraps idm.sha256
from .did import (
    Address,
    Did,
    DidDocument,
    MalformedDid,
    make_did,
    parse_did,
    verify_possession_proof,
    verify_signature,
)
from .ledger import (
    KEY_CONFIG,
    KEY_DEVICE,
    KEY_DID,
    ContractError,
    StateView,
    TxContext,
    UnknownFunction,
)
from .store import ContentHash, ContentStore, IntegrityFailure

CHALLENGE_TTL = 300
SESSION_TTL = 3600


class AuthError(Exception):
    """Off-chain authentication failure with a stable error code."""

    code = "AuthError"

    def __init__(self, message: str = ""):
        super().__init__(f"{self.code}: {message}" if message else self.code)


class UnknownDidError(AuthError):
    code = "UnknownDid"


class NotRegisteredError(AuthError):
    code = "NotRegistered"


class NoSuchChallengeError(AuthError):
    code = "NoSuchChallenge"


class ExpiredChallengeError(AuthError):
    code = "ExpiredChallenge"


class BadSignatureError(AuthError):
    code = "BadSignature"


class NotAuthenticatedError(AuthError):
    code = "NotAuthenticated"


@dataclass(frozen=True)
class DidRecord:
    """On-chain identity entry under ``did/<did text>``."""

    did: Did
    doc_hash: ContentHash
    owner: Address
    created_at: int

    def to_dict(self) -> dict:
        return {
            "createdAt": self.created_at,
            "did": str(self.did),
            "docHash": self.doc_hash.hex,
            "owner": str(self.owner),
        }

    @classmethod
    def from_bytes(cls, data: bytes) -> "DidRecord":
        d = from_canonical_json(data)
        return cls(
            did=parse_did(d["did"]),
            doc_hash=ContentHash.from_hex(d["docHash"]),
            owner=Address.from_text(d["owner"]),
            created_at=int(d["createdAt"]),
        )


@dataclass(frozen=True)
class DeviceRecord:
    """On-chain registration entry under ``device/<did text>``."""

    did: Did
    manufacturer_id: str
    registered_at: int

    def to_dict(self) -> dict:
        return {
            "did": str(self.did),
            "manufacturerId": self.manufacturer_id,
            "registeredAt": self.registered_at,
        }

    @classmethod
    def from_bytes(cls, data: bytes) -> "DeviceRecord":
        d = from_canonical_json(data)
        return cls(did=parse_did(d["did"]), manufacturer_id=d["manufacturerId"],
                   registered_at=int(d["registeredAt"]))


def did_key(did: Did) -> str:
    return KEY_DID + str(did)


def device_key(did: Did) -> str:
    return KEY_DEVICE + str(did)


class IdmContract:
    """Chaincode ``idm``: createIdentity, registerDevice, transferOwnership.

    Functions are pure over the execution snapshot; every error path
    raises before any write is staged, so failed calls leave no rwset.
    """

    name = "idm"

    def invoke(self, ctx: TxContext, function: str, args: list[str]) -> bytes:
        handlers = {
            "createIdentity": (self.create_identity, 4),
            "registerDevice": (self.register_device, 2),
            "transferOwnership": (self.transfer_ownership, 2),
        }
        if function not in handlers:
            raise UnknownFunction(f"idm.{function}")
        handler, arity = handlers[function]
        if len(args) != arity:
            raise ContractError("BadArguments",
                                f"idm.{function} takes {arity} args, got {len(args)}")
        return handler(ctx, *args)

    def create_identity(self, ctx: TxContext, public_key_hex: str, method_id: str,
                        owner_text: str, proof_hex: str) -> bytes:
        # authorization gate: only genesis-listed registrars may create
        registrars_raw = ctx.get(KEY_CONFIG + "registrars")
        registrars = from_canonical_json(registrars_raw) if registrars_raw else []
        if str(ctx.invoker) not in registrars:
            raise ContractError("Unauthorized",
                                f"{ctx.invoker} is not an authorized registrar")
        try:
            public_key = bytes.fromhex(public_key_hex)
            owner = Address.from_text(owner_text)
            proof = bytes.fromhex(proof_hex)
            did = make_did(public_key, method_id=method_id or None)
        except (ValueError, MalformedDid) as exc:
            raise ContractError("BadArguments", str(exc)) from exc

        if ctx.get(did_key(did)) is not None:
            raise ContractError("IdentityExists", f"identity already exists: {did}")
        if not verify_possession_proof(public_key, did, owner, proof):
            raise ContractError("InvalidProof",
                                f"possession proof does not verify for {did}")

        document = DidDocument(id=did, public_key_hex=public_key.hex(),
                               owner=owner, created=ctx.timestamp)
        doc_hash = ctx.store.put(document.canonical_bytes())
        record = DidRecord(did=did, doc_hash=doc_hash, owner=owner,
                           created_at=ctx.timestamp)
        encoded = canonical_json(record.to_dict())
        ctx.put(did_key(did), encoded)
        return encoded

    def register_device(self, ctx: TxContext, did_text: str,
                        manufacturer_id: str) -> bytes:
        try:
            did = parse_did(did_text)
        except MalformedDid as exc:
            raise ContractError("BadArguments", str(exc)) from exc
        raw = ctx.get(did_key(did))
        if raw is None:
            raise ContractError("UnknownDid", f"no identity for {did}")
        record = DidRecord.from_bytes(raw)
        if record.owner != ctx.invoker:
            raise ContractError("NotOwner",
                                f"{ctx.invoker} does not own {did}")
        if ctx.get(device_key(did)) is not None:
            raise ContractError("DeviceAlreadyRegistered",
                                f"device already registered: {did}")
        device = DeviceRecord(did=did, manufacturer_id=manufacturer_id,
                              registered_at=ctx.timestamp)
        encoded = canonical_json(device.to_dict())
        ctx.put(device_key(did), encoded)
        return encoded

    def transfer_ownership(self, ctx: TxContext, did_text: str,
                           new_owner_text: str) -> bytes:
        try:
            did = parse_did(did_text)
            new_owner = Address.from_text(new_owner_text)
        except (ValueError, MalformedDid) as exc:
            raise ContractError("BadArguments", str(exc)) from exc
        raw = ctx.get(did_key(did))
        if raw is None:
            raise ContractError("UnknownDid", f"no identity for {did}")
        record = DidRecord.from_bytes(raw)
        if record.owner != ctx.invoker:
            raise ContractError("NotOwner",
                                f"{ctx.invoker} does not own {did}")
        # the former owner is replaced in both the record and the document
        document = DidDocument.from_bytes(ctx.store.get(record.doc_hash))
        new_document = replace(document, owner=new_owner)
        new_hash = ctx.store.put(new_document.canonical_bytes())
        updated = DidRecord(did=did, doc_hash=new_hash, owner=new_owner,
                            created_at=record.created_at)
        encoded = canonical_json(updated.to_dict())
        ctx.put(did_key(did), encoded)
        return encoded


# -- read-side resolution ---------------------------------------------------


def get_did_record(state: StateView, did: Did) -> DidRecord | None:
    entry = state.get(did_key(did))
    return DidRecord.from_bytes(entry[0]) if entry is not None else None


def get_device_record(state: StateView, did: Did) -> DeviceRecord | None:
    entry = state.get(device_key(did))
    return DeviceRecord.from_bytes(entry[0]) if entry is not None else None


def resolve_did(state: StateView, store: ContentStore, did: Did) -> DidDocument:
    """Fetch and verify the DID document referenced by the on-chain record."""
    record = get_did_record(state, did)
    if record is None:
        raise UnknownDidError(str(did))
    document = DidDocument.from_bytes(store.get(record.doc_hash))
    if document.id != did or document.owner != record.owner:
        raise IntegrityFailure(
            f"document for {did} does not match its on-chain record")
    return document


# -- challenge-response login -------------------------------------------------


@dataclass(frozen=True)
class Challenge:
    did: Did
    nonce: bytes
    issued_at: int

    @property
    def expires_at(self) -> int:
        return self.issued_at + CHALLENGE_TTL


@dataclass(frozen=True)
class Session:
    """One logged-in device, until ``expires_at``."""

    did: Did
    expires_at: int

    def to_dict(self) -> dict:
        return {"did": str(self.did), "expiresAt": self.expires_at}

    @classmethod
    def from_dict(cls, d: dict) -> "Session":
        return cls(did=parse_did(d["did"]), expires_at=int(d["expiresAt"]))


def login_message(did: Did, nonce: bytes) -> bytes:
    return f"LOGIN|{did}|{nonce.hex()}".encode("utf-8")


def session_is_valid(session: Session | None, now: float) -> bool:
    return session is not None and now < session.expires_at


class LoginService:
    """Challenge-response login for registered devices.

    Outstanding challenges live in this object, off chain; the issued
    session belongs to the caller. Single-use challenges expire after
    ``CHALLENGE_TTL`` seconds and sessions after ``SESSION_TTL``. Pass a
    seeded ``rng`` for reproducible nonces; the default is OS entropy.
    """

    def __init__(self, state: StateView, store: ContentStore, clock: Clock,
                 rng: random.Random | None = None):
        self._state = state
        self._store = store
        self._clock = clock
        self._rng = rng
        self._challenges: dict[tuple[str, bytes], Challenge] = {}

    def _nonce(self) -> bytes:
        if self._rng is not None:
            return self._rng.randbytes(32)
        return secrets.token_bytes(32)

    def begin_login(self, did: Did) -> Challenge:
        """Issue a fresh single-use challenge for a registered device."""
        if get_device_record(self._state, did) is None:
            raise NotRegisteredError(f"device not registered: {did}")
        challenge = Challenge(did=did, nonce=self._nonce(),
                              issued_at=int(self._clock.now()))
        self._challenges[(str(did), challenge.nonce)] = challenge
        return challenge

    def complete_login(self, did: Did, nonce: bytes, signature: bytes) -> Session:
        """Verify the challenge signature against the DID document's key."""
        challenge = self._challenges.get((str(did), nonce))
        if challenge is None:
            raise NoSuchChallengeError(f"no outstanding challenge for {did}")
        now = self._clock.now()
        if now >= challenge.expires_at:
            del self._challenges[(str(did), nonce)]
            raise ExpiredChallengeError(f"challenge expired for {did}")
        document = resolve_did(self._state, self._store, did)
        public_key = bytes.fromhex(document.public_key_hex)
        if not verify_signature(public_key, login_message(did, nonce), signature):
            raise BadSignatureError(f"login signature does not verify for {did}")
        del self._challenges[(str(did), nonce)]  # single use
        return Session(did=did, expires_at=int(now) + SESSION_TTL)
