"""Shared test plumbing: deterministic principals and submission helpers."""

from __future__ import annotations

import contextlib
import fcntl
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from iotid.clock import Clock, SimClock
from iotid.codec import from_canonical_json
from iotid.did import (
    Address,
    Did,
    KeyPair,
    derive_address,
    generate_keypair,
    make_did,
    make_possession_proof,
    parse_did,
)
from iotid.gateway import default_contracts
from iotid.idm import DeviceRecord
from iotid.journal import GenesisConfig, TxProposal
from iotid.ledger import LOCK_FILE, Contract, LedgerEngine, TxContext
from iotid.store import ContentHash, ContentStore

MANUFACTURER = "ABCDEF00001"

DEEP_JSON = "[" * 100_000 + "]" * 100_000  # nested past the JSON parser's recursion limit


def deep_config(record: dict) -> None:
    """Give block 0's record a config argument of ``DEEP_JSON``."""
    record["transactions"][0]["proposal"]["args"][0] = DEEP_JSON


@dataclass(frozen=True)
class AssetRecord:
    """An ``asset/<dataId hex>`` record decoded the slow way: the oracle
    that the store's listing rows are checked against."""

    data_id: ContentHash
    owner: Did
    asset_name: str
    added_at: int

    def to_dict(self) -> dict:
        return {
            "addedAt": self.added_at,
            "assetName": self.asset_name,
            "dataId": self.data_id.hex,
            "owner": str(self.owner),
        }

    @classmethod
    def from_bytes(cls, data: bytes) -> "AssetRecord":
        d = from_canonical_json(data)
        return cls(data_id=ContentHash.from_hex(d["dataId"]), owner=parse_did(d["owner"]),
                   asset_name=d["assetName"], added_at=int(d["addedAt"]))


def device_record(data: bytes) -> DeviceRecord:
    """A ``device/<did text>`` record decoded the slow way; the contract only writes them."""
    d = from_canonical_json(data)
    return DeviceRecord(did=parse_did(d["did"]), manufacturer_id=d["manufacturerId"],
                        registered_at=int(d["registeredAt"]))


def seeded_keypair(n: int) -> KeyPair:
    return generate_keypair(bytes([n]) * 32)


@dataclass
class Principal:
    """A signing identity with its own monotonic nonce counter."""

    keypair: KeyPair
    method_id: str | None = None
    _nonce: int = field(default=0, repr=False)

    @classmethod
    def from_seed(cls, n: int, method_id: str | None = None) -> "Principal":
        return cls(keypair=seeded_keypair(n), method_id=method_id)

    @property
    def public_key(self) -> bytes:
        return self.keypair.public_key

    @property
    def address(self) -> Address:
        return derive_address(self.public_key)

    @property
    def did(self) -> Did:
        return make_did(self.public_key, method_id=self.method_id)

    def proposal(self, engine: LedgerEngine, contract: str, function: str,
                 args: list[str]) -> TxProposal:
        self._nonce += 1
        return TxProposal(
            invoker=self.address,
            invoker_key=self.public_key,
            contract=contract,
            function=function,
            args=args,
            nonce=self._nonce.to_bytes(32, "big"),
            timestamp=int(engine.clock.now()),
        ).sign(self.keypair)


class KvContract:
    """Minimal contract for engine-level tests: counters under ``kv/``."""

    name = "kv"

    def invoke(self, ctx: TxContext, function: str, args: list[str]) -> None:
        if function == "set":
            ctx.put(f"kv/{args[0]}", args[1].encode("utf-8"))
        elif function == "bump":
            current = ctx.get(f"kv/{args[0]}")
            ctx.put(f"kv/{args[0]}", str(int(current or b"0") + 1).encode("utf-8"))
        else:
            raise AssertionError(f"unknown kv function {function}")


def engine_contracts() -> dict[str, Contract]:
    """The standard contracts and kv."""
    return {**default_contracts(), "kv": KvContract()}


def make_engine(base: Path, clock: Clock | None = None,
                genesis: GenesisConfig | None = None) -> LedgerEngine:
    """Fresh ledger on a simulated clock with the test contracts."""
    return LedgerEngine.create(
        base / "ledger", genesis or GenesisConfig.default(),
        ContentStore(base / "objects"), engine_contracts(),
        clock=clock if clock is not None else SimClock())


def reopen_engine(base: Path, clock: Clock | None = None) -> LedgerEngine:
    return LedgerEngine.open(
        base / "ledger", ContentStore(base / "objects"), engine_contracts(),
        clock=clock if clock is not None else SimClock())


def registrar_principal(engine: LedgerEngine) -> Principal:
    return Principal(keypair=engine.genesis.registrars[0].keypair)


def create_identity(engine: LedgerEngine, registrar: Principal,
                    device: Principal, owner: Address | None = None,
                    flush: bool = True) -> bytes:
    """Submit createIdentity for ``device``; returns the txId."""
    owner = owner if owner is not None else device.address
    proof = make_possession_proof(device.keypair, device.did, owner)
    tx_id = engine.submit(registrar.proposal(
        engine, "idm", "createIdentity",
        [device.public_key.hex(), device.did.method_id, str(owner), proof.hex()]))
    if flush:
        engine.flush()
    return tx_id


def register_device(engine: LedgerEngine, registrar: Principal,
                    device: Principal, manufacturer: str = MANUFACTURER) -> bytes:
    """Full two-step creation + registration; returns the second txId."""
    create_identity(engine, registrar, device)
    tx_id = engine.submit(device.proposal(
        engine, "idm", "registerDevice", [str(device.did), manufacturer]))
    engine.flush()
    return tx_id


def upload_payload(engine: LedgerEngine, device: Principal, payload: bytes,
                   name: str = "reading.txt", flush: bool = True) -> bytes:
    tx_id = engine.submit(device.proposal(
        engine, "asset", "uploadAsset",
        [str(device.did), name, payload.hex()]))
    if flush:
        engine.flush()
    return tx_id


def chunk(block: int, contents: list[bytes]) -> bytes:
    """A block's chunk as the content log holds it: the block number and the
    records' length, then each length-prefixed record."""
    records = b"".join(struct.pack(">I", len(data)) + data for data in contents)
    return struct.pack(">II", block, len(records)) + records


def state_snapshot(engine: LedgerEngine) -> dict:
    return {k: (v, ver) for k, v, ver in engine.state.range("")}


def _try_flock(ledger_dir: Path) -> int | None:
    """A new fd on ``.lock`` holding its flock, or None if another fd has it."""
    fd = os.open(Path(ledger_dir) / LOCK_FILE, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        os.close(fd)
        return None
    return fd


@contextlib.contextmanager
def foreign_hold(ledger_dir: Path) -> Iterator[None]:
    """Hold the ledger's lock through a second fd, as another process would."""
    fd = _try_flock(ledger_dir)
    assert fd is not None, "the ledger lock is already held"
    try:
        yield
    finally:
        os.close(fd)


def lock_is_free(ledger_dir: Path) -> bool:
    """True when no fd, in this process or another, holds the ledger's lock."""
    fd = _try_flock(ledger_dir)
    if fd is None:
        return False
    os.close(fd)
    return True
