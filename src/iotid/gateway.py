"""In-process gateway: keystore, one method per ledger command of the CLI, the scenario.

The gateway owns the plumbing between the CLI and the engine: key files
on disk, session caching so separate invocations share a login, proposal
nonces one above the highest the chain holds, and the composition of
multi-step commands (create identity then register, challenge then response).
Every command opens the ledger, does its work and closes it, and
returns a JSON-ready dict; rendering belongs to the CLI layer. The
end-to-end scenario is a script over those same commands, run as
separate client steps the way a CLI user would run them.
"""

from __future__ import annotations

import os
import random
import re
import secrets
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .assets import AssetContract, query_owned_assets
from .assets import query_all_assets  # noqa: F401 -- perfbench/tracing.py wraps gateway.query_all_assets
from .clock import Clock, SimClock, WallClock
from .codec import canonical_json, from_canonical_json, replace_file, sha256
from .did import (
    SEED_BYTES,
    Address,
    Did,
    KeyPair,
    derive_address,
    generate_keypair,
    make_did,
    make_possession_proof,
    parse_did,
)
from .idm import (
    DidRecord,
    IdmContract,
    LoginService,
    NotAuthenticatedError,
    Session,
    device_key,
    did_key,
    login_message,
    session_is_valid,
)
from .journal import BLOCKS_FILE, VALID, GenesisConfig, TxProposal, verify_chain_file
from .ledger import ContractError, LedgerEngine
from .store import ContentStore

OBJECTS_DIR = "objects"
_NAME_RE = re.compile(r"[a-zA-Z0-9_-]{1,64}")
_DEVICE_DIR_RE = re.compile(r"device\d+")


class GatewayError(Exception):
    """Command-level failure (bad name, missing entry, failed invariant)."""


@dataclass(frozen=True)
class KeyEntry:
    """One keystore record: a named device key and its DID."""

    name: str
    seed: bytes
    did: Did

    @cached_property
    def keypair(self) -> KeyPair:
        return generate_keypair(self.seed)

    @cached_property
    def address(self) -> Address:
        return derive_address(self.keypair.public_key)


class Keystore:
    """Directory of per-device key files, owner-readable only.

    Also caches login sessions across invocations. The directory is made,
    or set back to 0o700, by each write, so a command that writes no key
    or session file makes no directory.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)

    def _entry_path(self, name: str) -> Path:
        if not _NAME_RE.fullmatch(name):
            raise GatewayError(f"invalid device name: {name!r}")
        return self.directory / f"{name}.json"

    def _session_path(self, name: str) -> Path:
        return self._entry_path(name).with_suffix(".session.json")

    def _write_private(self, path: Path, payload: dict) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        os.chmod(self.directory, 0o700)
        replace_file(path, canonical_json(payload) + b"\n")

    def create(self, name: str, seed: bytes | None = None,
               overwrite: bool = False) -> KeyEntry:
        path = self._entry_path(name)
        if path.exists() and not overwrite:
            raise GatewayError(f"keystore entry already exists: {name}")
        if seed is None:
            seed = secrets.token_bytes(32)
        keypair = generate_keypair(seed)
        entry = KeyEntry(name=name, seed=seed, did=make_did(keypair.public_key))
        vars(entry)["keypair"] = keypair  # the cached property's slot: parsed once
        self._write_private(path, {"name": name, "seed": seed.hex(),
                                   "did": str(entry.did)})
        return entry

    def load(self, name: str) -> KeyEntry:
        path = self._entry_path(name)
        if not path.exists():
            raise GatewayError(f"no keystore entry named {name}")
        try:
            data = from_canonical_json(path.read_bytes())
            fields = data["name"], data["seed"], data["did"]
            if not all(isinstance(f, str) for f in fields):
                raise TypeError("key file fields must be strings")
            if fields[0] != name:
                raise ValueError("key file names another entry")
            seed = bytes.fromhex(fields[1])
            if len(seed) != SEED_BYTES:
                raise ValueError(f"seed must be {SEED_BYTES} bytes")
            return KeyEntry(name=fields[0], seed=seed, did=parse_did(fields[2]))
        except (KeyError, TypeError, ValueError):
            raise GatewayError(f"keystore entry {name} is not a key file") from None

    # -- proposal nonces --------------------------------------------------

    def next_nonce(self, engine: LedgerEngine, invoker: Address) -> bytes:
        """One above ``invoker``'s highest nonce on chain: a refusal spends none."""
        nonce = engine.last_nonce(invoker) + 1
        if nonce == 2**256:
            raise GatewayError(f"{invoker} has committed the last 32-byte nonce")
        return nonce.to_bytes(32, "big")

    # -- session cache -----------------------------------------------------

    def save_session(self, name: str, session: Session) -> None:
        self._write_private(self._session_path(name), session.to_dict())

    def load_session(self, name: str) -> Session | None:
        path = self._session_path(name)
        if not path.exists():
            return None
        try:
            return Session.from_dict(from_canonical_json(path.read_bytes()))
        except (KeyError, TypeError, ValueError):
            raise GatewayError(f"{path.name} is not a session file") from None


def default_contracts() -> dict:
    return {"idm": IdmContract(), "asset": AssetContract()}


class Gateway:
    """Ties keystore, content store, and ledger engine into CLI commands."""

    def __init__(self, ledger_dir: str | Path, keystore_dir: str | Path,
                 clock: Clock | None = None):
        self.ledger_dir = Path(ledger_dir)
        self.keystore = Keystore(keystore_dir)
        self.clock = clock if clock is not None else WallClock()

    # -- engine plumbing -----------------------------------------------------

    def _store(self) -> ContentStore:
        return ContentStore(self.ledger_dir / OBJECTS_DIR)

    def _open_engine(self) -> LedgerEngine:
        return LedgerEngine.open(self.ledger_dir, self._store(),
                                 default_contracts(), clock=self.clock)

    def _proposal(self, engine: LedgerEngine, invoker: KeyPair, contract: str,
                  function: str, args: list[str]) -> TxProposal:
        address = derive_address(invoker.public_key)
        proposal = TxProposal(
            invoker=address,
            invoker_key=invoker.public_key,
            contract=contract,
            function=function,
            args=args,
            nonce=self.keystore.next_nonce(engine, address),
            timestamp=int(self.clock.now()),
        )
        return proposal.sign(invoker)

    @staticmethod
    def _submit(engine: LedgerEngine, proposal: TxProposal) -> dict:
        """Submit, force the cut, and report where the transaction landed."""
        tx_id = engine.submit(proposal)
        engine.flush()
        return {
            "txId": tx_id.hex(),
            "flag": engine.tx_flag(tx_id),
            "block": engine.block_number_of(tx_id),
        }

    # -- commands ---------------------------------------------------------

    def cmd_network_init(self, genesis_path: str | None = None,
                         force: bool = False) -> dict:
        genesis = GenesisConfig.default()
        if genesis_path:
            try:
                genesis = GenesisConfig.from_dict(from_canonical_json(Path(genesis_path).read_bytes()))
            except (KeyError, TypeError, ValueError) as exc:
                raise GatewayError(
                    f"{genesis_path} is not a genesis config: {exc!r}") from None
        if (self.ledger_dir / BLOCKS_FILE).exists() and not force:
            raise GatewayError(
                f"ledger already exists at {self.ledger_dir}; use --force")
        with LedgerEngine.create(self.ledger_dir, genesis, self._store(),
                                 default_contracts(), clock=self.clock,
                                 force=force) as engine:
            # made now: only an upload writes to it, and readers expect it
            (self.ledger_dir / OBJECTS_DIR).mkdir(exist_ok=True)
            return {
                "ledgerDir": str(self.ledger_dir),
                "height": engine.height,
                "peers": [p.name for p in genesis.peers],
                "registrars": genesis.registrar_addresses(),
                "endorsementThreshold": genesis.threshold,
            }

    def cmd_device_keygen(self, name: str, seed: bytes | None = None,
                          overwrite: bool = False) -> dict:
        entry = self.keystore.create(name, seed, overwrite=overwrite)
        return {
            "name": entry.name,
            "did": str(entry.did),
            "address": str(entry.address),
            "publicKey": entry.keypair.public_key.hex(),
        }

    def cmd_device_register(self, name: str, manufacturer_id: str) -> dict:
        """Registrar creates the identity, then the owner registers the device;
        one cut short between the two blocks resumes at the second."""
        entry = self.keystore.load(name)
        with self._open_engine() as engine:
            create_receipt = None
            if not self._identity_awaits_device(engine, entry):
                if not engine.genesis.registrars:
                    raise GatewayError("genesis config lists no registrars")
                registrar = engine.genesis.registrars[0].keypair
                proof = make_possession_proof(entry.keypair, entry.did, entry.address)
                create = self._proposal(
                    engine, registrar, "idm", "createIdentity",
                    [entry.keypair.public_key.hex(), entry.did.method_id,
                     str(entry.address), proof.hex()])
                create_receipt = self._submit(engine, create)
            register = self._proposal(
                engine, entry.keypair, "idm", "registerDevice",
                [str(entry.did), manufacturer_id])
            return {
                "name": entry.name,
                "did": str(entry.did),
                "manufacturerId": manufacturer_id,
                "createIdentity": create_receipt,
                "registerDevice": self._submit(engine, register),
            }

    @staticmethod
    def _identity_awaits_device(engine: LedgerEngine, entry: KeyEntry) -> bool:
        """The chain binds ``entry``'s key and address, and no device, to its DID."""
        found = engine.state.get(did_key(entry.did))
        if found is None or engine.state.get(device_key(entry.did)) is not None:
            return False
        record = DidRecord.from_bytes(entry.did, found[0])
        return (record.public_key, record.owner) == (entry.keypair.public_key, entry.address)

    def cmd_device_login(self, name: str,
                         rng: random.Random | None = None) -> dict:
        """Challenge-response login; the session is cached in the keystore."""
        entry = self.keystore.load(name)
        with self._open_engine() as engine:
            service = LoginService(engine.state, engine.store, self.clock, rng=rng)
            challenge = service.begin_login(entry.did)
            signature = entry.keypair.sign(login_message(entry.did, challenge.nonce))
            session = service.complete_login(entry.did, challenge.nonce, signature)
        self.keystore.save_session(entry.name, session)
        return {
            "name": name,
            "did": str(entry.did),
            "expiresAt": session.expires_at,
        }

    def _require_session(self, name: str) -> tuple[Session, KeyEntry]:
        """A live session of ``name`` and its key entry, whose DID it must name."""
        session = self.keystore.load_session(name)
        if not session_is_valid(session, self.clock.now()):
            raise NotAuthenticatedError(f"no live session for {name}; log in first")
        entry = self.keystore.load(name)
        if session.did != entry.did:
            raise NotAuthenticatedError(f"session of {name} names another DID")
        return session, entry

    @staticmethod
    def default_asset_name(path: Path) -> str:
        """`device<i>/<c>.txt` when the file sits in a per-device directory."""
        if _DEVICE_DIR_RE.fullmatch(path.parent.name):
            return f"{path.parent.name}/{path.name}"
        return path.name

    def cmd_asset_upload(self, name: str, file_path: str | Path,
                         asset_name: str | None = None) -> dict:
        _, entry = self._require_session(name)
        path = Path(file_path)
        payload = path.read_bytes()
        if asset_name is None:
            asset_name = self.default_asset_name(path)
        with self._open_engine() as engine:
            proposal = self._proposal(
                engine, entry.keypair, "asset", "uploadAsset",
                [str(entry.did), asset_name, payload.hex()])
            receipt = self._submit(engine, proposal)
        return {
            "name": entry.name,
            "assetName": asset_name,
            "dataId": sha256(payload).hex(),
            **receipt,
        }

    def cmd_asset_list(self, mine: str | None = None) -> dict:
        session = self._require_session(mine)[0] if mine is not None else None
        with self._open_engine() as engine:
            if session is None:  # the engine closes next: keep no listing
                rows = engine.state.assets()
            else:
                rows = query_owned_assets(engine.state, session, self.clock.now())
            return {"count": len(rows), "assets": rows}

    def cmd_chain_verify(self) -> dict:
        # verification reads the journal directly: it must keep working on
        # a ledger too damaged to open and replay
        return verify_chain_file(self.ledger_dir / BLOCKS_FILE).to_dict()

    # -- the end-to-end scenario ----------------------------------------------

    def cmd_scenario(self, seed: int = 0, device_count: int = 5,
                     interval_seconds: int = 30, duration_seconds: int = 300,
                     sim_output_dir: str | Path | None = None,
                     force: bool = False) -> dict:
        """Init, register, login, simulate, upload, dedup, query, verify.

        A script over the CLI commands above, each of which opens the
        ledger itself. Runs entirely on the simulated clock so two runs
        with one seed produce identical reports.
        """
        from .sim import FlowConfig, device_key_seed, reading_file_path, simulate

        if not isinstance(self.clock, SimClock):
            self.clock = SimClock()
        config = FlowConfig(device_count=device_count,
                            interval_seconds=interval_seconds, seed=seed)
        if duration_seconds < interval_seconds:
            raise GatewayError(f"duration {duration_seconds} s is under one interval")
        output_dir = (Path(sim_output_dir) if sim_output_dir is not None
                      else self.ledger_dir / "sensor-data")
        names = [f"device{index}" for index in range(1, device_count + 1)]

        init = self.cmd_network_init(force=force)
        for index, name in enumerate(names, 1):
            self.cmd_device_keygen(name, seed=device_key_seed(seed, index),
                                   overwrite=force)
        for name in names:
            receipt = self.cmd_device_register(name, config.manufacturer_id)
            if receipt["createIdentity"]["flag"] != VALID or \
                    receipt["registerDevice"]["flag"] != VALID:
                raise GatewayError(f"registration not VALID for {name}")

        login_rng = random.Random(int.from_bytes(
            sha256(f"iotid/login/{seed}".encode("utf-8")), "big"))
        for name in names:
            self.cmd_device_login(name, rng=login_rng)

        sim_summary, readings = simulate(config, duration_seconds, output_dir)
        # render_payload carries no device id, so two devices can emit
        # byte-identical readings in one tick; only the first one lands
        seen: set[bytes] = set()
        expected_owned: Counter[str] = Counter()
        uploaded = 0
        upload_failures = []
        for reading in readings:
            name = f"device{reading.device_index}"
            path = reading_file_path(output_dir, reading)
            data_id = sha256(path.read_bytes())
            repeat = data_id in seen
            if not repeat:
                seen.add(data_id)
                expected_owned[name] += 1
            try:
                receipt = self.cmd_asset_upload(name, path)
            except ContractError as exc:
                if not (repeat and exc.code == "DuplicateAsset"):
                    raise
                continue
            if receipt["flag"] == VALID and not repeat:
                uploaded += 1
            else:
                upload_failures.append(receipt)

        # one duplicate attempt per device: re-upload its first reading
        duplicate_data_ids = []
        for index, name in enumerate(names, 1):
            first = next(r for r in readings if r.device_index == index)
            try:
                self.cmd_asset_upload(name, reading_file_path(output_dir, first))
            except ContractError as exc:
                if exc.code != "DuplicateAsset":
                    raise
                duplicate_data_ids.append(exc.details.get("dataId"))
            else:
                raise GatewayError(f"duplicate upload for {name} was not rejected")

        all_count = self.cmd_asset_list()["count"]
        owned = {name: self.cmd_asset_list(mine=name)["count"] for name in names}
        verify = self.cmd_chain_verify()

        # a failed registration, login or duplicate refusal raised above, and
        # the simulator writes one file per reading
        ok = (uploaded == len(seen) and not upload_failures
              and all_count == len(seen)
              and all(owned[name] == expected_owned[name] for name in names)
              and verify["ok"])
        return {
            "ok": ok,
            "seed": seed,
            "deviceCount": device_count,
            "ledger": init,
            "registered": device_count,
            "loggedIn": device_count,
            "simFiles": sim_summary["files"],
            "perDevice": sim_summary["perDevice"],
            "uploaded": uploaded,
            "duplicatesRejected": len(duplicate_data_ids),
            "duplicateDataIds": duplicate_data_ids,
            "queryAllCount": all_count,
            "queryOwnedCounts": owned,
            "chainHeight": verify["height"],
            "verifyChain": verify,
        }
