"""In-process gateway: keystore, command operations, end-to-end scenario.

The gateway owns the plumbing between the CLI and the engine: key files
on disk, session caching so separate invocations share a login, nonce
counters for replay protection, and the composition of multi-step flows
(create identity then register, challenge then response, simulate then
upload). Every operation returns a JSON-ready dict; rendering belongs to
the CLI layer.

Single commands open the ledger, do their work, and close it; the
scenario and the benchmark hold one engine open end to end because
receipts and latency timings live with the engine instance that
submitted the transactions.
"""

from __future__ import annotations

import json
import os
import random
import re
import secrets
from dataclasses import dataclass
from pathlib import Path

from .assets import AssetContract, query_all_assets, query_owned_assets
from .clock import Clock, SimClock, WallClock
from .codec import sha256
from .did import (
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
    IdmContract,
    LoginService,
    NotAuthenticatedError,
    Session,
    login_message,
    session_is_valid,
)
from .ledger import (
    BLOCKS_FILE,
    VALID,
    ContractError,
    GenesisConfig,
    LedgerEngine,
    TxProposal,
    verify_chain_file,
)
from .sim import (
    FlowConfig,
    SensorReading,
    build_network,
    device_key_seed,
    reading_file_path,
    run,
    write_asset_files,
)
from .store import ContentStore

OBJECTS_DIR = "objects"
_NAME_RE = re.compile(r"^[a-zA-Z0-9_-]{1,64}$")
_DEVICE_DIR_RE = re.compile(r"^device\d+$")


class GatewayError(Exception):
    """Command-level failure (bad name, missing entry, failed invariant)."""


@dataclass(frozen=True)
class KeyEntry:
    """One keystore record: a named device key and its DID."""

    name: str
    seed: bytes
    did: Did

    @property
    def keypair(self) -> KeyPair:
        return generate_keypair(self.seed)

    @property
    def address(self) -> Address:
        return derive_address(self.keypair.public_key)


class Keystore:
    """Directory of per-device key files, owner-readable only.

    Also persists two pieces of cross-invocation state: cached login
    sessions and monotonic proposal-nonce counters.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        os.chmod(self.directory, 0o700)

    def _entry_path(self, name: str) -> Path:
        if not _NAME_RE.match(name):
            raise GatewayError(f"invalid device name: {name!r}")
        return self.directory / f"{name}.json"

    def _write_private(self, path: Path, payload: dict) -> None:
        data = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)

    def create(self, name: str, seed: bytes | None = None,
               overwrite: bool = False) -> KeyEntry:
        path = self._entry_path(name)
        if path.exists() and not overwrite:
            raise GatewayError(f"keystore entry already exists: {name}")
        if seed is None:
            seed = secrets.token_bytes(32)
        keypair = generate_keypair(seed)
        entry = KeyEntry(name=name, seed=seed, did=make_did(keypair.public_key))
        self._write_private(path, {"name": name, "seed": seed.hex(),
                                   "did": str(entry.did)})
        return entry

    def load(self, name: str) -> KeyEntry:
        path = self._entry_path(name)
        if not path.exists():
            raise GatewayError(f"no keystore entry named {name}")
        data = json.loads(path.read_text(encoding="utf-8"))
        return KeyEntry(name=data["name"], seed=bytes.fromhex(data["seed"]),
                        did=parse_did(data["did"]))

    def names(self) -> list[str]:
        return sorted(p.stem for p in self.directory.glob("*.json")
                      if _NAME_RE.match(p.stem))

    # -- nonce counters ---------------------------------------------------

    def next_nonce(self, label: str) -> bytes:
        """Monotonic per-principal proposal nonce; deterministic by design."""
        path = self.directory / "nonces.json"
        counters = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        counters[label] = int(counters.get(label, 0)) + 1
        self._write_private(path, counters)
        return counters[label].to_bytes(32, "big")

    # -- session cache -----------------------------------------------------

    def save_session(self, name: str, session: Session) -> None:
        self._write_private(self.directory / f"{name}.session.json",
                            session.to_dict())

    def load_session(self, name: str) -> Session | None:
        path = self.directory / f"{name}.session.json"
        if not path.exists():
            return None
        return Session.from_dict(json.loads(path.read_text(encoding="utf-8")))


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

    def _commit_tick(self) -> float:
        # on the simulated clock each commit advances time one tick, which
        # stands in for the batch timeout and keeps metrics reproducible
        return 1.0 if isinstance(self.clock, SimClock) else 0.0

    def _store(self) -> ContentStore:
        return ContentStore(self.ledger_dir / OBJECTS_DIR)

    def _open_engine(self) -> LedgerEngine:
        return LedgerEngine.open(self.ledger_dir, self._store(),
                                 default_contracts(), clock=self.clock,
                                 commit_tick=self._commit_tick())

    def _proposal(self, invoker: KeyPair, nonce_label: str, contract: str,
                  function: str, args: list[str]) -> TxProposal:
        proposal = TxProposal(
            invoker=derive_address(invoker.public_key),
            invoker_key=invoker.public_key,
            contract=contract,
            function=function,
            args=args,
            nonce=self.keystore.next_nonce(nonce_label),
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

    # -- engine-level steps shared by commands and the scenario --------------

    def _register_with(self, engine: LedgerEngine, entry: KeyEntry,
                       manufacturer_id: str) -> dict:
        """Registrar creates the identity, then the owner registers the device."""
        if not engine.genesis.registrars:
            raise GatewayError("genesis config lists no registrars")
        registrar = engine.genesis.registrars[0].keypair
        keypair = entry.keypair
        owner = entry.address
        proof = make_possession_proof(keypair, entry.did, owner)
        create = self._proposal(
            registrar, "registrar", "idm", "createIdentity",
            [keypair.public_key.hex(), entry.did.method_id, str(owner), proof.hex()])
        create_receipt = self._submit(engine, create)
        register = self._proposal(
            keypair, entry.name, "idm", "registerDevice",
            [str(entry.did), manufacturer_id])
        register_receipt = self._submit(engine, register)
        return {
            "name": entry.name,
            "did": str(entry.did),
            "manufacturerId": manufacturer_id,
            "createIdentity": create_receipt,
            "registerDevice": register_receipt,
        }

    def _login_with(self, engine: LedgerEngine, entry: KeyEntry,
                    rng: random.Random | None = None) -> Session:
        service = LoginService(engine.state, engine.store, self.clock, rng=rng)
        challenge = service.begin_login(entry.did)
        signature = entry.keypair.sign(login_message(entry.did, challenge.nonce))
        session = service.complete_login(entry.did, challenge.nonce, signature)
        self.keystore.save_session(entry.name, session)
        return session

    def _upload_with(self, engine: LedgerEngine, entry: KeyEntry,
                     session: Session, path: Path,
                     asset_name: str | None = None) -> dict:
        if not session_is_valid(session, self.clock.now()):
            raise NotAuthenticatedError(f"no live session for {entry.name}")
        payload = path.read_bytes()
        if asset_name is None:
            asset_name = self.default_asset_name(path)
        proposal = self._proposal(
            entry.keypair, entry.name, "asset", "uploadAsset",
            [str(session.did), asset_name, payload.hex()])
        receipt = self._submit(engine, proposal)
        return {
            "name": entry.name,
            "assetName": asset_name,
            "dataId": sha256(payload).hex(),
            **receipt,
        }

    # -- commands ---------------------------------------------------------

    def cmd_network_init(self, genesis_path: str | None = None,
                         force: bool = False) -> dict:
        genesis = (GenesisConfig.from_dict(json.loads(Path(genesis_path).read_bytes()))
                   if genesis_path else GenesisConfig.default())
        if (self.ledger_dir / BLOCKS_FILE).exists() and not force:
            raise GatewayError(
                f"ledger already exists at {self.ledger_dir}; use --force")
        with LedgerEngine.create(self.ledger_dir, genesis, self._store(),
                                 default_contracts(), clock=self.clock,
                                 commit_tick=self._commit_tick(),
                                 force=force) as engine:
            return {
                "ledgerDir": str(self.ledger_dir),
                "height": engine.height,
                "peers": [p.peer_id for p in genesis.peers],
                "registrars": genesis.registrar_addresses(),
                "endorsementThreshold": genesis.effective_threshold(),
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
        entry = self.keystore.load(name)
        with self._open_engine() as engine:
            return self._register_with(engine, entry, manufacturer_id)

    def cmd_device_login(self, name: str,
                         rng: random.Random | None = None) -> dict:
        entry = self.keystore.load(name)
        with self._open_engine() as engine:
            session = self._login_with(engine, entry, rng=rng)
        return {
            "name": name,
            "did": str(entry.did),
            "token": session.token.hex(),
            "expiresAt": session.expires_at,
        }

    def _require_session(self, name: str) -> Session:
        session = self.keystore.load_session(name)
        if not session_is_valid(session, self.clock.now()):
            raise NotAuthenticatedError(f"no live session for {name}; log in first")
        return session

    @staticmethod
    def default_asset_name(path: Path) -> str:
        """`device<i>/<c>.txt` when the file sits in a per-device directory."""
        if _DEVICE_DIR_RE.match(path.parent.name):
            return f"{path.parent.name}/{path.name}"
        return path.name

    def cmd_asset_upload(self, name: str, file_path: str | Path,
                         asset_name: str | None = None) -> dict:
        session = self._require_session(name)
        entry = self.keystore.load(name)
        with self._open_engine() as engine:
            return self._upload_with(engine, entry, session, Path(file_path),
                                     asset_name)

    def cmd_asset_list(self, mine: str | None = None) -> dict:
        with self._open_engine() as engine:
            if mine is None:
                records = query_all_assets(engine.state)
            else:
                session = self._require_session(mine)
                records = query_owned_assets(engine.state, session,
                                             self.clock.now())
            return {"count": len(records),
                    "assets": [r.to_dict() for r in records]}

    def cmd_sim_run(self, config: FlowConfig, duration_seconds: int,
                    output_dir: str | Path) -> dict:
        return self._simulate(config, duration_seconds, output_dir)[0]

    @staticmethod
    def _simulate(config: FlowConfig, duration_seconds: int,
                  output_dir: str | Path) -> tuple[dict, list[SensorReading]]:
        """Run the simulator once: the file-tree summary and the readings."""
        readings = run(build_network(config), duration_seconds)
        written = write_asset_files(readings, Path(output_dir))
        per_device: dict[str, int] = {}
        for reading in readings:
            key = f"device{reading.device_index}"
            per_device[key] = per_device.get(key, 0) + 1
        summary = {
            "outputDir": str(output_dir),
            "files": len(written),
            "perDevice": dict(sorted(per_device.items())),
        }
        return summary, readings

    def cmd_chain_verify(self) -> dict:
        # verification reads the journal directly: it must keep working on
        # a ledger too damaged to open and replay
        return verify_chain_file(self.ledger_dir / BLOCKS_FILE).to_dict()

    def cmd_bench(self, tx_count: int) -> dict:
        """Throughput/latency probe: synthetic uploads from one bench device."""
        if tx_count < 1:
            raise GatewayError("tx count must be >= 1")
        seed = secrets.token_bytes(32)
        keypair = generate_keypair(seed)
        # the label names the device's nonce counter; it is never a key file
        entry = KeyEntry(name=f"bench-{seed[:4].hex()}", seed=seed,
                         did=make_did(keypair.public_key))
        with self._open_engine() as engine:
            self._register_with(engine, entry, "BENCH")
            mark = engine.timings_mark()
            for i in range(tx_count):
                payload = f"bench|{entry.name}|{i}".encode("utf-8")
                engine.submit(self._proposal(
                    keypair, entry.name, "asset", "uploadAsset",
                    [str(entry.did), f"bench/{i}.txt", payload.hex()]))
            engine.flush()
            report = engine.metrics(since=mark).to_dict()
            report["benchDevice"] = str(entry.did)
            return report

    # -- the end-to-end scenario ----------------------------------------------

    def cmd_scenario(self, seed: int = 0, device_count: int = 5,
                     interval_seconds: int = 30, duration_seconds: int = 300,
                     sim_output_dir: str | Path | None = None,
                     manufacturer_id: str | None = None,
                     force: bool = False) -> dict:
        """Register, login, simulate, upload, dedup, query, verify, measure.

        Runs entirely on the simulated clock so two runs with one seed
        produce identical reports.
        """
        if not isinstance(self.clock, SimClock):
            self.clock = SimClock()
        config = FlowConfig(
            device_count=device_count,
            interval_seconds=interval_seconds,
            manufacturer_id=(manufacturer_id if manufacturer_id is not None
                             else FlowConfig().manufacturer_id),
            seed=seed,
        )
        output_dir = (Path(sim_output_dir) if sim_output_dir is not None
                      else self.ledger_dir / "sensor-data")

        init = self.cmd_network_init(force=force)
        entries = [
            self.keystore.create(f"device{index}",
                                 seed=device_key_seed(seed, index),
                                 overwrite=force)
            for index in range(1, device_count + 1)
        ]

        with self._open_engine() as engine:
            registered = 0
            for entry in entries:
                receipt = self._register_with(engine, entry,
                                              config.manufacturer_id)
                if receipt["createIdentity"]["flag"] != VALID or \
                        receipt["registerDevice"]["flag"] != VALID:
                    raise GatewayError(f"registration not VALID for {entry.name}")
                registered += 1

            login_rng = random.Random(int.from_bytes(
                sha256(f"iotid/login/{seed}".encode("utf-8")), "big"))
            sessions = {entry.name: self._login_with(engine, entry, rng=login_rng)
                        for entry in entries}
            logged_in = len(sessions)

            sim_summary, readings = self._simulate(config, duration_seconds,
                                                   output_dir)

            by_index = {entry.name: entry for entry in entries}
            uploaded = 0
            upload_failures = []
            for reading in readings:
                entry = by_index[f"device{reading.device_index}"]
                receipt = self._upload_with(engine, entry, sessions[entry.name],
                                            reading_file_path(output_dir, reading))
                if receipt["flag"] == VALID:
                    uploaded += 1
                else:
                    upload_failures.append(receipt)

            # one duplicate attempt per device: re-upload its first reading
            duplicates_rejected = 0
            duplicate_data_ids = []
            for entry in entries:
                index = int(entry.name.removeprefix("device"))
                first = next(r for r in readings if r.device_index == index)
                try:
                    self._upload_with(engine, entry, sessions[entry.name],
                                      reading_file_path(output_dir, first))
                except ContractError as exc:
                    if exc.code != "DuplicateAsset":
                        raise
                    duplicates_rejected += 1
                    duplicate_data_ids.append(exc.details.get("dataId"))
                else:
                    raise GatewayError(
                        f"duplicate upload for {entry.name} was not rejected")

            all_records = query_all_assets(engine.state)
            owned = {
                entry.name: len(query_owned_assets(engine.state,
                                                   sessions[entry.name],
                                                   self.clock.now()))
                for entry in entries
            }
            verify = engine.verify_chain().to_dict()
            metrics = engine.metrics().to_dict()
            height = engine.height

        per_device = duration_seconds // interval_seconds
        expected = per_device * device_count
        ok = (registered == device_count and logged_in == device_count
              and sim_summary["files"] == expected and uploaded == expected
              and not upload_failures and duplicates_rejected == device_count
              and len(all_records) == expected
              and all(count == per_device for count in owned.values())
              and verify["ok"])
        return {
            "ok": ok,
            "seed": seed,
            "deviceCount": device_count,
            "ledger": init,
            "registered": registered,
            "loggedIn": logged_in,
            "simFiles": sim_summary["files"],
            "perDevice": sim_summary["perDevice"],
            "uploaded": uploaded,
            "duplicatesRejected": duplicates_rejected,
            "duplicateDataIds": duplicate_data_ids,
            "queryAllCount": len(all_records),
            "queryOwnedCounts": dict(sorted(owned.items())),
            "chainHeight": height,
            "verifyChain": verify,
            "metrics": metrics,
        }
