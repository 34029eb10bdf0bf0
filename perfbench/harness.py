"""Pieces shared by the workloads: provisioning, payloads, the outcome
model, commit-latency tracking, CLI calls and the post-run checks.

Everything here drives ``iotid`` through its public functions only.
Module attributes are looked up at call time (``idm.resolve_did``, not a
``from`` import) so the tracer's replacements are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from iotid import assets, cli, gateway, idm, ledger, sim
from iotid.clock import SimClock
from iotid.codec import sha256
from iotid.did import derive_address, generate_keypair, make_did
from iotid.store import ContentStore

MANUFACTURER_ID = "ABCDEF00001"
# Nonces the benchmark signs with directly have the top bit set, so they
# never meet the small counters the gateway keystore hands out.
_NONCE_BASE = 1 << 255


def dir_bytes(path: Path) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


@dataclass
class Device:
    index: int
    name: str
    keypair: object
    did: object
    address: object
    nonce: int = 0
    session: object = None

    def next_nonce(self) -> bytes:
        self.nonce += 1
        return (_NONCE_BASE + self.nonce).to_bytes(32, "big")


@dataclass
class Env:
    """A provisioned ledger plus keystore, driven by a SimClock gateway."""

    root: Path
    gw: gateway.Gateway
    devices: list[Device]
    login_rng: random.Random

    @property
    def ledger_dir(self) -> Path:
        return self.gw.ledger_dir

    @property
    def keystore_dir(self) -> Path:
        return self.gw.keystore.directory

    def journal(self) -> Path:
        return self.ledger_dir / ledger.BLOCKS_FILE

    def objects(self) -> Path:
        return self.ledger_dir / gateway.OBJECTS_DIR

    def open_engine(self) -> ledger.LedgerEngine:
        return ledger.LedgerEngine.open(
            self.ledger_dir, ContentStore(self.objects()),
            gateway.default_contracts(), clock=self.gw.clock, commit_tick=1.0)


def provision(root: Path, seed: int, device_count: int, tick) -> Env:
    """network-init, then keygen, register and log in each device.

    Runs through the gateway's commands on a SimClock with seeded keys and
    login nonces, so the journal it leaves is byte-identical per seed.
    ``tick`` is called between devices (the speed gauge's).
    """
    gw = gateway.Gateway(root / "ledger", root / "keystore", clock=SimClock())
    gw.cmd_network_init()
    login_rng = random.Random(seed)
    devices = []
    for index in range(1, device_count + 1):
        tick()
        name = f"device{index}"
        key_seed = sim.device_key_seed(seed, index)
        gw.cmd_device_keygen(name, seed=key_seed)
        receipt = gw.cmd_device_register(name, MANUFACTURER_ID)
        for step in ("createIdentity", "registerDevice"):
            if receipt[step]["flag"] != ledger.VALID:
                raise RuntimeError(f"setup: {step} for {name} not VALID")
        gw.cmd_device_login(name, rng=login_rng)
        keypair = generate_keypair(key_seed)
        devices.append(Device(index=index, name=name, keypair=keypair,
                              did=make_did(keypair.public_key),
                              address=derive_address(keypair.public_key),
                              session=gw.keystore.load_session(name)))
    return Env(root=root, gw=gw, devices=devices, login_rng=login_rng)


@dataclass(frozen=True)
class Reading:
    device: int  # 1-based device index
    asset_name: str
    payload: bytes


def generate_readings(seed: int, device_count: int, count: int,
                      tracer) -> list[Reading]:
    """``count`` sim telemetry readings, round-robin over the devices.

    ``render_payload`` carries no device id, so two devices can emit
    byte-identical readings in one tick; the model predicts those as
    dedup refusals or MVCC conflicts instead of the run avoiding them.
    """
    with tracer.span("sim.generate"):
        config = sim.FlowConfig(device_count=device_count, seed=seed)
        emissions = -(-count // device_count)
        readings = sim.run(sim.build_network(config),
                           emissions * config.interval_seconds)
        return [Reading(r.device_index, f"device{r.device_index}/{r.counter}.txt",
                        sim.render_payload(r)) for r in readings[:count]]


class UploadModel:
    """Predicts every upload's outcome from content alone.

    Execution sees committed state only, so content already committed is
    refused with DuplicateAsset and never ordered.  The orderer cuts a
    block every ``batch`` accepted txs (or on flush); inside a block the
    first tx for a dataId is VALID and any later one is MVCC_CONFLICT.
    """

    def __init__(self, batch: int):
        self.batch = batch
        self.committed: set[bytes] = set()
        self.committed_order: list[bytes] = []  # in commit order
        self.payloads: dict[bytes, bytes] = {}  # dataId -> payload, every upload
        self.owned: dict[int, int] = {}
        # (op, dataId, device, payload size) in arrival order
        self.pending: list[tuple[int, bytes, int, int]] = []
        self.expected: dict[int, str] = {}
        self.valid_payload_bytes = 0

    def upload(self, op: int, device: int, payload: bytes) -> str:
        """Outcome at submit time: 'DuplicateAsset' or 'queued'."""
        data_id = sha256(payload)
        self.payloads.setdefault(data_id, payload)
        if data_id in self.committed:
            self.expected[op] = "DuplicateAsset"
            return "DuplicateAsset"
        self.pending.append((op, data_id, device, len(payload)))
        if len(self.pending) >= self.batch:
            self.cut()
        return "queued"

    def pending_by_other(self, device: int) -> tuple[int, bytes, int, int] | None:
        for entry in self.pending:
            if entry[2] != device:
                return entry
        return None

    def cut(self) -> None:
        seen: set[bytes] = set()
        for op, data_id, device, size in self.pending:
            if data_id in seen:
                self.expected[op] = ledger.MVCC_CONFLICT
                continue
            seen.add(data_id)
            self.committed_order.append(data_id)
            self.expected[op] = ledger.VALID
            self.owned[device] = self.owned.get(device, 0) + 1
            self.valid_payload_bytes += size
        self.committed |= seen
        self.pending = []

    def total(self) -> int:
        return sum(self.owned.values())


class CommitTracker:
    """Commit latency: from the submit call that carried a tx to the return
    of the engine call that cut its block, detected by the height changing.
    cold_commands, whose commits happen inside CLI commands, appends its
    intervals itself."""

    def __init__(self):
        self.intervals: list[tuple[float, float]] = []  # perf_counter (start, end)
        self._pending: list[float] = []

    def call(self, engine, fn, *args, submit: bool = False):
        height = engine.height
        start = perf_counter()
        result = fn(*args)
        end = perf_counter()
        if submit:
            self._pending.append(start)
        if engine.height != height:
            self.intervals.extend((s, end) for s in self._pending)
            self._pending = []
        return result

    def latencies(self, gauge) -> list[float]:
        """Commit latencies in reference seconds (speed.Gauge)."""
        return [gauge.span(start, end) for start, end in self.intervals]


def make_upload(device: Device, clock, payload: bytes,
                asset_name: str) -> ledger.TxProposal:
    proposal = ledger.TxProposal(
        invoker=device.address,
        invoker_key=device.keypair.public_key,
        contract="asset",
        function="uploadAsset",
        args=[str(device.did), asset_name, payload.hex()],
        nonce=device.next_nonce(),
        timestamp=int(clock.now()),
    )
    return proposal.sign(device.keypair)


def login(engine, device: Device, rng: random.Random):
    """Challenge-response login against the live engine's committed state."""
    service = idm.LoginService(engine.state, engine.store, engine.clock, rng=rng)
    challenge = service.begin_login(device.did)
    signature = device.keypair.sign(idm.login_message(device.did, challenge.nonce))
    device.session = service.complete_login(device.did, challenge.nonce, signature)
    return device.session


def live_session(engine, device: Device, rng: random.Random):
    if not idm.session_is_valid(device.session, engine.clock.now()):
        login(engine, device, rng)
    return device.session


def run_cli(env: Env, *argv: str) -> tuple[int, str]:
    """One in-process ``iotid --machine`` invocation: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["--ledger-dir", str(env.ledger_dir),
                       "--keystore-dir", str(env.keystore_dir),
                       "--machine", *argv])
    return rc, out.getvalue()


def parse_cli(text: str) -> dict:
    return json.loads(text) if text.strip() else {}


def cli_json(env: Env, *argv: str) -> tuple[int, dict]:
    rc, text = run_cli(env, *argv)
    return rc, parse_cli(text)


def journal_flags(engine, first_block: int) -> dict[bytes, str]:
    """txId -> flag for every tx in blocks numbered first_block and up."""
    flags = {}
    for block in engine.read_blocks()[first_block:]:
        for tx, flag in zip(block.transactions, block.validation_flags):
            flags[tx.tx_id] = flag
    return flags


def check_uploads(model: UploadModel, observed: dict[int, object],
                  flags: dict[bytes, str]) -> list[int]:
    """Ops whose observed outcome differs from the model's prediction.

    ``observed`` maps op -> txId (accepted) or an error code string.
    """
    bad = []
    for op, got in observed.items():
        want = model.expected.get(op)
        outcome = flags.get(got) if isinstance(got, bytes) else got
        if outcome != want:
            bad.append(op)
    return bad


def check_chain(env: Env, live_state=None) -> list[str]:
    """verify_chain_file holds, and a fresh open replays to the same state."""
    problems = []
    report = ledger.verify_chain_file(env.journal())
    if not report.ok:
        problems.append(f"chain verify failed: {report.reason} at {report.bad_block}")
    if live_state is not None:
        fresh = env.open_engine()
        try:
            if fresh.state.items() != live_state.items():
                problems.append("replayed state differs from the live engine")
        finally:
            fresh.close()
    return problems


def check_cold_reader(env: Env, model: UploadModel, device: Device,
                      new_payload: bytes, height: int) -> list[str]:
    """A separate CLI user sees what the warm engine committed, and can
    extend it: chain-verify, login, list, list --mine, and an upload of
    content no workload produces."""
    problems = []
    rc, out = cli_json(env, "chain-verify")
    if rc != 0 or out.get("height") != height:
        problems.append(f"cli chain-verify: rc={rc} {out}")
    rc, out = cli_json(env, "device-login", device.name)
    if rc != 0 or out.get("did") != str(device.did):
        problems.append(f"cli device-login: rc={rc} {out}")
    rc, out = cli_json(env, "asset-list", "--mine", device.name)
    if rc != 0 or out.get("count") != model.owned.get(device.index, 0):
        problems.append(f"cli asset-list --mine: rc={rc} count={out.get('count')}")
    rc, out = cli_json(env, "asset-list")
    if rc != 0 or out.get("count") != model.total():
        problems.append(f"cli asset-list: rc={rc} count={out.get('count')}")
    path = env.root / "cold-reader.txt"
    path.write_bytes(new_payload)
    rc, out = cli_json(env, "asset-upload", device.name, str(path))
    if rc != 0 or out.get("flag") != ledger.VALID or out.get("block") != height:
        problems.append(f"cli asset-upload: rc={rc} {out}")
    return problems


def query_counts_ok(engine, model: UploadModel, devices: list[Device],
                    rng: random.Random) -> list[str]:
    """query_all_assets and query_owned_assets row counts match the model."""
    problems = []
    if len(assets.query_all_assets(engine.state)) != model.total():
        problems.append("query_all_assets row count differs from the model")
    for device in devices:
        session = live_session(engine, device, rng)
        rows = assets.query_owned_assets(engine.state, session, engine.clock.now())
        if len(rows) != model.owned.get(device.index, 0):
            problems.append(f"query_owned_assets count for {device.name}")
    return problems
