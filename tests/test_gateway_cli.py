"""Gateway commands driven through the CLI entry point.

Every invocation goes through main(argv) exactly as a shell would call
it, with machine output parsed back as JSON.
"""

import hashlib
import json
import os
import stat
from collections import namedtuple
from pathlib import Path

import pytest

from iotid.cli import main
from iotid.clock import SimClock
from iotid.gateway import Gateway, Keystore
from iotid.idm import Session
from iotid.ledger import BLOCKS_FILE, LOCK_FILE, LedgerEngine, LedgerLocked
from iotid.did import parse_did

from test_did import ADDR_01, DID_01, PUB_01, SEED_01

Result = namedtuple("Result", "code data out err")


@pytest.fixture
def env(tmp_path):
    return {"ledger": str(tmp_path / "ledger"),
            "keystore": str(tmp_path / "keys")}


def invoke(capsys, env, *argv, machine=True) -> Result:
    base = ["--ledger-dir", env["ledger"], "--keystore-dir", env["keystore"]]
    if machine:
        base.append("--machine")
    code = main(base + list(argv))
    captured = capsys.readouterr()
    data = json.loads(captured.out) if machine and captured.out.strip() else None
    return Result(code, data, captured.out, captured.err)


@pytest.fixture
def ready(capsys, env):
    """A provisioned ledger with one registered, logged-in device."""
    assert invoke(capsys, env, "network-init").code == 0
    assert invoke(capsys, env, "device-keygen", "dev1",
                  "--seed", SEED_01.hex()).code == 0
    assert invoke(capsys, env, "device-register", "dev1").code == 0
    assert invoke(capsys, env, "device-login", "dev1").code == 0
    return env


# -- provisioning ----------------------------------------------------------------


def test_network_init(capsys, env):
    result = invoke(capsys, env, "network-init")
    assert result.code == 0
    assert result.data["height"] == 1
    assert result.data["peers"] == ["peer1", "peer2", "peer3"]
    assert result.data["endorsementThreshold"] == 2
    assert len(result.data["registrars"]) == 1

    again = invoke(capsys, env, "network-init")
    assert again.code == 1
    assert again.data["error"] == "GatewayError"
    assert invoke(capsys, env, "network-init", "--force").code == 0


def test_forced_init_leaves_a_locked_ledger_intact(ready):
    # another live process holds the ledger: --force must not touch it
    ledger_dir = Path(ready["ledger"])
    journal = ledger_dir / BLOCKS_FILE
    before = journal.read_bytes()
    assert len(before.splitlines()) == 3
    (ledger_dir / LOCK_FILE).write_text(str(os.getppid()))
    gateway = Gateway(ready["ledger"], ready["keystore"])
    with pytest.raises(LedgerLocked):
        gateway.cmd_network_init(force=True)
    assert journal.read_bytes() == before


def test_keygen_is_deterministic_and_private(capsys, env):
    result = invoke(capsys, env, "device-keygen", "dev1",
                    "--seed", SEED_01.hex())
    assert result.code == 0
    assert result.data == {"name": "dev1", "did": DID_01, "address": ADDR_01,
                           "publicKey": PUB_01}
    assert SEED_01.hex() not in result.out  # private material stays on disk

    clash = invoke(capsys, env, "device-keygen", "dev1")
    assert clash.code == 1
    assert clash.data["error"] == "GatewayError"


def test_keystore_files_are_owner_only(capsys, env):
    invoke(capsys, env, "device-keygen", "dev1", "--seed", SEED_01.hex())
    keystore = Path(env["keystore"])
    assert stat.S_IMODE(keystore.stat().st_mode) == 0o700
    entry = keystore / "dev1.json"
    assert stat.S_IMODE(entry.stat().st_mode) == 0o600
    assert json.loads(entry.read_text())["seed"] == SEED_01.hex()


# -- registration and login ---------------------------------------------------------


def test_register_puts_two_transactions_on_chain(capsys, env):
    invoke(capsys, env, "network-init")
    invoke(capsys, env, "device-keygen", "dev1", "--seed", SEED_01.hex())
    result = invoke(capsys, env, "device-register", "dev1")
    assert result.code == 0
    assert result.data["did"] == DID_01
    assert result.data["createIdentity"]["flag"] == "VALID"
    assert result.data["registerDevice"]["flag"] == "VALID"
    assert result.data["registerDevice"]["block"] == \
        result.data["createIdentity"]["block"] + 1

    again = invoke(capsys, env, "device-register", "dev1")
    assert again.code == 1
    assert again.data["error"] == "IdentityExists"


def test_login_requires_registration(capsys, env):
    invoke(capsys, env, "network-init")
    invoke(capsys, env, "device-keygen", "ghost")
    result = invoke(capsys, env, "device-login", "ghost")
    assert result.code == 1
    assert result.data["error"] == "NotRegistered"


def test_login_issues_a_session(capsys, env, ready):
    result = invoke(capsys, env, "device-login", "dev1")
    assert result.code == 0
    assert result.data["did"] == DID_01
    session = Keystore(env["keystore"]).load_session("dev1")
    assert session.expires_at == result.data["expiresAt"]


# -- uploads ---------------------------------------------------------------------


def test_upload_and_dedup(capsys, env, ready, tmp_path):
    payload = b'{"d":{"temperature":20.01}}'
    source = tmp_path / "reading.txt"
    source.write_bytes(payload)

    result = invoke(capsys, env, "asset-upload", "dev1", str(source))
    assert result.code == 0
    assert result.data["flag"] == "VALID"
    assert result.data["dataId"] == hashlib.sha256(payload).hexdigest()
    assert result.data["assetName"] == "reading.txt"

    duplicate = invoke(capsys, env, "asset-upload", "dev1", str(source),
                       "--asset-name", "other-name.txt")
    assert duplicate.code == 1
    assert duplicate.data["error"] == "DuplicateAsset"
    assert duplicate.data["details"]["dataId"] == \
        hashlib.sha256(payload).hexdigest()


def test_upload_receipt_never_rereads_the_journal(capsys, env, ready,
                                                  tmp_path, monkeypatch):
    def no_journal_read(self):
        raise AssertionError("receipt re-read the journal")

    monkeypatch.setattr(LedgerEngine, "read_blocks", no_journal_read)
    source = tmp_path / "reading.txt"
    source.write_bytes(b"receipt payload")
    result = invoke(capsys, env, "asset-upload", "dev1", str(source))
    assert result.code == 0
    assert result.data["flag"] == "VALID"
    # the upload's block is the journal's last line
    journal = Path(env["ledger"]) / "blocks.jsonl"
    last = json.loads(journal.read_bytes().splitlines()[-1])
    assert result.data["block"] == last["number"]
    assert result.data["txId"] == last["transactions"][0]["txId"]


def test_upload_names_device_directory_files(capsys, env, ready, tmp_path):
    nested = tmp_path / "device1" / "3.txt"
    nested.parent.mkdir()
    nested.write_bytes(b"nested reading")
    result = invoke(capsys, env, "asset-upload", "dev1", str(nested))
    assert result.data["assetName"] == "device1/3.txt"
    assert Gateway.default_asset_name(Path("plain/7.txt")) == "7.txt"


def test_upload_without_login_rejected(capsys, env):
    invoke(capsys, env, "network-init")
    invoke(capsys, env, "device-keygen", "dev2")
    result = invoke(capsys, env, "asset-upload", "dev2", "whatever.txt")
    assert result.code == 1
    assert result.data["error"] == "NotAuthenticated"


def test_upload_missing_file_is_io_error(capsys, env, ready):
    result = invoke(capsys, env, "asset-upload", "dev1", "/no/such/file.txt")
    assert result.code == 2
    assert "io error" in result.err


# -- queries --------------------------------------------------------------------


def test_asset_list_all_and_mine(capsys, env, ready, tmp_path):
    for i in range(3):
        source = tmp_path / f"r{i}.txt"
        source.write_bytes(f"payload {i}".encode())
        invoke(capsys, env, "asset-upload", "dev1", str(source))

    listing = invoke(capsys, env, "asset-list")
    assert listing.code == 0
    assert listing.data["count"] == 3
    assert {a["assetName"] for a in listing.data["assets"]} == \
        {"r0.txt", "r1.txt", "r2.txt"}
    assert all(a["owner"] == DID_01 for a in listing.data["assets"])

    mine = invoke(capsys, env, "asset-list", "--mine", "dev1")
    assert mine.data["count"] == 3

    stranger = invoke(capsys, env, "asset-list", "--mine", "nobody")
    assert stranger.code == 1
    assert stranger.data["error"] == "NotAuthenticated"


def test_asset_list_renders_a_table(capsys, env, ready, tmp_path):
    source = tmp_path / "r.txt"
    source.write_bytes(b"table payload")
    invoke(capsys, env, "asset-upload", "dev1", str(source))
    result = invoke(capsys, env, "asset-list", machine=False)
    assert result.code == 0
    head, rule, row, footer = result.out.strip().splitlines()
    assert head.split() == ["owner", "assetName", "addedAt", "dataId"]
    assert set(rule) == {"-", " "}
    assert DID_01 in row and "r.txt" in row
    assert footer == "(1 assets)"


# -- simulator ------------------------------------------------------------------


def test_sim_run_writes_the_file_tree(capsys, env, tmp_path):
    out = tmp_path / "sensor-data"
    result = invoke(capsys, env, "sim-run", "--output", str(out))
    assert result.code == 0
    assert result.data["files"] == 50
    assert result.data["perDevice"] == {f"device{i}": 10 for i in range(1, 6)}
    assert len(list(out.rglob("*.txt"))) == 50


# -- integrity ------------------------------------------------------------------


def test_chain_verify_exit_codes(capsys, env):
    missing = invoke(capsys, env, "chain-verify")
    assert missing.code == 1
    assert missing.data["reason"] == "no journal file"

    invoke(capsys, env, "network-init")
    intact = invoke(capsys, env, "chain-verify")
    assert intact.code == 0
    assert intact.data == {"ok": True, "height": 1, "badBlock": None,
                           "reason": None}

    journal = Path(env["ledger"]) / "blocks.jsonl"
    raw = bytearray(journal.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    journal.write_bytes(bytes(raw))
    broken = invoke(capsys, env, "chain-verify")
    assert broken.code == 1
    assert broken.data["ok"] is False
    assert broken.data["badBlock"] == 0


# -- the scenario ----------------------------------------------------------------


def test_scenario_single_device(capsys, env, tmp_path):
    result = invoke(capsys, env, "scenario", "--devices", "1",
                    "--output", str(tmp_path / "data"))
    assert result.code == 0
    report = result.data
    assert report["ok"] is True
    assert report["registered"] == 1
    assert report["simFiles"] == 10
    assert report["uploaded"] == 10
    assert report["duplicatesRejected"] == 1
    assert report["queryAllCount"] == 10
    assert report["queryOwnedCounts"] == {"device1": 10}
    assert report["verifyChain"]["ok"] is True
    # the rejection names the surviving upload
    first = (tmp_path / "data" / "device1" / "1.txt").read_bytes()
    assert report["duplicateDataIds"] == [hashlib.sha256(first).hexdigest()]

    rerun = invoke(capsys, env, "scenario", "--devices", "1")
    assert rerun.code == 1
    assert rerun.data["error"] == "GatewayError"
    assert invoke(capsys, env, "scenario", "--devices", "1", "--force").code == 0


# the default scenario's journal, fixed so that refactors prove they leave
# every committed byte unchanged; update only with a deliberate format change
SCENARIO_JOURNAL_SHA256 = \
    "6787047ca9eaff3d2ed9dda7148a0f0e0d6d0a977ff6d2617d5ca91a353060d5"


def test_scenario_journal_is_golden(tmp_path):
    gateway = Gateway(tmp_path / "ledger", tmp_path / "keys", clock=SimClock())
    assert gateway.cmd_scenario()["ok"] is True
    journal = (tmp_path / "ledger" / "blocks.jsonl").read_bytes()
    assert hashlib.sha256(journal).hexdigest() == SCENARIO_JOURNAL_SHA256


def test_scenario_keeps_the_first_of_colliding_readings(tmp_path):
    # at seed 192 devices 1 and 3 emit byte-identical second readings
    gateway = Gateway(tmp_path / "ledger", tmp_path / "keys", clock=SimClock())
    report = gateway.cmd_scenario(seed=192)
    data = tmp_path / "ledger" / "sensor-data"
    assert (data / "device1" / "2.txt").read_bytes() == \
        (data / "device3" / "2.txt").read_bytes()
    assert report["ok"] is True
    assert report["simFiles"] == 50
    assert report["uploaded"] == report["queryAllCount"] == 49
    assert report["queryOwnedCounts"] == {"device1": 10, "device2": 10,
                                          "device3": 9, "device4": 10,
                                          "device5": 10}


# -- plumbing --------------------------------------------------------------------


def test_usage_errors_exit_2(capsys, env):
    with pytest.raises(SystemExit) as exc:
        invoke(capsys, env, "no-such-command")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        invoke(capsys, env, "device-keygen", "dev1", "--seed", "zz")
    assert exc.value.code == 2


def test_bench_command_is_retired(capsys, env):
    # the benchmark of record is perfbench/run.py
    with pytest.raises(SystemExit) as exc:
        invoke(capsys, env, "bench")
    assert exc.value.code == 2


def test_directories_come_from_environment(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("IOTID_LEDGER_DIR", str(tmp_path / "env-ledger"))
    monkeypatch.setenv("IOTID_KEYSTORE_DIR", str(tmp_path / "env-keys"))
    assert main(["--machine", "network-init"]) == 0
    capsys.readouterr()
    assert (tmp_path / "env-ledger" / "blocks.jsonl").exists()


def test_nonce_counters_are_monotonic(tmp_path):
    keystore = Keystore(tmp_path / "keys")
    values = [keystore.next_nonce("devA") for _ in range(3)]
    assert values == [n.to_bytes(32, "big") for n in (1, 2, 3)]
    assert keystore.next_nonce("devB") == (1).to_bytes(32, "big")


def test_torn_keystore_write_keeps_the_old_counters(tmp_path, monkeypatch):
    keystore = Keystore(tmp_path / "keys")
    keystore.next_nonce("devA")
    keystore.next_nonce("devA")
    nonces = keystore.directory / "nonces.json"
    before = sorted(os.listdir(keystore.directory))
    real_fdopen = os.fdopen

    class TornFile:
        """Writes half of what it is given, then fails as a full disk would."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "fdopen", lambda fd, *a, **kw: TornFile(real_fdopen(fd, *a, **kw)))
    with pytest.raises(OSError):
        keystore.next_nonce("devA")
    monkeypatch.undo()

    assert json.loads(nonces.read_text()) == {"devA": 2}
    assert sorted(os.listdir(keystore.directory)) == before  # no temp file left
    assert keystore.next_nonce("devA") == (3).to_bytes(32, "big")
    assert stat.S_IMODE(nonces.stat().st_mode) == 0o600


def test_session_cache_round_trip(tmp_path):
    keystore = Keystore(tmp_path / "keys")
    assert keystore.load_session("dev1") is None
    session = Session(did=parse_did(DID_01), expires_at=4000)
    keystore.save_session("dev1", session)
    assert keystore.load_session("dev1") == session
    assert keystore.names() == []  # sessions are not key entries
