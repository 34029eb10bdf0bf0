"""Gateway commands driven through the CLI entry point.

Every invocation goes through main(argv) exactly as a shell would call
it, with machine output parsed back as JSON.
"""

import argparse
import errno
import hashlib
import inspect
import json
import os
import re
import shutil
import stat
import subprocess
import sys
import time
from collections import Counter, namedtuple
from pathlib import Path
from types import SimpleNamespace

import pytest

from iotid.assets import query_all_assets, query_owned_assets
from iotid.cli import build_parser, main
from iotid.clock import SimClock, WallClock
from iotid.codec import canonical_json
from iotid.gateway import Gateway, GatewayError, Keystore, default_contracts
from iotid.idm import Session, resolve_did
from iotid import did as did_module
from iotid import idm as idm_module
from iotid import journal as journal_module
from iotid import ledger as ledger_module
from iotid import state as state_module
from iotid.journal import BLOCKS_FILE, VALID, Block, GenesisConfig, UnsupportedFormat
from iotid.ledger import STATE_FILE, ContractError, LedgerEngine, LedgerLocked
from iotid.state import KEY_ASSET, KEY_DID
from iotid.did import Address, derive_address, parse_did
from iotid.sim import FlowConfig
from iotid.store import LOG_FILE, ContentHash, ContentStore

from test_did import ADDR_01, DID_01, PUB_01, SEED_01
from test_ledger import _rewrite_block
from util import (DEEP_JSON, MANUFACTURER, Principal, create_identity, deep_config,
                  foreign_hold, lock_is_free, registrar_principal, seeded_keypair,
                  upload_payload)

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
    assert list((Path(env["ledger"]) / "objects").iterdir()) == []

    again = invoke(capsys, env, "network-init")
    assert again.code == 1
    assert again.data["error"] == "GatewayError"
    assert invoke(capsys, env, "network-init", "--force").code == 0


def test_forced_init_leaves_a_locked_ledger_intact(ready):
    # another holder has the ledger locked: --force must not touch it
    ledger_dir = Path(ready["ledger"])
    journal = ledger_dir / BLOCKS_FILE
    before = journal.read_bytes()
    assert len(before.splitlines()) == 3
    gateway = Gateway(ready["ledger"], ready["keystore"])
    with foreign_hold(ledger_dir), pytest.raises(LedgerLocked):
        gateway.cmd_network_init(force=True)
    assert journal.read_bytes() == before


# block 0 of the default network as earlier versions wrote it: its config
# carries batchTimeoutSeconds and no format number, and its rwset
# config/peers and config/policy
OLD_BLOCK0 = Path(__file__).parent / "golden" / "parent_block0.jsonl"
# `iotid scenario --devices 2 --duration 60` with every roster peer
# endorsing, where the 2-of-3 policy asks two peers: three endorsements on
# each transaction after block 0. The _v1 journal is of format 1, as
# earlier versions wrote it, with docHash DID records and nonce/ keys; the
# _v2 journal is of format 2, which stored each txId and invoker address
THREE_ENDORSEMENTS = Path(__file__).parent / "golden" / "three_endorsements.jsonl"
THREE_ENDORSEMENTS_V1 = Path(__file__).parent / "golden" / "three_endorsements_v1.jsonl"
THREE_ENDORSEMENTS_V2 = Path(__file__).parent / "golden" / "three_endorsements_v2.jsonl"


@pytest.mark.parametrize("journal, found", [(OLD_BLOCK0, 1), (THREE_ENDORSEMENTS_V1, 1),
                                            (THREE_ENDORSEMENTS_V2, 2)],
                         ids=["block0", "scenario", "scenario_v2"])
def test_a_ledger_from_an_earlier_version_is_refused_by_name(capsys, env, journal, found):
    # a format 1 journal holds hex write values that read as text, and a
    # format 2 one bodies whose txIds and invokers it stores, so each is
    # refused at block 0, by open and by chain-verify, and left as it was
    ledger_dir = Path(env["ledger"])
    ledger_dir.mkdir()
    (ledger_dir / BLOCKS_FILE).write_bytes(journal.read_bytes())
    with pytest.raises(UnsupportedFormat) as refused:
        Gateway(ledger_dir, env["keystore"])._open_engine()
    assert (refused.value.found, refused.value.expected) == (found, 3)
    reason = f"journal format {found}, where this program reads format 3"
    assert (refused.value.index, refused.value.reason) == (0, reason)
    assert lock_is_free(ledger_dir)
    assert invoke(capsys, env, "device-keygen", "dev1", "--seed", SEED_01.hex()).code == 0
    for argv in (["device-register", "dev1"], ["asset-list"]):
        result = invoke(capsys, env, *argv)
        assert (result.code, result.data["error"]) == (1, "UnsupportedJournal"), argv
        assert result.data["message"] == f"unsupported journal at block 0: {reason}"
    result = invoke(capsys, env, "chain-verify")
    assert (result.code, result.data) == (1, {"ok": False, "height": 0, "badBlock": 0,
                                              "reason": reason})
    human = invoke(capsys, env, "chain-verify", machine=False)
    assert (human.code, human.out) == (
        1, f"ok: false\nheight: 0\nbadBlock: 0\nreason: {reason}\n")
    assert (ledger_dir / BLOCKS_FILE).read_bytes() == journal.read_bytes()
    assert not (ledger_dir / STATE_FILE).exists()


def test_a_journal_with_three_endorsements_per_transaction_still_opens(capsys, env, tmp_path):
    ledger_dir = Path(env["ledger"])
    ledger_dir.mkdir()
    (ledger_dir / BLOCKS_FILE).write_bytes(THREE_ENDORSEMENTS.read_bytes())
    with Gateway(ledger_dir, env["keystore"])._open_engine() as engine:  # replays from block 0
        assert engine.height == 9
        blocks = engine.read_blocks()
        assert {len(tx.endorsements) for block in blocks[1:] for tx in block.transactions} == {3}
        assert all(block.validation_flags == [VALID] for block in blocks)
    assert invoke(capsys, env, "chain-verify").data["ok"] is True
    listing = invoke(capsys, env, "asset-list").data
    assert listing["count"] == 4
    owners = Counter(asset["owner"] for asset in listing["assets"])
    assert sorted(owners.values()) == [2, 2]

    # blocks with two endorsements follow the blocks with three
    assert invoke(capsys, env, "device-keygen", "dev1", "--seed", SEED_01.hex()).code == 0
    assert invoke(capsys, env, "device-register", "dev1").code == 0
    assert invoke(capsys, env, "device-login", "dev1").code == 0
    source = tmp_path / "reading.txt"
    source.write_bytes(b'{"d":{"temperature":20.01}}')
    assert invoke(capsys, env, "asset-upload", "dev1", str(source)).data["flag"] == "VALID"
    with Gateway(ledger_dir, env["keystore"])._open_engine() as engine:
        assert engine.height == 12
        assert [[e.peer_id for e in block.transactions[0].endorsements]
                for block in engine.read_blocks()[9:]] == [["peer1", "peer2"]] * 3
    assert invoke(capsys, env, "chain-verify").data == {
        "ok": True, "height": 12, "badBlock": None, "reason": None}
    assert invoke(capsys, env, "asset-list").data["count"] == 5
    assert invoke(capsys, env, "asset-list", "--mine", "dev1").data["count"] == 1


def test_block0_writes_only_the_config_key_a_contract_reads(capsys, env):
    assert invoke(capsys, env, "network-init").code == 0
    with Gateway(env["ledger"], env["keystore"])._open_engine() as engine:
        (config_tx,) = engine.read_blocks()[0].transactions
    assert [key for key, _ in config_tx.rwset.writes] == ["config/registrars"]
    assert "batchTimeoutSeconds" not in json.loads(config_tx.proposal.args[0])


SEED_HEX = "00" * 32
# three peers, so that a threshold read as 1 would still be in range
ROSTER = ", ".join(f'{{"id": "peer{n}", "seed": "{n:064x}"}}' for n in (1, 2, 3))
NUMBERED_ROSTER = ROSTER.replace('"peer1"', "5")  # peer1's id a JSON number
# each is refused, where int() or float() used to let it through
BAD_FIELDS = {
    "block-txs-zero": '"maxBlockTxs": 0',
    "block-txs-fractional": '"maxBlockTxs": 2.7',
    "threshold-true": '"endorsementThreshold": true',
    "threshold-fractional": '"endorsementThreshold": 2.0',
}


@pytest.mark.parametrize("genesis", [
    "{}", '{"peers": [{"id": "peer1"}]}', '{"peers": "peer1"}', "[]", "{",
    '{"peers": [{"id": "peer1", "seed": "00"}]}',
    f'{{"peers": [{{"id": "peer1", "seed": "{SEED_HEX}"}}], "endorsementThreshold": 2}}',
    f'{{"peers": [{{"id": "peer1", "seed": "{SEED_HEX}"}}],'
    f' "registrars": [{{"name": "r", "seed": "00"}}]}}',
    *[f'{{"peers": [{ROSTER}], {field}}}' for field in BAD_FIELDS.values()],
    # a name must be a JSON string: a number would sign endorsements as "peerId":5
    f'{{"peers": [{NUMBERED_ROSTER}]}}',
    f'{{"peers": [{ROSTER}], "registrars": [{{"name": 5, "seed": "{SEED_HEX}"}}]}}',
], ids=["no-peers", "peer-without-seed", "peers-not-a-list", "not-an-object",
        "not-json", "short-peer-seed", "threshold-above-roster", "short-registrar-seed",
        *BAD_FIELDS, "peer-id-a-number", "registrar-name-a-number"])
def test_a_malformed_genesis_file_is_a_gateway_error(capsys, env, tmp_path, genesis):
    config = tmp_path / "genesis.json"
    config.write_text(genesis)
    result = invoke(capsys, env, "network-init", "--genesis", str(config))
    assert (result.code, result.data["error"]) == (1, "GatewayError")
    assert not Path(env["ledger"]).exists()  # refused before any engine opened
    assert invoke(capsys, env, "network-init").code == 0
    journal = Path(env["ledger"]) / BLOCKS_FILE
    before = journal.read_bytes()
    result = invoke(capsys, env, "network-init", "--genesis", str(config), "--force")
    assert (result.code, result.data["error"]) == (1, "GatewayError")
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


def test_a_registration_cut_short_resumes_at_the_device(capsys, env, monkeypatch):
    # the disk fills on the second block: the identity is on chain, and
    # no device is registered for it
    invoke(capsys, env, "network-init")
    invoke(capsys, env, "device-keygen", "dev1", "--seed", SEED_01.hex())
    submit, submitted = Gateway._submit, []

    def full_disk_after_one(engine, proposal):
        if submitted:
            raise OSError(errno.ENOSPC, "No space left on device")
        submitted.append(proposal.function)
        return submit(engine, proposal)

    monkeypatch.setattr(Gateway, "_submit", staticmethod(full_disk_after_one))
    assert invoke(capsys, env, "device-register", "dev1").code == 2
    monkeypatch.undo()
    assert submitted == ["createIdentity"]
    login = invoke(capsys, env, "device-login", "dev1")
    assert (login.code, login.data["error"]) == (1, "NotRegistered")

    resumed = invoke(capsys, env, "device-register", "dev1")
    assert resumed.code == 0
    assert resumed.data["createIdentity"] is None
    assert (resumed.data["registerDevice"]["flag"], resumed.data["registerDevice"]["block"]) \
        == ("VALID", 2)
    assert invoke(capsys, env, "device-login", "dev1").code == 0
    assert invoke(capsys, env, "chain-verify").data["height"] == 3
    again = invoke(capsys, env, "device-register", "dev1")
    assert (again.code, again.data["error"]) == (1, "IdentityExists")


def test_an_identity_bound_to_another_owner_is_not_resumed(capsys, env):
    invoke(capsys, env, "network-init")
    invoke(capsys, env, "device-keygen", "dev1", "--seed", SEED_01.hex())
    with Gateway(env["ledger"], env["keystore"])._open_engine() as engine:
        create_identity(engine, registrar_principal(engine),
                        Principal(keypair=seeded_keypair(1)),
                        owner=Principal.from_seed(2).address)
    journal = (Path(env["ledger"]) / BLOCKS_FILE).read_bytes()
    result = invoke(capsys, env, "device-register", "dev1")
    assert (result.code, result.data["error"]) == (1, "IdentityExists")
    assert (Path(env["ledger"]) / BLOCKS_FILE).read_bytes() == journal
    login = invoke(capsys, env, "device-login", "dev1")
    assert (login.code, login.data["error"]) == (1, "NotRegistered")


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


@pytest.mark.parametrize("by", ["file-name", "asset-name"])
def test_an_upload_named_in_bytes_that_are_not_utf8_is_refused(capsys, ready, tmp_path, by):
    # POSIX hands Python an argv byte that is not UTF-8 as a lone surrogate:
    # the contract refuses the record rather than write one no listing reads
    first = tmp_path / "first.txt"
    first.write_bytes(b"first")
    assert invoke(capsys, ready, "asset-upload", "dev1", str(first)).code == 0
    ledger_dir = Path(ready["ledger"])
    journal = (ledger_dir / BLOCKS_FILE).read_bytes()
    objects = sorted(p.name for p in (ledger_dir / "objects").iterdir())
    source = tmp_path / (os.fsdecode(b"\xff.txt") if by == "file-name" else "second.txt")
    source.write_bytes(b"second")
    rename = ["--asset-name", os.fsdecode(b"r\xe9ading")] if by == "asset-name" else []
    result = invoke(capsys, ready, "asset-upload", "dev1", str(source), *rename)
    assert (result.code, result.data["error"]) == (1, "BadArguments")
    assert result.out == canonical_json(result.data).decode() + "\n"
    assert (ledger_dir / BLOCKS_FILE).read_bytes() == journal
    assert sorted(p.name for p in (ledger_dir / "objects").iterdir()) == objects
    listing = invoke(capsys, ready, "asset-list")
    assert (listing.code, [row["assetName"] for row in listing.data["assets"]]) == \
        (0, ["first.txt"])
    assert invoke(capsys, ready, "asset-list", "--mine", "dev1").data["count"] == 1


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
    # the upload's block is the journal's last line, and its txId the hash of
    # the transaction's body as stored
    journal = Path(env["ledger"]) / "blocks.jsonl"
    last = journal.read_bytes().splitlines()[-1]
    assert result.data["block"] == json.loads(last)["number"]
    assert result.data["txId"] == hashlib.sha256(stored_bodies(last)[0]).hexdigest()


def test_cold_commands_parse_only_the_keys_they_sign_or_check_with(capsys, env, ready,
                                                                   tmp_path, monkeypatch):
    # each private key is parsed once, when its keypair is derived; a read
    # derives no peer key, and an upload derives the device's key and the
    # keys of the two endorsers, whose own endorsements validation counts
    parsed = []
    parse = did_module.Ed25519PrivateKey.from_private_bytes
    monkeypatch.setattr(did_module, "Ed25519PrivateKey", SimpleNamespace(
        from_private_bytes=lambda seed: parsed.append(seed) or parse(seed)))
    assert invoke(capsys, env, "asset-list").code == 0
    assert parsed == []
    assert invoke(capsys, env, "device-login", "dev1").code == 0
    assert parsed == [SEED_01]
    parsed.clear()
    source = tmp_path / "reading.txt"
    source.write_bytes(b"one cold upload")
    assert invoke(capsys, env, "asset-upload", "dev1", str(source)).data["flag"] == "VALID"
    peer_seeds = [p.seed for p in GenesisConfig.default().peers[:2]]
    assert sorted(parsed) == sorted([SEED_01, *peer_seeds])
    # a new key is parsed once, for its DID, and its entry keeps that keypair
    parsed.clear()
    seed = bytes(range(32))
    assert invoke(capsys, env, "device-keygen", "dev2", "--seed", seed.hex()).code == 0
    assert parsed == [seed]


def test_a_cold_upload_verifies_only_its_proposal(capsys, env, ready, tmp_path, monkeypatch):
    # the upload's engine made both endorsements, so validation counts them
    # without a verify: the one Ed25519 verify is the device's proposal
    checks = []
    verify = did_module.verify_signature
    for module in (did_module, idm_module, ledger_module):
        monkeypatch.setattr(module, "verify_signature",
                            lambda *args, name=module.__name__:
                            checks.append((name, args[0].hex())) or verify(*args))
    source = tmp_path / "reading.txt"
    source.write_bytes(b"one verified upload")
    assert invoke(capsys, env, "asset-upload", "dev1", str(source)).data["flag"] == "VALID"
    assert checks == [("iotid.ledger", PUB_01)]


def test_upload_names_device_directory_files(capsys, env, ready, tmp_path):
    nested = tmp_path / "device1" / "3.txt"
    nested.parent.mkdir()
    nested.write_bytes(b"nested reading")
    result = invoke(capsys, env, "asset-upload", "dev1", str(nested))
    assert result.data["assetName"] == "device1/3.txt"
    assert Gateway.default_asset_name(Path("plain/7.txt")) == "7.txt"


def test_a_device_directory_name_with_a_trailing_newline_names_no_asset():
    # "$" would match before the newline
    assert Gateway.default_asset_name(Path("device1\n/3.txt")) == "3.txt"


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


def test_asset_list_mine_checks_the_session_before_opening_the_ledger(
        capsys, env, ready, monkeypatch):
    def no_open(*args, **kwargs):
        raise AssertionError("the ledger was opened")

    monkeypatch.setattr(LedgerEngine, "open", no_open)
    result = invoke(capsys, env, "asset-list", "--mine", "nobody")
    assert result.code == 1
    assert result.data["error"] == "NotAuthenticated"


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


def test_human_output_and_human_errors(capsys, env, ready, tmp_path):
    source = tmp_path / "r.txt"
    source.write_bytes(b"human payload")
    data_id = hashlib.sha256(b"human payload").hexdigest()
    # one `key: value` line per field, an object as one sorted JSON value
    result = invoke(capsys, env, "asset-upload", "dev1", str(source), machine=False)
    assert result.code == 0
    fields = dict(line.split(": ", 1) for line in result.out.splitlines())
    assert (fields["name"], fields["assetName"], fields["dataId"], fields["flag"]) == \
        ("dev1", "r.txt", data_id, "VALID")
    invoke(capsys, env, "device-keygen", "dev2")
    result = invoke(capsys, env, "device-register", "dev2", machine=False)
    fields = dict(line.split(": ", 1) for line in result.out.splitlines())
    assert json.loads(fields["registerDevice"])["flag"] == "VALID"
    # an error is `error[Code]: message` on stderr with exit 1, and a
    # contract error's details follow as one sorted JSON line
    result = invoke(capsys, env, "asset-upload", "dev1", str(source), machine=False)
    assert (result.code, result.out) == (1, "")
    message, details = result.err.splitlines()
    assert message.startswith("error[DuplicateAsset]: ")
    assert details == json.dumps({"dataId": data_id}, sort_keys=True)
    result = invoke(capsys, env, "device-login", "ghost", machine=False)
    assert (result.code, result.out) == (1, "")
    assert result.err.startswith("error[GatewayError]: ")
    assert len(result.err.splitlines()) == 1
    # a value that is no string prints as JSON at the top level too, as it
    # does nested
    result = invoke(capsys, env, "chain-verify", machine=False)
    assert (result.code, result.out) == (0, "ok: true\nheight: 6\nbadBlock: null\nreason: null\n")


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

    # a torn last record: chain-verify names it, and open cuts it off
    assert invoke(capsys, env, "device-keygen", "dev1", "--seed", SEED_01.hex()).code == 0
    assert invoke(capsys, env, "device-register", "dev1").code == 0
    journal = Path(env["ledger"]) / "blocks.jsonl"
    whole = journal.read_bytes()
    last = len(whole.splitlines()) - 1
    journal.write_bytes(whole[:-1])
    torn = invoke(capsys, env, "chain-verify")
    assert torn.code == 1
    assert torn.data == {"ok": False, "height": last, "badBlock": last,
                         "reason": "unterminated last record"}
    assert invoke(capsys, env, "asset-list").code == 0
    assert journal.read_bytes() == whole[:whole.rindex(b"\n", 0, -1) + 1]

    raw = bytearray(journal.read_bytes())
    raw[raw.index(b"\n") // 2] ^= 0x01
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
# (the last: journal format 3, which stores no txId and no invoker address)
SCENARIO_JOURNAL_SHA256 = \
    "b83be409acbbe8fd96dcd62812dbf3be24a13cc8b48111e78fc4990dc816aeb5"


def scenario_journal(base: Path) -> bytes:
    """The default scenario's journal, run under ``base``, checked against the golden digest."""
    gateway = Gateway(base / "ledger", base / "keys", clock=SimClock())
    assert gateway.cmd_scenario()["ok"] is True
    journal = (base / "ledger" / BLOCKS_FILE).read_bytes()
    assert hashlib.sha256(journal).hexdigest() == SCENARIO_JOURNAL_SHA256
    return journal


def test_scenario_journal_is_golden(tmp_path):
    scenario_journal(tmp_path)


# the listings of the default scenario's ledger, fixed so that a change to
# how queries read the store proves it leaves every printed byte unchanged
LISTING_SHA256 = {
    "machine": "2913375a8bc78c22a718059ab79cd75cafa161b81d71dffb1e083b9d9a492fb5",
    "mine": "4fd8fe2406f193cfd4ba8beccec49e6dc1ca1b49746d2e754e915c3cfeb7f255",
    "table": "94acb526a75faa240f5a6b74cc3bc86ebd93c6d7385f6563e0993279d39e6cb5",
}


def test_a_new_keystore_signs_against_the_scenario_ledger(capsys, tmp_path):
    # the registrar's nonces in a new keystore follow the five the
    # scenario's registrations used
    scenario_journal(tmp_path)
    env = {"ledger": str(tmp_path / "ledger"), "keystore": str(tmp_path / "new-keys")}
    source = tmp_path / "reading.txt"
    source.write_bytes(b"a reading")
    for command in (["device-keygen", "dev1"], ["device-register", "dev1"],
                    ["device-login", "dev1"], ["asset-upload", "dev1", str(source)]):
        assert invoke(capsys, env, *command).code == 0, command
    create = read_blocks(tmp_path / "ledger")[-3].transactions[0].proposal
    assert (create.function, create.nonce) == ("createIdentity", (6).to_bytes(32, "big"))


def test_the_scenario_listings_are_golden(capsys, tmp_path, monkeypatch):
    scenario_journal(tmp_path)
    kept, listing = [], state_module._Listing
    monkeypatch.setattr(state_module, "_Listing", lambda rows: kept.append(rows) or listing(rows))
    base = ["--ledger-dir", str(tmp_path / "ledger"), "--keystore-dir", str(tmp_path / "keys")]
    # the scenario's sessions lived on its simulated clock: log in on the wall clock
    assert main([*base, "device-login", "device3"]) == 0
    capsys.readouterr()
    digests = {}
    for name, argv in (("machine", ["--machine", "asset-list"]),
                       ("mine", ["--machine", "asset-list", "--mine", "device3"]),
                       ("table", ["asset-list"])):
        assert main([*base, *argv]) == 0
        digests[name] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == LISTING_SHA256
    assert kept == []  # a one-shot listing reads the store once and keeps no rows


def stored_bodies(record: bytes) -> list[bytes]:
    """Each transaction's ``{"proposal":…,"rwset":…}`` as ``record`` stores it: from
    its ``"proposal"`` key, which no escaped string holds, to the brace that
    closes the transaction."""
    end = re.compile(rb'\},\{"endorsements":|\}\],"validationFlags":')
    return [b"{" + record[key.start():end.search(record, key.end()).start() + 1]
            for key in re.finditer(rb'"proposal":', record)]


def read_blocks(ledger: Path) -> list[Block]:
    with LedgerEngine.open(ledger, ContentStore(ledger / "objects"), {}) as engine:
        return engine.read_blocks()


def genesis_of(block: Block) -> GenesisConfig:
    """The network config that block 0's one transaction carries as its argument."""
    return GenesisConfig.from_dict(json.loads(block.transactions[0].proposal.args[0]))


def test_a_fresh_engine_revalidates_the_golden_journal(tmp_path, monkeypatch):
    # an engine that endorsed none of the scenario's transactions verifies
    # every endorsement it counts; block by block it must give the flags
    # the journal holds and, committing them, write the journal again. It
    # derives a peer's key only to check that peer's endorsements: exactly
    # the keys of the first threshold peers of the roster, once each
    journal = scenario_journal(tmp_path)
    blocks = read_blocks(tmp_path / "ledger")
    # each block read back encodes to its record, each txId is the hash of its
    # body as stored, and each invoker the address of its key, block 0's too
    records = journal.splitlines(keepends=True)
    assert [block.encode()[0] + b"\n" for block in blocks] == records
    assert [[tx.tx_id for tx in block.transactions] for block in blocks] == \
        [[hashlib.sha256(body).digest() for body in stored_bodies(record)] for record in records]
    assert all(tx.proposal.invoker == derive_address(tx.proposal.invoker_key)
               for block in blocks for tx in block.transactions)
    config = genesis_of(blocks[0])
    endorsers = [peer.seed for peer in config.peers][:config.threshold]
    assert len(endorsers) < len(config.peers)
    derived, derive = [], journal_module.generate_keypair
    monkeypatch.setattr(journal_module, "generate_keypair",
                        lambda seed: derived.append(seed) or derive(seed))
    copy = tmp_path / "copy"
    copy.mkdir()
    (copy / BLOCKS_FILE).write_bytes(journal[:journal.index(b"\n") + 1])
    with LedgerEngine.open(copy, ContentStore(tmp_path / "objects"), {}) as engine:
        for block in blocks[1:]:
            flags = engine.validate_block(block)
            assert flags == block.validation_flags, f"block {block.number}"
            engine.commit_block(block)
    assert (copy / BLOCKS_FILE).read_bytes() == journal
    assert derived == endorsers


def endorsed_otherwise(ledger: Path) -> tuple[list[str], list[tuple[int, int]]]:
    """The peers that must endorse each transaction after block 0, in order:
    the first ``threshold`` of the roster; and ``(block, tx index)`` of each
    transaction whose endorsers are not exactly those."""
    blocks = read_blocks(ledger)
    config = genesis_of(blocks[0])
    want = [peer.name for peer in config.peers][:config.threshold]
    return want, [(block.number, index) for block in blocks[1:]
                  for index, tx in enumerate(block.transactions)
                  if [e.peer_id for e in tx.endorsements] != want]


def test_every_transaction_is_endorsed_by_the_first_threshold_peers(tmp_path):
    journal = scenario_journal(tmp_path)
    assert len(journal.splitlines()) >= 2
    assert endorsed_otherwise(tmp_path / "ledger") == (["peer1", "peer2"], [])
    # a journal from when every roster peer endorsed fails on each of them
    earlier = tmp_path / "earlier"
    earlier.mkdir()
    shutil.copy(THREE_ENDORSEMENTS, earlier / BLOCKS_FILE)
    height = len(THREE_ENDORSEMENTS.read_bytes().splitlines())
    assert endorsed_otherwise(earlier)[1] == [(n, 0) for n in range(1, height)]


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


def test_a_cli_scenario_runs_on_the_simulated_clock(capsys, tmp_path, monkeypatch):
    # main builds a wall-clock gateway; two runs whose wall clocks are a
    # million seconds apart give the same bytes only on the scenario's SimClock
    runs = []
    for offset in (0, 10**6):
        monkeypatch.setattr(WallClock, "now", lambda self, offset=offset: time.time() + offset)
        run = tmp_path / str(offset)
        run.mkdir()
        monkeypatch.chdir(run)
        assert main(["--ledger-dir", "ledger", "--keystore-dir", "keys", "--machine",
                     "scenario", "--seed", "3"]) == 0
        runs.append((capsys.readouterr().out, Path("ledger", BLOCKS_FILE).read_bytes()))
    assert json.loads(runs[0][0])["ok"] is True
    assert runs[0] == runs[1]


def test_a_duplicate_attempt_refused_otherwise_ends_the_scenario(tmp_path, monkeypatch):
    # the scenario's second upload of a reading must be refused as a
    # DuplicateAsset; any other contract error ends the scenario
    gateway = Gateway(tmp_path / "ledger", tmp_path / "keys", clock=SimClock())
    upload, uploaded = Gateway.cmd_asset_upload, set()

    def refuse_a_repeat(self, name, path, **kwargs):
        if path in uploaded:
            raise ContractError("Unauthorized", "a refusal other than DuplicateAsset")
        uploaded.add(path)
        return upload(self, name, path, **kwargs)

    monkeypatch.setattr(Gateway, "cmd_asset_upload", refuse_a_repeat)
    with pytest.raises(ContractError) as raised:
        gateway.cmd_scenario(device_count=1, duration_seconds=60)
    assert raised.value.code == "Unauthorized"


def test_a_wrong_owned_count_fails_the_scenario(tmp_path, monkeypatch):
    # one device's listing one short: the chain verifies, the report does not
    gateway = Gateway(tmp_path / "ledger", tmp_path / "keys", clock=SimClock())
    listing = Gateway.cmd_asset_list

    def one_short(self, mine=None):
        result = listing(self, mine=mine)
        return {**result, "count": result["count"] - 1} if mine == "device2" else result

    monkeypatch.setattr(Gateway, "cmd_asset_list", one_short)
    report = gateway.cmd_scenario(device_count=2, duration_seconds=60)
    assert report["verifyChain"]["ok"] is True
    assert report["ok"] is False


# -- plumbing --------------------------------------------------------------------


def test_usage_errors_exit_2(capsys, env):
    with pytest.raises(SystemExit) as exc:
        invoke(capsys, env, "no-such-command")
    assert exc.value.code == 2
    for seed in ("zz", SEED_01.hex()[:-2], SEED_01.hex() + "00"):  # not hex; 31 and 33 bytes
        with pytest.raises(SystemExit) as exc:
            invoke(capsys, env, "device-keygen", "dev1", "--seed", seed)
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


def test_each_call_reads_the_directories_from_the_environment(capsys, tmp_path, monkeypatch):
    # the parser is built once per process, and each call reads the
    # environment when it parses
    for name in ("first", "second"):
        monkeypatch.setenv("IOTID_LEDGER_DIR", str(tmp_path / name / "ledger"))
        monkeypatch.setenv("IOTID_KEYSTORE_DIR", str(tmp_path / name / "keys"))
        assert main(["--machine", "network-init"]) == 0
        assert main(["--machine", "device-keygen", "dev1"]) == 0
    capsys.readouterr()
    for name in ("first", "second"):
        assert (tmp_path / name / "ledger" / "blocks.jsonl").exists()
        assert (tmp_path / name / "keys" / "dev1.json").exists()


@pytest.mark.parametrize("keystore", ["absent", "below-a-file"])
def test_commands_that_read_no_key_leave_the_keystore_alone(capsys, env, tmp_path, keystore):
    assert invoke(capsys, env, "network-init").code == 0
    (tmp_path / "afile").write_bytes(b"")
    keys = tmp_path / ("afile/ks" if keystore == "below-a-file" else "no-keys")
    before = sorted(tmp_path.rglob("*"))
    for command in ("chain-verify", "asset-list"):
        assert invoke(capsys, {**env, "keystore": str(keys)}, command).code == 0, command
    assert sorted(tmp_path.rglob("*")) == before


def test_commands_on_a_missing_ledger_create_no_directory(capsys, ready, tmp_path):
    source = tmp_path / "reading.txt"
    source.write_bytes(b"a reading")
    missing = tmp_path / "nope"
    for command in (["asset-list"], ["device-login", "dev1"],
                    ["asset-upload", "dev1", str(source)]):
        result = invoke(capsys, {**ready, "ledger": str(missing)}, *command)
        assert (result.code, result.data["error"]) == (1, "LedgerError"), command
    assert not missing.exists()


def test_nonce_counters_are_monotonic(capsys, ready, tmp_path):
    # each principal's nonces count its committed proposals from 1; the
    # refused duplicate upload spends none
    source, codes = tmp_path / "reading.txt", []
    for payload in (b"one", b"two", b"two", b"three"):
        source.write_bytes(payload)
        codes.append(invoke(capsys, ready, "asset-upload", "dev1", str(source)).code)
    assert codes == [0, 0, 1, 0]
    ledger = Path(ready["ledger"])
    nonces = Counter()
    for block in read_blocks(ledger)[1:]:
        for tx in block.transactions:
            nonces[str(tx.proposal.invoker)] += 1
            assert int.from_bytes(tx.proposal.nonce, "big") == nonces[str(tx.proposal.invoker)]
    assert sorted(nonces.values()) == [1, 4]  # the registrar's, and dev1's register and uploads
    keystore = Keystore(ready["keystore"])
    with Gateway(ledger, ready["keystore"])._open_engine() as engine:
        assert keystore.next_nonce(engine, Address.from_text(ADDR_01)) == (5).to_bytes(32, "big")
        assert keystore.next_nonce(engine, Principal.from_seed(2).address) == \
            (1).to_bytes(32, "big")


def test_the_next_nonce_follows_the_highest_on_chain(capsys, ready, tmp_path):
    # earlier versions spent a nonce on each refused command, so a chain can
    # hold the registrar's nonces 1 and 3 and dev1's 1, 2 and 4
    with Gateway(ready["ledger"], ready["keystore"])._open_engine() as engine:
        registrar = Principal(keypair=engine.genesis.registrars[0].keypair, _nonce=2)
        create_identity(engine, registrar, Principal.from_seed(2))
        dev1 = Principal(keypair=seeded_keypair(1), _nonce=1)
        upload_payload(engine, dev1, b"one", "one.txt")
        dev1._nonce = 3
        upload_payload(engine, dev1, b"two", "two.txt")
    source = tmp_path / "reading.txt"
    source.write_bytes(b"a reading")
    assert invoke(capsys, ready, "device-keygen", "dev3").code == 0
    register = invoke(capsys, ready, "device-register", "dev3")
    assert register.code == 0
    assert register.data["createIdentity"]["flag"] == VALID
    upload = invoke(capsys, ready, "asset-upload", "dev1", str(source))
    assert (upload.code, upload.data["flag"]) == (0, VALID)
    proposals = [tx.proposal for block in read_blocks(Path(ready["ledger"]))[-3:]
                 for tx in block.transactions]
    assert [(p.function, int.from_bytes(p.nonce, "big")) for p in proposals] == [
        ("createIdentity", 4), ("registerDevice", 1), ("uploadAsset", 5)]


def test_a_principal_past_its_last_nonce_is_a_gateway_error(capsys, ready, tmp_path):
    with Gateway(ready["ledger"], ready["keystore"])._open_engine() as engine:
        upload_payload(engine, Principal(keypair=seeded_keypair(1), _nonce=2**256 - 2), b"one")
    journal = Path(ready["ledger"]) / BLOCKS_FILE
    before = journal.read_bytes()
    source = tmp_path / "reading.txt"
    source.write_bytes(b"a reading")
    result = invoke(capsys, ready, "asset-upload", "dev1", str(source))
    assert (result.code, result.data["error"]) == (1, "GatewayError")
    assert journal.read_bytes() == before


def test_torn_keystore_write_keeps_the_old_counters(tmp_path, monkeypatch):
    # a keystore file is replaced whole: a session write cut short leaves
    # the old session, and no temp file
    keystore = Keystore(tmp_path / "keys")
    old, new = (Session(did=parse_did(DID_01), expires_at=t) for t in (4000, 5000))
    keystore.save_session("devA", old)
    session_file = keystore.directory / "devA.session.json"
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
        keystore.save_session("devA", new)
    monkeypatch.undo()

    assert keystore.load_session("devA") == old
    assert sorted(os.listdir(keystore.directory)) == before  # no temp file left
    keystore.save_session("devA", new)
    assert keystore.load_session("devA") == new
    assert stat.S_IMODE(session_file.stat().st_mode) == 0o600


@pytest.mark.parametrize("name", ["dev2\n", "nonces\n"])
def test_a_device_name_with_a_trailing_newline_is_refused(capsys, ready, name):
    # "$" would match before the newline, and name the key file "dev2\n.json"
    keys = sorted(os.listdir(ready["keystore"]))
    for command in ("device-keygen", "device-register", "device-login"):
        result = invoke(capsys, ready, command, name)
        assert (result.code, result.data["error"]) == (1, "GatewayError"), command
    assert sorted(os.listdir(ready["keystore"])) == keys


@pytest.mark.parametrize("counters", ["[]", '{"dev1": "x"}', '{"dev1": 1.5}',
                                      '{"dev1": true}', "{", '{"dev1": -5}',
                                      f'{{"dev1": {2**256 - 1}}}'],
                         ids=["not-an-object", "string-count", "float-count",
                              "bool-count", "not-json", "negative-count",
                              "count-with-no-next-nonce"])
def test_an_old_nonce_file_is_ignored(capsys, ready, tmp_path, counters):
    # the counter files that earlier versions kept, well formed or not:
    # nonces come from the chain, and the file is left as it is
    nonces = Path(ready["keystore"]) / "nonces.json"
    nonces.write_text(counters)
    before = nonces.read_bytes()
    source = tmp_path / "reading.txt"
    source.write_bytes(b"a reading")
    for command in (["device-keygen", "dev2"], ["device-register", "dev2"],
                    ["asset-upload", "dev1", str(source)]):
        result = invoke(capsys, ready, *command)
        assert result.code == 0, command
        assert nonces.read_bytes() == before
    assert result.data["flag"] == VALID


def test_an_upload_writes_no_keystore_file(capsys, ready, tmp_path):
    keystore = Path(ready["keystore"])

    def files():
        return {p.name: (p.read_bytes(), p.stat().st_ino, p.stat().st_mtime_ns)
                for p in keystore.iterdir()}

    before = files()
    source = tmp_path / "reading.txt"
    source.write_bytes(b"a reading")
    assert invoke(capsys, ready, "asset-upload", "dev1", str(source)).data["flag"] == VALID
    assert files() == before


def test_a_gateway_proposal_resubmitted_after_a_reopen_is_refused(ready):
    gateway = Gateway(ready["ledger"], ready["keystore"])
    entry = gateway.keystore.load("dev1")
    with gateway._open_engine() as engine:
        proposal = gateway._proposal(engine, entry.keypair, "asset", "uploadAsset",
                                     [str(entry.did), "reading.txt", b"a reading".hex()])
        assert proposal.nonce == (2).to_bytes(32, "big")
        assert gateway._submit(engine, proposal)["flag"] == VALID
    journal = Path(ready["ledger"]) / BLOCKS_FILE
    before = journal.read_bytes()
    with gateway._open_engine() as engine:
        with pytest.raises(ContractError) as refused:
            engine.submit(proposal)
        assert refused.value.code == "NonceReplayed"
        assert engine.flush() is None
    assert journal.read_bytes() == before


def test_a_key_file_without_its_fields_is_a_gateway_error(capsys, env):
    keystore = Keystore(env["keystore"])
    keystore.directory.mkdir()  # a keystore makes it on its first write
    (keystore.directory / "dev9.json").write_text('{"name": "dev9"}')
    with pytest.raises(GatewayError, match="not a key file"):
        keystore.load("dev9")
    result = invoke(capsys, env, "device-login", "dev9")
    assert result.code == 1
    assert result.data["error"] == "GatewayError"
    # fields of the wrong type or a short seed: each command refuses the
    # file and leaves it
    entry = {"name": "dev9", "seed": SEED_01.hex(), "did": DID_01}
    key_file = keystore.directory / "dev9.json"
    for field, value in [("seed", 5), ("did", 7), ("name", None), ("seed", "00" * 16)]:
        key_file.write_text(json.dumps({**entry, field: value}))
        before = key_file.read_bytes()
        for command in ("device-login", "device-register"):
            result = invoke(capsys, env, command, "dev9")
            assert (result.code, result.data["error"]) == (1, "GatewayError"), field
            assert key_file.read_bytes() == before


@pytest.mark.parametrize("planted, argv, refusal", [
    ("journal", ["chain-verify"], "block 0 carries no network config: JSON nested too deep"),
    ("genesis", ["network-init", "--force", "--genesis"], "is not a genesis config"),
    ("key", ["device-login", "dev1"], "keystore entry dev1 is not a key file"),
    ("session", ["asset-list", "--mine", "dev1"], "dev1.session.json is not a session file"),
], ids=["journal", "genesis", "key", "session"])
def test_json_nested_too_deep_is_refused_by_name(capsys, ready, tmp_path, planted, argv,
                                                 refusal):
    # past the JSON parser's recursion limit: the command refuses the file and exits 1
    keys = Path(ready["keystore"])
    if planted == "journal":
        _rewrite_block(Path(ready["ledger"]) / BLOCKS_FILE, 0, deep_config)
    else:
        path = {"genesis": tmp_path / "genesis.json", "key": keys / "dev1.json",
                "session": keys / "dev1.session.json"}[planted]
        path.write_text(DEEP_JSON)
        argv = [*argv, str(path)] if planted == "genesis" else argv
    result = invoke(capsys, ready, *argv)
    assert result.code == 1
    assert "Traceback" not in result.out + result.err
    if planted == "journal":
        assert result.data == {"ok": False, "height": 0, "badBlock": 0, "reason": refusal}
    else:
        assert result.data["error"] == "GatewayError"
        assert refusal in result.data["message"]


@pytest.mark.parametrize("session", [{"did": DID_01}, {"did": 7, "expiresAt": 4000},
                                     {"did": DID_01, "expiresAt": "soon"}, [DID_01]])
def test_a_malformed_session_file_is_a_gateway_error(capsys, ready, tmp_path, session):
    session_file = Path(ready["keystore"]) / "dev1.session.json"
    session_file.write_text(json.dumps(session))
    before = session_file.read_bytes()
    source = tmp_path / "reading.txt"
    source.write_bytes(b"a reading")
    for command in (["asset-upload", "dev1", str(source)],
                    ["asset-list", "--mine", "dev1"]):
        result = invoke(capsys, ready, *command)
        assert (result.code, result.data["error"]) == (1, "GatewayError"), command
        assert session_file.read_bytes() == before


def test_a_session_name_outside_the_keystore_is_refused(capsys, ready, tmp_path):
    # a live session planted beside the keystore must not pass for one
    outside = tmp_path / "outside"
    outside.mkdir()
    planted = outside / "x.session.json"
    planted.write_text(json.dumps(Session(did=parse_did(DID_01),
                                          expires_at=2 ** 40).to_dict()))
    before = planted.read_bytes()
    source = tmp_path / "reading.txt"
    source.write_bytes(b"a reading")
    for command in (["asset-list", "--mine", "../outside/x"],
                    ["asset-upload", "../outside/x", str(source)]):
        result = invoke(capsys, ready, *command)
        assert (result.code, result.data["error"]) == (1, "GatewayError"), command
    assert planted.read_bytes() == before
    assert sorted(p.name for p in outside.iterdir()) == ["x.session.json"]


def test_a_session_naming_another_device_is_refused(capsys, ready, tmp_path):
    # dev1.session.json planted with dev2's DID: dev1 must neither list
    # dev2's assets nor upload in dev2's name, and nothing is spent
    source = tmp_path / "reading.txt"
    source.write_bytes(b"dev2's reading")
    for command in (["device-keygen", "dev2"], ["device-register", "dev2"],
                    ["device-login", "dev2"], ["asset-upload", "dev2", str(source)]):
        assert invoke(capsys, ready, *command).code == 0, command
    keystore = Keystore(ready["keystore"])
    keystore.save_session("dev1", Session(did=keystore.load("dev2").did,
                                          expires_at=2 ** 40))
    source.write_bytes(b"dev1's reading")
    journal = Path(ready["ledger"]) / BLOCKS_FILE
    before = journal.read_bytes()
    for command in (["asset-list", "--mine", "dev1"],
                    ["asset-upload", "dev1", str(source)]):
        result = invoke(capsys, ready, *command)
        assert (result.code, result.data["error"]) == (1, "NotAuthenticated"), command
        assert "assets" not in result.data
    assert journal.read_bytes() == before


def test_a_key_file_naming_another_entry_is_refused(capsys, ready, tmp_path):
    # dev1.json whose name field points outside: no session lands there
    keystore = Path(ready["keystore"])
    key_file = keystore / "dev1.json"
    key_file.write_text(json.dumps({**json.loads(key_file.read_text()),
                                    "name": "../escaped"}))
    listing = sorted(p.name for p in tmp_path.rglob("*"))
    session = (keystore / "dev1.session.json").read_bytes()
    with pytest.raises(GatewayError, match="not a key file"):
        Keystore(keystore).load("dev1")
    for command in ("device-login", "device-register"):
        result = invoke(capsys, ready, command, "dev1")
        assert (result.code, result.data["error"]) == (1, "GatewayError"), command
    assert sorted(p.name for p in tmp_path.rglob("*")) == listing
    assert (keystore / "dev1.session.json").read_bytes() == session


def test_session_cache_round_trip(tmp_path):
    keystore = Keystore(tmp_path / "keys")
    assert keystore.load_session("dev1") is None
    session = Session(did=parse_did(DID_01), expires_at=4000)
    keystore.save_session("dev1", session)
    assert keystore.load_session("dev1") == session


# -- machine-read JSON ----------------------------------------------------------


def test_machine_output_is_one_canonical_document(capsys, env, ready, tmp_path):
    for i in range(2):
        source = tmp_path / f"r{i}.txt"
        source.write_bytes(f"payload {i}".encode())
        assert invoke(capsys, env, "asset-upload", "dev1", str(source)).code == 0
    listing = invoke(capsys, env, "asset-list")
    assert (listing.code, listing.data["count"]) == (0, 2)
    assert listing.out == canonical_json(listing.data).decode() + "\n"
    error = invoke(capsys, env, "asset-list", "--mine", "nobody")
    assert (error.code, error.data["error"]) == (1, "NotAuthenticated")
    assert error.out == canonical_json(error.data).decode() + "\n"


def test_keystore_files_are_canonical(ready):
    keystore = Path(ready["keystore"])
    for name in ("dev1.json", "dev1.session.json"):
        raw = (keystore / name).read_bytes()
        assert raw == canonical_json(json.loads(raw)) + b"\n", name


def test_indented_keystore_files_still_load(tmp_path):
    # key and session files as earlier versions wrote them
    keystore = Keystore(tmp_path / "keys")
    keystore.directory.mkdir()  # a keystore makes it on its first write
    session = Session(did=parse_did(DID_01), expires_at=4000)
    for name, payload in [
            ("dev1.json", {"name": "dev1", "seed": SEED_01.hex(), "did": DID_01}),
            ("dev1.session.json", session.to_dict())]:
        (keystore.directory / name).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
    entry = keystore.load("dev1")
    assert (entry.seed, str(entry.did)) == (SEED_01, DID_01)
    assert keystore.load_session("dev1") == session


# -- a DID record in an earlier form ---------------------------------------------


NO_DID_RECORD = "holds no DID record in the form this program writes"


class DocHashRecordContract:
    """Rewrites a DID record as versions before records carried the key wrote
    it: ``docHash`` names a DID document where the record now has
    ``publicKey``. Only the record is written; ``args[1]`` is its docHash."""

    name = "dochash"

    def invoke(self, ctx, function, args):
        key = KEY_DID + args[0]
        record = json.loads(ctx.get(key))
        del record["publicKey"]
        record["docHash"] = args[1]
        ctx.put(key, canonical_json(record))


def open_with_doc_hash_record(ledger_dir, doc_hash):
    """Open the ledger with dev1's record rewritten to name ``doc_hash``."""
    engine = LedgerEngine.open(ledger_dir, ContentStore(ledger_dir / "objects"),
                               {**default_contracts(), "dochash": DocHashRecordContract()})
    device = Principal(keypair=seeded_keypair(1), _nonce=1000)  # above the keystore's
    engine.submit(device.proposal(engine, "dochash", "rewrite", [DID_01, doc_hash]))
    engine.flush()
    return engine


@pytest.mark.parametrize("fault", [
    lambda path: path.write_bytes(path.read_bytes().replace(b"did:", b"dix:", 1)),
    lambda path: path.unlink(),
], ids=["damaged", "deleted"])
def test_a_broken_did_document_is_a_machine_error(capsys, ready, fault):
    # the record names a document in objects/; whatever became of it, the
    # record is refused by name, and no store error or traceback leaks out
    ledger_dir = Path(ready["ledger"])
    document = canonical_json({"created": 0, "id": DID_01, "owner": ADDR_01,
                               "publicKey": PUB_01, "serviceEndpoints": []})
    doc_hash = ContentStore(ledger_dir / "objects").put(document)
    open_with_doc_hash_record(ledger_dir, doc_hash.hex).close()
    fault(ledger_dir / "objects" / doc_hash.hex)
    result = invoke(capsys, ready, "device-login", "dev1")
    assert (result.code, result.data["error"]) == (1, "UnsupportedFormat")
    assert result.out == canonical_json(result.data).decode() + "\n"
    assert result.data["message"] == f"{KEY_DID}{DID_01} {NO_DID_RECORD}"
    assert "'" not in result.data["message"]


def test_a_doc_hash_record_is_refused_by_name(capsys, ready, tmp_path):
    ledger_dir = Path(ready["ledger"])
    did = parse_did(DID_01)
    doc_hash = hashlib.sha256(bytes.fromhex(PUB_01)).hexdigest()
    device = Principal(keypair=seeded_keypair(1), _nonce=2000)  # above the rewrite's
    with open_with_doc_hash_record(ledger_dir, doc_hash) as engine:
        with pytest.raises(UnsupportedFormat, match=NO_DID_RECORD):
            resolve_did(engine.state, engine.store, did)
        for function, arg in [("registerDevice", MANUFACTURER),
                              ("transferOwnership", ADDR_01)]:
            with pytest.raises(UnsupportedFormat):
                engine.submit(device.proposal(engine, "idm", function, [DID_01, arg]))
    journal = (ledger_dir / BLOCKS_FILE).read_bytes()
    source = tmp_path / "reading.txt"
    source.write_bytes(b'{"d":{"temperature":20.01}}')
    for argv in [("device-login", "dev1"), ("asset-upload", "dev1", str(source))]:
        result = invoke(capsys, ready, *argv)
        assert (result.code, result.data["error"]) == (1, "UnsupportedFormat")
        assert result.out == canonical_json(result.data).decode() + "\n"
    assert (ledger_dir / BLOCKS_FILE).read_bytes() == journal
    # what reads no DID record still works
    assert invoke(capsys, ready, "asset-list").code == 0
    assert invoke(capsys, ready, "chain-verify").data["ok"] is True


class RawWriteContract:
    """Commits one value under one key: a write no gateway contract makes."""

    name = "raw"

    def invoke(self, ctx, function, args):
        ctx.put(args[0], bytes.fromhex(args[1]))


RAW_ID = hashlib.sha256(b"raw").hexdigest()


@pytest.mark.parametrize("record", [
    {"addedAt": 1, "assetName": "x"},
    {"addedAt": 2**63, "assetName": "x", "dataId": RAW_ID, "owner": DID_01},
    {"addedAt": -2**63 - 1, "assetName": "x", "dataId": RAW_ID, "owner": DID_01},
    {"addedAt": 1.5, "assetName": "x", "dataId": RAW_ID, "owner": DID_01},
    {"addedAt": 1, "assetName": "x", "dataId": RAW_ID, "owner": DID_01, "extra": 0},
    {"addedAt": 1, "assetName": "\udcff", "dataId": RAW_ID, "owner": DID_01},
], ids=["no-owner", "above-int64", "below-int64", "float-time", "fifth-key", "not-utf8"])
def test_an_asset_value_the_contract_cannot_write_is_refused_by_name(capsys, ready, record):
    # a committed asset/ value outside the contract's form fails a listing
    # of all with one machine line, on a warm engine and a cold one alike,
    # and never with a traceback or an overflow in the store's flush
    ledger_dir = Path(ready["ledger"])
    key = KEY_ASSET + RAW_ID
    engine = LedgerEngine.open(ledger_dir, ContentStore(ledger_dir / "objects"),
                               {**default_contracts(), "raw": RawWriteContract()})
    try:
        assert query_all_assets(engine.state) == []  # the view, built before the value
        writer = Principal(keypair=seeded_keypair(9))
        engine.submit(writer.proposal(engine, "raw", "put",
                                      [key, canonical_json(record).hex()]))
        engine.flush()
        with pytest.raises(UnsupportedFormat) as warm:
            query_all_assets(engine.state)
        # the value names no owner, so the owner's warm listing leaves it
        # out, as a cold one does below
        session = Session(did=parse_did(DID_01), expires_at=10)
        assert query_owned_assets(engine.state, session, 0) == []
        with pytest.raises(UnsupportedFormat):  # and the next listing of all fails too
            query_all_assets(engine.state)
    finally:
        engine.close()
    assert invoke(capsys, ready, "chain-verify").data["ok"] is True
    result = invoke(capsys, ready, "asset-list")
    assert (result.code, result.data["error"]) == (1, "UnsupportedFormat")
    assert result.out == canonical_json(result.data).decode() + "\n"
    assert result.data["message"] == str(warm.value)
    assert key in result.data["message"]
    # the owner's listing reads the owner's rows only
    assert invoke(capsys, ready, "asset-list", "--mine", "dev1").data["count"] == 0


# did/ values that are not the record the contract writes, each made from
# the record it does write
DID_VALUES = {
    "list": lambda record: [],
    "object": lambda record: {},
    "docHash": lambda record: {**{k: v for k, v in record.items() if k != "publicKey"},
                               "docHash": "00" * 32},
    "non-hex-key": lambda record: {**record, "publicKey": "zz" * 32},
    "short-key": lambda record: {**record, "publicKey": "00" * 16},
    "another-did": lambda record: {**record, "did": "did:iotid:" + "00" * 16},
    "extra-field": lambda record: {**record, "docHash": "00" * 32},
}


@pytest.mark.parametrize("value", DID_VALUES)
def test_a_did_value_the_contract_cannot_write_is_refused_by_name(capsys, ready, tmp_path,
                                                                  value):
    # a forged journal can commit any value under did/: each command that
    # reads one ends with one machine line naming it, and never a traceback
    ledger_dir = Path(ready["ledger"])
    dev2 = invoke(capsys, ready, "device-keygen", "dev2").data["did"]
    engine = LedgerEngine.open(ledger_dir, ContentStore(ledger_dir / "objects"),
                               {**default_contracts(), "raw": RawWriteContract()})
    try:
        record = json.loads(engine.state.get(KEY_DID + DID_01)[0])
        writer = Principal(keypair=seeded_keypair(9))
        for did in (DID_01, dev2):
            forged = canonical_json(DID_VALUES[value]({**record, "did": did}))
            engine.submit(writer.proposal(engine, "raw", "put", [KEY_DID + did, forged.hex()]))
        engine.flush()
    finally:
        engine.close()
    source = tmp_path / "reading.txt"
    source.write_bytes(b"a reading")
    for argv, did in ((["device-register", "dev2"], dev2), (["device-login", "dev1"], DID_01),
                      (["asset-upload", "dev1", str(source)], DID_01)):
        result = invoke(capsys, ready, *argv)
        assert (result.code, result.data["error"]) == (1, "UnsupportedFormat"), argv
        assert result.out == canonical_json(result.data).decode() + "\n"
        assert result.data["message"] == f"{KEY_DID}{did} {NO_DID_RECORD}"
    assert invoke(capsys, ready, "chain-verify").data["ok"] is True


def test_a_journal_alone_is_enough_to_log_in_and_upload(capsys, ready, tmp_path):
    # DID documents are built from the chain's records, so a ledger copied
    # without objects/ serves logins and uploads
    copy = tmp_path / "copy"
    shutil.copytree(ready["ledger"], copy, ignore=shutil.ignore_patterns("objects"))
    alone = {**ready, "ledger": str(copy)}
    assert invoke(capsys, alone, "device-login", "dev1").code == 0
    source = tmp_path / "reading.txt"
    source.write_bytes(b'{"d":{"temperature":20.01}}')
    upload = invoke(capsys, alone, "asset-upload", "dev1", str(source))
    assert (upload.code, upload.data["flag"]) == (0, "VALID")
    assert invoke(capsys, alone, "chain-verify").data["ok"] is True


def test_a_cold_login_and_upload_read_nothing_from_the_store(capsys, ready, tmp_path,
                                                              store_calls):
    assert invoke(capsys, ready, "device-login", "dev1").code == 0
    assert store_calls == []
    source = tmp_path / "reading.txt"
    source.write_bytes(b'{"d":{"temperature":20.01}}')
    assert invoke(capsys, ready, "asset-upload", "dev1", str(source)).code == 0
    # the commit appends the block's chunk; the endorsers' executions write nothing
    assert [name for name, _ in store_calls] == ["put_block"]


def test_upload_blocks_leave_one_file_in_objects_and_a_forced_init_none(capsys, ready, tmp_path):
    # 23 CLI uploads commit 23 blocks, and each appends to the one content
    # log; a forced network-init starts the new chain with no content
    objects = Path(ready["ledger"]) / "objects"
    for n in range(23):
        source = tmp_path / f"{n}.txt"
        source.write_bytes(f'{{"d":{{"n":{n}}}}}'.encode())
        result = invoke(capsys, ready, "asset-upload", "dev1", str(source))
        assert (result.code, result.data["flag"]) == (0, VALID)
    assert [p.name for p in objects.iterdir()] == [LOG_FILE]
    assert stat.S_IMODE((objects / LOG_FILE).stat().st_mode) == 0o600
    assert invoke(capsys, ready, "network-init", "--force").code == 0
    assert list(objects.iterdir()) == []


def test_cli_uploads_read_back_from_their_blocks(capsys, ready, tmp_path):
    # each CLI upload commits a block of its own and appends that block's
    # chunk to the content log; a refused duplicate appends none
    payloads = [f'{{"d":{{"temperature":{n}.5}}}}'.encode() for n in range(3)]
    blocks = []
    for n, payload in enumerate([*payloads, payloads[0]]):
        source = tmp_path / f"{n}.txt"
        source.write_bytes(payload)
        result = invoke(capsys, ready, "asset-upload", "dev1", str(source))
        if n < len(payloads):
            assert (result.code, result.data["flag"]) == (0, VALID)
            blocks.append(result.data["block"])
        else:
            assert (result.code, result.data["error"]) == (1, "DuplicateAsset")
    objects = Path(ready["ledger"]) / "objects"
    assert [p.name for p in objects.iterdir()] == [LOG_FILE]
    log = (objects / LOG_FILE).read_bytes()
    at, numbers = 0, []
    while at < len(log):  # each chunk's header: its block number, its records' length
        numbers.append(int.from_bytes(log[at:at + 4], "big"))
        at += 8 + int.from_bytes(log[at + 4:at + 8], "big")
    assert numbers == blocks
    with LedgerEngine.open(ready["ledger"], ContentStore(objects), {}) as engine:
        rows = engine.state.range(KEY_ASSET)
        assert sorted(version[0] for _, _, version in rows) == blocks
        for key, _, (block, _) in rows:
            digest = key[len(KEY_ASSET):]
            content = engine.store.get(ContentHash.from_hex(digest), block)
            assert hashlib.sha256(content).hexdigest() == digest
        assert sorted(hashlib.sha256(p).hexdigest() for p in payloads) == \
            [key[len(KEY_ASSET):] for key, _, _ in rows]


@pytest.mark.parametrize("duration", ["10", "-30"])
def test_a_scenario_shorter_than_one_interval_is_refused(capsys, env, duration):
    result = invoke(capsys, env, "scenario", "--devices", "1",
                    f"--duration={duration}")
    assert (result.code, result.data["error"]) == (1, "GatewayError")
    assert not (Path(env["ledger"]) / BLOCKS_FILE).exists()


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a new process, which imports iotid from this source tree."""
    src = str(Path(did_module.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_the_cli_loads_no_key_serialization():
    # keys are raw bytes throughout, so a one-shot command imports none of
    # cryptography's PEM, DER and SSH encoders; and only the simulator's
    # commands, sim-run and scenario, import the simulator
    script = ("import sys, iotid.cli; "
              "print('cryptography.hazmat.primitives.serialization' in sys.modules, "
              "'iotid.sim' in sys.modules)")
    run = fresh_python("-c", script)
    assert (run.returncode, run.stdout) == (0, "False False\n")


# runs ``main`` on its arguments, then names on stderr each of these
# modules that the command loaded: the engine, its contracts and store
_ENGINE_MODULES = ["iotid.assets", "iotid.gateway", "iotid.idm", "iotid.ledger", "iotid.sim",
                   "iotid.state", "iotid.store", "sqlite3"]
_MAIN_THEN_LOADED = ("import sys; from iotid.cli import main; rc = main(sys.argv[1:]); "
                     f"print(*[m for m in {_ENGINE_MODULES!r} if m in sys.modules], "
                     "file=sys.stderr); sys.exit(rc)")


def test_a_fresh_chain_verify_loads_no_engine(tmp_path):
    # chain-verify reads the journal alone: its report comes from a process
    # that loads neither the engine nor its world state, contracts or store
    ledger_dir = tmp_path / "ledger"
    ledger_dir.mkdir()
    shutil.copy(THREE_ENDORSEMENTS, ledger_dir / BLOCKS_FILE)
    argv = ["--machine", "--ledger-dir", str(ledger_dir), "chain-verify"]
    report = '{"badBlock":null,"height":9,"ok":true,"reason":null}\n'
    run = fresh_python("-m", "iotid.cli", *argv)
    assert (run.returncode, run.stdout) == (0, report)
    run = fresh_python("-c", _MAIN_THEN_LOADED, *argv)
    assert (run.returncode, run.stdout, run.stderr) == (0, report, "\n")


def test_sim_run_loads_no_ledger(tmp_path):
    run = fresh_python("-c", _MAIN_THEN_LOADED, "--machine", "sim-run", "--devices", "1",
                       "--duration", "30", "--output", str(tmp_path / "out"))
    assert (run.returncode, json.loads(run.stdout)["files"]) == (0, 1)
    assert run.stderr == "iotid.sim\n"


def test_the_manufacturer_id_defaults_stay_the_simulators():
    parser = build_parser()
    for argv in (["device-register", "dev1"], ["sim-run"]):
        assert parser.parse_args(argv).manufacturer_id == FlowConfig().manufacturer_id \
            == "ABCDEF00001"
    # the CLI writes the simulator's defaults again, so that importing it
    # loads no simulator: they must stay the library's
    sim, config = parser.parse_args(["sim-run"]), FlowConfig()
    assert (sim.devices, sim.interval, sim.value_min, sim.value_max, sim.seed) == \
        (config.device_count, config.interval_seconds, config.value_min, config.value_max,
         config.seed)
    scenario = parser.parse_args(["scenario"])
    defaults = {name: parameter.default for name, parameter
                in inspect.signature(Gateway.cmd_scenario).parameters.items()}
    assert (scenario.devices, scenario.interval, scenario.duration, scenario.seed) == \
        (defaults["device_count"], defaults["interval_seconds"],
         defaults["duration_seconds"], defaults["seed"])


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    action, = [a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("command", sorted(_subcommands()))
def test_every_subcommand_names_its_handler_and_renderer(command):
    positionals = ["x" for action in _subcommands()[command]._actions
                   if not action.option_strings]
    args = build_parser().parse_args([command, *positionals])
    assert callable(args.run) and callable(args.render)
