"""Command-line interface.

Exit codes are stable for scripting: 0 success, 1 domain error (contract
rejection, failed login, broken chain), 2 usage or IO error. ``--machine``
switches every command from human-oriented output to a single JSON
document on stdout. Private key material never appears in either mode.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .gateway import Gateway, GatewayError
from .idm import AuthError
from .ledger import ContractError, LedgerError
from .sim import FlowConfig

LEDGER_DIR_ENV = "IOTID_LEDGER_DIR"
KEYSTORE_DIR_ENV = "IOTID_KEYSTORE_DIR"


def _seed_bytes(text: str) -> bytes:
    try:
        seed = bytes.fromhex(text)
    except ValueError:
        raise argparse.ArgumentTypeError("seed must be hex") from None
    if len(seed) != 32:
        raise argparse.ArgumentTypeError("seed must be 32 bytes (64 hex chars)")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iotid",
        description="Decentralized identity and access management for IoT "
                    "devices on a miniature permissioned ledger.")
    parser.add_argument("--ledger-dir",
                        default=os.environ.get(LEDGER_DIR_ENV, "./ledger"),
                        help="ledger directory (env %s)" % LEDGER_DIR_ENV)
    parser.add_argument("--keystore-dir",
                        default=os.environ.get(KEYSTORE_DIR_ENV, "./keystore"),
                        help="keystore directory (env %s)" % KEYSTORE_DIR_ENV)
    parser.add_argument("--machine", action="store_true",
                        help="print one JSON document instead of tables")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("network-init", help="provision a fresh ledger")
    p.add_argument("--genesis", help="genesis config JSON (default: built-in "
                                     "3-peer majority policy)")
    p.add_argument("--force", action="store_true",
                   help="replace an existing ledger")

    p = sub.add_parser("device-keygen", help="create a named device key + DID")
    p.add_argument("name")
    p.add_argument("--seed", type=_seed_bytes,
                   help="32-byte hex seed for a deterministic key")

    p = sub.add_parser("device-register",
                       help="create the identity on chain and register the device")
    p.add_argument("name")
    p.add_argument("--manufacturer-id", default=FlowConfig().manufacturer_id)

    p = sub.add_parser("device-login", help="challenge-response login")
    p.add_argument("name")

    p = sub.add_parser("asset-upload", help="upload one file as a device asset")
    p.add_argument("name")
    p.add_argument("file")
    p.add_argument("--asset-name", help="override the recorded asset name")

    p = sub.add_parser("asset-list", help="query committed assets")
    p.add_argument("--mine", metavar="NAME",
                   help="only assets of this logged-in device")

    p = sub.add_parser("sim-run", help="run the telemetry simulator")
    p.add_argument("--devices", type=int, default=5)
    p.add_argument("--interval", type=int, default=30,
                   help="seconds between readings")
    p.add_argument("--duration", type=int, default=300,
                   help="simulated seconds to run")
    p.add_argument("--value-min", type=float, default=0.0)
    p.add_argument("--value-max", type=float, default=100.0)
    p.add_argument("--manufacturer-id", default=FlowConfig().manufacturer_id)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default="./sensor-data")

    p = sub.add_parser("scenario",
                       help="end-to-end run: init, register, login, simulate, "
                            "upload, dedup, query, verify")
    p.add_argument("--devices", type=int, default=5)
    p.add_argument("--interval", type=int, default=30)
    p.add_argument("--duration", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="sensor file tree (default: inside the "
                                    "ledger directory)")
    p.add_argument("--force", action="store_true",
                   help="replace an existing ledger")

    sub.add_parser("chain-verify", help="recompute every hash and link")

    return parser


def _render_table(rows: list[dict], columns: list[str]) -> str:
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) if rows else len(c)
              for c in columns}
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    rule = "  ".join("-" * widths[c] for c in columns)
    lines = [header, rule]
    lines += ["  ".join(str(r[c]).ljust(widths[c]) for c in columns)
              for r in rows]
    return "\n".join(lines)


def _render_human(command: str, result: dict) -> str:
    if command == "asset-list":
        table = _render_table(result["assets"],
                              ["owner", "assetName", "addedAt", "dataId"])
        return f"{table}\n({result['count']} assets)"
    lines = []
    for key, value in result.items():
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        lines.append(f"{key}: {value}")
    return "\n".join(lines)


def _dispatch(args: argparse.Namespace, gateway: Gateway) -> dict:
    if args.command == "network-init":
        return gateway.cmd_network_init(args.genesis, force=args.force)
    if args.command == "device-keygen":
        return gateway.cmd_device_keygen(args.name, seed=args.seed)
    if args.command == "device-register":
        return gateway.cmd_device_register(args.name, args.manufacturer_id)
    if args.command == "device-login":
        return gateway.cmd_device_login(args.name)
    if args.command == "asset-upload":
        return gateway.cmd_asset_upload(args.name, args.file,
                                        asset_name=args.asset_name)
    if args.command == "asset-list":
        return gateway.cmd_asset_list(mine=args.mine)
    if args.command == "sim-run":
        config = FlowConfig(device_count=args.devices,
                            interval_seconds=args.interval,
                            value_min=args.value_min, value_max=args.value_max,
                            manufacturer_id=args.manufacturer_id,
                            seed=args.seed)
        return gateway.cmd_sim_run(config, args.duration, Path(args.output))
    if args.command == "scenario":
        return gateway.cmd_scenario(seed=args.seed, device_count=args.devices,
                                    interval_seconds=args.interval,
                                    duration_seconds=args.duration,
                                    sim_output_dir=args.output,
                                    force=args.force)
    if args.command == "chain-verify":
        return gateway.cmd_chain_verify()
    raise AssertionError(f"unhandled command {args.command}")


def _failed(command: str, result: dict) -> bool:
    if command == "chain-verify":
        return not result.get("ok", False)
    if command == "scenario":
        return not result.get("ok", False)
    return False


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    gateway = Gateway(args.ledger_dir, args.keystore_dir)
    try:
        result = _dispatch(args, gateway)
    except (ContractError, AuthError, GatewayError, LedgerError, ValueError) as exc:
        code = getattr(exc, "code", exc.__class__.__name__)
        details = getattr(exc, "details", None)
        if args.machine:
            print(json.dumps({"error": code, "message": str(exc),
                              "details": details or {}}, sort_keys=True))
        else:
            print(f"error[{code}]: {exc}", file=sys.stderr)
            if details:
                print(json.dumps(details, sort_keys=True), file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    if args.machine:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        print(_render_human(args.command, result))
    return 1 if _failed(args.command, result) else 0


if __name__ == "__main__":
    sys.exit(main())
