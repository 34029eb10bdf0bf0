"""Command-line interface.

Exit codes are stable for scripting: 0 success, 1 domain error (contract
rejection, failed login, broken chain, or a result with ``"ok": false``),
2 usage or IO error. ``--machine`` switches a command's result, and its
domain error, from human-oriented output to one canonical JSON document
on stdout; usage and IO errors go to stderr in both modes. Private key
material never appears in either mode.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING

from .codec import canonical_json
from .did import DEFAULT_MANUFACTURER_ID
from .journal import BLOCKS_FILE, LedgerError, verify_chain_file

if TYPE_CHECKING:
    from .gateway import Gateway

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


def _render_fields(result: dict) -> str:
    """One ``key: value`` line per field: a string as it is, any other value as JSON."""
    return "\n".join(f"{key}: {value}" if isinstance(value, str)
                     else f"{key}: {json.dumps(value, sort_keys=True)}"
                     for key, value in result.items())


def _render_assets(result: dict) -> str:
    columns = ["owner", "assetName", "addedAt", "dataId"]
    rows = result["assets"]
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) if rows else len(c)
              for c in columns}
    lines = ["  ".join(c.ljust(widths[c]) for c in columns),
             "  ".join("-" * widths[c] for c in columns)]
    lines += ["  ".join(str(r[c]).ljust(widths[c]) for c in columns)
              for r in rows]
    return "\n".join(lines) + f"\n({result['count']} assets)"


def _gateway(args: argparse.Namespace, ledger_dir: str) -> Gateway:
    from .gateway import Gateway

    return Gateway(ledger_dir, _directory(args.keystore_dir, KEYSTORE_DIR_ENV,
                                          "./keystore"))


def _sim_run(args: argparse.Namespace, ledger_dir: str) -> dict:
    from .sim import FlowConfig, simulate

    config = FlowConfig(device_count=args.devices, interval_seconds=args.interval,
                        value_min=args.value_min, value_max=args.value_max,
                        manufacturer_id=args.manufacturer_id, seed=args.seed)
    return simulate(config, args.duration, Path(args.output))[0]


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: the directory defaults come
    from the environment when ``main`` parses. Each command is declared
    here alone, with the handler that computes its result and the
    renderer that prints it."""
    parser = argparse.ArgumentParser(
        prog="iotid",
        description="Decentralized identity and access management for IoT "
                    "devices on a miniature permissioned ledger.")
    parser.add_argument("--ledger-dir",
                        help="ledger directory (env %s)" % LEDGER_DIR_ENV)
    parser.add_argument("--keystore-dir",
                        help="keystore directory (env %s)" % KEYSTORE_DIR_ENV)
    parser.add_argument("--machine", action="store_true",
                        help="print one JSON document instead of tables")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, run, render=_render_fields, parents=()):
        p = sub.add_parser(name, help=help, parents=parents)
        p.set_defaults(run=run, render=render)
        return p

    # the simulator's options, shared by sim-run and scenario
    flow = argparse.ArgumentParser(add_help=False)
    flow.add_argument("--devices", type=int, default=5)
    flow.add_argument("--interval", type=int, default=30,
                      help="seconds between readings")
    flow.add_argument("--duration", type=int, default=300,
                      help="simulated seconds to run")
    flow.add_argument("--seed", type=int, default=0)

    p = command("network-init", "provision a fresh ledger", lambda a, d:
                _gateway(a, d).cmd_network_init(a.genesis, force=a.force))
    p.add_argument("--genesis", help="genesis config JSON (default: built-in "
                                     "3-peer majority policy)")
    p.add_argument("--force", action="store_true",
                   help="replace an existing ledger")

    p = command("device-keygen", "create a named device key + DID", lambda a, d:
                _gateway(a, d).cmd_device_keygen(a.name, seed=a.seed))
    p.add_argument("name")
    p.add_argument("--seed", type=_seed_bytes,
                   help="32-byte hex seed for a deterministic key")

    p = command("device-register",
                "create the identity on chain and register the device", lambda a, d:
                _gateway(a, d).cmd_device_register(a.name, a.manufacturer_id))
    p.add_argument("name")
    p.add_argument("--manufacturer-id", default=DEFAULT_MANUFACTURER_ID)

    p = command("device-login", "challenge-response login", lambda a, d:
                _gateway(a, d).cmd_device_login(a.name))
    p.add_argument("name")

    p = command("asset-upload", "upload one file as a device asset", lambda a, d:
                _gateway(a, d).cmd_asset_upload(a.name, a.file, asset_name=a.asset_name))
    p.add_argument("name")
    p.add_argument("file")
    p.add_argument("--asset-name", help="override the recorded asset name")

    p = command("asset-list", "query committed assets", lambda a, d:
                _gateway(a, d).cmd_asset_list(mine=a.mine), _render_assets)
    p.add_argument("--mine", metavar="NAME",
                   help="only assets of this logged-in device")

    p = command("sim-run", "run the telemetry simulator", _sim_run, parents=[flow])
    p.add_argument("--value-min", type=float, default=0.0)
    p.add_argument("--value-max", type=float, default=100.0)
    p.add_argument("--manufacturer-id", default=DEFAULT_MANUFACTURER_ID)
    p.add_argument("--output", default="./sensor-data")

    p = command("scenario", "end-to-end run: init, register, login, simulate, "
                            "upload, dedup, query, verify", lambda a, d:
                _gateway(a, d).cmd_scenario(
                    seed=a.seed, device_count=a.devices, interval_seconds=a.interval,
                    duration_seconds=a.duration, sim_output_dir=a.output,
                    force=a.force), parents=[flow])
    p.add_argument("--output", help="sensor file tree (default: inside the "
                                    "ledger directory)")
    p.add_argument("--force", action="store_true",
                   help="replace an existing ledger")

    # reads the journal alone and loads no engine: it must keep working on
    # a ledger too damaged to open and replay
    command("chain-verify", "recompute every hash and link", lambda a, d:
            verify_chain_file(Path(d) / BLOCKS_FILE).to_dict())

    return parser


def _domain_errors() -> tuple[type[Exception], ...]:
    """The errors a command reports with exit code 1. Only a command that
    raised looks them up, so one that succeeds loads no module for them."""
    from .gateway import GatewayError
    from .idm import AuthError

    return AuthError, GatewayError, LedgerError, ValueError


def _directory(given: str | None, env: str, default: str) -> str:
    return given if given is not None else os.environ.get(env, default)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = args.run(args, _directory(args.ledger_dir, LEDGER_DIR_ENV, "./ledger"))
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except _domain_errors() as exc:
        code = getattr(exc, "code", exc.__class__.__name__)
        details = getattr(exc, "details", None)
        if args.machine:
            print(canonical_json({"error": code, "message": str(exc),
                                  "details": details or {}}).decode())
        else:
            print(f"error[{code}]: {exc}", file=sys.stderr)
            if details:
                print(json.dumps(details, sort_keys=True), file=sys.stderr)
        return 1
    print(canonical_json(result).decode() if args.machine else args.render(result))
    return 0 if result.get("ok", True) else 1


if __name__ == "__main__":
    sys.exit(main())
