"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded at layer boundaries by replacing, for the duration of
a traced stretch, the attribute each *calling* module looks up: a name
imported with ``from .codec import sha256`` is a separate binding in every
importing module, so each binding is wrapped on its own.  Nothing under
``src/`` is edited; ``install``/``uninstall`` swap the attributes in and
out so untraced stretches run the original code with no wrapper at all.

A span is ``[name, start, end, parent, op, n, ok]``: perf_counter seconds
(reference seconds after ``to_reference``),
the index of the enclosing span (-1 at top level), the benchmark op id
(-1 outside the timed phase), an optional size measured on the call, and
whether the call returned normally.  Self time is derived afterwards as a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import importlib
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

NAME, START, END, PARENT, OP, N, OK = range(7)


def _list_name(args, kwargs):
    mine = kwargs.get("mine", args[1] if len(args) > 1 else None)
    return "gateway.cmd_list_mine" if mine else "gateway.cmd_list_all"


def _put_pre(args, kwargs):
    return len(args[0])


def _put_size(args, kwargs, result, pre):
    # ContentStore.put is idempotent: bytes are written only for new content
    return len(args[1]) if len(args[0]) > pre else 0


# (module, attribute path, span name or naming function, pre hook, size)
TARGETS = [
    ("iotid.did", "KeyPair.sign", "did.sign", None, None),
    ("iotid.did", "verify_signature", "did.verify", None, None),
    ("iotid.ledger", "verify_signature", "did.verify", None, None),
    ("iotid.idm", "verify_signature", "did.verify", None, None),
    ("iotid.did", "generate_keypair", "did.generate_keypair", None, None),
    ("iotid.ledger", "generate_keypair", "did.generate_keypair", None, None),
    ("iotid.gateway", "generate_keypair", "did.generate_keypair", None, None),
    ("iotid.sim", "generate_keypair", "did.generate_keypair", None, None),
    *[(mod, "canonical_json", "codec.canonical_json", None,
       lambda a, k, r, p: len(r))
      for mod in ("iotid.ledger", "iotid.idm", "iotid.assets", "iotid.did",
                  "iotid.sim")],
    *[(mod, "sha256", "codec.sha256", None, None)
      for mod in ("iotid.ledger", "iotid.idm", "iotid.did", "iotid.store",
                  "iotid.sim", "iotid.gateway")],
    ("iotid.store", "ContentStore.get", "store.get", None, None),
    ("iotid.store", "ContentStore.put", "store.put", _put_pre, _put_size),
    ("iotid.ledger", "LedgerEngine.open", "ledger.open", None, None),
    ("iotid.ledger", "LedgerEngine.build_transaction", "ledger.build", None, None),
    ("iotid.ledger", "LedgerEngine.execute_proposal", "ledger.execute", None, None),
    ("iotid.ledger", "LedgerEngine.endorse", "ledger.endorse", None, None),
    ("iotid.ledger", "LedgerEngine.order_batch", "ledger.order", None, None),
    ("iotid.ledger", "LedgerEngine.validate_block", "ledger.validate", None, None),
    ("iotid.ledger", "LedgerEngine.commit_block", "ledger.commit", None, None),
    ("iotid.ledger", "LedgerEngine.block_number_of", "ledger.block_number_of",
     None, None),
    ("iotid.ledger", "WorldState.apply", "ledger.apply", None, None),
    ("iotid.ledger", "WorldState.range", "ledger.range", None,
     lambda a, k, r, p: (len(a[0]), len(r))),
    ("iotid.ledger", "verify_chain_file", "ledger.verify_chain", None, None),
    ("iotid.gateway", "verify_chain_file", "ledger.verify_chain", None, None),
    ("iotid.idm", "LoginService.begin_login", "idm.login_begin", None, None),
    ("iotid.idm", "LoginService.complete_login", "idm.login_complete", None, None),
    ("iotid.idm", "resolve_did", "idm.resolve_did", None, None),
    ("iotid.assets", "query_all_assets", "assets.query_all", None, None),
    ("iotid.gateway", "query_all_assets", "assets.query_all", None, None),
    ("iotid.assets", "query_owned_assets", "assets.query_owned", None, None),
    ("iotid.gateway", "query_owned_assets", "assets.query_owned", None, None),
    ("iotid.gateway", "Keystore.next_nonce", "gateway.next_nonce", None, None),
    ("iotid.gateway", "Gateway.cmd_asset_upload", "gateway.cmd_upload", None, None),
    ("iotid.gateway", "Gateway.cmd_asset_list", _list_name, None, None),
    ("iotid.gateway", "Gateway.cmd_device_login", "gateway.cmd_login", None, None),
    ("iotid.gateway", "Gateway.cmd_chain_verify", "gateway.cmd_verify", None, None),
    ("iotid.cli", "main", "cli.main", None, None),
]


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Collects spans while installed; holds them in memory until ``write``."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, pre, size):
        spans, stack, tracer = self.spans, self._stack, self

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            before = pre(args, kwargs) if pre is not None else None
            rec = [label, perf_counter(), 0.0, stack[-1] if stack else -1,
                   tracer.op, 0, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            rec[OK] = True
            if size is not None:
                rec[N] = size(args, kwargs, result, before)
            return result

        return traced

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        if self._saved:
            return
        for module, path, name, pre, size in TARGETS:
            owner, attr = _resolve(module, path)
            raw = vars(owner)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(name, raw.__func__, pre, size))
            else:
                wrapped = self._wrap(name, raw, pre, size)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def span(self, name: str):
        """A span from the benchmark's own code (recorded only while installed)."""
        if not self._saved:
            yield
            return
        rec = [name, perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, self.op, 0, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[END] = perf_counter()
            self._stack.pop()
        rec[OK] = True

    def to_reference(self, ref) -> None:
        """Map every span's start and end through ``ref`` (speed.Gauge.ref),
        from perf_counter seconds to reference seconds."""
        for rec in self.spans:
            rec[START], rec[END] = ref(rec[START]), ref(rec[END])

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")))
                fh.write("\n")


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the summed durations of its direct children."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, child)]
