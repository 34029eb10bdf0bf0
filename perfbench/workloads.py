"""The three workloads.  Each is closed loop with one client: an op is one
call (or one CLI command) and the next op starts only when it returns.

Lifecycle, driven by run.py: ``setup`` (repeated in fresh directories to
time set-up; the last one is used), ``begin_timed``, ``op`` per op and
``after_op`` outside its timing, ``finish`` (timed: cuts what is pending),
``end_timed``, then ``check`` and ``close`` outside the timed region.

A run makes a fixed number of ops, ``ops_count(seconds)``, not as many as
fit in the time: each op's cost grows with the chain and state the earlier
ops left, so only a fixed count gives every commit the same work.  The
rates are sized so that the seed program fills most of ``seconds`` in
reference time (speed.py); cold_commands takes longer, see its
``ops_per_second``.
"""

from __future__ import annotations

import json
import random
import resource
from pathlib import Path
from time import perf_counter

from iotid import assets, idm, ledger
from iotid.codec import sha256

from harness import (
    CommitTracker,
    UploadModel,
    check_chain,
    check_cold_reader,
    cli_json,
    dir_bytes,
    generate_readings,
    journal_flags,
    live_session,
    login,
    make_upload,
    parse_cli,
    provision,
    query_counts_ok,
    run_cli,
)

READ_KINDS = ("query_owned", "query_all", "resolve", "login",
              "list_mine", "list_all", "verify")


class Workload:
    name = ""
    chunk = 50  # traced runs alternate tracing on/off every `chunk` ops
    ops_per_second = 0  # timed ops per second of --seconds

    def __init__(self, seed: int, gauge):
        self.seed = seed
        self.gauge = gauge  # speed.Gauge; its tick() runs between set-up steps
        self.tracker = CommitTracker()
        self.kinds: list[str] = []
        self.observed: dict[int, object] = {}  # upload op -> txId | error code
        self.mismatches: list[str] = []  # read ops whose result was wrong
        self.mismatched_ops: set[int] = set()
        self.digest = None
        self._cycle: list[str] = []

    @classmethod
    def ops_count(cls, seconds: int) -> int:
        return cls.ops_per_second * seconds

    # -- helpers shared by the workloads ------------------------------------

    def _journal_size(self) -> int:
        return self.env.journal().stat().st_size

    def begin_timed(self) -> None:
        self.first_block = self.height()
        self.journal_start = self._journal_size()
        self.objects_start = dir_bytes(self.env.objects())
        self.payload_start = self.model.valid_payload_bytes

    def end_timed(self) -> None:
        self.journal_end = self._journal_size()
        self.stored_growth = (self.journal_end - self.journal_start
                              + dir_bytes(self.env.objects()) - self.objects_start)
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def after_op(self, op: int) -> None:
        pass

    def _pick_kind(self) -> str:
        """Next kind from MIX.  Each cycle of sum(counts) ops holds exactly
        the listed count of each kind, in a seeded shuffled order, so the
        mix is the same on every seed and only the order varies."""
        if not self._cycle:
            self._cycle = [kind for kind, count in self.MIX for _ in range(count)]
            self.rng.shuffle(self._cycle)
        return self._cycle.pop()

    def _expect(self, op: int, what: str, got, want) -> None:
        if got != want:
            self.mismatched_ops.add(op)
            self.mismatches.append(f"op {op} {what}: got {got!r}, want {want!r}")

    def timed_journal(self) -> dict:
        """Exact facts about the blocks the timed phase appended."""
        raw = self.env.journal().read_bytes()[self.journal_start:self.journal_end]
        txs, flags = 0, {f: 0 for f in ledger.FLAG_VALUES}
        blocks = [line for line in raw.split(b"\n") if line]
        for line in blocks:
            block = ledger.Block.from_dict(json.loads(line))
            txs += len(block.transactions)
            for flag in block.validation_flags:
                flags[flag] += 1
        return {"bytes": len(raw), "blocks": len(blocks), "txs": txs,
                "flags": flags, "digest": sha256(raw).hex()}

    def valid_committed(self, flags: dict[bytes, str]) -> int:
        return sum(1 for got in self.observed.values()
                   if isinstance(got, bytes) and flags.get(got) == ledger.VALID)

    def valid_payload_bytes(self) -> int:
        return self.model.valid_payload_bytes - self.payload_start


class _Warm(Workload):
    """A long-running gateway: one engine held open on a SimClock."""

    devices = 32

    def setup(self, root: Path, count: int, tracer) -> None:
        self.env = provision(root, self.seed, self.devices, self.gauge.tick)
        # at most one fresh reading per timed op
        self.readings = generate_readings(self.seed, self.devices,
                                          self.pregrow + count, tracer)
        self.engine = self.env.open_engine()
        self.model = UploadModel(self.engine.genesis.max_block_txs)
        self.next_reading = 0
        for i in range(self.pregrow):
            self.gauge.tick()
            self._unique_upload(-1 - i)
        self.tracker.call(self.engine, self.engine.flush)
        self.model.cut()
        self.tracker.intervals.clear()
        self.observed.clear()

    def height(self) -> int:
        return self.engine.height

    def _upload(self, op: int, device_index: int, payload: bytes,
                asset_name: str) -> None:
        device = self.env.devices[device_index - 1]
        proposal = make_upload(device, self.engine.clock, payload, asset_name)
        self.model.upload(op, device_index, payload)
        try:
            self.observed[op] = self.tracker.call(
                self.engine, self.engine.submit, proposal, submit=True)
        except ledger.ContractError as exc:
            self.observed[op] = exc.code

    def _unique_upload(self, op: int) -> None:
        reading = self.readings[self.next_reading]
        self.next_reading += 1
        self._upload(op, reading.device, reading.payload, reading.asset_name)

    def finish(self) -> None:
        self.tracker.call(self.engine, self.engine.flush)
        self.model.cut()

    def check(self) -> list[str]:
        self.timed_facts = self.timed_journal()
        self.digest = self.timed_facts["digest"]
        self.flags = journal_flags(self.engine, self.first_block)
        problems = check_chain(self.env, self.engine.state)
        problems += query_counts_ok(self.engine, self.model, self.env.devices,
                                    self.env.login_rng)
        height = self.engine.height
        self.engine.close()
        marker = f'{{"perfbench":"cold-reader","seed":{self.seed}}}'.encode()
        problems += check_cold_reader(self.env, self.model, self.env.devices[0],
                                      marker, height)
        return problems

    def close(self) -> None:
        self.engine.close()


class UploadStream(_Warm):
    """Round-robin sim telemetry uploads into a near-empty chain."""

    name = "upload_stream"
    pregrow = 0
    ops_per_second = 250

    def op(self, op: int) -> None:
        self.kinds.append("upload")
        self._unique_upload(op)


class MixedDedup(_Warm):
    """Uploads, refused and conflicting re-uploads, and reads, over state
    pre-grown in setup."""

    name = "mixed_dedup"
    pregrow = 600
    ops_per_second = 300
    # op kind -> ops per cycle of 20
    MIX = (("upload", 9), ("dup_committed", 2), ("dup_pending", 2),
           ("query_owned", 3), ("query_all", 1), ("resolve", 2), ("login", 1))

    def setup(self, root: Path, count: int, tracer) -> None:
        super().setup(root, count, tracer)
        self.rng = random.Random(f"mixed_dedup/{self.seed}")

    def _device(self):
        return self.env.devices[self.rng.randrange(len(self.env.devices))]

    def op(self, op: int) -> None:
        kind = self._pick_kind()
        device = self._device()
        engine = self.engine
        if kind == "dup_pending":
            entry = self.model.pending_by_other(device.index)
            if entry is None:
                kind = "upload"
            else:
                self._upload(op, device.index, self.model.payloads[entry[1]],
                             f"dup/{op}.txt")
        if kind == "dup_committed":
            committed = self.model.committed_order
            data_id = committed[self.rng.randrange(len(committed))]
            self._upload(op, device.index, self.model.payloads[data_id], f"dup/{op}.txt")
        elif kind == "upload":
            self._unique_upload(op)
        elif kind == "query_owned":
            session = live_session(engine, device, self.env.login_rng)
            rows = assets.query_owned_assets(engine.state, session, engine.clock.now())
            self._expect(op, kind, len(rows), self.model.owned.get(device.index, 0))
        elif kind == "query_all":
            rows = assets.query_all_assets(engine.state)
            self._expect(op, kind, len(rows), self.model.total())
        elif kind == "resolve":
            doc = idm.resolve_did(engine.state, engine.store, device.did)
            self._expect(op, kind, doc.public_key_hex, device.keypair.public_key.hex())
        elif kind == "login":
            session = login(engine, device, self.env.login_rng)
            self._expect(op, kind, session.did, device.did)
        self.kinds.append(kind)


class ColdCommands(Workload):
    """Single CLI commands against a chain grown in setup; each command
    opens the ledger, replays it, works and closes, as a CLI user does."""

    name = "cold_commands"
    chunk = 5
    # The seed program makes about 11 commands per reference second at this
    # height, so the timed phase takes about 2x --seconds: 200 ops at 10 s
    # put 10 samples beyond op_latency_p95_ms, and their 100 uploads 10
    # beyond commit_latency_p90_ms.
    ops_per_second = 20
    devices = 8
    height_txs = 1500
    # op kind -> ops per cycle of 20
    MIX = (("upload", 10), ("list_mine", 3), ("list_all", 2), ("login", 3),
           ("verify", 2))

    def setup(self, root: Path, count: int, tracer) -> None:
        self.env = env = provision(root, self.seed, self.devices, self.gauge.tick)
        # at most one payload file per timed op
        readings = generate_readings(self.seed, self.devices,
                                     self.height_txs + count, tracer)
        engine = env.open_engine()
        try:
            self.model = UploadModel(engine.genesis.max_block_txs)
            for i, reading in enumerate(readings[:self.height_txs]):
                self.gauge.tick()
                device = env.devices[reading.device - 1]
                self.model.upload(-1 - i, reading.device, reading.payload)
                try:
                    engine.submit(make_upload(device, engine.clock,
                                              reading.payload, reading.asset_name))
                except ledger.ContractError as exc:
                    if exc.code != "DuplicateAsset":
                        raise
            engine.flush()
            self.model.cut()
            self._height = engine.height
        finally:
            engine.close()
        self.files = []
        for reading in readings[self.height_txs:]:
            path = root / "payloads" / reading.asset_name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(reading.payload)
            self.files.append((reading.device, path, reading.payload))
        self.next_file = 0
        # CLI sessions live on the wall clock, unlike the SimClock setup
        for device in env.devices:
            self.gauge.tick()
            rc, out = cli_json(env, "device-login", device.name)
            if rc != 0:
                raise RuntimeError(f"setup: cli device-login {device.name}: {out}")
        self.rng = random.Random(f"cold_commands/{self.seed}")
        self.model.batch = 1  # every CLI upload flushes its own block

    def height(self) -> int:
        return self._height

    def op(self, op: int) -> None:
        kind = self._pick_kind()
        device = self.env.devices[self.rng.randrange(len(self.env.devices))]
        want_block = None
        if kind == "upload":
            index, path, payload = self.files[self.next_file]
            self.next_file += 1
            device = self.env.devices[index - 1]
            if self.model.upload(op, index, payload) == "queued":
                want_block = self._height
                self._height += 1
            argv = ("asset-upload", device.name, str(path))
        elif kind == "list_mine":
            argv = ("asset-list", "--mine", device.name)
        elif kind == "list_all":
            argv = ("asset-list",)
        elif kind == "login":
            argv = ("device-login", device.name)
        else:
            argv = ("chain-verify",)
        start = perf_counter()
        result = run_cli(self.env, *argv)
        self._last = (kind, device, want_block, (start, perf_counter()), result)
        self.kinds.append(kind)

    def after_op(self, op: int) -> None:
        """Parse and check the command's output, outside its timing."""
        kind, device, want_block, span, (rc, text) = self._last
        out = parse_cli(text)
        if kind == "upload":
            if rc == 0:
                # the command carried the tx and cut its block: for a CLI
                # user the commit latency is the whole command
                self.tracker.intervals.append(span)
                self.observed[op] = bytes.fromhex(out["txId"])
                self._expect(op, "upload block", out.get("block"), want_block)
            else:
                self.observed[op] = out.get("error", f"exit {rc}")
        elif kind == "list_mine":
            self._expect(op, kind, (rc, out.get("count")),
                         (0, self.model.owned.get(device.index, 0)))
        elif kind == "list_all":
            self._expect(op, kind, (rc, out.get("count")), (0, self.model.total()))
        elif kind == "login":
            self._expect(op, kind, (rc, out.get("did")), (0, str(device.did)))
        else:
            self._expect(op, kind, (rc, out.get("ok"), out.get("height")),
                         (0, True, self._height))

    def finish(self) -> None:
        pass

    def check(self) -> list[str]:
        self.timed_facts = self.timed_journal()
        engine = self.env.open_engine()
        try:
            self.flags = journal_flags(engine, self.first_block)
            problems = check_chain(self.env)
            problems += query_counts_ok(engine, self.model, self.env.devices,
                                        self.env.login_rng)
        finally:
            engine.close()
        return problems

    def close(self) -> None:
        pass


WORKLOADS = {cls.name: cls for cls in (UploadStream, ColdCommands, MixedDedup)}
