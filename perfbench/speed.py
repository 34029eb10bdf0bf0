"""Host-speed gauge: turns wall-clock intervals into reference seconds.

A shared host can run the same CPU work at speeds up to about 2x apart, in
stretches of seconds to minutes, so a run's wall times depend on which
stretch it fell into.  The gauge runs a short fixed burst of work between
ops (every ``INTERVAL_S`` seconds, never inside a timed op) and reads the
host's speed from how long the burst took.  Every time the benchmark
reports is then in reference seconds: wall time scaled by
``REF_BURST_S / burst time``, the time the work would take on a host that
runs the burst in ``REF_BURST_S``.  The bursts themselves are cut out of
every interval that spans them.

The burst uses only the standard library and ``cryptography`` (never
``iotid``), so a change to the program cannot move it.  It mixes Ed25519
signing and verification with canonical JSON, sha256 and dict work in
about the share the upload path spends on each, because the host's
slow stretches slow C crypto and interpreted Python by different amounts.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
from bisect import bisect_right
from time import perf_counter

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

# What one burst takes on the reference host: about its time on a 2-vCPU
# Xeon VM in the VM's fast stretches.
REF_BURST_S = 0.001
_ROUNDS = 3  # (1 sign + verify, 5 JSON/hash/dict units) per round
INTERVAL_S = 0.05  # least time between two ticked bursts
_KEY = Ed25519PrivateKey.from_private_bytes(hashlib.sha256(b"perfbench-gauge").digest())
_PUB = _KEY.public_key()
_HEX = hashlib.sha256(b"perfbench-payload").hexdigest() * 3


def _burst() -> None:
    for r in range(_ROUNDS):
        message = _HEX.encode() + bytes([r])
        _PUB.verify(_KEY.sign(message), message)
        for i in range(5):
            doc = {"seq": i, "payload": _HEX,
                   "args": ["did:iot:" + _HEX[:40], f"dev/{i}.txt", _HEX],
                   "meta": {f"k{j}": [j, str(j)] for j in range(12)}}
            raw = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
            hashlib.sha256(raw).hexdigest()
            back = json.loads(raw)
            sorted((k, v[1]) for k, v in back["meta"].items())


class Gauge:
    """Records bursts; ``ref`` maps a perf_counter time to reference seconds.

    Between the end of burst k and the start of burst k+1 reference time
    advances at ``REF_BURST_S`` over the median time of bursts k-2 .. k+3
    (the host's speed drifts over about a second, and single bursts are
    noisy); during a burst it stands still.  Call ``burst`` before the
    first and after the last interval to be measured.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._cum: list[float] | None = None

    def burst(self) -> None:
        # no collection inside a burst: one would scan the program's heap
        # and read as a slow host
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        _burst()
        end = perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(start)
        self.ends.append(end)
        self._cum = None

    def tick(self) -> None:
        """A burst if ``INTERVAL_S`` has passed since the last one."""
        if not self.ends or perf_counter() - self.ends[-1] >= INTERVAL_S:
            self.burst()

    def _prepare(self) -> None:
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        n = len(durations)
        self._slope = [REF_BURST_S / statistics.median(durations[max(0, k - 2):k + 4])
                       for k in range(n)]
        cum = [0.0]
        for k in range(n - 1):
            cum.append(cum[-1] + (self.starts[k + 1] - self.ends[k]) * self._slope[k])
        self._cum = cum

    def ref(self, t: float) -> float:
        """Reference seconds at perf_counter time ``t``."""
        if self._cum is None:
            self._prepare()
        k = bisect_right(self.ends, t) - 1
        if k < 0:  # before the first burst ended
            return (t - self.starts[0]) * self._slope[0] if t < self.starts[0] else 0.0
        if k + 1 < len(self.starts):
            t = min(t, self.starts[k + 1])
        return self._cum[k] + (t - self.ends[k]) * self._slope[k]

    def span(self, start: float, end: float) -> float:
        """Reference seconds between two perf_counter times."""
        return self.ref(end) - self.ref(start)

    def wall_per_ref(self) -> float:
        """Median burst time over REF_BURST_S: how slow the host ran."""
        return statistics.median(e - s for s, e in zip(self.starts, self.ends)) / REF_BURST_S
