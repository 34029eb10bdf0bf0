"""Deterministic flow-based IoT telemetry simulator.

Models a small sensor network as one flow per device: a timer injects on
a fixed interval, a random node draws a temperature, a function node
shapes the payload, and a sink writes one file per reading. Everything
runs on simulated integer seconds from epoch 0 so that two runs with the
same seed produce byte-identical payloads and file trees.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .codec import canonical_json, canonical_number, sha256
from .did import DEFAULT_MANUFACTURER_ID, Did, KeyPair, generate_keypair, make_did

DEFAULT_DEVICE_COUNT = 5
DEFAULT_INTERVAL_SECONDS = 30
DEFAULT_VALUE_MIN = 0.0
DEFAULT_VALUE_MAX = 100.0


def device_key_seed(seed: int, device_index: int) -> bytes:
    """Key material for device i, split from the master seed.

    The gateway derives device keys the same way, so a simulated device's
    DID is the DID the keystore would register for it.
    """
    return sha256(f"iotid/device/{seed}/{device_index}".encode("utf-8"))


def _stream_seed(seed: int, device_index: int) -> int:
    # independent per-device RNG stream: hashing decorrelates neighbors
    return int.from_bytes(sha256(f"iotid/sim/{seed}/{device_index}".encode("utf-8")),
                          "big")


@dataclass(frozen=True)
class FlowConfig:
    """Shape of the simulated network; defaults mirror the five-device setup."""

    device_count: int = DEFAULT_DEVICE_COUNT
    interval_seconds: int = DEFAULT_INTERVAL_SECONDS
    value_min: float = DEFAULT_VALUE_MIN
    value_max: float = DEFAULT_VALUE_MAX
    manufacturer_id: str = DEFAULT_MANUFACTURER_ID
    seed: int = 0

    def __post_init__(self):
        if self.device_count < 1:
            raise ValueError("device_count must be >= 1")
        if self.interval_seconds <= 0:
            raise ValueError("interval_seconds must be > 0")
        if self.value_min > self.value_max:
            raise ValueError("value_min must be <= value_max")


@dataclass(frozen=True)
class SensorReading:
    device_index: int  # 1-based
    device_did: Did
    manufacturer_id: str
    time: int  # simulated-epoch seconds, always a multiple of the interval
    temperature: float
    counter: int  # per-device 1-based sequence number


@dataclass
class DeviceFlow:
    """One inject -> random -> function -> sink pipeline."""

    index: int
    did: Did
    rng: random.Random = field(repr=False)

    def draw(self, value_min: float, value_max: float) -> float:
        # two-decimal precision keeps payload bytes (and dataIds) stable
        return round(self.rng.uniform(value_min, value_max), 2)


@dataclass
class SimNetwork:
    config: FlowConfig
    flows: list[DeviceFlow]


def device_keypair(seed: int, device_index: int) -> KeyPair:
    return generate_keypair(device_key_seed(seed, device_index))


def build_network(config: FlowConfig) -> SimNetwork:
    """Instantiate one flow per device, each with its own RNG stream."""
    flows = []
    for index in range(1, config.device_count + 1):
        keypair = device_keypair(config.seed, index)
        flows.append(DeviceFlow(index=index,
                                did=make_did(keypair.public_key),
                                rng=random.Random(_stream_seed(config.seed, index))))
    return SimNetwork(config=config, flows=flows)


def run(network: SimNetwork, duration_seconds: int) -> list[SensorReading]:
    """Advance the simulated clock and collect every emission.

    Devices emit at t = interval, 2*interval, ..., floor(duration/interval)
    * interval; the first emission is one full interval after start, so
    each device produces exactly floor(duration/interval) readings.
    Output is ordered by (time, device index).
    """
    if duration_seconds < 0:
        raise ValueError("duration_seconds must be >= 0")
    config = network.config
    emissions = duration_seconds // config.interval_seconds
    readings: list[SensorReading] = []
    for counter in range(1, emissions + 1):
        now = counter * config.interval_seconds
        for flow in network.flows:
            readings.append(SensorReading(
                device_index=flow.index,
                device_did=flow.did,
                manufacturer_id=config.manufacturer_id,
                time=now,
                temperature=flow.draw(config.value_min, config.value_max),
                counter=counter,
            ))
    return readings


def render_time(time: int) -> str:
    return datetime.fromtimestamp(time, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def render_payload(reading: SensorReading) -> bytes:
    """Byte-stable telemetry payload, one JSON object per reading."""
    body = {
        "Time": render_time(reading.time),
        "manufacturer_id": reading.manufacturer_id,
        "temperature": canonical_number(reading.temperature),
    }
    return canonical_json({"d": body})


def reading_file_path(output_dir: Path, reading: SensorReading) -> Path:
    return Path(output_dir) / f"device{reading.device_index}" / f"{reading.counter}.txt"


def write_asset_files(readings: list[SensorReading],
                      output_dir: Path) -> list[tuple[Path, bytes]]:
    """One file per reading under ``<outputDir>/device<i>/<c>.txt``."""
    written: list[tuple[Path, bytes]] = []
    for reading in readings:
        path = reading_file_path(output_dir, reading)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = render_payload(reading)
        path.write_bytes(payload)
        written.append((path, payload))
    return written


def simulate(config: FlowConfig, duration_seconds: int,
             output_dir: str | Path) -> tuple[dict, list[SensorReading]]:
    """Run the simulator once: the file-tree summary and the readings."""
    readings = run(build_network(config), duration_seconds)
    written = write_asset_files(readings, Path(output_dir))
    per_device = Counter(f"device{r.device_index}" for r in readings)
    summary = {
        "outputDir": str(output_dir),
        "files": len(written),
        "perDevice": dict(sorted(per_device.items())),
    }
    return summary, readings
