"""Telemetry simulator: schedule, RNG streams, and byte-stable payloads.

Frozen draw and payload values below were derived with hashlib and
random.Random alone, outside this package.
"""

import hashlib
import random

import pytest

from iotid.did import generate_keypair, make_did
from iotid.sim import (
    FlowConfig,
    SensorReading,
    build_network,
    device_key_seed,
    device_keypair,
    reading_file_path,
    render_payload,
    render_time,
    run,
    write_asset_files,
)

# first three draws of devices 1 and 2 under seed 0
DRAWS_DEV1 = [32.18, 95.37, 40.36]
DRAWS_DEV2 = [23.85, 94.25, 63.16]

GOLDEN_PAYLOAD = (b'{"d":{"Time":"1970-01-01T00:00:30Z",'
                  b'"manufacturer_id":"ABCDEF00001","temperature":32.18}}')


def default_run(duration=300):
    return run(build_network(FlowConfig()), duration)


# -- schedule -------------------------------------------------------------------


def test_five_minutes_of_five_devices_is_fifty_readings():
    readings = default_run(300)
    assert len(readings) == 50
    for index in range(1, 6):
        own = [r for r in readings if r.device_index == index]
        assert [r.counter for r in own] == list(range(1, 11))
        assert [r.time for r in own] == [30 * c for c in range(1, 11)]
    assert readings[0].time == 30
    assert readings[-1].time == 300


def test_readings_ordered_by_time_then_device():
    readings = default_run(300)
    assert [(r.time, r.device_index) for r in readings] == \
        sorted((r.time, r.device_index) for r in readings)


def test_first_emission_needs_one_full_interval():
    assert default_run(0) == []
    assert default_run(29) == []
    partial = default_run(31)  # only the t=30 tick fits
    assert len(partial) == 5
    assert {r.counter for r in partial} == {1}


def test_negative_duration_rejected():
    with pytest.raises(ValueError):
        default_run(-1)


# -- values ----------------------------------------------------------------------


def test_draws_stay_in_range_at_two_decimals():
    config = FlowConfig(device_count=2, value_min=18.0, value_max=26.5, seed=3)
    readings = run(build_network(config), 3000)
    assert len(readings) == 200
    for reading in readings:
        assert 18.0 <= reading.temperature <= 26.5
        assert reading.temperature == round(reading.temperature, 2)


def test_draw_streams_match_independent_derivation():
    readings = default_run(90)
    by_device = {i: [r.temperature for r in readings if r.device_index == i]
                 for i in (1, 2)}
    assert by_device[1] == DRAWS_DEV1
    assert by_device[2] == DRAWS_DEV2
    # same values, derived here from nothing but hashlib and random
    for index, expected in ((1, DRAWS_DEV1), (2, DRAWS_DEV2)):
        seed = int.from_bytes(
            hashlib.sha256(f"iotid/sim/0/{index}".encode("utf-8")).digest(), "big")
        rng = random.Random(seed)
        assert [round(rng.uniform(0.0, 100.0), 2) for _ in range(3)] == expected


def test_runs_are_deterministic():
    assert default_run(300) == default_run(300)


def test_device_streams_do_not_depend_on_network_size():
    five = run(build_network(FlowConfig(device_count=5)), 300)
    two = run(build_network(FlowConfig(device_count=2)), 300)
    shared = lambda rs: [(r.device_index, r.counter, r.temperature)
                         for r in rs if r.device_index <= 2]
    assert shared(five) == shared(two)


# -- payloads --------------------------------------------------------------------


def test_golden_payload_bytes():
    first = default_run(30)[0]
    assert render_payload(first) == GOLDEN_PAYLOAD


def test_whole_number_temperature_renders_bare():
    reading = SensorReading(device_index=1, device_did=make_did(b"\x01" * 32),
                            manufacturer_id="M", time=30, temperature=21.0,
                            counter=1)
    assert render_payload(reading) == \
        b'{"d":{"Time":"1970-01-01T00:00:30Z","manufacturer_id":"M","temperature":21}}'


@pytest.mark.parametrize("time,text", [
    (0, "1970-01-01T00:00:00Z"),
    (30, "1970-01-01T00:00:30Z"),
    (3600, "1970-01-01T01:00:00Z"),
    (1700000000, "2023-11-14T22:13:20Z"),
])
def test_render_time(time, text):
    assert render_time(time) == text


# -- files -----------------------------------------------------------------------


def test_file_tree_layout_and_rewrite_stability(tmp_path):
    readings = default_run(300)
    written = write_asset_files(readings, tmp_path)
    assert len(written) == 50
    for reading, (path, payload) in zip(readings, written):
        assert path == tmp_path / f"device{reading.device_index}" / \
            f"{reading.counter}.txt"
        assert path.read_bytes() == payload == render_payload(reading)
    snapshot = {p: p.read_bytes() for p in sorted(tmp_path.rglob("*.txt"))}
    write_asset_files(readings, tmp_path)
    assert {p: p.read_bytes() for p in sorted(tmp_path.rglob("*.txt"))} == snapshot


def test_reading_file_path_shape(tmp_path):
    reading = default_run(30)[2]
    assert reading_file_path(tmp_path, reading) == tmp_path / "device3" / "1.txt"


# -- configuration ----------------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    {"device_count": 0},
    {"interval_seconds": 0},
    {"value_min": 5.0, "value_max": 4.9},
    {"value_min": float("nan")},
    {"value_max": float("nan")},
    {"value_min": float("-inf")},
    {"value_max": float("inf")},
    {"value_min": -1e308, "value_max": 1e308},
])
def test_config_rejects_nonsense(kwargs):
    with pytest.raises(ValueError):
        FlowConfig(**kwargs)


def test_device_keys_split_from_master_seed():
    material = hashlib.sha256(b"iotid/device/7/3").digest()
    assert device_key_seed(7, 3) == material
    assert device_keypair(7, 3).public_key == generate_keypair(material).public_key
    flow = build_network(FlowConfig(device_count=3, seed=7)).flows[2]
    assert flow.did == make_did(device_keypair(7, 3).public_key)
