"""The benchmark drives iotid through perfbench/; keep what it calls working.

``perfbench/tracing.py`` lists every attribute it swaps in during a traced
run, and ``perfbench/harness.py`` provisions, uploads and checks through
the gateway, engine and CLI. A refactor that renames, drops or re-shapes
one of them would otherwise only surface when ``perfbench/run.py`` runs.
Both files are loaded as they are, never changed.
"""

import importlib.util
import sys
from pathlib import Path

from iotid import journal as journal_module
from iotid.journal import VALID
from iotid.ledger import STATE_FILE

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    tracing = load("tracing")
    missing = []
    for module, path, *_ in tracing.TARGETS:
        try:
            owner, attr = tracing._resolve(module, path)
            vars(owner)[attr]  # the tracer swaps exactly this binding
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module}:{path}")
    assert len(tracing.TARGETS) > 40
    assert missing == []


def test_harness_provisions_uploads_and_checks(tmp_path):
    harness = load("harness")
    env = harness.provision(tmp_path, seed=1, device_count=2, tick=lambda: None)
    device = env.devices[0]
    model = harness.UploadModel(batch=10)
    engine = env.open_engine()
    payload = b'{"d":{"guard":1}}'
    tx_id = engine.submit(harness.make_upload(device, engine.clock, payload,
                                              "guard/1.txt"))
    engine.flush()
    model.upload(0, device.index, payload)
    model.cut()
    assert engine.tx_flag(tx_id) == VALID
    assert harness.check_chain(env, engine.state) == []  # a second engine
    height = engine.height
    engine.close()
    engine.close()
    assert harness.check_cold_reader(env, model, device, b'{"d":{"cold":1}}',
                                     height) == []


def test_benchmark_checks_pass_on_a_checkpointed_ledger(tmp_path, monkeypatch):
    harness = load("harness")
    env = harness.provision(tmp_path, seed=1, device_count=2, tick=lambda: None)
    model = harness.UploadModel(batch=1)
    engine = env.open_engine()
    for i in range(20):
        device = env.devices[i % 2]
        payload = b'{"d":{"guard":%d}}' % i
        model.upload(i, device.index, payload)
        engine.submit(harness.make_upload(device, engine.clock, payload,
                                          f"guard/{i}.txt"))
        engine.flush()
    height = engine.height
    engine.close()
    assert (env.ledger_dir / STATE_FILE).exists()
    # every engine opened from here on starts from the state store: it
    # reads block 0 and the savepoint's block, decodes neither whole, and
    # replays nothing
    read, decoded = [], []
    real_read, real_decode = journal_module._read_record, journal_module.Block.from_dict
    monkeypatch.setattr(journal_module, "_read_record",
                        lambda index, *args: read.append(index) or real_read(index, *args))
    monkeypatch.setattr(journal_module.Block, "from_dict",
                        staticmethod(lambda d: decoded.append(d["number"]) or real_decode(d)))
    reader = env.open_engine()
    try:
        assert read == [0, height - 1]
        assert decoded == []
        assert harness.check_chain(env, reader.state) == []
        assert harness.query_counts_ok(reader, model, env.devices,
                                       env.login_rng) == []
    finally:
        reader.close()
    assert harness.check_cold_reader(env, model, env.devices[0], b'{"d":{"cold":1}}',
                                     height) == []
