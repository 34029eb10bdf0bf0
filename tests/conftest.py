import os

import pytest
from hypothesis import settings

from iotid.clock import SimClock
from iotid.store import ContentStore

from util import Principal, make_engine, registrar_principal

# CI runs the property tests harder: HYPOTHESIS_PROFILE=ci. Tests that set
# their own max_examples keep it.
settings.register_profile("ci", max_examples=500, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def engine(tmp_path, clock):
    eng = make_engine(tmp_path, clock)
    yield eng
    eng.close()


@pytest.fixture
def registrar(engine):
    return registrar_principal(engine)


@pytest.fixture
def device():
    return Principal.from_seed(1)


@pytest.fixture
def other_device():
    return Principal.from_seed(2)


@pytest.fixture
def store_calls(monkeypatch):
    """Every ContentStore.put, .put_block and .get, as (method name, store),
    in call order."""
    calls = []
    for name in ("put", "put_block", "get"):
        real = getattr(ContentStore, name)
        monkeypatch.setattr(ContentStore, name,
                            lambda store, *args, name=name, real=real:
                            calls.append((name, store)) or real(store, *args))
    return calls
