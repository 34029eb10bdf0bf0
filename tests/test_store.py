import pytest
from hypothesis import given
from hypothesis import strategies as st

from iotid.store import (
    ContentHash,
    ContentNotFound,
    ContentStore,
    EmptyContent,
    IntegrityFailure,
)

HELLO = "b94d27b9934d3e08a52e52d7da7dabfac484efe37a5380ee9088f7ace2efcde9"


@pytest.fixture
def store(tmp_path):
    return ContentStore(tmp_path / "objects")


def test_put_get_round_trip(store):
    h = store.put(b"hello world")
    assert h.hex == HELLO
    assert store.get(h) == b"hello world"


def test_content_file_named_by_digest(store, tmp_path):
    store.put(b"hello world")
    assert (tmp_path / "objects" / HELLO).exists()


def test_put_is_idempotent(store, tmp_path):
    a = store.put(b"same")
    b = store.put(b"same")
    assert a == b
    assert len(store) == 1
    assert len(list((tmp_path / "objects").iterdir())) == 1


def test_the_directory_is_made_by_the_first_put(store, tmp_path):
    objects = tmp_path / "objects"
    assert not objects.exists()
    assert len(store) == 0
    with pytest.raises(ContentNotFound):
        store.get(ContentHash.from_hex(HELLO))
    assert not objects.exists()
    assert store.get(store.put(b"hello world")) == b"hello world"
    assert len(store) == 1
    assert [p.name for p in objects.iterdir()] == [HELLO]


def test_empty_content_refused(store):
    with pytest.raises(EmptyContent):
        store.put(b"")


def test_missing_content(store):
    missing = ContentHash.of(b"never stored")
    with pytest.raises(ContentNotFound):
        store.get(missing)


def test_tampered_content_detected_on_read(store, tmp_path):
    h = store.put(b"important document")
    path = tmp_path / "objects" / h.hex
    data = bytearray(path.read_bytes())
    data[0] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(IntegrityFailure):
        store.get(h)


def test_reopen_indexes_existing_content(store, tmp_path):
    h = store.put(b"persisted")
    again = ContentStore(tmp_path / "objects")
    assert again.get(h) == b"persisted"
    assert len(again) == 1


def test_content_hash_text_forms():
    h = ContentHash.of(b"hello world")
    assert h.hex == HELLO
    assert ContentHash.from_hex(HELLO) == h
    with pytest.raises(ValueError):
        ContentHash.from_hex("abc")
    with pytest.raises(ValueError):
        ContentHash(b"short")


@given(st.binary(min_size=1, max_size=4096))
def test_any_content_round_trips(tmp_path_factory, data):
    store = ContentStore(tmp_path_factory.mktemp("objects"))
    assert store.get(store.put(data)) == data
