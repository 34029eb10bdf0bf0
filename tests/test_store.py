import os
import stat

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


# -- block files: one per committed block, read by (key, block) ---------------


def test_a_block_file_holds_length_prefixed_records_in_order(store, tmp_path):
    store.put_block(7, [b"hello world", b"second"])
    path = tmp_path / "objects" / "7.block"
    assert path.read_bytes() == b"\0\0\0\x0bhello world\0\0\0\x06second"
    assert [p.name for p in (tmp_path / "objects").iterdir()] == ["7.block"]
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    assert store.get(ContentHash.from_hex(HELLO), 7) == b"hello world"
    assert store.get(ContentHash.of(b"second"), 7) == b"second"
    # a block file is not a digest-named file
    assert len(ContentStore(tmp_path / "objects")) == 0


def test_a_block_write_replaces_a_stale_file_of_its_number(store, tmp_path):
    store.put_block(3, [b"never committed"])
    store.put_block(3, [b"committed"])
    assert (tmp_path / "objects" / "3.block").read_bytes() == b"\0\0\0\x09committed"
    assert store.get(ContentHash.of(b"committed"), 3) == b"committed"
    assert [p.name for p in (tmp_path / "objects").iterdir()] == ["3.block"]


def test_digest_files_of_earlier_versions_still_read(store):
    # earlier versions wrote each upload's payload with put
    legacy = store.put(b"uploaded by an earlier version")
    assert store.get(legacy, 4) == b"uploaded by an earlier version"
    store.put_block(4, [b"hello world"])
    assert store.get(legacy, 4) == b"uploaded by an earlier version"
    assert store.get(legacy) == b"uploaded by an earlier version"


@pytest.mark.parametrize("at", [0, 3, 4, 10])
def test_a_flipped_byte_in_a_block_file_fails_the_read(store, tmp_path, at):
    # a flip in the length runs the record past the file's end; one in the
    # bytes leaves no record that hashes to the key
    store.put_block(5, [b"hello world"])
    path = tmp_path / "objects" / "5.block"
    data = bytearray(path.read_bytes())
    data[at] ^= 0x01
    path.write_bytes(bytes(data))
    with pytest.raises(IntegrityFailure):
        store.get(ContentHash.from_hex(HELLO), 5)


def test_a_missing_block_file_is_content_not_found(store, tmp_path):
    store.put_block(5, [b"hello world"])
    (tmp_path / "objects" / "5.block").unlink()
    with pytest.raises(ContentNotFound):
        store.get(ContentHash.from_hex(HELLO), 5)
    with pytest.raises(ContentNotFound):
        store.get(ContentHash.from_hex(HELLO), 6)


def test_a_failed_block_write_leaves_no_file(store, tmp_path, monkeypatch):
    real = os.fdopen

    def full(fd, *args):
        real(fd).close()  # the block file is made, then the disk fills
        raise OSError(28, "no space left on device")

    monkeypatch.setattr("iotid.store.os.fdopen", full)
    with pytest.raises(OSError):
        store.put_block(1, [b"hello world"])
    monkeypatch.undo()
    assert list((tmp_path / "objects").iterdir()) == []


@given(st.lists(st.binary(min_size=1, max_size=512), min_size=1, max_size=10))
def test_any_block_of_contents_reads_back(tmp_path_factory, contents):
    store = ContentStore(tmp_path_factory.mktemp("objects"))
    store.put_block(2, contents)
    for data in contents:
        assert store.get(ContentHash.of(data), 2) == data
