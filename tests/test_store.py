import os
import stat

import pytest
from hypothesis import given
from hypothesis import strategies as st

from iotid.store import (
    LOG_FILE,
    ContentHash,
    ContentNotFound,
    ContentStore,
    EmptyContent,
    IntegrityFailure,
)

from util import chunk

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


# -- the content log: one chunk per committed block, read by (key, block) -----


def test_a_blocks_chunk_holds_length_prefixed_records_in_order(store, tmp_path):
    assert store.put_block(7, [b"hello world", b"second"], 0) == 8 + 15 + 10
    path = tmp_path / "objects" / LOG_FILE
    assert path.read_bytes() == \
        b"\0\0\0\x07\0\0\0\x19" b"\0\0\0\x0bhello world\0\0\0\x06second"
    assert [p.name for p in (tmp_path / "objects").iterdir()] == [LOG_FILE]
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    assert store.get(ContentHash.from_hex(HELLO), 7) == b"hello world"
    assert store.get(ContentHash.of(b"second"), 7) == b"second"
    # the log is not a digest-named file
    assert len(ContentStore(tmp_path / "objects")) == 0


def test_each_blocks_chunk_follows_the_last_in_one_log(store, tmp_path):
    end = 0
    for block in (2, 3, 5):
        end = store.put_block(block, [f"block {block}".encode()], end)
    assert (tmp_path / "objects" / LOG_FILE).read_bytes() == \
        b"".join(chunk(block, [f"block {block}".encode()]) for block in (2, 3, 5))
    for block in (2, 3, 5):
        assert store.get(ContentHash.of(f"block {block}".encode()), block) == \
            f"block {block}".encode()
    with pytest.raises(ContentNotFound):  # block 4 has no chunk
        store.get(ContentHash.of(b"block 3"), 4)
    with pytest.raises(IntegrityFailure):  # block 3's chunk does not hold it
        store.get(ContentHash.of(b"block 2"), 3)


def test_a_cut_removes_a_stale_chunk_of_its_number(store, tmp_path):
    end = store.put_block(2, [b"committed"], 0)
    store.put_block(3, [b"never committed"], end)
    assert store.cut(end, 3) == end
    assert store.put_block(3, [b"committed too"], end) == end + len(chunk(3, [b"committed too"]))
    assert (tmp_path / "objects" / LOG_FILE).read_bytes() == \
        chunk(2, [b"committed"]) + chunk(3, [b"committed too"])
    assert store.get(ContentHash.of(b"committed too"), 3) == b"committed too"
    with pytest.raises(IntegrityFailure):
        store.get(ContentHash.of(b"never committed"), 3)


@pytest.mark.parametrize("tail", [
    b"",  # nothing after the last chunk below the height
    chunk(4, [b"next"]),  # a whole chunk of a block not below the height
    chunk(3, [b"stale"])[:-1],  # a torn chunk
    chunk(3, [b"stale"])[:7],  # a torn header
], ids=["nothing", "a later block", "a torn chunk", "a torn header"])
def test_a_cut_keeps_the_whole_chunks_of_blocks_below_the_height(store, tmp_path, tail):
    log = tmp_path / "objects" / LOG_FILE
    end = store.put_block(1, [b"one"], 0)
    committed = store.put_block(2, [b"two"], end)
    with log.open("ab") as fh:
        fh.write(tail)
    # from the committed length of block 1, and from 0 as a rebuild walks
    for start in (end, 0):
        assert store.cut(start, 3) == committed
        assert log.read_bytes() == chunk(1, [b"one"]) + chunk(2, [b"two"])
    # a committed length past the log's end walks from 0
    assert store.cut(committed + 100, 3) == committed
    assert store.cut(end, 2) == end  # block 2 is not below height 2
    assert store.cut(0, 1) == 0  # nor is block 1 below height 1: the log goes
    assert not log.exists()
    assert store.cut(0, 3) == 0  # and no log is no content


def test_digest_files_of_earlier_versions_still_read(store):
    # earlier versions wrote each upload's payload with put
    legacy = store.put(b"uploaded by an earlier version")
    assert store.get(legacy, 4) == b"uploaded by an earlier version"
    store.put_block(4, [b"hello world"], 0)
    assert store.get(legacy, 4) == b"uploaded by an earlier version"
    assert store.get(legacy) == b"uploaded by an earlier version"


@pytest.mark.parametrize("at", [0, 3, 4, 10])
def test_a_flipped_byte_in_a_block_file_fails_the_read(store, tmp_path, at):
    # a flip in a record's length runs the record past its chunk's end; one
    # in the bytes leaves no record that hashes to the key (``at`` counts
    # from the end of the chunk's header)
    store.put_block(5, [b"hello world"], 0)
    path = tmp_path / "objects" / LOG_FILE
    data = bytearray(path.read_bytes())
    data[8 + at] ^= 0x01
    path.write_bytes(bytes(data))
    with pytest.raises(IntegrityFailure):
        store.get(ContentHash.from_hex(HELLO), 5)


def test_a_missing_block_file_is_content_not_found(store, tmp_path):
    store.put_block(5, [b"hello world"], 0)
    with pytest.raises(ContentNotFound):  # no chunk of block 6
        store.get(ContentHash.from_hex(HELLO), 6)
    (tmp_path / "objects" / LOG_FILE).unlink()
    with pytest.raises(ContentNotFound):
        store.get(ContentHash.from_hex(HELLO), 5)


def test_a_failed_block_write_leaves_no_file(store, tmp_path, monkeypatch):
    real = os.fdopen

    def full(fd, *args):
        real(fd).close()  # the log is made, then the disk fills
        raise OSError(28, "no space left on device")

    monkeypatch.setattr("iotid.store.os.fdopen", full)
    with pytest.raises(OSError):
        store.put_block(1, [b"hello world"], 0)
    monkeypatch.undo()
    assert list((tmp_path / "objects").iterdir()) == []


def test_a_failed_block_write_leaves_the_log_as_it_was(store, tmp_path, monkeypatch):
    end = store.put_block(1, [b"hello world"], 0)
    before = (tmp_path / "objects" / LOG_FILE).read_bytes()
    real = os.fdopen

    def half(fd, *args):
        with real(fd, "wb") as fh:
            fh.write(chunk(2, [b"torn"])[:6])  # part of the chunk, then the disk fills
        raise OSError(28, "no space left on device")

    monkeypatch.setattr("iotid.store.os.fdopen", half)
    with pytest.raises(OSError):
        store.put_block(2, [b"torn"], end)
    monkeypatch.undo()
    assert (tmp_path / "objects" / LOG_FILE).read_bytes() == before


@given(st.lists(st.binary(min_size=1, max_size=512), min_size=1, max_size=10))
def test_any_block_of_contents_reads_back(tmp_path_factory, contents):
    store = ContentStore(tmp_path_factory.mktemp("objects"))
    store.put_block(2, contents, 0)
    for data in contents:
        assert store.get(ContentHash.of(data), 2) == data
