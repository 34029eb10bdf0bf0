"""The ledger lock across processes: one holder at a time, freed by the kernel.

Each test starts real child processes (at most two) that open the ledger
through ``LedgerEngine.open``, so what is checked is the ``flock`` the
kernel holds for them, not any bookkeeping of this process.
"""

import errno
import fcntl
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import iotid
from iotid import ledger as ledger_module
from iotid.ledger import LOCK_FILE, LedgerLocked

from util import foreign_hold, lock_is_free, make_engine, reopen_engine

SRC = str(Path(iotid.__file__).resolve().parent.parent)

# argv: ledger dir, log path, deadline (time.time()). Opens and closes the
# ledger until the deadline; logs "enter"/"exit" only while it holds it.
OPEN_CLOSE_LOOP = """
import os, sys, time
from pathlib import Path
from iotid.ledger import LedgerEngine, LedgerLocked
from iotid.store import ContentStore
ledger, log, deadline = Path(sys.argv[1]), sys.argv[2], float(sys.argv[3])
store = ContentStore(ledger.parent / "objects")
fd = os.open(log, os.O_WRONLY | os.O_APPEND)
me = os.getpid()
while time.time() < deadline:
    try:
        engine = LedgerEngine.open(ledger, store, {})
    except LedgerLocked:
        continue
    os.write(fd, f"enter {me}\\n".encode())
    os.write(fd, f"exit {me}\\n".encode())
    engine.close()
"""

# argv: ledger dir. Opens the ledger, says so, and holds it until stdin closes.
HOLD = """
import sys
from pathlib import Path
from iotid.ledger import LedgerEngine
from iotid.store import ContentStore
ledger = Path(sys.argv[1])
engine = LedgerEngine.open(ledger, ContentStore(ledger.parent / "objects"), {})
print("held", flush=True)
sys.stdin.read()
engine.close()
"""


def spawn(script: str, *args: str, **kwargs) -> subprocess.Popen:
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.Popen([sys.executable, "-c", script, *args], env=env, **kwargs)


def overlapping_holders(log: bytes) -> tuple[int, set[str]]:
    """Entries made while another holder was inside, and the pids that entered."""
    holder, overlaps, pids = None, 0, set()
    for line in log.decode().splitlines():
        event, pid = line.split()
        if event == "enter":
            pids.add(pid)
            overlaps += holder is not None
            holder = pid
        elif holder == pid:
            holder = None
    return overlaps, pids


def test_two_processes_never_hold_the_ledger_at_once(tmp_path):
    make_engine(tmp_path).close()
    log = tmp_path / "holders.log"
    log.write_bytes(b"")
    deadline = str(time.time() + 2.5)  # ~2 s of looping once both have started
    children = [spawn(OPEN_CLOSE_LOOP, str(tmp_path / "ledger"), str(log), deadline,
                      stderr=subprocess.PIPE) for _ in range(2)]
    for child in children:
        _, err = child.communicate(timeout=60)
        assert child.returncode == 0, err.decode()
    overlaps, pids = overlapping_holders(log.read_bytes())
    assert pids == {str(child.pid) for child in children}  # both got turns
    assert overlaps == 0
    assert lock_is_free(tmp_path / "ledger")


def test_a_killed_holder_leaves_the_ledger_openable(tmp_path):
    make_engine(tmp_path).close()
    child = spawn(HOLD, str(tmp_path / "ledger"),
                  stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        assert child.stdout.readline() == b"held\n"
        with pytest.raises(LedgerLocked):
            reopen_engine(tmp_path)
    finally:
        child.kill()
        child.communicate(timeout=60)  # reaps the child and closes its pipes
    reopened = reopen_engine(tmp_path)  # at once: nothing to reclaim
    try:
        assert reopened.height == 1
    finally:
        reopened.close()


@pytest.mark.parametrize("content", [str(os.getppid()), str(os.getpid()), ""],
                         ids=["live-parent-pid", "own-pid", "empty"])
def test_a_lock_file_without_a_holder_opens(tmp_path, content):
    # what .lock contains does not matter, only whether an flock is held
    make_engine(tmp_path).close()
    (tmp_path / "ledger" / LOCK_FILE).write_text(content)
    reopened = reopen_engine(tmp_path)
    try:
        assert reopened.height == 1
    finally:
        reopened.close()


def test_a_child_spawned_while_open_does_not_keep_the_lock(tmp_path):
    engine = make_engine(tmp_path)
    # close_fds=False passes on every inheritable fd: the lock's must not be
    # one. The child says when it runs, since until its exec a forked child
    # shares every fd, inheritable or not.
    child = spawn("import sys; print('running', flush=True); sys.stdin.read()",
                  stdin=subprocess.PIPE, stdout=subprocess.PIPE, close_fds=False)
    try:
        assert child.stdout.readline() == b"running\n"
        engine.close()
        assert lock_is_free(tmp_path / "ledger")
        reopen_engine(tmp_path).close()
    finally:
        child.communicate(timeout=60)


class TrackedOs:
    """``os`` as the ledger module sees it, with the fds it opens and closes."""

    def __init__(self):
        self.opened, self.closed = [], []

    def open(self, *args, **kwargs):
        self.opened.append(os.open(*args, **kwargs))
        return self.opened[-1]

    def close(self, fd):
        self.closed.append(fd)
        os.close(fd)

    def __getattr__(self, name):
        return getattr(os, name)


def _enolck(fd, operation):
    raise OSError(errno.ENOLCK, os.strerror(errno.ENOLCK))


@pytest.mark.parametrize("failure", ["held elsewhere", "ENOLCK"])
def test_a_failed_lock_closes_the_fd_it_opened(tmp_path, monkeypatch, failure):
    make_engine(tmp_path).close()
    tracked = TrackedOs()
    monkeypatch.setattr(ledger_module, "os", tracked)
    if failure == "held elsewhere":
        with foreign_hold(tmp_path / "ledger"), pytest.raises(LedgerLocked):
            reopen_engine(tmp_path)
    else:
        monkeypatch.setattr(fcntl, "flock", _enolck)
        with pytest.raises(OSError) as raised:
            reopen_engine(tmp_path)
        assert raised.value.errno == errno.ENOLCK
        monkeypatch.undo()
    assert len(tracked.opened) == 1
    assert tracked.closed == tracked.opened
    assert lock_is_free(tmp_path / "ledger")
