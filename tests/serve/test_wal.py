"""Write-ahead log unit tests.

The WAL's contract is small but every fleet durability claim leans on
it: append order is replay order, reopen sees exactly the flushed
records, truncation drops exactly the snapshotted prefix, and a torn
tail from a crash mid-append is discarded instead of being replayed as
garbage.
"""

import os
import pickle
import subprocess
import sys

import pytest

import repro
import repro.serve.wal as wal_module
from repro.serve.protocol import FRAME_HEADER
from repro.serve.wal import WriteAheadLog


def _records(n, tag="r"):
    return [("req", (f"s{i % 7}", "step", 0x400 + i, i % 2, tag))
            for i in range(n)]


def test_append_replay_roundtrip_preserves_order(tmp_path):
    path = str(tmp_path / "wal.log")
    with WriteAheadLog(path) as wal:
        wal.append(_records(5))
        wal.append(_records(3, tag="later"))
        assert wal.records == 8
        assert wal.replay() == _records(5) + _records(3, tag="later")


def test_reopen_recovers_counts_and_records(tmp_path):
    path = str(tmp_path / "wal.log")
    with WriteAheadLog(path) as wal:
        wal.append(_records(10))
    with WriteAheadLog(path) as wal:
        assert wal.records == 10
        assert wal.replay() == _records(10)
        wal.append(_records(2, tag="post"))
        assert wal.records == 12


def test_truncate_drops_exactly_the_prefix(tmp_path):
    path = str(tmp_path / "wal.log")
    with WriteAheadLog(path) as wal:
        wal.append(_records(6))
        mark = wal.mark()
        assert mark == 6
        wal.append(_records(4, tag="suffix"))
        wal.truncate(mark)
        assert wal.records == 4
        assert wal.replay() == _records(4, tag="suffix")
        # Appends continue cleanly on the rewritten file.
        wal.append(_records(1, tag="tail"))
        assert wal.replay() == (_records(4, tag="suffix")
                                + _records(1, tag="tail"))
    assert not os.path.exists(path + ".tmp")


def test_truncate_of_nothing_is_a_noop(tmp_path):
    path = str(tmp_path / "wal.log")
    with WriteAheadLog(path) as wal:
        wal.append(_records(3))
        wal.truncate(0)
        assert wal.records == 3


def test_torn_tail_is_discarded_on_open(tmp_path):
    path = str(tmp_path / "wal.log")
    with WriteAheadLog(path) as wal:
        wal.append(_records(4))
    size = os.path.getsize(path)
    with open(path, "ab") as handle:
        # A crash mid-append: a frame header promising more bytes than
        # were ever written.
        handle.write(FRAME_HEADER.pack(1 << 20))
        handle.write(b"half a record")
    with WriteAheadLog(path) as wal:
        assert wal.records == 4
        assert wal.replay() == _records(4)
    # The torn bytes are physically gone, not just skipped.
    assert os.path.getsize(path) == size


def test_empty_batch_append_is_free(tmp_path):
    path = str(tmp_path / "wal.log")
    with WriteAheadLog(path) as wal:
        wal.append([])
        assert wal.records == 0
        assert wal.replay() == []
    assert os.path.getsize(path) == 0


# -- byte-copy truncate -------------------------------------------------------


def _flat_truncate(batches, upto):
    """The reference semantics: drop the first ``upto`` records."""
    return [record for batch in batches for record in batch][upto:]


def _fill(wal, sizes, tag="b"):
    batches = [_records(n, tag=f"{tag}{i}") for i, n in enumerate(sizes)]
    for batch in batches:
        wal.append(batch)
    return batches


@pytest.mark.parametrize("upto", [0, 1, 3, 4, 5, 9, 10, 11, 15, 16, 40])
def test_truncate_matches_flat_semantics(tmp_path, upto):
    """Every cut — at a batch boundary, inside a batch, past the end —
    leaves what the flat list would, and appends continue cleanly."""
    path = str(tmp_path / "wal.log")
    with WriteAheadLog(path) as wal:
        batches = _fill(wal, [4, 6, 1, 5])
        wal.truncate(upto)
        expected = _flat_truncate(batches, upto)
        assert wal.records == len(expected)
        assert wal.replay() == expected
        wal.append(_records(2, tag="tail"))
        assert wal.replay() == expected + _records(2, tag="tail")
    with WriteAheadLog(path) as wal:
        assert wal.replay() == expected + _records(2, tag="tail")


def test_truncate_twice_in_a_row(tmp_path):
    path = str(tmp_path / "wal.log")
    with WriteAheadLog(path) as wal:
        batches = _fill(wal, [3, 5, 2, 4])
        flat = _flat_truncate(batches, 0)
        wal.truncate(5)    # inside the second batch
        wal.truncate(3)    # at the re-framed batches' boundary
        assert wal.replay() == flat[8:]
        wal.truncate(1)    # inside again
        assert wal.replay() == flat[9:]
        assert wal.records == len(flat) - 9


def test_truncate_after_reopen_uses_offsets_from_disk(tmp_path):
    path = str(tmp_path / "wal.log")
    with WriteAheadLog(path) as wal:
        batches = _fill(wal, [4, 4, 4])
    flat = _flat_truncate(batches, 0)
    with WriteAheadLog(path) as wal:
        wal.truncate(4)
        assert wal.replay() == flat[4:]
        wal.truncate(2)
        assert wal.replay() == flat[6:]


def test_truncate_after_torn_tail_was_trimmed(tmp_path):
    path = str(tmp_path / "wal.log")
    with WriteAheadLog(path) as wal:
        batches = _fill(wal, [3, 3])
    with open(path, "ab") as handle:
        handle.write(FRAME_HEADER.pack(1 << 20))
        handle.write(b"torn")
    flat = _flat_truncate(batches, 0)
    with WriteAheadLog(path) as wal:
        wal.truncate(4)
        assert wal.replay() == flat[4:]
        wal.append(_records(1, tag="after"))
        assert wal.replay() == flat[4:] + _records(1, tag="after")


def test_boundary_truncate_decodes_nothing(tmp_path, monkeypatch):
    """A snapshot mark is a batch boundary: truncating there copies
    bytes and never unpickles a record."""
    path = str(tmp_path / "wal.log")
    with WriteAheadLog(path) as wal:
        _fill(wal, [4, 4])
        mark = wal.mark()
        _fill(wal, [2, 3], tag="suffix")
        loads = []
        real_loads = pickle.loads

        def counting_loads(data, *args, **kwargs):
            loads.append(len(data))
            return real_loads(data, *args, **kwargs)

        monkeypatch.setattr(wal_module.pickle, "loads", counting_loads)
        wal.truncate(mark)
        assert loads == []
        wal.truncate(1)     # inside a batch: only that batch decodes
        assert len(loads) == 1
        monkeypatch.undo()
        assert wal.replay() == (_records(2, tag="suffix0")[1:]
                                + _records(3, tag="suffix1"))


# -- durability scope ----------------------------------------------------------


_CHILD = """
import os, sys
sys.path.insert(0, {src!r})
from repro.serve.wal import WriteAheadLog
wal = WriteAheadLog({path!r})
for i in range(5):
    wal.append([("req", ("s", "step", 0x400 + 4 * j, j % 2, i))
                for j in range(3 + i)])
os._exit(86)  # no close, no flush beyond what append did
"""


def test_records_survive_process_death(tmp_path):
    """Every appended batch survives a hard process death: ``append``
    flushes to the operating system.  (No fsync, so this is the whole
    claim — a host crash may lose a recent suffix.)"""
    path = str(tmp_path / "wal.log")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    child = subprocess.run(
        [sys.executable, "-c", _CHILD.format(src=src, path=path)],
        timeout=60)
    assert child.returncode == 86
    expected = [("req", ("s", "step", 0x400 + 4 * j, j % 2, i))
                for i in range(5) for j in range(3 + i)]
    with WriteAheadLog(path) as wal:
        assert wal.records == len(expected)
        assert wal.replay() == expected
