"""Crash simulation: checkpoint/crash life cycle and durability."""

import warnings

import pytest

from repro.vfs import constants as C
from repro.vfs.crash import CrashSimulator
from repro.vfs.errors import ENOENT
from repro.vfs.filesystem import FileSystem
from tests.conftest import make_file


def test_crash_discards_unsynced_file(fs, sc):
    sim = CrashSimulator(fs)
    make_file(sc, "/f", size=4096)
    sim.crash()
    assert sc.stat("/f").errno == ENOENT


def test_checkpoint_preserves_state(fs, sc):
    sim = CrashSimulator(fs)
    make_file(sc, "/f", size=4096)
    sim.checkpoint()
    make_file(sc, "/g", size=4096)
    sim.crash()
    assert sc.stat("/f").ok
    assert sc.stat("/g").errno == ENOENT


def test_crash_restores_file_content(fs, sc):
    sim = CrashSimulator(fs)
    fd = sc.open("/f", C.O_CREAT | C.O_RDWR, 0o644).retval
    sc.write(fd, b"durable")
    sc.close(fd)
    sim.checkpoint()
    fd = sc.open("/f", C.O_RDWR).retval
    sc.pwrite64(fd, b"volatile", offset=0)
    sc.close(fd)
    sim.crash()
    fd = sc.open("/f", C.O_RDONLY).retval
    assert sc.read(fd, 16).data == b"durable"
    sc.close(fd)


def test_crash_restores_removed_files(fs, sc):
    sim = CrashSimulator(fs)
    make_file(sc, "/keep", size=10)
    sim.checkpoint()
    sc.unlink("/keep")
    sim.crash()
    assert sc.stat("/keep").ok


def test_multiple_crashes_idempotent(fs, sc):
    sim = CrashSimulator(fs)
    make_file(sc, "/f")
    sim.checkpoint()
    sim.crash()
    sim.crash()
    assert sc.stat("/f").ok
    assert sim.crash_count == 2


def test_device_accounting_survives_crash(fs, sc):
    sim = CrashSimulator(fs)
    make_file(sc, "/f", size=8 * 4096)
    sim.checkpoint()
    make_file(sc, "/g", size=8 * 4096)
    sim.crash()
    # /g's blocks must be back in the free pool.
    inode = fs.lookup("/f")
    assert fs.device.owner_blocks(inode.ino) == 8
    stats = fs.device.stats()
    assert stats.allocated_blocks == 8  # /f only; /g was rolled back


def test_durable_paths_listing(fs, sc):
    sim = CrashSimulator(fs)
    sc.mkdir("/d", 0o755)
    make_file(sc, "/d/f")
    sim.checkpoint()
    paths = sim.durable_paths()
    assert "/d" in paths and "/d/f" in paths


def test_fs_usable_after_crash(fs, sc):
    sim = CrashSimulator(fs)
    sc.mkdir("/d", 0o755)
    sim.checkpoint()
    sim.crash()
    assert sc.mkdir("/d/sub", 0o755).ok
    make_file(sc, "/d/sub/f", size=100)
    assert fs.lookup("/d/sub/f").size == 100


def test_snapshots_raise_no_warnings():
    """Deep-copying an ``itertools.count`` warns on Python 3.12 and fails
    on 3.14; snapshots copy the inode allocator as a plain int."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sim = CrashSimulator(FileSystem())
        sim.checkpoint()
        sim.crash()
    assert sim.checkpoint_count == 2 and sim.crash_count == 1
