"""Property-based crash-consistency invariants.

The oracle the CrashMonkey substrate relies on, stated as properties:
whatever op sequence runs, (1) state checkpointed before the sequence
survives a crash exactly, and (2) a crash never leaves the file system
unusable or its accounting negative.
"""

from __future__ import annotations

import copy
import dataclasses

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.vfs import constants as C
from repro.vfs.crash import CrashSimulator
from repro.vfs.filesystem import FileSystem
from repro.vfs.inode import DirInode, FileInode, InodeTable, SymlinkInode
from repro.vfs.syscalls import SyscallInterface

_OPS = st.lists(
    st.tuples(
        st.sampled_from(["create", "write", "truncate", "unlink", "mkdir", "rename"]),
        st.integers(0, 4),       # target index
        st.integers(0, 8192),    # size-ish parameter
    ),
    max_size=15,
)


def _apply(sc: SyscallInterface, op: str, index: int, size: int) -> None:
    path = f"/f{index}"
    if op == "create":
        result = sc.open(path, C.O_CREAT | C.O_WRONLY, 0o644)
        if result.ok:
            sc.close(result.retval)
    elif op == "write":
        result = sc.open(path, C.O_CREAT | C.O_WRONLY, 0o644)
        if result.ok:
            sc.write(result.retval, count=size)
            sc.close(result.retval)
    elif op == "truncate":
        sc.truncate(path, size)
    elif op == "unlink":
        sc.unlink(path)
    elif op == "mkdir":
        sc.mkdir(f"/d{index}", 0o755)
    elif op == "rename":
        sc.rename(path, f"/r{index}")


@given(baseline=_OPS, volatile=_OPS)
@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
def test_checkpointed_state_survives_any_crash(baseline, volatile):
    fs = FileSystem(total_blocks=256)
    sc = SyscallInterface(fs)
    sim = CrashSimulator(fs)

    for op, index, size in baseline:
        _apply(sc, op, index, size)
    sc.sync()
    sim.checkpoint()

    # Record the durable image precisely.
    durable_files = {}
    for index in range(5):
        for prefix in ("/f", "/r"):
            path = f"{prefix}{index}"
            if sc.stat(path).ok:
                durable_files[path] = fs.lookup(path).size

    for op, index, size in volatile:
        _apply(sc, op, index, size)
    sim.crash()

    # Everything durable is back, byte-for-byte in size.
    for path, size in durable_files.items():
        assert sc.stat(path).ok, path
        assert fs.lookup(path).size == size, path
    # And nothing non-durable leaked in.
    for index in range(5):
        path = f"/f{index}"
        if path not in durable_files and sc.stat(path).ok:
            raise AssertionError(f"{path} survived without persistence")


@given(ops=_OPS)
@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
def test_crash_never_corrupts_accounting(ops):
    fs = FileSystem(total_blocks=128)
    sc = SyscallInterface(fs)
    sim = CrashSimulator(fs)
    for op, index, size in ops:
        _apply(sc, op, index, size)
    sim.crash()
    assert 0 <= fs.device.allocated_blocks <= fs.device.total_blocks
    # The volume is still usable after the crash.
    result = sc.open("/post_crash", C.O_CREAT | C.O_WRONLY, 0o644)
    assert result.ok
    assert sc.write(result.retval, count=512).retval == 512
    sc.close(result.retval)


# -- a clone is the deep copy it replaces ------------------------------------------

_CLONE_OPS = st.lists(
    st.tuples(
        st.sampled_from([
            "create", "write", "truncate", "unlink", "mkdir", "rename",
            "payload", "xattr", "chmod", "symlink", "link", "rmdir",
        ]),
        st.integers(0, 4),
        st.integers(0, 8192),
    ),
    max_size=20,
)


def _apply_more(sc: SyscallInterface, op: str, index: int, size: int) -> None:
    path = f"/f{index}"
    if op == "payload":
        result = sc.open(path, C.O_CREAT | C.O_WRONLY, 0o644)
        if result.ok:
            sc.pwrite64(result.retval, bytes([index + 1]) * (size % 97 + 1), offset=size % 50)
            sc.close(result.retval)
    elif op == "xattr":
        sc.setxattr(path, f"user.k{size % 3}", bytes([size % 256]) * (size % 9))
    elif op == "chmod":
        sc.chmod(path, size & 0o7777)
    elif op == "symlink":
        sc.symlink(f"/d{size % 5}", f"/s{index}")
    elif op == "link":
        sc.link(path, f"/d{size % 5}/h{index}")
    elif op == "rmdir":
        sc.rmdir(f"/d{index}")
    else:
        _apply(sc, op, index, size)


def _image(table: InodeTable, root_ino: int) -> dict:
    """Every reachable path -> the state of the inode it names."""
    image = {}

    def walk(ino: int, path: str) -> None:
        inode = table.get(ino)
        state = (
            inode.file_type, inode.mode, inode.uid, inode.gid, inode.nlink, inode.size,
            dataclasses.astuple(inode.times), dict(inode.xattrs), inode.xattr_ibody_space,
        )
        if isinstance(inode, FileInode):
            state += (bytes(inode.data), inode.materialized_bytes)
        elif isinstance(inode, SymlinkInode):
            state += (inode.target,)
        elif isinstance(inode, DirInode):
            state += (dict(inode.entries), inode.parent_ino)
        image[path] = state
        if isinstance(inode, DirInode):
            for name, child in inode.entries.items():
                walk(child, f"{path.rstrip('/')}/{name}")

    walk(root_ino, "/")
    return image


@given(before=_CLONE_OPS, after=_CLONE_OPS)
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
def test_clone_equals_deepcopy(before, after):
    fs = FileSystem(total_blocks=256)
    sc = SyscallInterface(fs)
    for op, index, size in before:
        _apply_more(sc, op, index, size)
    clone = fs.inodes.clone()
    reference = copy.deepcopy(fs.inodes)
    want = _image(reference, fs.root_ino)
    assert _image(clone, fs.root_ino) == want
    # Ops on the live table leave the clone alone.
    for op, index, size in after:
        _apply_more(sc, op, index, size)
    assert _image(clone, fs.root_ino) == want
    assert len(clone) == len(reference)
    assert clone.new_file().ino == reference.new_file().ino


# -- a volume clone is the deep copy of a whole file system ------------------------

def _volume(fs: FileSystem) -> tuple:
    """The image plus every other piece of volume state."""
    device = fs.device
    return (
        _image(fs.inodes, fs.root_ino),
        len(fs.inodes),
        dict(device._allocated),
        dict(device._persisted),
        device.reserved_blocks,
        {uid: (q.block_limit, q.blocks_used) for uid, q in fs._quotas.items()},
        fs.read_only,
        fs.frozen,
        set(fs._busy_text),
        fs._clock,
    )


def _churn(fs: FileSystem, ops) -> None:
    """Ops on *fs*, then a change to each other piece of its state."""
    fs.read_only = fs.frozen = False
    sc = SyscallInterface(fs)
    for op, index, size in ops:
        _apply_more(sc, op, index, size)
    for inode in list(fs.inodes.all_inodes()):
        fs.device.sync_owner(inode.ino)
        fs.mark_text_busy(inode.ino)
    fs.set_quota(1000, 3)
    fs.device.reserve_all_free()
    fs.read_only = fs.frozen = True
    fs.tick()


@given(
    before=_CLONE_OPS,
    after=_CLONE_OPS,
    quota=st.integers(0, 64),
    reserved=st.integers(0, 16),
    synced=st.booleans(),
    read_only=st.booleans(),
    frozen=st.booleans(),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_volume_clone_equals_deepcopy(
    before, after, quota, reserved, synced, read_only, frozen
):
    fs = FileSystem(total_blocks=256)
    sc = SyscallInterface(fs)
    fs.set_quota(0, quota)
    for op, index, size in before:
        _apply_more(sc, op, index, size)
    if synced:
        fs.sync()
    fs.device.reserved_blocks = reserved
    for inode in list(fs.inodes.all_inodes())[::2]:
        fs.mark_text_busy(inode.ino)
    fs.read_only, fs.frozen = read_only, frozen
    clone = fs.clone()
    want = _volume(copy.deepcopy(fs))
    assert _volume(clone) == want
    # Ops on either volume leave the other alone.
    _churn(fs, after)
    assert _volume(clone) == want
    live = _volume(fs)
    _churn(clone, after)
    assert _volume(fs) == live
