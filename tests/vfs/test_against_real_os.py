"""Cross-validation: the simulated VFS vs the real Linux kernel.

The substitution argument in DESIGN.md rests on the VFS reproducing the
kernel's syscall-boundary behaviour.  These tests check that claim
directly: every scenario runs twice — through the simulated
:class:`SyscallInterface` and through the real ``os`` module in a
tmpdir — and the outcomes (success/errno, sizes, offsets) must agree.

Scenarios avoid root-vs-user permission differences (the test process
may run as root) and host-specific limits; they pin exactly the
semantics the IOCov evaluation depends on.
"""

from __future__ import annotations

import errno
import os

import pytest

from repro.vfs import constants as C
from repro.vfs.filesystem import FileSystem
from repro.vfs.syscalls import SyscallInterface


@pytest.fixture
def pair(tmp_path):
    """(simulated interface, real-directory prefix)."""
    return SyscallInterface(FileSystem()), str(tmp_path)


def real_errno(fn, *args, **kwargs):
    """Run a real-OS call; return (retval, errno)."""
    try:
        result = fn(*args, **kwargs)
    except OSError as exc:
        return -exc.errno, exc.errno
    return (result if isinstance(result, int) else 0), 0


def test_open_missing_enoent(pair):
    sc, real = pair
    sim = sc.open("/missing", C.O_RDONLY)
    _, err = real_errno(os.open, f"{real}/missing", os.O_RDONLY)
    assert sim.errno == err == errno.ENOENT


def test_open_excl_collision_eexist(pair):
    sc, real = pair
    sc.close(sc.open("/f", C.O_CREAT | C.O_WRONLY, 0o644).retval)
    os.close(os.open(f"{real}/f", os.O_CREAT | os.O_WRONLY, 0o644))
    sim = sc.open("/f", C.O_CREAT | C.O_EXCL | C.O_WRONLY, 0o644)
    _, err = real_errno(os.open, f"{real}/f", os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
    assert sim.errno == err == errno.EEXIST


def test_open_dir_for_write_eisdir(pair):
    sc, real = pair
    sc.mkdir("/d", 0o755)
    os.mkdir(f"{real}/d", 0o755)
    sim = sc.open("/d", C.O_WRONLY)
    _, err = real_errno(os.open, f"{real}/d", os.O_WRONLY)
    assert sim.errno == err == errno.EISDIR


def test_path_through_file_enotdir(pair):
    sc, real = pair
    sc.close(sc.open("/f", C.O_CREAT | C.O_WRONLY, 0o644).retval)
    os.close(os.open(f"{real}/f", os.O_CREAT | os.O_WRONLY, 0o644))
    sim = sc.open("/f/below", C.O_RDONLY)
    _, err = real_errno(os.open, f"{real}/f/below", os.O_RDONLY)
    assert sim.errno == err == errno.ENOTDIR


#: Trailing-slash calls on a regular file "file" (and a fresh name
#: "new"): (simulated call, real call taking the tmpdir, errno).
TRAILING_SLASH_CASES = {
    "open-file-slash": (
        lambda sc: sc.open("/file/", C.O_RDONLY),
        lambda real: os.open(f"{real}/file/", os.O_RDONLY),
        errno.ENOTDIR,
    ),
    "truncate-file-slash": (
        lambda sc: sc.truncate("/file/", 0),
        lambda real: os.truncate(f"{real}/file/", 0),
        errno.ENOTDIR,
    ),
    "chmod-file-slash": (
        lambda sc: sc.chmod("/file/", 0o644),
        lambda real: os.chmod(f"{real}/file/", 0o644),
        errno.ENOTDIR,
    ),
    "creat-new-slash": (
        lambda sc: sc.open("/new/", C.O_CREAT | C.O_WRONLY, 0o644),
        lambda real: os.open(f"{real}/new/", os.O_CREAT | os.O_WRONLY, 0o644),
        errno.EISDIR,
    ),
    "creat-file-slash": (
        lambda sc: sc.open("/file/", C.O_CREAT | C.O_WRONLY, 0o644),
        lambda real: os.open(f"{real}/file/", os.O_CREAT | os.O_WRONLY, 0o644),
        errno.EISDIR,
    ),
    "mkdir-new-slash": (
        lambda sc: sc.mkdir("/new/", 0o755),
        lambda real: os.mkdir(f"{real}/new/", 0o755),
        0,
    ),
    "mkdir-file-slash": (
        lambda sc: sc.mkdir("/file/", 0o755),
        lambda real: os.mkdir(f"{real}/file/", 0o755),
        errno.EEXIST,
    ),
}


@pytest.mark.parametrize("case", sorted(TRAILING_SLASH_CASES))
def test_trailing_slash_agrees(pair, case):
    sc, real = pair
    sim_call, real_call, expected = TRAILING_SLASH_CASES[case]
    sc.close(sc.open("/file", C.O_CREAT | C.O_WRONLY, 0o644).retval)
    os.close(os.open(f"{real}/file", os.O_CREAT | os.O_WRONLY, 0o644))
    sim = sim_call(sc)
    _, err = real_errno(real_call, real)
    assert sim.errno == err == expected
    assert sorted(sc.fs.root.names()) == sorted(os.listdir(real))


def test_name_max_boundary(pair):
    sc, real = pair
    ok_name = "n" * 255
    long_name = "n" * 256
    assert sc.mkdir(f"/{ok_name}", 0o755).ok
    os.mkdir(f"{real}/{ok_name}", 0o755)
    sim = sc.open(f"/{long_name}", C.O_RDONLY)
    _, err = real_errno(os.open, f"{real}/{long_name}", os.O_RDONLY)
    assert sim.errno == err == errno.ENAMETOOLONG


def test_creat_0444_is_writable_then_locked(pair):
    """The semantics LTP caught: create with unreadable mode."""
    sc, real = pair
    sim = sc.open("/ro", C.O_CREAT | C.O_WRONLY, 0o444)
    real_fd, err = real_errno(os.open, f"{real}/ro", os.O_CREAT | os.O_WRONLY, 0o444)
    assert sim.ok and err == 0
    assert sc.write(sim.retval, b"x").retval == os.write(real_fd, b"x") == 1
    sc.close(sim.retval)
    os.close(real_fd)


def test_write_read_offsets_agree(pair):
    sc, real = pair
    sim_fd = sc.open("/f", C.O_CREAT | C.O_RDWR, 0o644).retval
    real_fd = os.open(f"{real}/f", os.O_CREAT | os.O_RDWR, 0o644)
    payload = b"0123456789" * 10
    assert sc.write(sim_fd, payload).retval == os.write(real_fd, payload)
    assert (
        sc.lseek(sim_fd, 30, C.SEEK_SET).retval
        == os.lseek(real_fd, 30, os.SEEK_SET)
        == 30
    )
    sim_read = sc.read(sim_fd, 10)
    assert sim_read.data == os.read(real_fd, 10)
    assert (
        sc.lseek(sim_fd, -5, C.SEEK_END).retval
        == os.lseek(real_fd, -5, os.SEEK_END)
        == 95
    )
    sc.close(sim_fd)
    os.close(real_fd)


def test_pread_pwrite_agree(pair):
    sc, real = pair
    sim_fd = sc.open("/f", C.O_CREAT | C.O_RDWR, 0o644).retval
    real_fd = os.open(f"{real}/f", os.O_CREAT | os.O_RDWR, 0o644)
    assert sc.pwrite64(sim_fd, b"HOLE", offset=100).retval == os.pwrite(
        real_fd, b"HOLE", 100
    )
    assert sc.pread64(sim_fd, 4, 100).data == os.pread(real_fd, 4, 100)
    # The hole reads as zeros in both.
    assert sc.pread64(sim_fd, 8, 50).data == os.pread(real_fd, 8, 50) == b"\0" * 8
    # Neither call moved the fd offset.
    assert (
        sc.lseek(sim_fd, 0, C.SEEK_CUR).retval
        == os.lseek(real_fd, 0, os.SEEK_CUR)
        == 0
    )
    sc.close(sim_fd)
    os.close(real_fd)


def test_append_mode_agrees(pair):
    sc, real = pair
    sim_fd = sc.open("/f", C.O_CREAT | C.O_WRONLY, 0o644).retval
    sc.write(sim_fd, b"base")
    sc.close(sim_fd)
    real_fd = os.open(f"{real}/f", os.O_CREAT | os.O_WRONLY, 0o644)
    os.write(real_fd, b"base")
    os.close(real_fd)

    sim_fd = sc.open("/f", C.O_WRONLY | C.O_APPEND).retval
    real_fd = os.open(f"{real}/f", os.O_WRONLY | os.O_APPEND)
    sc.lseek(sim_fd, 0, C.SEEK_SET)
    os.lseek(real_fd, 0, os.SEEK_SET)
    sc.write(sim_fd, b"tail")
    os.write(real_fd, b"tail")
    sc.close(sim_fd)
    os.close(real_fd)
    assert sc.fs.lookup("/f").size == os.stat(f"{real}/f").st_size == 8


def test_truncate_grow_is_sparse_zeros(pair):
    sc, real = pair
    sim_fd = sc.open("/f", C.O_CREAT | C.O_RDWR, 0o644).retval
    real_fd = os.open(f"{real}/f", os.O_CREAT | os.O_RDWR, 0o644)
    sc.write(sim_fd, b"abc")
    os.write(real_fd, b"abc")
    sc.ftruncate(sim_fd, 100)
    os.ftruncate(real_fd, 100)
    assert sc.fs.lookup("/f").size == os.fstat(real_fd).st_size == 100
    assert sc.pread64(sim_fd, 10, 90).data == os.pread(real_fd, 10, 90)
    sc.close(sim_fd)
    os.close(real_fd)


def test_negative_seek_einval(pair):
    sc, real = pair
    sim_fd = sc.open("/f", C.O_CREAT | C.O_RDWR, 0o644).retval
    real_fd = os.open(f"{real}/f", os.O_CREAT | os.O_RDWR, 0o644)
    sim = sc.lseek(sim_fd, -10, C.SEEK_SET)
    _, err = real_errno(os.lseek, real_fd, -10, os.SEEK_SET)
    assert sim.errno == err == errno.EINVAL
    sc.close(sim_fd)
    os.close(real_fd)


def test_read_on_wronly_fd_ebadf(pair):
    sc, real = pair
    sim_fd = sc.open("/f", C.O_CREAT | C.O_WRONLY, 0o644).retval
    real_fd = os.open(f"{real}/f", os.O_CREAT | os.O_WRONLY, 0o644)
    sim = sc.read(sim_fd, 4)
    _, err = real_errno(os.read, real_fd, 4)
    assert sim.errno == err == errno.EBADF
    sc.close(sim_fd)
    os.close(real_fd)


def test_rmdir_nonempty_enotempty(pair):
    sc, real = pair
    sc.mkdir("/d", 0o755)
    sc.close(sc.open("/d/f", C.O_CREAT | C.O_WRONLY, 0o644).retval)
    os.mkdir(f"{real}/d")
    os.close(os.open(f"{real}/d/f", os.O_CREAT | os.O_WRONLY, 0o644))
    sim = sc.rmdir("/d")
    _, err = real_errno(os.rmdir, f"{real}/d")
    assert sim.errno == err == errno.ENOTEMPTY


def test_rename_into_own_subtree_einval(pair):
    sc, real = pair
    sc.mkdir("/a", 0o755)
    sc.mkdir("/a/b", 0o755)
    os.makedirs(f"{real}/a/b")
    sim = sc.rename("/a", "/a/b/a")
    _, err = real_errno(os.rename, f"{real}/a", f"{real}/a/b/a")
    assert sim.errno == err == errno.EINVAL


def test_hard_link_semantics_agree(pair):
    sc, real = pair
    sc.close(sc.open("/f", C.O_CREAT | C.O_WRONLY, 0o644).retval)
    os.close(os.open(f"{real}/f", os.O_CREAT | os.O_WRONLY, 0o644))
    assert sc.link("/f", "/hard").ok
    os.link(f"{real}/f", f"{real}/hard")
    assert sc.fs.lookup("/hard").nlink == os.stat(f"{real}/hard").st_nlink == 2
    sc.unlink("/f")
    os.unlink(f"{real}/f")
    assert sc.fs.lookup("/hard").nlink == os.stat(f"{real}/hard").st_nlink == 1


def test_symlink_loop_eloop(pair):
    sc, real = pair
    sc.symlink("/b", "/a")
    sc.symlink("/a", "/b")
    os.symlink(f"{real}/b", f"{real}/a")
    os.symlink(f"{real}/a", f"{real}/b")
    sim = sc.open("/a", C.O_RDONLY)
    _, err = real_errno(os.open, f"{real}/a", os.O_RDONLY)
    assert sim.errno == err == errno.ELOOP


@pytest.mark.skipif(
    not hasattr(os, "setxattr"), reason="xattrs unsupported on this platform"
)
def test_xattr_semantics_agree(pair):
    sc, real = pair
    sc.close(sc.open("/f", C.O_CREAT | C.O_WRONLY, 0o644).retval)
    os.close(os.open(f"{real}/f", os.O_CREAT | os.O_WRONLY, 0o644))
    path = f"{real}/f"
    try:
        os.setxattr(path, "user.k", b"value")
    except OSError as exc:
        pytest.skip(f"host filesystem lacks user xattrs: {exc}")
    assert sc.setxattr("/f", "user.k", b"value").ok
    assert sc.getxattr("/f", "user.k", 64).data == os.getxattr(path, "user.k")
    # XATTR_REPLACE on a missing name.
    sim = sc.setxattr("/f", "user.none", b"v", flags=C.XATTR_REPLACE)
    _, err = real_errno(
        os.setxattr, path, "user.none", b"v", os.XATTR_REPLACE
    )
    assert sim.errno == err == errno.ENODATA
    # XATTR_CREATE on an existing name.
    sim = sc.setxattr("/f", "user.k", b"w", flags=C.XATTR_CREATE)
    _, err = real_errno(os.setxattr, path, "user.k", b"w", os.XATTR_CREATE)
    assert sim.errno == err == errno.EEXIST


def test_open_flag_constants_match_linux():
    """The bit values themselves must match the host's (x86-64)."""
    assert C.O_CREAT == os.O_CREAT
    assert C.O_EXCL == os.O_EXCL
    assert C.O_TRUNC == os.O_TRUNC
    assert C.O_APPEND == os.O_APPEND
    assert C.O_NONBLOCK == os.O_NONBLOCK
    assert C.O_DIRECTORY == os.O_DIRECTORY
    assert C.O_NOFOLLOW == os.O_NOFOLLOW
    assert C.O_CLOEXEC == os.O_CLOEXEC
    assert C.O_SYNC == os.O_SYNC
    assert C.O_DSYNC == os.O_DSYNC
    if hasattr(os, "O_TMPFILE"):
        assert C.O_TMPFILE == os.O_TMPFILE
    if hasattr(os, "O_PATH"):
        assert C.O_PATH == os.O_PATH
