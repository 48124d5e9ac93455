"""read/write families: data integrity, offsets, limits, errnos."""

import tracemalloc

import pytest

from repro.vfs import constants as C
from repro.vfs.errors import EBADF, EFAULT, EFBIG, EINVAL, EISDIR, ENOSPC
from repro.vfs.filesystem import FileSystem
from repro.vfs.syscalls import SyscallInterface
from tests.conftest import make_file


@pytest.fixture
def rw(sc, mkfile):
    """An open O_RDWR fd on a fresh file."""
    mkfile("/f")
    fd = sc.open("/f", C.O_RDWR).retval
    yield sc, fd
    sc.close(fd)


def test_write_then_read_roundtrip(rw):
    sc, fd = rw
    assert sc.write(fd, b"hello world").retval == 11
    sc.lseek(fd, 0, C.SEEK_SET)
    got = sc.read(fd, 11)
    assert got.data == b"hello world"


def test_write_advances_offset(rw):
    sc, fd = rw
    sc.write(fd, b"abc")
    sc.write(fd, b"def")
    sc.lseek(fd, 0, C.SEEK_SET)
    assert sc.read(fd, 6).data == b"abcdef"


def test_read_at_eof_returns_zero(rw):
    sc, fd = rw
    sc.write(fd, b"xy")
    assert sc.read(fd, 10).retval == 0  # offset already at EOF


def test_short_read_at_eof(rw):
    sc, fd = rw
    sc.write(fd, b"12345")
    sc.lseek(fd, 3, C.SEEK_SET)
    got = sc.read(fd, 100)
    assert got.retval == 2 and got.data == b"45"


def test_read_count_zero(rw):
    sc, fd = rw
    result = sc.read(fd, 0)
    assert result.retval == 0 and result.data == b""


def test_read_negative_count_is_einval(rw):
    sc, fd = rw
    assert sc.read(fd, -1).errno == EINVAL


def test_write_count_zero(rw):
    sc, fd = rw
    assert sc.write(fd, count=0).retval == 0


def test_write_negative_count_is_einval(rw):
    sc, fd = rw
    assert sc.write(fd, count=-3).errno == EINVAL


def test_read_on_write_only_fd_is_ebadf(sc, mkfile):
    mkfile("/f", size=10)
    fd = sc.open("/f", C.O_WRONLY).retval
    assert sc.read(fd, 1).errno == EBADF


def test_write_on_read_only_fd_is_ebadf(sc, mkfile):
    mkfile("/f")
    fd = sc.open("/f", C.O_RDONLY).retval
    assert sc.write(fd, b"x").errno == EBADF


def test_read_directory_is_eisdir(sc):
    sc.mkdir("/d", 0o755)
    fd = sc.open("/d", C.O_RDONLY).retval
    assert sc.read(fd, 10).errno == EISDIR


def test_faulty_buffer_is_efault(rw):
    sc, fd = rw
    assert sc.read(fd, 10, buf_faulty=True).errno == EFAULT
    assert sc.write(fd, count=10, buf_faulty=True).errno == EFAULT


def test_pread_does_not_move_offset(rw):
    sc, fd = rw
    sc.write(fd, b"abcdef")
    sc.lseek(fd, 2, C.SEEK_SET)
    got = sc.pread64(fd, 3, 0)
    assert got.data == b"abc"
    assert sc.process.fd_table.get(fd).offset == 2


def test_pwrite_does_not_move_offset(rw):
    sc, fd = rw
    sc.pwrite64(fd, b"xyz", offset=10)
    assert sc.process.fd_table.get(fd).offset == 0
    assert sc.fs.lookup("/f").size == 13


def test_pread_negative_offset_is_einval(rw):
    sc, fd = rw
    assert sc.pread64(fd, 4, -1).errno == EINVAL
    assert sc.pwrite64(fd, b"a", offset=-1).errno == EINVAL


def test_pwrite_hole_zero_filled(rw):
    sc, fd = rw
    sc.pwrite64(fd, b"Z", offset=100)
    got = sc.pread64(fd, 100, 0)
    assert got.data == b"\0" * 100


def test_o_append_write_lands_at_eof(sc, mkfile):
    mkfile("/f", size=10)
    fd = sc.open("/f", C.O_WRONLY | C.O_APPEND).retval
    sc.lseek(fd, 0, C.SEEK_SET)
    sc.write(fd, b"tail")
    assert sc.fs.lookup("/f").size == 14
    sc.close(fd)


def test_readv_concatenates_segments(rw):
    sc, fd = rw
    sc.write(fd, b"0123456789")
    sc.lseek(fd, 0, C.SEEK_SET)
    got = sc.readv(fd, [3, 4, 3])
    assert got.retval == 10 and got.data == b"0123456789"


def test_writev_concatenates_buffers(rw):
    sc, fd = rw
    assert sc.writev(fd, [b"ab", b"cd", b"ef"]).retval == 6
    assert sc.pread64(fd, 6, 0).data == b"abcdef"


def test_iov_limits(rw):
    sc, fd = rw
    too_many = [1] * (C.IOV_MAX + 1)
    assert sc.readv(fd, too_many).errno == EINVAL
    assert sc.writev(fd, [b"x"] * (C.IOV_MAX + 1)).errno == EINVAL
    assert sc.readv(fd, [5, -1]).errno == EINVAL


def test_count_clamped_to_max_rw_count(rw):
    sc, fd = rw
    sc.write(fd, b"data")
    sc.lseek(fd, 0, C.SEEK_SET)
    got = sc.read(fd, C.MAX_RW_COUNT + 100)  # clamp, then short read
    assert got.retval == 4


def test_write_enospc_when_device_full(sc, mkfile):
    mkfile("/f")
    fd = sc.open("/f", C.O_WRONLY).retval
    sc.fs.device.reserve_all_free()
    assert sc.write(fd, count=4096).errno == ENOSPC
    sc.fs.device.release_reserved()
    assert sc.write(fd, count=4096).retval == 4096


def test_short_write_when_space_runs_out():
    fs = FileSystem(total_blocks=4)  # 16 KiB
    sc = SyscallInterface(fs)
    fd = sc.open("/f", C.O_CREAT | C.O_WRONLY, 0o644).retval
    got = sc.write(fd, count=100000)
    assert got.retval == 4 * 4096  # wrote what fit
    assert sc.write(fd, count=1).errno == ENOSPC


def test_write_respects_quota(fs, user_sc):
    fd = user_sc.open("/q", C.O_CREAT | C.O_WRONLY, 0o644).retval
    fs.set_quota(1000, 2)  # two blocks
    assert user_sc.write(fd, count=2 * 4096).retval == 2 * 4096
    from repro.vfs.errors import EDQUOT

    # Fully out of quota: nothing writable.
    result = user_sc.write(fd, count=4096)
    assert result.errno == ENOSPC or result.retval < 4096


def test_write_efbig_past_max_file_size():
    fs = FileSystem(max_file_size=8192)
    sc = SyscallInterface(fs)
    fd = sc.open("/f", C.O_CREAT | C.O_WRONLY, 0o644).retval
    assert sc.pwrite64(fd, b"x", offset=8192).errno == EFBIG
    short = sc.pwrite64(fd, count=100, offset=8190)
    assert short.retval == 2  # clipped at the limit


def test_write_data_precedence_over_count(rw):
    sc, fd = rw
    # count shorter than data: truncate; longer: zero-pad.
    assert sc.write(fd, b"abcdef", 3).retval == 3
    assert sc.pread64(fd, 3, 0).data == b"abc"
    sc.lseek(fd, 0, C.SEEK_SET)
    assert sc.write(fd, b"xy", 4).retval == 4
    assert sc.pread64(fd, 4, 0).data == b"xy\0\0"


def test_count_only_write_is_zero_filled(rw):
    sc, fd = rw
    assert sc.write(fd, count=64).retval == 64
    assert sc.pread64(fd, 64, 0).data == b"\0" * 64


def test_count_only_258mib_write_allocates_nothing(sc, mkfile):
    """Figure 3's largest write size is charged to the device in full
    but held in no memory: the zeros are an extent, not a buffer."""
    nbytes = 258 << 20
    mkfile("/big")
    fd = sc.open("/big", C.O_RDWR).retval
    tracemalloc.start()
    try:
        got = sc.write(fd, count=nbytes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.retval == 270532608
    device = sc.fs.device
    assert device.owner_blocks(sc.fs.lookup("/big").ino) == device.blocks_for(nbytes)
    assert sc.pread64(fd, 4096, nbytes - 4096).data == bytes(4096)
    assert peak < 1 << 20
