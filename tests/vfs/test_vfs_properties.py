"""Property-based tests (hypothesis) for core VFS invariants."""

from __future__ import annotations

import errno as std_errno

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.vfs import constants as C
from repro.vfs.blockdev import BlockDevice
from repro.vfs.errors import ERRNO_NAMES, FsError
from repro.vfs.filesystem import FileSystem
from repro.vfs.inode import InodeTable
from repro.vfs.syscalls import SyscallInterface

SMALL = settings(
    max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@given(
    chunks=st.lists(
        st.tuples(st.integers(0, 5000), st.binary(min_size=0, max_size=512)),
        max_size=12,
    )
)
@SMALL
def test_read_back_what_you_wrote(chunks):
    """After any sequence of writes, reading each region returns the
    bytes of the latest write covering it (modeled with a shadow)."""
    table = InodeTable()
    inode = table.new_file()
    shadow = bytearray()
    for offset, data in chunks:
        inode.write_at(offset, data)
        end = offset + len(data)
        if end > len(shadow):
            shadow.extend(b"\0" * (end - len(shadow)))
        shadow[offset:end] = data
    assert bytes(inode.data) == bytes(shadow)
    assert inode.size == len(shadow)


class _MaterializedFile:
    """Reference model: every allocated byte, zeros included, lives in
    one buffer, and the logical size may run past it (a tail hole)."""

    def __init__(self) -> None:
        self.buf = bytearray()
        self.size = 0

    def write_at(self, offset: int, data: bytes) -> None:
        end = offset + len(data)
        if end > len(self.buf):
            self.buf.extend(bytes(end - len(self.buf)))
        self.buf[offset:end] = data
        self.size = max(self.size, end)

    def truncate_to(self, length: int) -> None:
        del self.buf[length:]
        self.size = length

    def contents(self) -> bytes:
        return bytes(self.buf).ljust(self.size, b"\0")


_OFFSET = st.integers(0, 5000)
_FILE_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("write"),
            _OFFSET,
            st.binary(min_size=1, max_size=512).map(
                lambda b: bytes(x or 0xFF for x in b)
            ),
        ),
        st.tuples(st.just("zeros"), _OFFSET, st.integers(0, 5000)),
        st.tuples(st.just("truncate"), _OFFSET),
    ),
    max_size=20,
)


@given(ops=_FILE_OPS)
@settings(max_examples=200)
def test_file_inode_matches_materialized_model(ops):
    """Zero writes held as an extent read, size and charge exactly like
    zeros written into a buffer, across data, extent and hole."""
    inode = InodeTable().new_file()
    model = _MaterializedFile()
    for op in ops:
        if op[0] == "write":
            inode.write_at(op[1], op[2])
            model.write_at(op[1], op[2])
        elif op[0] == "zeros":
            assert inode.write_zeros_at(op[1], op[2]) == op[2]
            model.write_at(op[1], bytes(op[2]))
        else:
            inode.truncate_to(op[1])
            model.truncate_to(op[1])
        assert inode.read_at(0, inode.size + 16) == model.contents()
        assert inode.size == model.size
        assert inode.materialized_bytes == len(model.buf)


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["grow", "shrink", "free"]), st.integers(0, 40)),
        max_size=30,
    )
)
@SMALL
def test_block_device_accounting_never_negative(ops):
    dev = BlockDevice(total_blocks=32, block_size=512)
    sizes: dict[int, int] = {}
    for i, (op, amount) in enumerate(ops):
        owner = i % 4
        try:
            if op == "free":
                dev.release_owner(owner)
                sizes[owner] = 0
            else:
                new = amount * 512 if op == "grow" else (amount % 4) * 512
                dev.resize_owner(owner, new)
                sizes[owner] = new
        except FsError:
            pass
        assert 0 <= dev.allocated_blocks <= dev.total_blocks
        assert dev.free_blocks >= 0
    expected = sum(dev.blocks_for(size) for size in sizes.values())
    assert dev.allocated_blocks == expected


@given(
    sizes=st.lists(st.integers(0, 3 * 4096), min_size=1, max_size=10),
)
@SMALL
def test_truncate_sequence_size_is_last(sizes):
    fs = FileSystem()
    sc = SyscallInterface(fs)
    fd = sc.open("/f", C.O_CREAT | C.O_WRONLY, 0o644).retval
    for size in sizes:
        assert sc.ftruncate(fd, size).ok
    inode = fs.lookup("/f")
    assert inode.size == sizes[-1]
    # Sparse semantics: truncate growth materializes nothing, so the
    # device charge tracks materialized bytes, never more than logical.
    assert inode.materialized_bytes <= inode.size
    assert fs.device.owner_blocks(inode.ino) == fs.device.blocks_for(
        inode.materialized_bytes
    )


_NAME = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=8
)


@given(names=st.lists(_NAME, min_size=1, max_size=8, unique=True))
@SMALL
def test_mkdir_then_resolvable(names):
    fs = FileSystem()
    sc = SyscallInterface(fs)
    path = ""
    for name in names:
        path = f"{path}/{name}"
        assert sc.mkdir(path, 0o755).ok
        assert sc.stat(path).ok
    assert fs.lookup(path).is_directory()


@given(
    count=st.integers(-10, 200000),
)
@SMALL
def test_write_retval_never_exceeds_count(count):
    fs = FileSystem(total_blocks=16)  # 64 KiB
    sc = SyscallInterface(fs)
    fd = sc.open("/f", C.O_CREAT | C.O_WRONLY, 0o644).retval
    result = sc.write(fd, count=count)
    if count < 0:
        assert result.errno == std_errno.EINVAL
    else:
        assert result.retval <= count
        if result.ok:
            assert fs.lookup("/f").size == result.retval


@given(data=st.data())
@SMALL
def test_every_syscall_errno_is_a_known_errno(data):
    """Whatever path/flag garbage we throw, a failing syscall returns a
    genuine Linux errno (validity of the output space)."""
    fs = FileSystem(total_blocks=8)
    sc = SyscallInterface(fs)
    path = data.draw(st.sampled_from(["/x", "/x/y", "", "/" + "n" * 300, "/\0"]))
    flags = data.draw(st.integers(0, 0o40000000))
    results = [
        sc.open(path or None, flags),
        sc.mkdir(path or None, data.draw(st.integers(0, 0o7777))),
        sc.truncate(path or None, data.draw(st.integers(-5, 10**7))),
        sc.chdir(path or None),
    ]
    for result in results:
        if not result.ok:
            assert result.errno in ERRNO_NAMES
            assert result.retval == -result.errno


@given(
    offsets=st.lists(
        st.tuples(st.integers(-100, 10000), st.sampled_from([0, 1, 2])),
        min_size=1,
        max_size=10,
    )
)
@SMALL
def test_lseek_offset_invariants(offsets):
    fs = FileSystem()
    sc = SyscallInterface(fs)
    fd = sc.open("/f", C.O_CREAT | C.O_RDWR, 0o644).retval
    sc.write(fd, count=1000)
    for offset, whence in offsets:
        result = sc.lseek(fd, offset, whence)
        ofd = sc.process.fd_table.get(fd)
        if result.ok:
            assert result.retval == ofd.offset >= 0
        else:
            # Failed seeks leave the offset untouched and valid.
            assert ofd.offset >= 0
