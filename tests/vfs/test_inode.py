"""Unit tests for inode kinds, xattr storage, and the inode table."""

import pytest

from repro.vfs import constants
from repro.vfs.errors import EEXIST, ENODATA, ENOENT, ENOSPC, ERANGE, FsError
from repro.vfs.inode import DirInode, FileInode, InodeTable, SymlinkInode


@pytest.fixture
def table() -> InodeTable:
    return InodeTable()


def test_file_inode_type_predicates(table):
    inode = table.new_file()
    assert inode.is_regular()
    assert not inode.is_directory()
    assert not inode.is_symlink()
    assert inode.file_type == constants.S_IFREG


def test_dir_inode_type_and_nlink(table):
    inode = table.new_dir()
    assert inode.is_directory()
    assert inode.nlink == 2  # "." and parent entry


def test_symlink_inode_target_and_size(table):
    link = table.new_symlink("/some/where")
    assert link.is_symlink()
    assert link.size == len("/some/where")
    assert link.target == "/some/where"


def test_permissions_roundtrip(table):
    inode = table.new_file(mode=0o640)
    assert inode.permissions == 0o640
    inode.set_permissions(0o4755)
    assert inode.permissions == 0o4755
    assert inode.is_regular()  # file-type bits preserved


def test_file_read_write_at(table):
    inode = table.new_file()
    assert inode.write_at(0, b"hello") == 5
    assert inode.read_at(0, 5) == b"hello"
    assert inode.read_at(1, 3) == b"ell"
    assert inode.read_at(5, 10) == b""
    assert inode.read_at(100, 1) == b""


def test_file_write_hole_zero_fills(table):
    inode = table.new_file()
    inode.write_at(10, b"X")
    assert inode.size == 11
    assert inode.read_at(0, 10) == b"\0" * 10


def _observed(inode):
    return inode.read_at(0, inode.size), inode.size, inode.materialized_bytes


def test_write_zeros_at_matches_write_at(table):
    a, b = table.new_file(), table.new_file()
    a.write_at(5, b"\0" * 100)
    b.write_zeros_at(5, 100)
    assert _observed(a) == _observed(b)
    # Overwrite inside existing data too.
    a.write_at(0, b"\xff" * 10)
    a.write_zeros_at(2, 4)
    assert a.read_at(0, 10) == b"\xff\xff\0\0\0\0\xff\xff\xff\xff"
    # Straddle the end of existing data: the overlapped bytes are zeroed
    # as well as the ones appended.
    c, d = table.new_file(), table.new_file()
    c.write_at(0, b"abcdef")
    d.write_at(0, b"abcdef")
    c.write_at(2, b"\0" * 10)
    d.write_zeros_at(2, 10)
    assert _observed(d) == _observed(c) == (b"ab" + b"\0" * 10, 12, 12)


def test_truncate_shrink_and_grow(table):
    inode = table.new_file()
    inode.write_at(0, b"abcdef")
    inode.truncate_to(3)
    assert inode.read_at(0, 10) == b"abc"
    inode.truncate_to(6)
    assert inode.read_at(0, 10) == b"abc\0\0\0"


def test_dir_link_lookup_unlink(table):
    parent = table.new_dir()
    child = table.new_file()
    parent.link("f", child.ino)
    with pytest.raises(FsError) as excinfo:
        parent.link("f", child.ino)
    assert excinfo.value.errno == EEXIST
    assert parent.unlink("f") == child.ino
    with pytest.raises(FsError):
        parent.unlink("f")


def test_dir_is_empty_and_names(table):
    d = table.new_dir()
    assert d.is_empty()
    d.link("a", 10)
    d.link("b", 11)
    assert sorted(d.names()) == ["a", "b"]
    assert not d.is_empty()


# -- xattrs -----------------------------------------------------------------


def test_xattr_set_get_roundtrip(table):
    inode = table.new_file()
    inode.set_xattr("user.k", b"value", create=False, replace=False)
    assert inode.get_xattr("user.k", 100) == b"value"


def test_xattr_create_flag_rejects_existing(table):
    inode = table.new_file()
    inode.set_xattr("user.k", b"v", create=True, replace=False)
    with pytest.raises(FsError) as excinfo:
        inode.set_xattr("user.k", b"w", create=True, replace=False)
    assert excinfo.value.errno == EEXIST


def test_xattr_replace_flag_requires_existing(table):
    inode = table.new_file()
    with pytest.raises(FsError) as excinfo:
        inode.set_xattr("user.k", b"v", create=False, replace=True)
    assert excinfo.value.errno == ENODATA


def test_xattr_get_missing_is_enodata(table):
    inode = table.new_file()
    with pytest.raises(FsError) as excinfo:
        inode.get_xattr("user.nope", 10)
    assert excinfo.value.errno == ENODATA


def test_xattr_get_probe_size_zero(table):
    inode = table.new_file()
    inode.set_xattr("user.k", b"12345", create=False, replace=False)
    assert inode.get_xattr("user.k", 0) == b"12345"


def test_xattr_get_small_buffer_is_erange(table):
    inode = table.new_file()
    inode.set_xattr("user.k", b"12345", create=False, replace=False)
    with pytest.raises(FsError) as excinfo:
        inode.get_xattr("user.k", 3)
    assert excinfo.value.errno == ERANGE


def test_xattr_ibody_space_exhaustion(table):
    """The Figure 1 resource: in-inode xattr room is finite."""
    inode = table.new_file()
    room = inode.xattr_ibody_space
    name = "user.a"
    inode.set_xattr(name, b"x" * (room - len(name)), create=False, replace=False)
    with pytest.raises(FsError) as excinfo:
        inode.set_xattr("user.b", b"y", create=False, replace=False)
    assert excinfo.value.errno == ENOSPC


def test_xattr_replace_frees_old_space(table):
    inode = table.new_file()
    room = inode.xattr_ibody_space
    name = "user.a"
    big = b"x" * (room - len(name))
    inode.set_xattr(name, big, create=False, replace=False)
    # Replacing with the same size must succeed (old value released).
    inode.set_xattr(name, big, create=False, replace=True)
    assert inode.get_xattr(name, 0) == big


def test_inode_table_get_missing_raises(table):
    with pytest.raises(FsError) as excinfo:
        table.get(99999)
    assert excinfo.value.errno == ENOENT


def test_inode_table_remove_and_contains(table):
    inode = table.new_file()
    assert inode.ino in table
    table.remove(inode.ino)
    assert inode.ino not in table
    table.remove(inode.ino)  # idempotent


def test_inode_numbers_unique(table):
    inos = {table.new_file().ino for _ in range(100)}
    assert len(inos) == 100


def test_inode_table_full_is_enospc():
    tiny = InodeTable(max_inodes=3)
    tiny.new_file()
    tiny.new_file()
    with pytest.raises(FsError) as excinfo:
        tiny.new_file()  # table already holds root? no root here: 3rd fails
        tiny.new_file()
    assert excinfo.value.errno == ENOSPC
