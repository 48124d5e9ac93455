"""Inode objects: regular files, directories, and symlinks.

Inodes hold content (bytes for regular files, child-name maps for
directories, target strings for symlinks), mode/ownership metadata, and
extended attributes.  Space accounting is delegated to the owning
file system so that inode methods stay pure data operations; the FS
layer charges the block device before calling them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.vfs import constants
from repro.vfs.errors import (
    EEXIST,
    ENODATA,
    ENOENT,
    ENOSPC,
    ERANGE,
    FsError,
)


@dataclass
class InodeTimes:
    """atime/mtime/ctime in nanoseconds since the epoch (logical clock)."""

    atime: int = 0
    mtime: int = 0
    ctime: int = 0


class Inode:
    """Base class for all inode kinds.

    Attributes:
        ino: inode number, unique within one file system.
        mode: full st_mode including the file-type bits.
        uid / gid: ownership.
        nlink: hard-link count.
        xattrs: extended attributes (name -> value bytes).
    """

    def __init__(self, ino: int, mode: int, uid: int = 0, gid: int = 0) -> None:
        self.ino = ino
        self.mode = mode
        self.uid = uid
        self.gid = gid
        self.nlink = 1
        self.times = InodeTimes()
        self.xattrs: dict[str, bytes] = {}
        #: bytes of in-inode xattr space remaining (Figure 1 exemplar:
        #: Ext4 stores small xattrs in the inode body and must check
        #: remaining room before accepting another one).
        self.xattr_ibody_space = constants.XATTR_IBODY_SPACE

    # -- type predicates ----------------------------------------------------

    @property
    def file_type(self) -> int:
        return self.mode & constants.S_IFMT

    def is_regular(self) -> bool:
        return self.file_type == constants.S_IFREG

    def is_directory(self) -> bool:
        return self.file_type == constants.S_IFDIR

    def is_symlink(self) -> bool:
        return self.file_type == constants.S_IFLNK

    @property
    def permissions(self) -> int:
        """Just the permission bits (and setuid/setgid/sticky)."""
        return self.mode & 0o7777

    def set_permissions(self, mode: int) -> None:
        self.mode = self.file_type | (mode & 0o7777)

    def clone(self) -> "Inode":
        """A copy that shares no mutable state with this inode.

        Kinds with more mutable state copy it too; everything else an
        inode holds is immutable.
        """
        twin = object.__new__(self.__class__)
        twin.__dict__.update(self.__dict__)
        times = self.times
        twin.times = InodeTimes(times.atime, times.mtime, times.ctime)
        twin.xattrs = self.xattrs.copy()
        return twin

    # -- size ---------------------------------------------------------------

    @property
    def size(self) -> int:
        """Logical size in bytes (overridden per kind)."""
        return 0

    # -- xattrs ---------------------------------------------------------------

    def xattr_space_used(self) -> int:
        """Bytes of xattr storage consumed (names + values)."""
        return sum(len(name) + len(value) for name, value in self.xattrs.items())

    def set_xattr(self, name: str, value: bytes, create: bool, replace: bool) -> None:
        """Set one extended attribute, honouring XATTR_CREATE/REPLACE.

        Raises:
            FsError(EEXIST): XATTR_CREATE and the name already exists.
            FsError(ENODATA): XATTR_REPLACE and the name is absent.
            FsError(ENOSPC): no room left in the in-inode xattr area.
        """
        exists = name in self.xattrs
        if create and exists:
            raise FsError(EEXIST, f"xattr {name!r} already exists")
        if replace and not exists:
            raise FsError(ENODATA, f"xattr {name!r} not found")
        old_len = len(name) + len(self.xattrs[name]) if exists else 0
        new_len = len(name) + len(value)
        available = self.xattr_ibody_space - self.xattr_space_used() + old_len
        if new_len > available:
            raise FsError(ENOSPC, f"xattr {name!r}: {new_len} bytes > {available} free")
        self.xattrs[name] = bytes(value)

    def get_xattr(self, name: str, size: int) -> bytes:
        """Read one extended attribute.

        A *size* of 0 is the POSIX "probe" convention: the caller asks
        for the value length only, so any size fits.  Otherwise the
        buffer must be at least as large as the value.

        Raises:
            FsError(ENODATA): the attribute does not exist.
            FsError(ERANGE): *size* is nonzero but smaller than the value.
        """
        if name not in self.xattrs:
            raise FsError(ENODATA, f"xattr {name!r} not found")
        value = self.xattrs[name]
        if size and size < len(value):
            raise FsError(ERANGE, f"buffer {size} < value {len(value)}")
        return value


class FileInode(Inode):
    """Regular file: written bytes, an allocated zero extent, a hole.

    ``data`` holds the bytes written with a payload.  The zero extent
    of count-only writes follows, up to ``materialized_bytes``: the
    device charges it like ``data``, but it holds no memory.  The
    sparse tail of truncate growth follows, up to ``size``, and is
    charged nothing.  Both zero regions read as zeros, so a 258 MiB
    count-only write (the paper's Figure 3 maximum) or a >2 GiB
    truncate (the O_LARGEFILE boundary) costs no memory.
    """

    def __init__(self, ino: int, mode: int = 0o644, uid: int = 0, gid: int = 0) -> None:
        super().__init__(ino, constants.S_IFREG | (mode & 0o7777), uid, gid)
        self.data = bytearray()
        #: end of the allocated bytes: ``data`` plus the zero extent
        self._allocated = 0
        self._size = 0

    @property
    def size(self) -> int:
        return self._size

    def clone(self) -> "FileInode":
        twin = super().clone()
        twin.data = bytearray(self.data)
        return twin

    @property
    def materialized_bytes(self) -> int:
        """Bytes actually backed by storage (what the device charges)."""
        return self._allocated

    def read_at(self, offset: int, count: int) -> bytes:
        """Read up to *count* bytes starting at *offset* (short at EOF)."""
        if offset >= self._size or count <= 0:
            return b""
        count = min(count, self._size - offset)
        if offset >= len(self.data):
            return bytes(count)
        chunk = bytes(self.data[offset : offset + count])
        if len(chunk) < count:
            chunk += bytes(count - len(chunk))
        return chunk

    def write_at(self, offset: int, data: bytes) -> int:
        """Write *data* at *offset*, zero-filling any hole; returns count."""
        end = offset + len(data)
        if end > len(self.data):
            self.data.extend(bytes(end - len(self.data)))
        self.data[offset:end] = data
        self._allocated = max(self._allocated, end)
        self._size = max(self._size, end)
        return len(data)

    def write_zeros_at(self, offset: int, count: int) -> int:
        """Write *count* zero bytes at *offset*; the zeros hold no memory.

        Only the overlap with ``data`` is zeroed; the rest joins the
        zero extent.  Workloads issue count-only writes up to the
        paper's 258 MiB Figure 3 maximum.
        """
        end = offset + count
        overlap = min(end, len(self.data)) - offset
        if overlap > 0:
            self.data[offset:end] = bytes(overlap)
        self._allocated = max(self._allocated, end)
        self._size = max(self._size, end)
        return count

    def truncate_to(self, length: int) -> None:
        """Set the logical size to *length*; growth is a sparse hole."""
        del self.data[length:]
        self._allocated = min(self._allocated, length)
        self._size = length


class DirInode(Inode):
    """Directory: an ordered name -> inode-number map."""

    def __init__(
        self,
        ino: int,
        mode: int = 0o755,
        uid: int = 0,
        gid: int = 0,
        parent_ino: int | None = None,
    ) -> None:
        super().__init__(ino, constants.S_IFDIR | (mode & 0o7777), uid, gid)
        self.entries: dict[str, int] = {}
        self.parent_ino = parent_ino if parent_ino is not None else ino
        self.nlink = 2  # "." and the parent's entry

    def clone(self) -> "DirInode":
        twin = super().clone()
        twin.entries = self.entries.copy()
        return twin

    @property
    def size(self) -> int:
        # Directories report a nominal block-multiple size like Ext4.
        return max(constants.DEFAULT_BLOCK_SIZE, len(self.entries) * 32)

    def link(self, name: str, ino: int) -> None:
        """Bind *name* -> *ino*.

        Raises:
            FsError(EEXIST): the name is already bound.
        """
        if name in self.entries:
            raise FsError(EEXIST, name)
        self.entries[name] = ino

    def unlink(self, name: str) -> int:
        """Remove the entry for *name*, returning its inode number.

        Raises:
            FsError(ENOENT): no such entry.
        """
        if name not in self.entries:
            raise FsError(ENOENT, name)
        return self.entries.pop(name)

    def names(self) -> Iterator[str]:
        return iter(self.entries)

    def is_empty(self) -> bool:
        return not self.entries


class SymlinkInode(Inode):
    """Symbolic link: stores its target path as a string."""

    def __init__(self, ino: int, target: str, uid: int = 0, gid: int = 0) -> None:
        super().__init__(ino, constants.S_IFLNK | 0o777, uid, gid)
        self.target = target

    @property
    def size(self) -> int:
        return len(self.target)


class InodeTable:
    """Allocator and registry for all inodes of one file system."""

    def __init__(self, max_inodes: int = 1 << 20) -> None:
        self._inodes: dict[int, Inode] = {}
        self._next_ino = 2  # 1 is reserved; root gets 2
        self.max_inodes = max_inodes

    def clone(self) -> "InodeTable":
        """A copy of every inode and of the allocator (a crash snapshot)."""
        twin = InodeTable(self.max_inodes)
        twin._inodes = {ino: inode.clone() for ino, inode in self._inodes.items()}
        twin._next_ino = self._next_ino
        return twin

    def __len__(self) -> int:
        return len(self._inodes)

    def __contains__(self, ino: int) -> bool:
        return ino in self._inodes

    def get(self, ino: int) -> Inode:
        """Fetch an inode by number.

        Raises:
            FsError(ENOENT): the inode does not exist (stale reference).
        """
        if ino not in self._inodes:
            raise FsError(ENOENT, f"inode {ino}")
        return self._inodes[ino]

    def _allocate_ino(self) -> int:
        if len(self._inodes) >= self.max_inodes:
            raise FsError(ENOSPC, "inode table full")
        ino = self._next_ino
        self._next_ino = ino + 1
        return ino

    def new_file(self, mode: int = 0o644, uid: int = 0, gid: int = 0) -> FileInode:
        inode = FileInode(self._allocate_ino(), mode, uid, gid)
        self._inodes[inode.ino] = inode
        return inode

    def new_dir(
        self, mode: int = 0o755, uid: int = 0, gid: int = 0, parent_ino: int | None = None
    ) -> DirInode:
        inode = DirInode(self._allocate_ino(), mode, uid, gid, parent_ino)
        self._inodes[inode.ino] = inode
        return inode

    def new_symlink(self, target: str, uid: int = 0, gid: int = 0) -> SymlinkInode:
        inode = SymlinkInode(self._allocate_ino(), target, uid, gid)
        self._inodes[inode.ino] = inode
        return inode

    def remove(self, ino: int) -> None:
        """Drop an inode from the table (after its last link is gone)."""
        self._inodes.pop(ino, None)

    def all_inodes(self) -> Iterator[Inode]:
        return iter(self._inodes.values())
