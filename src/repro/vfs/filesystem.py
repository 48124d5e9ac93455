"""The mountable file system: inodes + block device + policy state.

One :class:`FileSystem` instance corresponds to one mounted volume —
the ``/mnt/test`` device a file-system tester exercises.  It owns the
inode table, the block device (space accounting), per-uid quotas, and
volume-wide policy switches (read-only, frozen) that drive EROFS and
EBUSY output partitions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.vfs import constants
from repro.vfs.blockdev import BlockDevice
from repro.vfs.errors import (
    EDQUOT,
    EFBIG,
    ENOSPC,
    EROFS,
    ETXTBSY,
    FsError,
)
from repro.vfs.inode import DirInode, FileInode, Inode, InodeTable
from repro.vfs.path import Credentials, PathResolver


@dataclass
class Quota:
    """Per-uid block quota (drives EDQUOT)."""

    block_limit: int
    blocks_used: int = 0

    def charge(self, delta: int) -> None:
        """Apply a block-count delta; negative deltas always succeed.

        Raises:
            FsError(EDQUOT): the quota would be exceeded.
        """
        if delta > 0 and self.blocks_used + delta > self.block_limit:
            raise FsError(
                EDQUOT,
                f"quota: {self.blocks_used}+{delta} > {self.block_limit}",
            )
        self.blocks_used = max(0, self.blocks_used + delta)


class FileSystem:
    """An in-memory POSIX file system with Ext4-like limits.

    Args:
        total_blocks: device capacity in blocks.
        block_size: bytes per block (power of two).
        max_file_size: per-file size cap (drives EFBIG).
        read_only: mount the volume read-only (drives EROFS).
    """

    def __init__(
        self,
        total_blocks: int = constants.DEFAULT_DEVICE_BLOCKS,
        block_size: int = constants.DEFAULT_BLOCK_SIZE,
        max_file_size: int = constants.MAX_FILE_SIZE,
        read_only: bool = False,
    ) -> None:
        self.device = BlockDevice(total_blocks=total_blocks, block_size=block_size)
        self.inodes = InodeTable()
        root = self.inodes.new_dir(mode=0o755)
        self.root_ino = root.ino
        self.resolver = PathResolver(self.inodes, self.root_ino)
        self.max_file_size = max_file_size
        self.read_only = read_only
        self.frozen = False
        self._quotas: dict[int, Quota] = {}
        #: inode numbers currently mapped executable (ETXTBSY model).
        self._busy_text: set[int] = set()
        #: logical clock for inode timestamps.
        self._clock = 0

    def clone(self) -> "FileSystem":
        """A copy that shares no mutable state with this volume.

        Like :meth:`InodeTable.clone`, it copies exactly the mutable
        state: the inode table, the device's allocation maps, the
        quotas and the busy-text set.  Flags, limits and the clock are
        immutable values; the resolver is bound to the copied table.
        """
        twin = object.__new__(self.__class__)
        twin.__dict__.update(self.__dict__)
        twin.device = self.device.clone()
        twin.inodes = self.inodes.clone()
        twin.resolver = PathResolver(twin.inodes, self.root_ino)
        twin._quotas = {uid: replace(quota) for uid, quota in self._quotas.items()}
        twin._busy_text = set(self._busy_text)
        return twin

    # -- clock -------------------------------------------------------------

    def tick(self) -> int:
        """Advance and return the logical timestamp (ns granularity)."""
        self._clock += 1
        return self._clock

    # -- policy ------------------------------------------------------------

    def require_writable(self) -> None:
        """Raise if the volume cannot accept writes right now.

        Raises:
            FsError(EROFS): mounted read-only.
            FsError(EBUSY): frozen (e.g. mid-snapshot).
        """
        if self.read_only:
            raise FsError(EROFS, "read-only file system")
        if self.frozen:
            from repro.vfs.errors import EBUSY

            raise FsError(EBUSY, "file system frozen")

    def mark_text_busy(self, ino: int) -> None:
        """Mark a file as a running executable (open-for-write → ETXTBSY)."""
        self._busy_text.add(ino)

    def clear_text_busy(self, ino: int) -> None:
        self._busy_text.discard(ino)

    def require_not_text_busy(self, inode: Inode) -> None:
        """Raise ETXTBSY for write access to a busy executable image."""
        if inode.ino in self._busy_text:
            raise FsError(ETXTBSY, f"inode {inode.ino} is a running text image")

    # -- quota -------------------------------------------------------------

    def set_quota(self, uid: int, block_limit: int) -> None:
        """Install a block quota for *uid* (0 disables enforcement)."""
        if block_limit <= 0:
            self._quotas.pop(uid, None)
        else:
            used = sum(
                self.device.owner_blocks(inode.ino)
                for inode in self.inodes.all_inodes()
                if inode.uid == uid
            )
            self._quotas[uid] = Quota(block_limit=block_limit, blocks_used=used)

    def _quota_for(self, uid: int) -> Quota | None:
        return self._quotas.get(uid)

    # -- space accounting ----------------------------------------------------

    def charge_file_size(
        self, inode: FileInode, new_size: int, materialized: int | None = None
    ) -> None:
        """Account a file's resize against device space, quota, and EFBIG.

        Must be called *before* mutating the inode's data; it raises
        without side effects other than the accounting change itself
        (device and quota move together or not at all).

        Args:
            new_size: the new *logical* size (checked against EFBIG).
            materialized: bytes actually backed by storage after the
                operation; defaults to *new_size*.  Sparse growth
                (truncate past the data) passes the unchanged
                materialized count and is charged nothing.

        Raises:
            FsError(EFBIG): new size exceeds the per-file limit.
            FsError(ENOSPC): the device is out of blocks.
            FsError(EDQUOT): the owner's quota is exceeded.
        """
        if new_size > self.max_file_size:
            raise FsError(EFBIG, f"size {new_size} > limit {self.max_file_size}")
        if materialized is None:
            materialized = new_size
        self.charge_blocks(inode, materialized)

    def charge_blocks(self, inode: Inode, materialized: int) -> None:
        """Account *materialized* backed bytes against space and quota.

        The block-allocation half of :meth:`charge_file_size`: no EFBIG
        check, because the caller is not changing a logical file size
        (directory blocks, metadata).  Device and quota move together
        or not at all.

        Raises:
            FsError(ENOSPC): the device is out of blocks.
            FsError(EDQUOT): the owner's quota is exceeded.
        """
        old_blocks = self.device.owner_blocks(inode.ino)
        new_blocks = self.device.blocks_for(materialized)
        quota = self._quota_for(inode.uid)
        if quota is not None:
            quota.charge(new_blocks - old_blocks)
        try:
            self.device.resize_owner(inode.ino, materialized)
        except FsError:
            if quota is not None:
                quota.charge(old_blocks - new_blocks)  # roll back
            raise

    def check_creation_allowed(self, uid: int) -> None:
        """Gate inode creation on free space and quota, like Ext4.

        Creating a file consumes metadata (a directory entry and an
        inode), so creation fails when the device is completely full or
        the creator's quota is exhausted even though the new file holds
        no data blocks yet.

        Raises:
            FsError(ENOSPC): no free blocks remain on the device.
            FsError(EDQUOT): the creator's block quota is exhausted.
        """
        if self.device.free_blocks <= 0:
            raise FsError(ENOSPC, "device full: cannot create inode")
        quota = self._quota_for(uid)
        if quota is not None and quota.blocks_used >= quota.block_limit:
            raise FsError(EDQUOT, f"uid {uid} quota exhausted")

    def release_inode_space(self, inode: Inode) -> None:
        """Free all blocks (and quota) held by *inode*."""
        blocks = self.device.owner_blocks(inode.ino)
        quota = self._quota_for(inode.uid)
        if quota is not None and blocks:
            quota.charge(-blocks)
        self.device.release_owner(inode.ino)

    # -- convenience --------------------------------------------------------

    @property
    def root(self) -> DirInode:
        inode = self.inodes.get(self.root_ino)
        assert isinstance(inode, DirInode)
        return inode

    def lookup(self, path: str, creds: Credentials | None = None) -> Inode:
        """Resolve an absolute *path* from the root (test helper)."""
        creds = creds or Credentials()
        return self.resolver.lookup_inode(path, self.root_ino, creds)

    def sync(self) -> None:
        """Volume-wide persistence barrier (sync(2))."""
        self.device.sync()

    def stats(self):
        return self.device.stats()
