"""Simulated block device: capacity accounting behind the VFS.

The device does not store bytes itself (file content lives in the
inodes); it models *allocation*, which is what drives the ENOSPC and
EDQUOT behaviour the paper's output-coverage metric cares about.  It
also exposes a write-ahead journal of block updates so the crash
simulator (:mod:`repro.vfs.crash`) can truncate in-flight state at an
arbitrary persistence point, the way CrashMonkey's crash-consistency
harness does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.vfs import constants
from repro.vfs.errors import ENOSPC, FsError


@dataclass
class BlockDeviceStats:
    """Point-in-time allocation statistics for a :class:`BlockDevice`."""

    block_size: int
    total_blocks: int
    allocated_blocks: int

    @property
    def free_blocks(self) -> int:
        return self.total_blocks - self.allocated_blocks

    @property
    def total_bytes(self) -> int:
        return self.total_blocks * self.block_size

    @property
    def free_bytes(self) -> int:
        return self.free_blocks * self.block_size


class BlockDevice:
    """Fixed-capacity allocator with a persistence barrier.

    Allocation is tracked per *owner* (an inode number) so the device
    can release everything an inode held when it is truncated or
    removed.  The pending/persisted split models a volatile page cache
    over durable storage: ``sync`` moves pending allocations into the
    persisted set, and :meth:`crash` discards anything not persisted.
    """

    def __init__(
        self,
        total_blocks: int = constants.DEFAULT_DEVICE_BLOCKS,
        block_size: int = constants.DEFAULT_BLOCK_SIZE,
    ) -> None:
        if total_blocks <= 0:
            raise ValueError("total_blocks must be positive")
        if block_size <= 0 or block_size & (block_size - 1):
            raise ValueError("block_size must be a positive power of two")
        self.block_size = block_size
        self.total_blocks = total_blocks
        #: blocks currently allocated, per owner inode number
        self._allocated: dict[int, int] = {}
        #: blocks durably persisted, per owner inode number
        self._persisted: dict[int, int] = {}
        #: blocks withheld from allocation (Ext4's reserved-blocks
        #: mechanism; test harnesses use it to force ENOSPC cheaply)
        self.reserved_blocks = 0

    def clone(self) -> "BlockDevice":
        """A copy whose allocation maps are its own."""
        twin = object.__new__(self.__class__)
        twin.__dict__.update(self.__dict__)
        twin._allocated = self._allocated.copy()
        twin._persisted = self._persisted.copy()
        return twin

    # -- queries ----------------------------------------------------------

    @property
    def allocated_blocks(self) -> int:
        """Total blocks currently allocated (pending + persisted)."""
        return sum(self._allocated.values())

    @property
    def free_blocks(self) -> int:
        return max(0, self.total_blocks - self.allocated_blocks - self.reserved_blocks)

    def reserve_all_free(self) -> int:
        """Withhold every free block (forces ENOSPC); returns the count."""
        self.reserved_blocks += self.free_blocks
        return self.reserved_blocks

    def release_reserved(self) -> None:
        """Return all withheld blocks to the free pool."""
        self.reserved_blocks = 0

    def blocks_for(self, nbytes: int) -> int:
        """Number of blocks needed to hold *nbytes* of data."""
        if nbytes <= 0:
            return 0
        return -(-nbytes // self.block_size)

    def owner_blocks(self, owner: int) -> int:
        """Blocks currently held by *owner* (an inode number)."""
        return self._allocated.get(owner, 0)

    def stats(self) -> BlockDeviceStats:
        return BlockDeviceStats(
            block_size=self.block_size,
            total_blocks=self.total_blocks,
            allocated_blocks=self.allocated_blocks,
        )

    # -- allocation -------------------------------------------------------

    def resize_owner(self, owner: int, new_bytes: int) -> None:
        """Grow or shrink *owner*'s allocation to cover *new_bytes*.

        Raises:
            FsError(ENOSPC): if growth would exceed device capacity.
        """
        needed = self.blocks_for(new_bytes)
        current = self._allocated.get(owner, 0)
        delta = needed - current
        if delta > 0 and delta > self.free_blocks:
            raise FsError(ENOSPC, f"need {delta} blocks, {self.free_blocks} free")
        if needed:
            self._allocated[owner] = needed
        else:
            self._allocated.pop(owner, None)

    def release_owner(self, owner: int) -> None:
        """Free every block held by *owner* (inode removal)."""
        self._allocated.pop(owner, None)
        self._persisted.pop(owner, None)

    # -- persistence / crash ----------------------------------------------

    def sync(self) -> None:
        """Persist all pending allocations (fsync/sync barrier)."""
        self._persisted = dict(self._allocated)

    def sync_owner(self, owner: int) -> None:
        """Persist one owner's allocation (per-file fsync)."""
        blocks = self._allocated.get(owner)
        if blocks is None:
            self._persisted.pop(owner, None)
        else:
            self._persisted[owner] = blocks

    def crash(self) -> None:
        """Discard all allocations that were never persisted."""
        self._allocated = dict(self._persisted)
