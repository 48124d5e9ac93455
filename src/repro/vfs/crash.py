"""Crash-point simulation for crash-consistency workloads.

CrashMonkey's seq-1 testing runs a small workload, crashes the system
at a persistence point, remounts, and checks that everything that was
fsync'ed survived.  Our CrashMonkey substrate needs the same life
cycle; this module provides it over :class:`~repro.vfs.filesystem.FileSystem`.

The model is allocation-level: data written but not persisted (no
fsync/sync since the write) is discarded by :meth:`CrashSimulator.crash`.
File *content* is snapshotted at each persistence point so a remount
restores exactly the durable image.  A snapshot is an
:meth:`~repro.vfs.inode.InodeTable.clone`, which copies each inode's
mutable state and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.vfs.filesystem import FileSystem
from repro.vfs.inode import DirInode, InodeTable


@dataclass
class DurableImage:
    """A snapshot of the durable (persisted) file-system state."""

    inodes_snapshot: InodeTable
    root_ino: int


class CrashSimulator:
    """Snapshot/restore harness around one file system.

    Usage::

        sim = CrashSimulator(fs)
        ... run workload ...
        sim.checkpoint()      # called by fsync/sync hooks or the harness
        ... more workload ...
        sim.crash()           # discard everything after the checkpoint
    """

    def __init__(self, fs: FileSystem) -> None:
        self.fs = fs
        self._durable: DurableImage | None = None
        self.checkpoint_count = 0
        self.crash_count = 0
        self.checkpoint()  # the freshly made FS is durable

    def checkpoint(self) -> None:
        """Record the current state as durable (a sync barrier)."""
        self.fs.sync()
        self._durable = DurableImage(
            inodes_snapshot=self.fs.inodes.clone(),
            root_ino=self.fs.root_ino,
        )
        self.checkpoint_count += 1

    def crash(self) -> None:
        """Simulate power loss: roll back to the last durable image."""
        assert self._durable is not None
        self.crash_count += 1
        self.fs.inodes = self._durable.inodes_snapshot.clone()
        self.fs.root_ino = self._durable.root_ino
        # Rebind the resolver to the restored table.
        from repro.vfs.path import PathResolver

        self.fs.resolver = PathResolver(self.fs.inodes, self.fs.root_ino)
        self.fs.device.crash()

    def durable_paths(self) -> list[str]:
        """List every path reachable in the durable image (for checkers)."""
        assert self._durable is not None
        table = self._durable.inodes_snapshot
        paths: list[str] = []

        def walk(ino: int, prefix: str) -> None:
            inode = table.get(ino)
            if isinstance(inode, DirInode):
                for name, child_ino in inode.entries.items():
                    child_path = f"{prefix}/{name}" if prefix != "/" else f"/{name}"
                    paths.append(child_path)
                    child = table.get(child_ino)
                    if isinstance(child, DirInode):
                        walk(child_ino, child_path)

        walk(self._durable.root_ino, "/")
        return paths
