"""The traced syscall boundary of the in-memory VFS.

This module implements the 27 file-system syscalls IOCov traces —
11 base calls (open, read, write, lseek, truncate, mkdir, chmod,
close, chdir, setxattr, getxattr) and their variants — plus the
auxiliary calls real testers issue (unlink, rmdir, rename, symlink,
stat, fsync, sync), which show up in raw traces and exercise the trace
filter and the "untracked syscall" path of the analyzer.

Every call follows the kernel convention: the return value is
non-negative on success and ``-errno`` on failure.  Results are wrapped
in :class:`SyscallResult` so read-like calls can also hand back data.
Each invocation emits one :class:`~repro.trace.events.SyscallEvent` to
all subscribed listeners — this is the LTTng tracepoint equivalent.
The event is the counting loop's row, built over the args dict the
syscall method made for it, so tracing copies nothing.

User-buffer faults (EFAULT) are modelled by the ``buf_faulty`` keyword:
a real tester cannot pass a Python "bad pointer", so workloads that
want to exercise the EFAULT output partition arm it explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.trace.events import SyscallEvent
from repro.vfs import constants
from repro.vfs.errors import (
    E2BIG,
    EBADF,
    EBUSY,
    EEXIST,
    EFAULT,
    EFBIG,
    EINVAL,
    EISDIR,
    ELOOP,
    ENAMETOOLONG,
    ENOSPC,
    ENOTDIR,
    ENOTEMPTY,
    ENXIO,
    EOPNOTSUPP,
    EOVERFLOW,
    EPERM,
    FsError,
)
from repro.vfs.faults import FaultInjector
from repro.vfs.fd import FdTable, OpenFileDescription, Process, SystemFileTable
from repro.vfs.filesystem import FileSystem
from repro.vfs.inode import DirInode, FileInode, Inode, SymlinkInode
from repro.vfs.path import MAY_EXEC, MAY_READ, MAY_WRITE, Credentials, check_permission


@dataclass
class SyscallResult:
    """Outcome of one syscall.

    Attributes:
        retval: kernel-style return value (``-errno`` on failure).
        errno: positive errno on failure, else 0.
        data: payload for read-like calls (read/pread64/readv/getxattr).
    """

    retval: int
    errno: int = 0
    data: bytes | None = None

    @property
    def ok(self) -> bool:
        return self.retval >= 0

    def __int__(self) -> int:
        return self.retval


Listener = Callable[[SyscallEvent], None]

#: xattr namespaces the VFS accepts (others yield EOPNOTSUPP).
_XATTR_NAMESPACES = ("user.", "trusted.", "security.", "system.")

#: openat2 resolve bits we understand; unknown bits are EINVAL.
_KNOWN_RESOLVE_FLAGS = (
    constants.RESOLVE_NO_XDEV
    | constants.RESOLVE_NO_MAGICLINKS
    | constants.RESOLVE_NO_SYMLINKS
    | constants.RESOLVE_BENEATH
    | constants.RESOLVE_IN_ROOT
)


class SyscallInterface:
    """Executes syscalls for one process against one file system.

    Args:
        fs: the mounted file system.
        process: execution context; a default root-owned process with
            cwd at the FS root is created when omitted.
        faults: fault injector consulted at every syscall entry.
    """

    def __init__(
        self,
        fs: FileSystem,
        process: Process | None = None,
        faults: FaultInjector | None = None,
    ) -> None:
        self.fs = fs
        if process is None:
            system_table = SystemFileTable()
            process = Process(
                creds=Credentials(uid=0, gid=0),
                fd_table=FdTable(system_table),
                cwd_ino=fs.root_ino,
            )
        self.process = process
        self.faults = faults or FaultInjector()
        self._listeners: list[Listener] = []
        self.call_count = 0

    # ------------------------------------------------------------------
    # tracing plumbing
    # ------------------------------------------------------------------

    def subscribe(self, listener: Listener) -> None:
        """Attach a tracepoint listener (the LTTng recorder)."""
        self._listeners.append(listener)

    def unsubscribe(self, listener: Listener) -> None:
        self._listeners.remove(listener)

    def _emit(self, name: str, args: dict[str, Any], result: SyscallResult) -> None:
        """Hand one event to every listener; it takes ownership of *args*."""
        if not self._listeners:
            return
        process = self.process
        event = SyscallEvent(
            name, args, result.retval, result.errno, process.pid, process.comm, self.fs.tick()
        )
        for listener in self._listeners:
            listener(event)

    def _run(
        self,
        name: str,
        args: dict[str, Any],
        body: Callable[[], int | tuple[int, bytes | None]],
    ) -> SyscallResult:
        """Run one syscall body with fault check, errno capture, tracing."""
        self.call_count += 1
        try:
            self.faults.check(name)
            out = body()
            if isinstance(out, tuple):
                retval, data = out
            else:
                retval, data = out, None
            result = SyscallResult(retval=retval, data=data)
        except FsError as exc:
            result = SyscallResult(retval=-exc.errno, errno=exc.errno)
        self._emit(name, args, result)
        return result

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------

    @property
    def creds(self) -> Credentials:
        return self.process.creds

    def _require_path(self, path: str | None) -> str:
        """Model a bad userspace pointer for path arguments."""
        if path is None:
            raise FsError(EFAULT, "NULL path")
        return path

    def _dirfd_ino(self, dirfd: int) -> int:
        """Translate an \\*at dirfd to a starting inode number."""
        if dirfd == constants.AT_FDCWD:
            return self.process.cwd_ino
        ofd = self.process.fd_table.get(dirfd)
        if not ofd.inode.is_directory():
            raise FsError(ENOTDIR, f"dirfd {dirfd}")
        return ofd.inode.ino

    def _resolve(
        self,
        path: str,
        *,
        dirfd: int = constants.AT_FDCWD,
        follow_final: bool = True,
        must_exist: bool = True,
        forbid_symlinks: bool = False,
    ):
        return self.fs.resolver.resolve(
            path,
            self._dirfd_ino(dirfd),
            self.creds,
            follow_final=follow_final,
            must_exist=must_exist,
            forbid_symlinks=forbid_symlinks,
        )

    def _writable_file_ofd(self, fd: int) -> OpenFileDescription:
        ofd = self.process.fd_table.get(fd)
        if not ofd.writable():
            raise FsError(EBADF, f"fd {fd} not open for writing")
        return ofd

    def _readable_file_ofd(self, fd: int) -> OpenFileDescription:
        ofd = self.process.fd_table.get(fd)
        if not ofd.readable():
            raise FsError(EBADF, f"fd {fd} not open for reading")
        return ofd

    def _max_write_bytes(self, inode: FileInode, end_wanted: int) -> int:
        """Largest file size the device and quota allow for *inode*.

        Used to produce POSIX short writes: when the full request does
        not fit but a prefix does, ``write`` returns the prefix length
        instead of ENOSPC.
        """
        device = self.fs.device
        budget_blocks = device.owner_blocks(inode.ino) + device.free_blocks
        limit = budget_blocks * device.block_size
        quota = self.fs._quota_for(inode.uid)
        if quota is not None:
            quota_blocks = (
                quota.block_limit - quota.blocks_used + device.owner_blocks(inode.ino)
            )
            limit = min(limit, max(0, quota_blocks) * device.block_size)
        return min(limit, self.fs.max_file_size, end_wanted)

    # ------------------------------------------------------------------
    # open family
    # ------------------------------------------------------------------

    def open(self, path: str | None, flags: int, mode: int = 0o644) -> SyscallResult:
        """open(2)."""
        args = {"pathname": path, "flags": flags, "mode": mode}
        return self._run("open", args, lambda: self._do_open(path, flags, mode))

    def creat(self, path: str | None, mode: int = 0o644) -> SyscallResult:
        """creat(2): equivalent to open with O_CREAT|O_WRONLY|O_TRUNC."""
        flags = constants.O_CREAT | constants.O_WRONLY | constants.O_TRUNC
        args = {"pathname": path, "mode": mode}
        return self._run("creat", args, lambda: self._do_open(path, flags, mode))

    def openat(
        self, dirfd: int, path: str | None, flags: int, mode: int = 0o644
    ) -> SyscallResult:
        """openat(2)."""
        args = {"dfd": dirfd, "pathname": path, "flags": flags, "mode": mode}
        return self._run(
            "openat", args, lambda: self._do_open(path, flags, mode, dirfd=dirfd)
        )

    def openat2(
        self,
        dirfd: int,
        path: str | None,
        flags: int,
        mode: int = 0o644,
        resolve: int = 0,
    ) -> SyscallResult:
        """openat2(2) with a struct open_how {flags, mode, resolve}."""
        args = {
            "dfd": dirfd,
            "pathname": path,
            "flags": flags,
            "mode": mode,
            "resolve": resolve,
        }

        def body() -> int:
            if resolve & ~_KNOWN_RESOLVE_FLAGS:
                raise FsError(EINVAL, f"unknown resolve bits {resolve:#x}")
            forbid = bool(resolve & constants.RESOLVE_NO_SYMLINKS)
            return self._do_open(
                path, flags, mode, dirfd=dirfd, forbid_symlinks=forbid
            )

        return self._run("openat2", args, body)

    def _do_open(
        self,
        path: str | None,
        flags: int,
        mode: int,
        *,
        dirfd: int = constants.AT_FDCWD,
        forbid_symlinks: bool = False,
    ) -> int:
        path = self._require_path(path)
        access = flags & constants.O_ACCMODE
        if access == constants.O_ACCMODE:
            raise FsError(EINVAL, "invalid access mode O_RDONLY|O_WRONLY|O_RDWR")
        wants_write = access in (constants.O_WRONLY, constants.O_RDWR)
        is_tmpfile = (flags & constants.O_TMPFILE) == constants.O_TMPFILE

        if is_tmpfile and not wants_write:
            raise FsError(EINVAL, "O_TMPFILE requires write access")

        if wants_write or flags & constants.O_TRUNC or is_tmpfile:
            self.fs.require_writable()

        follow_final = not flags & constants.O_NOFOLLOW
        creating = bool(flags & constants.O_CREAT) and not is_tmpfile

        result = self._resolve(
            path,
            dirfd=dirfd,
            follow_final=follow_final,
            must_exist=not creating,
            forbid_symlinks=forbid_symlinks,
        )
        if creating and path.endswith("/"):
            # Linux: O_CREAT with a trailing slash (an existing name or
            # one to create) is EISDIR.
            raise FsError(EISDIR, path)
        inode = result.inode
        just_created = False

        if creating and inode is not None and flags & constants.O_EXCL:
            raise FsError(EEXIST, path)

        if inode is None:
            # O_CREAT path: make the file in the resolved parent.
            assert result.parent is not None
            self.fs.require_writable()
            check_permission(result.parent, self.creds, MAY_WRITE | MAY_EXEC)
            self.fs.check_creation_allowed(self.creds.uid)
            effective_mode = mode & ~self.process.umask & 0o7777
            inode = self.fs.inodes.new_file(
                mode=effective_mode, uid=self.creds.uid, gid=self.creds.gid
            )
            result.parent.link(result.name, inode.ino)
            just_created = True
        elif isinstance(inode, SymlinkInode):
            # Unfollowed final symlink (O_NOFOLLOW without O_PATH).
            if not flags & constants.O_PATH:
                raise FsError(ELOOP, path)
        elif inode.is_directory():
            if is_tmpfile:
                check_permission(inode, self.creds, MAY_WRITE | MAY_EXEC)
                tmp = self.fs.inodes.new_file(
                    mode=mode & ~self.process.umask & 0o7777,
                    uid=self.creds.uid,
                    gid=self.creds.gid,
                )
                tmp.nlink = 0  # anonymous until linked
                inode = tmp
            elif wants_write:
                raise FsError(EISDIR, path)
        elif flags & constants.O_DIRECTORY:
            raise FsError(ENOTDIR, path)

        if not flags & constants.O_PATH and not just_created:
            # Linux skips the permission check on the file it just
            # created: creat(path, 0444) hands back a writable fd.
            want = 0
            if access in (constants.O_RDONLY, constants.O_RDWR):
                want |= MAY_READ
            if wants_write:
                want |= MAY_WRITE
            if want and not isinstance(inode, SymlinkInode):
                check_permission(inode, self.creds, want)

        if (
            isinstance(inode, FileInode)
            and inode.size > 2**31 - 1
            and not flags & constants.O_LARGEFILE
            and not flags & constants.O_PATH
        ):
            # generic_file_open(): files over 2 GiB need O_LARGEFILE
            # (the check a real 2022 XFS fix restored).
            raise FsError(EOVERFLOW, f"size {inode.size} without O_LARGEFILE")

        if wants_write and isinstance(inode, FileInode):
            self.fs.require_not_text_busy(inode)

        if (
            flags & constants.O_TRUNC
            and isinstance(inode, FileInode)
            and not flags & constants.O_PATH
            and wants_write
        ):
            self.fs.charge_file_size(inode, 0)
            inode.truncate_to(0)
            inode.times.mtime = self.fs.tick()

        ofd = OpenFileDescription(inode=inode, flags=flags)
        if flags & constants.O_APPEND and isinstance(inode, FileInode):
            ofd.offset = inode.size
        return self.process.fd_table.install(ofd)

    # ------------------------------------------------------------------
    # close
    # ------------------------------------------------------------------

    def close(self, fd: int) -> SyscallResult:
        """close(2)."""

        def body() -> int:
            self.process.fd_table.close(fd)
            return 0

        return self._run("close", {"fd": fd}, body)

    # ------------------------------------------------------------------
    # read family
    # ------------------------------------------------------------------

    def read(self, fd: int, count: int, *, buf_faulty: bool = False) -> SyscallResult:
        """read(2): returns up to *count* bytes from the fd offset."""
        args = {"fd": fd, "count": count}
        return self._run(
            "read", args, lambda: self._do_read(fd, count, None, buf_faulty)
        )

    def pread64(
        self, fd: int, count: int, offset: int, *, buf_faulty: bool = False
    ) -> SyscallResult:
        """pread64(2): positional read, fd offset unchanged."""
        args = {"fd": fd, "count": count, "pos": offset}
        return self._run(
            "pread64", args, lambda: self._do_read(fd, count, offset, buf_faulty)
        )

    def readv(
        self, fd: int, iov_lens: list[int], *, buf_faulty: bool = False
    ) -> SyscallResult:
        """readv(2): vectored read; *iov_lens* are the iovec buffer sizes."""
        args = {"fd": fd, "vlen": len(iov_lens), "count": sum(iov_lens)}

        def body() -> tuple[int, bytes | None]:
            if len(iov_lens) > constants.IOV_MAX:
                raise FsError(EINVAL, f"iovcnt {len(iov_lens)} > IOV_MAX")
            if any(length < 0 for length in iov_lens):
                raise FsError(EINVAL, "negative iov_len")
            total = sum(iov_lens)
            if total > constants.MAX_RW_COUNT:
                raise FsError(EINVAL, "iov total exceeds MAX_RW_COUNT")
            return self._read_common(fd, total, None, buf_faulty)

        return self._run("readv", args, body)

    def _do_read(
        self, fd: int, count: int, offset: int | None, buf_faulty: bool
    ) -> tuple[int, bytes | None]:
        if count < 0:
            raise FsError(EINVAL, f"count {count}")
        count = min(count, constants.MAX_RW_COUNT)
        return self._read_common(fd, count, offset, buf_faulty)

    def _read_common(
        self, fd: int, count: int, offset: int | None, buf_faulty: bool
    ) -> tuple[int, bytes | None]:
        ofd = self._readable_file_ofd(fd)
        if offset is not None and offset < 0:
            raise FsError(EINVAL, f"offset {offset}")
        inode = ofd.inode
        if inode.is_directory():
            raise FsError(EISDIR, "read on directory")
        if not isinstance(inode, FileInode):
            raise FsError(EINVAL, "read on non-regular file")
        if buf_faulty:
            raise FsError(EFAULT, "bad user buffer")
        if count == 0:
            return 0, b""
        pos = ofd.offset if offset is None else offset
        data = inode.read_at(pos, count)
        if offset is None:
            ofd.offset = pos + len(data)
        inode.times.atime = self.fs.tick()
        return len(data), data

    # ------------------------------------------------------------------
    # write family
    # ------------------------------------------------------------------

    def write(
        self,
        fd: int,
        data: bytes | None = None,
        count: int | None = None,
        *,
        buf_faulty: bool = False,
    ) -> SyscallResult:
        """write(2).

        Either *data* (bytes to write) or *count* (write that many
        generated bytes) must be given; workload generators usually pass
        just a count, the way a tracer only sees the requested size.
        """
        data, count = self._coerce_write_buffer(data, count)
        args = {"fd": fd, "count": count}
        return self._run(
            "write", args, lambda: self._do_write(fd, data, count, None, buf_faulty)
        )

    def pwrite64(
        self,
        fd: int,
        data: bytes | None = None,
        count: int | None = None,
        offset: int = 0,
        *,
        buf_faulty: bool = False,
    ) -> SyscallResult:
        """pwrite64(2): positional write, fd offset unchanged."""
        data, count = self._coerce_write_buffer(data, count)
        args = {"fd": fd, "count": count, "pos": offset}
        return self._run(
            "pwrite64",
            args,
            lambda: self._do_write(fd, data, count, offset, buf_faulty),
        )

    def writev(
        self, fd: int, buffers: list[bytes], *, buf_faulty: bool = False
    ) -> SyscallResult:
        """writev(2): vectored write."""
        args = {"fd": fd, "vlen": len(buffers), "count": sum(len(b) for b in buffers)}

        def body() -> int:
            if len(buffers) > constants.IOV_MAX:
                raise FsError(EINVAL, f"iovcnt {len(buffers)} > IOV_MAX")
            blob = b"".join(buffers)
            if len(blob) > constants.MAX_RW_COUNT:
                raise FsError(EINVAL, "iov total exceeds MAX_RW_COUNT")
            retval, _ = self._write_common(fd, blob, len(blob), None, buf_faulty)
            return retval

        return self._run("writev", args, body)

    @staticmethod
    def _coerce_write_buffer(
        data: bytes | None, count: int | None
    ) -> tuple[bytes | None, int]:
        """Normalize the (data, count) calling conventions."""
        if data is None and count is None:
            raise ValueError("write needs data or count")
        if count is None:
            assert data is not None
            return data, len(data)
        if count < 0:
            # Let the syscall body report EINVAL; keep a placeholder.
            return b"", count
        if data is None:
            # Count-only write: payload is all zeros, materialized
            # lazily in the inode (no giant temporary for huge counts).
            return None, count
        return data[:count].ljust(count, b"\0"), count

    def _do_write(
        self,
        fd: int,
        data: bytes | None,
        count: int,
        offset: int | None,
        buf_faulty: bool,
    ) -> int:
        if count < 0:
            raise FsError(EINVAL, f"count {count}")
        if count > constants.MAX_RW_COUNT:
            count = constants.MAX_RW_COUNT
            if data is not None:
                data = data[:count]
        retval, _ = self._write_common(fd, data, count, offset, buf_faulty)
        return retval

    def _write_common(
        self,
        fd: int,
        data: bytes | None,
        count: int,
        offset: int | None,
        buf_faulty: bool,
    ) -> tuple[int, bytes | None]:
        ofd = self._writable_file_ofd(fd)
        if offset is not None and offset < 0:
            raise FsError(EINVAL, f"offset {offset}")
        self.fs.require_writable()
        inode = ofd.inode
        if not isinstance(inode, FileInode):
            raise FsError(EINVAL, "write on non-regular file")
        if buf_faulty:
            raise FsError(EFAULT, "bad user buffer")
        if count == 0:
            return 0, None

        if offset is None:
            pos = inode.size if ofd.append_mode() else ofd.offset
        else:
            pos = offset
        end_wanted = pos + count
        if pos >= self.fs.max_file_size:
            # Writing at or past the file-size limit is EFBIG.
            raise FsError(EFBIG, f"offset {pos} at file size limit")

        allowed_end = self._max_write_bytes(inode, end_wanted)
        writable = allowed_end - pos
        if writable <= 0:
            raise FsError(ENOSPC, "no space for write")
        nbytes = min(count, writable)
        new_size = max(inode.size, pos + nbytes)
        new_materialized = max(inode.materialized_bytes, pos + nbytes)
        self.fs.charge_file_size(inode, new_size, materialized=new_materialized)
        if data is None:
            written = inode.write_zeros_at(pos, nbytes)
        else:
            written = inode.write_at(pos, data[:nbytes])
        if offset is None:
            ofd.offset = pos + written
        inode.times.mtime = self.fs.tick()
        return written, None

    # ------------------------------------------------------------------
    # lseek
    # ------------------------------------------------------------------

    def lseek(self, fd: int, offset: int, whence: int) -> SyscallResult:
        """lseek(2)."""
        args = {"fd": fd, "offset": offset, "whence": whence}

        def body() -> int:
            ofd = self.process.fd_table.get(fd)
            inode = ofd.inode
            size = inode.size if isinstance(inode, FileInode) else 0
            if whence == constants.SEEK_SET:
                new = offset
            elif whence == constants.SEEK_CUR:
                new = ofd.offset + offset
            elif whence == constants.SEEK_END:
                new = size + offset
            elif whence in (constants.SEEK_DATA, constants.SEEK_HOLE):
                if not isinstance(inode, FileInode):
                    raise FsError(EINVAL, "SEEK_DATA/HOLE on non-file")
                if offset < 0 or offset >= size:
                    raise FsError(ENXIO, f"offset {offset} beyond size {size}")
                # No-hole model: data everywhere, one hole at EOF.
                new = offset if whence == constants.SEEK_DATA else size
            else:
                raise FsError(EINVAL, f"whence {whence}")
            if new < 0:
                raise FsError(EINVAL, f"resulting offset {new}")
            if new > constants.MAX_OFFSET:
                raise FsError(EOVERFLOW, f"resulting offset {new}")
            ofd.offset = new
            return new

        return self._run("lseek", args, body)

    # ------------------------------------------------------------------
    # truncate family
    # ------------------------------------------------------------------

    def truncate(self, path: str | None, length: int) -> SyscallResult:
        """truncate(2)."""
        args = {"path": path, "length": length}

        def body() -> int:
            real_path = self._require_path(path)
            if length < 0:
                raise FsError(EINVAL, f"length {length}")
            self.fs.require_writable()
            inode = self.fs.resolver.lookup_inode(
                real_path, self.process.cwd_ino, self.creds
            )
            if inode.is_directory():
                raise FsError(EISDIR, real_path)
            if not isinstance(inode, FileInode):
                raise FsError(EINVAL, real_path)
            check_permission(inode, self.creds, MAY_WRITE)
            self.fs.require_not_text_busy(inode)
            self._truncate_inode(inode, length)
            return 0

        return self._run("truncate", args, body)

    def ftruncate(self, fd: int, length: int) -> SyscallResult:
        """ftruncate(2)."""
        args = {"fd": fd, "length": length}

        def body() -> int:
            if length < 0:
                raise FsError(EINVAL, f"length {length}")
            ofd = self.process.fd_table.get(fd)
            if not ofd.writable():
                raise FsError(EINVAL, f"fd {fd} not open for writing")
            self.fs.require_writable()
            inode = ofd.inode
            if not isinstance(inode, FileInode):
                raise FsError(EINVAL, "ftruncate on non-regular file")
            self._truncate_inode(inode, length)
            return 0

        return self._run("ftruncate", args, body)

    def _truncate_inode(self, inode: FileInode, length: int) -> None:
        # Truncate growth is a sparse hole: nothing new materializes.
        materialized = min(length, inode.materialized_bytes)
        self.fs.charge_file_size(inode, length, materialized=materialized)
        inode.truncate_to(length)
        inode.times.mtime = self.fs.tick()

    # ------------------------------------------------------------------
    # mkdir family
    # ------------------------------------------------------------------

    def mkdir(self, path: str | None, mode: int = 0o755) -> SyscallResult:
        """mkdir(2)."""
        args = {"pathname": path, "mode": mode}
        return self._run("mkdir", args, lambda: self._do_mkdir(path, mode))

    def mkdirat(self, dirfd: int, path: str | None, mode: int = 0o755) -> SyscallResult:
        """mkdirat(2)."""
        args = {"dfd": dirfd, "pathname": path, "mode": mode}
        return self._run(
            "mkdirat", args, lambda: self._do_mkdir(path, mode, dirfd=dirfd)
        )

    def _do_mkdir(
        self, path: str | None, mode: int, *, dirfd: int = constants.AT_FDCWD
    ) -> int:
        real_path = self._require_path(path)
        self.fs.require_writable()
        result = self._resolve(real_path, dirfd=dirfd, must_exist=False)
        if result.inode is not None:
            raise FsError(EEXIST, real_path)
        assert result.parent is not None
        check_permission(result.parent, self.creds, MAY_WRITE | MAY_EXEC)
        # A directory consumes one block for its entries.
        new_dir = self.fs.inodes.new_dir(
            mode=mode & ~self.process.umask,
            uid=self.creds.uid,
            gid=self.creds.gid,
            parent_ino=result.parent.ino,
        )
        try:
            self.fs.charge_blocks(new_dir, self.fs.device.block_size)
        except FsError:
            self.fs.inodes.remove(new_dir.ino)
            raise
        result.parent.link(result.name, new_dir.ino)
        result.parent.nlink += 1
        return 0

    # ------------------------------------------------------------------
    # chmod family
    # ------------------------------------------------------------------

    def chmod(self, path: str | None, mode: int) -> SyscallResult:
        """chmod(2)."""
        args = {"pathname": path, "mode": mode}
        return self._run("chmod", args, lambda: self._do_chmod_path(path, mode))

    def fchmod(self, fd: int, mode: int) -> SyscallResult:
        """fchmod(2)."""
        args = {"fd": fd, "mode": mode}

        def body() -> int:
            ofd = self.process.fd_table.get(fd)
            self._apply_chmod(ofd.inode, mode)
            return 0

        return self._run("fchmod", args, body)

    def fchmodat(
        self, dirfd: int, path: str | None, mode: int, flags: int = 0
    ) -> SyscallResult:
        """fchmodat(2)."""
        args = {"dfd": dirfd, "pathname": path, "mode": mode, "flags": flags}

        def body() -> int:
            if flags & constants.AT_SYMLINK_NOFOLLOW:
                # Linux: not supported on symlinks; kernel returns EOPNOTSUPP.
                raise FsError(EOPNOTSUPP, "AT_SYMLINK_NOFOLLOW")
            if flags & ~constants.AT_SYMLINK_NOFOLLOW:
                raise FsError(EINVAL, f"flags {flags:#x}")
            return self._do_chmod_path(path, mode, dirfd=dirfd)

        return self._run("fchmodat", args, body)

    def _do_chmod_path(
        self, path: str | None, mode: int, *, dirfd: int = constants.AT_FDCWD
    ) -> int:
        real_path = self._require_path(path)
        result = self._resolve(real_path, dirfd=dirfd)
        assert result.inode is not None
        self._apply_chmod(result.inode, mode)
        return 0

    def _apply_chmod(self, inode: Inode, mode: int) -> None:
        self.fs.require_writable()
        if not self.creds.is_superuser and self.creds.uid != inode.uid:
            raise FsError(EPERM, "chmod by non-owner")
        inode.set_permissions(mode)
        inode.times.ctime = self.fs.tick()

    # ------------------------------------------------------------------
    # chdir family
    # ------------------------------------------------------------------

    def chdir(self, path: str | None) -> SyscallResult:
        """chdir(2)."""
        args = {"filename": path}

        def body() -> int:
            real_path = self._require_path(path)
            inode = self.fs.resolver.lookup_inode(
                real_path, self.process.cwd_ino, self.creds
            )
            if not inode.is_directory():
                raise FsError(ENOTDIR, real_path)
            check_permission(inode, self.creds, MAY_EXEC)
            self.process.cwd_ino = inode.ino
            return 0

        return self._run("chdir", args, body)

    def fchdir(self, fd: int) -> SyscallResult:
        """fchdir(2)."""
        args = {"fd": fd}

        def body() -> int:
            ofd = self.process.fd_table.get(fd)
            if not ofd.inode.is_directory():
                raise FsError(ENOTDIR, f"fd {fd}")
            check_permission(ofd.inode, self.creds, MAY_EXEC)
            self.process.cwd_ino = ofd.inode.ino
            return 0

        return self._run("fchdir", args, body)

    # ------------------------------------------------------------------
    # xattr family
    # ------------------------------------------------------------------

    def setxattr(
        self,
        path: str | None,
        name: str,
        value: bytes,
        size: int | None = None,
        flags: int = 0,
        *,
        buf_faulty: bool = False,
    ) -> SyscallResult:
        """setxattr(2)."""
        size = len(value) if size is None else size
        args = {"pathname": path, "name": name, "size": size, "flags": flags}
        return self._run(
            "setxattr",
            args,
            lambda: self._do_setxattr_path(
                path, name, value, size, flags, follow=True, buf_faulty=buf_faulty
            ),
        )

    def lsetxattr(
        self,
        path: str | None,
        name: str,
        value: bytes,
        size: int | None = None,
        flags: int = 0,
        *,
        buf_faulty: bool = False,
    ) -> SyscallResult:
        """lsetxattr(2): does not follow a final symlink."""
        size = len(value) if size is None else size
        args = {"pathname": path, "name": name, "size": size, "flags": flags}
        return self._run(
            "lsetxattr",
            args,
            lambda: self._do_setxattr_path(
                path, name, value, size, flags, follow=False, buf_faulty=buf_faulty
            ),
        )

    def fsetxattr(
        self,
        fd: int,
        name: str,
        value: bytes,
        size: int | None = None,
        flags: int = 0,
        *,
        buf_faulty: bool = False,
    ) -> SyscallResult:
        """fsetxattr(2)."""
        size = len(value) if size is None else size
        args = {"fd": fd, "name": name, "size": size, "flags": flags}

        def body() -> int:
            ofd = self.process.fd_table.get(fd)
            return self._apply_setxattr(
                ofd.inode, name, value, size, flags, buf_faulty
            )

        return self._run("fsetxattr", args, body)

    def _do_setxattr_path(
        self,
        path: str | None,
        name: str,
        value: bytes,
        size: int,
        flags: int,
        *,
        follow: bool,
        buf_faulty: bool,
    ) -> int:
        real_path = self._require_path(path)
        result = self._resolve(real_path, follow_final=follow)
        inode = result.inode
        assert inode is not None
        if inode.is_symlink() and name.startswith("user."):
            # user.* xattrs are not allowed on symlinks.
            raise FsError(EPERM, "user xattr on symlink")
        return self._apply_setxattr(inode, name, value, size, flags, buf_faulty)

    def _apply_setxattr(
        self,
        inode: Inode,
        name: str,
        value: bytes,
        size: int,
        flags: int,
        buf_faulty: bool,
    ) -> int:
        self.fs.require_writable()
        if flags & ~(constants.XATTR_CREATE | constants.XATTR_REPLACE):
            raise FsError(EINVAL, f"xattr flags {flags:#x}")
        if (flags & constants.XATTR_CREATE) and (flags & constants.XATTR_REPLACE):
            raise FsError(EINVAL, "XATTR_CREATE|XATTR_REPLACE")
        if not name:
            raise FsError(EINVAL, "empty xattr name")
        if len(name) > constants.XATTR_NAME_MAX:
            raise FsError(ENAMETOOLONG, f"xattr name length {len(name)}")
        if not name.startswith(_XATTR_NAMESPACES):
            raise FsError(EOPNOTSUPP, f"xattr namespace of {name!r}")
        if size < 0 or size > constants.XATTR_SIZE_MAX:
            raise FsError(E2BIG, f"xattr value size {size}")
        if buf_faulty:
            raise FsError(EFAULT, "bad user buffer")
        if not self.creds.is_superuser and self.creds.uid != inode.uid:
            check_permission(inode, self.creds, MAY_WRITE)
        inode.set_xattr(
            name,
            value[:size].ljust(size, b"\0"),
            create=bool(flags & constants.XATTR_CREATE),
            replace=bool(flags & constants.XATTR_REPLACE),
        )
        inode.times.ctime = self.fs.tick()
        return 0

    def getxattr(
        self, path: str | None, name: str, size: int = 0, *, buf_faulty: bool = False
    ) -> SyscallResult:
        """getxattr(2): *size* 0 probes the value length."""
        args = {"pathname": path, "name": name, "size": size}
        return self._run(
            "getxattr",
            args,
            lambda: self._do_getxattr_path(path, name, size, True, buf_faulty),
        )

    def lgetxattr(
        self, path: str | None, name: str, size: int = 0, *, buf_faulty: bool = False
    ) -> SyscallResult:
        """lgetxattr(2): does not follow a final symlink."""
        args = {"pathname": path, "name": name, "size": size}
        return self._run(
            "lgetxattr",
            args,
            lambda: self._do_getxattr_path(path, name, size, False, buf_faulty),
        )

    def fgetxattr(
        self, fd: int, name: str, size: int = 0, *, buf_faulty: bool = False
    ) -> SyscallResult:
        """fgetxattr(2)."""
        args = {"fd": fd, "name": name, "size": size}

        def body() -> tuple[int, bytes | None]:
            ofd = self.process.fd_table.get(fd)
            return self._apply_getxattr(ofd.inode, name, size, buf_faulty)

        return self._run("fgetxattr", args, body)

    def _do_getxattr_path(
        self, path: str | None, name: str, size: int, follow: bool, buf_faulty: bool
    ) -> tuple[int, bytes | None]:
        real_path = self._require_path(path)
        result = self._resolve(real_path, follow_final=follow)
        assert result.inode is not None
        return self._apply_getxattr(result.inode, name, size, buf_faulty)

    def _apply_getxattr(
        self, inode: Inode, name: str, size: int, buf_faulty: bool
    ) -> tuple[int, bytes | None]:
        if not name:
            raise FsError(EINVAL, "empty xattr name")
        if not name.startswith(_XATTR_NAMESPACES):
            raise FsError(EOPNOTSUPP, f"xattr namespace of {name!r}")
        if buf_faulty and size:
            raise FsError(EFAULT, "bad user buffer")
        value = inode.get_xattr(name, size)
        if size == 0:
            return len(value), None
        return len(value), value

    # ------------------------------------------------------------------
    # auxiliary syscalls (outside IOCov's 27 but used by real testers)
    # ------------------------------------------------------------------

    def link(self, oldpath: str | None, newpath: str | None) -> SyscallResult:
        """link(2): create a hard link to an existing file."""
        args = {"oldpath": oldpath, "newpath": newpath}

        def body() -> int:
            old = self._require_path(oldpath)
            new = self._require_path(newpath)
            self.fs.require_writable()
            src = self._resolve(old, follow_final=False)
            assert src.inode is not None
            if src.inode.is_directory():
                # Hard links to directories are forbidden.
                raise FsError(EPERM, old)
            dst = self._resolve(new, follow_final=False, must_exist=False)
            if dst.inode is not None:
                raise FsError(EEXIST, new)
            assert dst.parent is not None
            check_permission(dst.parent, self.creds, MAY_WRITE | MAY_EXEC)
            dst.parent.link(dst.name, src.inode.ino)
            src.inode.nlink += 1
            src.inode.times.ctime = self.fs.tick()
            return 0

        return self._run("link", args, body)

    def access(self, path: str | None, mode: int) -> SyscallResult:
        """access(2): check F_OK existence or R/W/X permission bits."""
        args = {"pathname": path, "mode": mode}

        def body() -> int:
            real_path = self._require_path(path)
            if mode & ~0o7:
                raise FsError(EINVAL, f"mode {mode:#o}")
            inode = self.fs.resolver.lookup_inode(
                real_path, self.process.cwd_ino, self.creds
            )
            if mode:  # F_OK == 0 checks existence only
                check_permission(inode, self.creds, mode)
            return 0

        return self._run("access", args, body)

    def statfs(self, path: str | None) -> SyscallResult:
        """statfs(2): retval 0 on success; sizes via fs.stats()."""
        args = {"pathname": path}

        def body() -> int:
            real_path = self._require_path(path)
            self.fs.resolver.lookup_inode(real_path, self.process.cwd_ino, self.creds)
            return 0

        return self._run("statfs", args, body)

    def symlink(self, target: str, linkpath: str | None) -> SyscallResult:
        """symlink(2)."""
        args = {"target": target, "linkpath": linkpath}

        def body() -> int:
            real_path = self._require_path(linkpath)
            self.fs.require_writable()
            result = self._resolve(real_path, must_exist=False, follow_final=False)
            if result.inode is not None:
                raise FsError(EEXIST, real_path)
            assert result.parent is not None
            check_permission(result.parent, self.creds, MAY_WRITE | MAY_EXEC)
            link = self.fs.inodes.new_symlink(
                target, uid=self.creds.uid, gid=self.creds.gid
            )
            result.parent.link(result.name, link.ino)
            return 0

        return self._run("symlink", args, body)

    def unlink(self, path: str | None) -> SyscallResult:
        """unlink(2)."""
        args = {"pathname": path}

        def body() -> int:
            real_path = self._require_path(path)
            self.fs.require_writable()
            result = self._resolve(real_path, follow_final=False)
            inode = result.inode
            assert inode is not None
            if inode.is_directory():
                raise FsError(EISDIR, real_path)
            assert result.parent is not None
            check_permission(result.parent, self.creds, MAY_WRITE | MAY_EXEC)
            result.parent.unlink(result.name)
            inode.nlink -= 1
            if inode.nlink <= 0:
                self.fs.release_inode_space(inode)
                self.fs.inodes.remove(inode.ino)
            return 0

        return self._run("unlink", args, body)

    def rmdir(self, path: str | None) -> SyscallResult:
        """rmdir(2)."""
        args = {"pathname": path}

        def body() -> int:
            real_path = self._require_path(path)
            self.fs.require_writable()
            result = self._resolve(real_path, follow_final=False)
            inode = result.inode
            assert inode is not None
            if not isinstance(inode, DirInode):
                raise FsError(ENOTDIR, real_path)
            if inode.ino == self.fs.root_ino:
                raise FsError(EBUSY, "rmdir of the root")
            if not inode.is_empty():
                raise FsError(ENOTEMPTY, real_path)
            assert result.parent is not None
            check_permission(result.parent, self.creds, MAY_WRITE | MAY_EXEC)
            result.parent.unlink(result.name)
            result.parent.nlink -= 1
            self.fs.release_inode_space(inode)
            self.fs.inodes.remove(inode.ino)
            return 0

        return self._run("rmdir", args, body)

    def rename(self, oldpath: str | None, newpath: str | None) -> SyscallResult:
        """rename(2) (same-directory and cross-directory, no overwrite of
        non-empty directories)."""
        args = {"oldpath": oldpath, "newpath": newpath}

        def body() -> int:
            old = self._require_path(oldpath)
            new = self._require_path(newpath)
            self.fs.require_writable()
            src = self._resolve(old, follow_final=False)
            assert src.inode is not None and src.parent is not None
            dst = self._resolve(new, follow_final=False, must_exist=False)
            assert dst.parent is not None
            check_permission(src.parent, self.creds, MAY_WRITE | MAY_EXEC)
            check_permission(dst.parent, self.creds, MAY_WRITE | MAY_EXEC)
            if isinstance(src.inode, DirInode):
                # POSIX: a directory may not be moved into its own
                # subtree (newpath would orphan the hierarchy).
                ancestor = dst.parent
                while True:
                    if ancestor.ino == src.inode.ino:
                        raise FsError(EINVAL, f"{new} is inside {old}")
                    if ancestor.parent_ino == ancestor.ino:
                        break
                    parent = self.fs.inodes.get(ancestor.parent_ino)
                    assert isinstance(parent, DirInode)
                    ancestor = parent
            if dst.inode is not None:
                if dst.inode.ino == src.inode.ino:
                    return 0
                if isinstance(dst.inode, DirInode):
                    if not dst.inode.is_empty():
                        raise FsError(ENOTEMPTY, new)
                    if not isinstance(src.inode, DirInode):
                        raise FsError(EISDIR, new)
                    dst.parent.unlink(dst.name)
                    dst.parent.nlink -= 1
                    self.fs.inodes.remove(dst.inode.ino)
                else:
                    if isinstance(src.inode, DirInode):
                        raise FsError(ENOTDIR, new)
                    dst.parent.unlink(dst.name)
                    dst.inode.nlink -= 1
                    if dst.inode.nlink <= 0:
                        self.fs.release_inode_space(dst.inode)
                        self.fs.inodes.remove(dst.inode.ino)
            src.parent.unlink(src.name)
            dst.parent.link(dst.name, src.inode.ino)
            if isinstance(src.inode, DirInode):
                src.parent.nlink -= 1
                dst.parent.nlink += 1
                src.inode.parent_ino = dst.parent.ino
            return 0

        return self._run("rename", args, body)

    def stat(self, path: str | None) -> SyscallResult:
        """stat(2): retval 0 on success; size available via lookup."""
        args = {"pathname": path}

        def body() -> int:
            real_path = self._require_path(path)
            self.fs.resolver.lookup_inode(real_path, self.process.cwd_ino, self.creds)
            return 0

        return self._run("stat", args, body)

    def dup(self, fd: int) -> SyscallResult:
        """dup(2): a new fd sharing the same open file description.

        Shared means shared: seeks through one descriptor move the
        other's offset too.
        """
        args = {"fildes": fd}

        def body() -> int:
            ofd = self.process.fd_table.get(fd)
            ofd.refcount += 1
            return self.process.fd_table.install(ofd)

        return self._run("dup", args, body)

    def dup2(self, oldfd: int, newfd: int) -> SyscallResult:
        """dup2(2): duplicate onto a specific descriptor number."""
        args = {"oldfd": oldfd, "newfd": newfd}

        def body() -> int:
            ofd = self.process.fd_table.get(oldfd)
            if oldfd == newfd:
                return newfd
            ofd.refcount += 1
            return self.process.fd_table.install_at(ofd, newfd)

        return self._run("dup2", args, body)

    def lstat(self, path: str | None) -> SyscallResult:
        """lstat(2): like stat but does not follow a final symlink."""
        args = {"pathname": path}

        def body() -> int:
            real_path = self._require_path(path)
            self._resolve(real_path, follow_final=False)
            return 0

        return self._run("lstat", args, body)

    def fstat(self, fd: int) -> SyscallResult:
        """fstat(2)."""
        args = {"fd": fd}

        def body() -> int:
            self.process.fd_table.get(fd)
            return 0

        return self._run("fstat", args, body)

    def fsync(self, fd: int) -> SyscallResult:
        """fsync(2): persist one file's allocation."""
        args = {"fd": fd}

        def body() -> int:
            ofd = self.process.fd_table.get(fd)
            self.fs.device.sync_owner(ofd.inode.ino)
            return 0

        return self._run("fsync", args, body)

    def fdatasync(self, fd: int) -> SyscallResult:
        """fdatasync(2): same persistence model as fsync here."""
        args = {"fd": fd}

        def body() -> int:
            ofd = self.process.fd_table.get(fd)
            self.fs.device.sync_owner(ofd.inode.ino)
            return 0

        return self._run("fdatasync", args, body)

    def sync(self) -> SyscallResult:
        """sync(2): volume-wide persistence barrier."""

        def body() -> int:
            self.fs.sync()
            return 0

        return self._run("sync", {}, body)
