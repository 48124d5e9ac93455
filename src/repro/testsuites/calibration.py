"""Residual calibration driver: tops a suite's trace up to its profile.

The mechanistic workloads of a simulated suite produce a few thousand
organically shaped events; the real suites produce millions with the
distributions the paper measured.  After the workloads run, this driver
computes, per profile target (open-flag combination, write-size bucket,
open error code, auxiliary op count), the *residual* between the target
and what the workloads already emitted, and issues exactly that many
additional real syscalls.  The result: the suite's trace matches the
paper's published figures while every event in it is a genuine VFS
call with genuine outcome.

Ordering matters: auxiliary ops, then write sizes, then error
scenarios, and open-flag combinations last — open/close pairs are the
only pure-open activity, so they can absorb whatever flag usage the
earlier phases added.

Each residual is measured against a tally of the trace so far.  The
tally reads events in place and counts their shapes (base call, open
flags or write count, errno), so a trace of ~100k events costs one pass
and one flag decode per distinct shape, not a copy of every event.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable

from repro.core.argspec import OPEN_FLAGS_ARG, base_name
from repro.core.partition import BitmapPartitioner, NumericPartitioner
from repro.core.variants import CREAT_IMPLIED_FLAGS
from repro.testsuites.base import SuiteContext
from repro.testsuites.profiles import SuiteProfile
from repro.trace.recorder import TraceRecorder
from repro.vfs import constants
from repro.vfs.errors import EPERM, errno_name

_WRITE_BASES = ("write",)
_OPEN_BASES = ("open",)


def _combo_flags(combo: tuple[str, ...]) -> int:
    """Build the int flags value for a named combination."""
    flags = 0
    for name in combo:
        flags |= constants.OPEN_FLAG_NAMES[name]
    return flags


class CalibrationDriver:
    """Issues residual syscalls to reach a :class:`SuiteProfile`."""

    def __init__(self, profile: SuiteProfile) -> None:
        self.profile = profile
        self._decoder = BitmapPartitioner(OPEN_FLAGS_ARG)
        self._bucketer = NumericPartitioner(include_negative=False)

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------

    def _observed(self, recorder: TraceRecorder):
        """Tally what the trace already contains, per calibrated axis.

        Events are tallied by the shape the axes read: base name, open
        flags (creat's implied ones when it has none) or write count,
        and an open's errno.  Each distinct shape is then decoded or
        bucketed once.
        """
        shapes: Counter = Counter()
        for name, args, _retval, errno, _pid, _comm, _ts in recorder.iter_events():
            base = base_name(name)
            if base in _OPEN_BASES:
                flags = args.get("flags", CREAT_IMPLIED_FLAGS if name == "creat" else None)
                shapes[base, flags if isinstance(flags, int) else None, errno] += 1
            elif base in _WRITE_BASES:
                count = args.get("count")
                valid = isinstance(count, int) and count >= 0
                shapes[base, count if valid else None, 0] += 1
            else:
                shapes[base or name, None, 0] += 1
        combos: Counter = Counter()
        write_buckets: Counter = Counter()
        open_errors: Counter = Counter()
        base_counts: Counter = Counter()
        for (base, value, errno), n in shapes.items():
            base_counts[base] += n
            if base in _OPEN_BASES:
                if value is not None:
                    combos[frozenset(self._decoder.decode(value))] += n
                if errno:
                    open_errors[errno_name(errno)] += n
            elif base in _WRITE_BASES and value is not None:
                for key in self._bucketer.classify(value):
                    write_buckets[key] += n
        return combos, write_buckets, open_errors, base_counts

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------

    def run(self, ctx: SuiteContext, recorder: TraceRecorder) -> None:
        """Issue all residual activity for this suite.

        Phase order matters because later phases' fixture setup emits
        syscalls of its own: aux ops and error scenarios first, then the
        open-combination residual (which sees every open issued so
        far), and the write-size residual last — its working fd is
        opened *before* the combination residual is computed so that
        open is accounted, and everything after it writes only.
        """
        _, _, open_errors, base_counts = self._observed(recorder)
        self._run_aux_ops(ctx, base_counts)
        self._run_error_scenarios(ctx, open_errors)
        write_path = ctx.path("calib_write")
        opened = ctx.sc.open(
            write_path,
            constants.O_WRONLY | constants.O_CREAT | constants.O_TRUNC,
            0o644,
        )
        assert opened.ok, opened
        self._run_open_combinations(ctx, recorder)
        _, write_buckets, _, _ = self._observed(recorder)
        self._run_write_sizes(ctx, opened.retval, write_buckets)
        ctx.sc.close(opened.retval)

    # ------------------------------------------------------------------
    # phase: auxiliary ops
    # ------------------------------------------------------------------

    def _run_aux_ops(self, ctx: SuiteContext, observed: Counter) -> None:
        handlers: dict[str, Callable[[SuiteContext, int], None]] = {
            "read": self._aux_reads,
            "lseek": self._aux_seeks,
            "truncate": self._aux_truncates,
            "mkdir": self._aux_mkdirs,
            "chmod": self._aux_chmods,
            "chdir": self._aux_chdirs,
            "setxattr": self._aux_setxattrs,
            "getxattr": self._aux_getxattrs,
            "fsync": self._aux_fsyncs,
            "sync": self._aux_syncs,
        }
        for op, target in self.profile.aux_ops.items():
            residual = target - observed.get(op, 0)
            if residual > 0 and op in handlers:
                handlers[op](ctx, residual)

    def _aux_reads(self, ctx: SuiteContext, n: int) -> None:
        path = ctx.path("calib_read")
        ctx.ensure_file(path, size=1 << 16)
        fd = ctx.sc.open(path, constants.O_RDONLY).retval
        sizes = (1, 16, 256, 512, 4096, 4096, 4096, 8192, 65536, 131072)
        for i in range(n):
            size = sizes[i % len(sizes)]
            if i % 7 == 0:
                ctx.sc.pread64(fd, size, (i * 512) % (1 << 16))
            elif i % 23 == 0:
                ctx.sc.readv(fd, [size // 2, size - size // 2])
            else:
                ctx.sc.read(fd, size)
            if i % 13 == 0:
                ctx.sc.lseek(fd, 0, constants.SEEK_SET)
        ctx.sc.close(fd)

    def _aux_seeks(self, ctx: SuiteContext, n: int) -> None:
        path = ctx.path("calib_seek")
        ctx.ensure_file(path, size=8192)
        fd = ctx.sc.open(path, constants.O_RDONLY).retval
        whences = (constants.SEEK_SET, constants.SEEK_CUR, constants.SEEK_END)
        for i in range(n):
            if i % 97 == 0:
                ctx.sc.lseek(fd, 0, constants.SEEK_DATA)
            elif i % 89 == 0:
                ctx.sc.lseek(fd, 0, constants.SEEK_HOLE)
            else:
                offset = (1 << (i % 13)) if i % 5 else 0
                ctx.sc.lseek(fd, offset, whences[i % 3])
            if i % 29 == 0:
                ctx.sc.lseek(fd, 0, constants.SEEK_SET)
        ctx.sc.close(fd)

    def _aux_truncates(self, ctx: SuiteContext, n: int) -> None:
        path = ctx.path("calib_trunc")
        ctx.ensure_file(path, size=4096)
        for i in range(n):
            length = (1 << (i % 20)) if i % 9 else 0
            if i % 5 == 0:
                fd = ctx.sc.open(path, constants.O_WRONLY).retval
                ctx.sc.ftruncate(fd, length)
                ctx.sc.close(fd)
            else:
                ctx.sc.truncate(path, length)
        ctx.sc.truncate(path, 0)

    def _aux_mkdirs(self, ctx: SuiteContext, n: int) -> None:
        modes = (0o755, 0o700, 0o777, 0o555)
        base = ctx.path("calib_dirs")
        ctx.ensure_dir(base)
        for i in range(n):
            name = f"{base}/d{i:06d}"
            if i % 11 == 0:
                ctx.sc.mkdirat(constants.AT_FDCWD, name, modes[i % 4])
            else:
                ctx.sc.mkdir(name, modes[i % 4])

    def _aux_chmods(self, ctx: SuiteContext, n: int) -> None:
        path = ctx.path("calib_chmod")
        ctx.ensure_file(path)
        modes = (0o644, 0o600, 0o755, 0o400, 0o666, 0o000, 0o4755, 0o1777)
        for i in range(n):
            if i % 17 == 0:
                fd = ctx.sc.open(path, constants.O_RDONLY).retval
                ctx.sc.fchmod(fd, modes[i % len(modes)])
                ctx.sc.close(fd)
            elif i % 13 == 0:
                ctx.sc.fchmodat(constants.AT_FDCWD, path, modes[i % len(modes)], 0)
            else:
                ctx.sc.chmod(path, modes[i % len(modes)])
        ctx.sc.chmod(path, 0o644)

    def _aux_chdirs(self, ctx: SuiteContext, n: int) -> None:
        sub = ctx.path("calib_cwd")
        ctx.ensure_dir(sub)
        for i in range(n):
            if i % 7 == 0:
                fd = ctx.sc.open(sub, constants.O_RDONLY | constants.O_DIRECTORY).retval
                ctx.sc.fchdir(fd)
                ctx.sc.close(fd)
            else:
                ctx.sc.chdir(sub if i % 2 else ctx.mount_point)
        ctx.sc.chdir("/")

    def _aux_setxattrs(self, ctx: SuiteContext, n: int) -> None:
        path = ctx.path("calib_xattr")
        ctx.ensure_file(path)
        for i in range(n):
            name = f"user.k{i % 4}"
            value = b"v" * (1 << (i % 6))
            if i % 19 == 0:
                fd = ctx.sc.open(path, constants.O_RDONLY).retval
                ctx.sc.fsetxattr(fd, name, value)
                ctx.sc.close(fd)
            elif i % 7 == 0:
                ctx.sc.lsetxattr(path, name, value)
            else:
                flags = constants.XATTR_REPLACE if i % 5 == 0 else 0
                ctx.sc.setxattr(path, name, value, flags=flags)

    def _aux_getxattrs(self, ctx: SuiteContext, n: int) -> None:
        path = ctx.path("calib_xattr")
        ctx.ensure_file(path)
        ctx.sc.setxattr(path, "user.k0", b"x" * 32)
        for i in range(n):
            name = "user.k0" if i % 3 else "user.missing"
            size = 0 if i % 4 == 0 else 64
            if i % 11 == 0:
                ctx.sc.lgetxattr(path, name, size)
            elif i % 13 == 0:
                fd = ctx.sc.open(path, constants.O_RDONLY).retval
                ctx.sc.fgetxattr(fd, name, size)
                ctx.sc.close(fd)
            else:
                ctx.sc.getxattr(path, name, size)

    def _aux_fsyncs(self, ctx: SuiteContext, n: int) -> None:
        path = ctx.path("calib_sync")
        ctx.ensure_file(path, size=4096)
        fd = ctx.sc.open(path, constants.O_WRONLY).retval
        for i in range(n):
            if i % 3 == 0:
                ctx.sc.fdatasync(fd)
            else:
                ctx.sc.fsync(fd)
        ctx.sc.close(fd)

    def _aux_syncs(self, ctx: SuiteContext, n: int) -> None:
        for _ in range(n):
            ctx.sc.sync()

    # ------------------------------------------------------------------
    # phase: write sizes
    # ------------------------------------------------------------------

    def _run_write_sizes(self, ctx: SuiteContext, fd: int, observed: Counter) -> None:
        # Largest sizes first so the file grows once, not repeatedly.
        for size in sorted(self.profile.write_sizes, reverse=True):
            target = self.profile.write_sizes[size]
            bucket = "equal_to_0" if size == 0 else f"2^{size.bit_length() - 1}"
            residual = target - observed.get(bucket, 0)
            for i in range(max(0, residual)):
                if size and i % 9 == 0:
                    ctx.sc.write(fd, count=size)
                    ctx.sc.lseek(fd, 0, constants.SEEK_SET)
                else:
                    ctx.sc.pwrite64(fd, count=size, offset=0)
            if size >= (1 << 20):
                # Release the large extent before the next bucket.
                ctx.sc.ftruncate(fd, 0)
        ctx.sc.ftruncate(fd, 0)

    # ------------------------------------------------------------------
    # phase: open error scenarios
    # ------------------------------------------------------------------

    def _run_error_scenarios(self, ctx: SuiteContext, observed: Counter) -> None:
        scenarios: dict[str, Callable[[SuiteContext, int], None]] = {
            "ENOENT": self._err_enoent,
            "EEXIST": self._err_eexist,
            "EACCES": self._err_eacces,
            "EISDIR": self._err_eisdir,
            "ENOTDIR": self._err_enotdir,
            "ENAMETOOLONG": self._err_enametoolong,
            "ELOOP": self._err_eloop,
            "EINVAL": self._err_einval,
            "ENOSPC": self._err_enospc,
            "EROFS": self._err_erofs,
            "EDQUOT": self._err_edquot,
            "EPERM": self._err_eperm,
            "ETXTBSY": self._err_etxtbsy,
            "EBUSY": self._err_ebusy,
            "EFAULT": self._err_efault,
            "EMFILE": self._err_emfile,
        }
        for errno_key, target in self.profile.open_errors.items():
            residual = target - observed.get(errno_key, 0)
            if residual > 0:
                scenarios[errno_key](ctx, residual)

    def _err_enoent(self, ctx: SuiteContext, n: int) -> None:
        for i in range(n):
            ctx.sc.open(ctx.path(f"no_such_file_{i % 16}"), constants.O_RDONLY)

    def _err_eexist(self, ctx: SuiteContext, n: int) -> None:
        path = ctx.path("exists")
        ctx.ensure_file(path)
        flags = constants.O_RDWR | constants.O_CREAT | constants.O_EXCL
        for _ in range(n):
            ctx.sc.open(path, flags, 0o644)

    def _err_eacces(self, ctx: SuiteContext, n: int) -> None:
        locked = ctx.path("locked_dir")
        with ctx.as_root():
            ctx.sc.mkdir(locked, 0o700)
            ctx.ensure_file(f"{locked}/secret", size=16)
        for _ in range(n):
            ctx.sc.open(f"{locked}/secret", constants.O_RDONLY)

    def _err_eisdir(self, ctx: SuiteContext, n: int) -> None:
        sub = ctx.path("isdir")
        ctx.ensure_dir(sub)
        for _ in range(n):
            ctx.sc.open(sub, constants.O_WRONLY)

    def _err_enotdir(self, ctx: SuiteContext, n: int) -> None:
        plain = ctx.path("plainfile")
        ctx.ensure_file(plain)
        for _ in range(n):
            ctx.sc.open(f"{plain}/below", constants.O_RDONLY)

    def _err_enametoolong(self, ctx: SuiteContext, n: int) -> None:
        long_name = ctx.path("n" * (constants.NAME_MAX + 10))
        for _ in range(n):
            ctx.sc.open(long_name, constants.O_RDONLY)

    def _err_eloop(self, ctx: SuiteContext, n: int) -> None:
        loop_a, loop_b = ctx.path("loop_a"), ctx.path("loop_b")
        ctx.sc.symlink(loop_b, loop_a)
        ctx.sc.symlink(loop_a, loop_b)
        for _ in range(n):
            ctx.sc.open(loop_a, constants.O_RDONLY)

    def _err_einval(self, ctx: SuiteContext, n: int) -> None:
        path = ctx.path("exists_inval")
        ctx.ensure_file(path)
        for _ in range(n):
            ctx.sc.open(path, constants.O_ACCMODE)  # invalid access mode

    def _err_enospc(self, ctx: SuiteContext, n: int) -> None:
        with ctx.full_device():
            for i in range(n):
                ctx.sc.open(
                    ctx.path(ctx.unique_name("nospace")),
                    constants.O_CREAT | constants.O_WRONLY,
                    0o644,
                )

    def _err_erofs(self, ctx: SuiteContext, n: int) -> None:
        path = ctx.path("ro_target")
        ctx.ensure_file(path)
        with ctx.read_only_fs():
            for _ in range(n):
                ctx.sc.open(path, constants.O_WRONLY)

    def _err_edquot(self, ctx: SuiteContext, n: int) -> None:
        with ctx.exhausted_quota():
            for _ in range(n):
                ctx.sc.open(
                    ctx.path(ctx.unique_name("overquota")),
                    constants.O_CREAT | constants.O_WRONLY,
                    0o644,
                )

    def _err_eperm(self, ctx: SuiteContext, n: int) -> None:
        # Real xfstests triggers open EPERM via immutable files
        # (chattr +i); the VFS has no attribute flags, so the fault
        # injector stands in for that kernel path.
        path = ctx.path("immutable")
        ctx.ensure_file(path)
        ctx.sc.faults.arm("open", EPERM, count=n)
        for _ in range(n):
            ctx.sc.open(path, constants.O_WRONLY)

    def _err_etxtbsy(self, ctx: SuiteContext, n: int) -> None:
        path = ctx.path("running_binary")
        ctx.ensure_file(path, size=128, mode=0o755)
        inode = ctx.fs.lookup(path)
        ctx.fs.mark_text_busy(inode.ino)
        try:
            for _ in range(n):
                ctx.sc.open(path, constants.O_WRONLY)
        finally:
            ctx.fs.clear_text_busy(inode.ino)

    def _err_ebusy(self, ctx: SuiteContext, n: int) -> None:
        path = ctx.path("frozen_target")
        ctx.ensure_file(path)
        with ctx.frozen_fs():
            for _ in range(n):
                ctx.sc.open(path, constants.O_WRONLY | constants.O_TRUNC)

    def _err_efault(self, ctx: SuiteContext, n: int) -> None:
        for _ in range(n):
            ctx.sc.open(None, constants.O_RDONLY)

    def _err_emfile(self, ctx: SuiteContext, n: int) -> None:
        path = ctx.path("fd_target")
        ctx.ensure_file(path)
        with ctx.fd_limit(len(ctx.sc.process.fd_table)):
            for _ in range(n):
                ctx.sc.open(path, constants.O_RDONLY)

    # ------------------------------------------------------------------
    # phase: open-flag combinations
    # ------------------------------------------------------------------

    def _run_open_combinations(self, ctx: SuiteContext, recorder: TraceRecorder) -> None:
        # Fixture setup issues opens of its own, so it must happen
        # *before* the residual observation.
        target_dir = ctx.path("calib_opens")
        ctx.ensure_dir(target_dir)
        plain = f"{target_dir}/plain"
        ctx.ensure_file(plain, size=512)
        observed, _, _, _ = self._observed(recorder)
        for combo, target in self.profile.open_combinations.items():
            residual = target - observed.get(frozenset(combo), 0)
            if residual <= 0:
                continue
            flags = _combo_flags(combo)
            excl = "O_EXCL" in combo
            directory = "O_DIRECTORY" in combo
            for i in range(residual):
                if directory:
                    path = target_dir
                elif excl:
                    path = f"{target_dir}/{ctx.unique_name('x')}"
                else:
                    path = plain
                if i % 5 == 1:
                    result = ctx.sc.openat(constants.AT_FDCWD, path, flags, 0o644)
                elif i % 31 == 2:
                    result = ctx.sc.openat2(constants.AT_FDCWD, path, flags, 0o644, 0)
                else:
                    result = ctx.sc.open(path, flags, 0o644)
                if result.ok:
                    ctx.sc.close(result.retval)
