"""Trace filtering: scoping analysis to the tester's mount point.

LTTng records *every* syscall the traced processes issue; a file-system
tester also touches its own binaries, logs, /proc, and temp files.  The
paper's IOCov uses a set of regular expressions (based on the tester's
mount-point pathname, e.g. ``/mnt/test`` for xfstests) to drop those
irrelevant records before analysis, and notes this regex is the only
per-tester setting.

Path-carrying syscalls are matched directly.  Fd-carrying syscalls
(read, write, close, …) have no path in their record, so the filter
tracks the fd table: an ``open``-family success whose path matched
registers its returned fd; subsequent fd-based events pass the filter
while that fd is live; ``close`` retires it.  This mirrors how any real
trace consumer must resolve fds to decide relevance.  A pid has an fd
table only while it holds a tracked fd.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Pattern

from repro.trace.events import SyscallEvent

#: Events that install an fd on success, keyed by the arg holding the path.
_OPEN_LIKE = {"open": "pathname", "openat": "pathname", "openat2": "pathname", "creat": "pathname"}

#: Events that carry an fd and inherit relevance from the fd's origin.
_FD_ARGS = ("fd", "dfd")

#: Argument names a path can travel under for non-open syscalls.
_PATH_KEYS = ("pathname", "path", "filename", "oldpath", "linkpath")

#: Events with neither path nor fd (sync covers the whole system).
_GLOBAL_EVENTS = frozenset({"sync"})

#: The fd-table steps :meth:`TraceFilter.decide` returns, as ``(op, fd,
#: new)``: is *fd* tracked; track *fd*; retire a tracked *fd*; track
#: *new* (when >= 0) as a duplicate of a tracked *fd*.
_HOLDS, _ADD, _DISCARD, _DUP = range(4)


class TraceFilter:
    """Keeps events that touch the tester's mount point.

    Args:
        include: regex (string or compiled) a path must match to be in
            scope — typically ``r"^/mnt/test(/|$)"``.
        exclude: optional regex that overrides include (e.g. the
            tester's own scratch logs below the mount point).
        keep_global: whether path-less, fd-less events (sync) pass.
        keep_failed_opens: a failed open *with a matching path* is still
            a relevant input/output record; default True.

    Each event is decided in two parts: :meth:`decide` reads the event
    alone and returns a fixed verdict or one step on the fd table of the
    pid that issued it, and :meth:`apply` runs that step.
    :meth:`admit_record` does both; a consumer that meets the same event
    many times may decide it once and apply its step per event.
    """

    #: Cap on the path -> in-scope decision memo (paths repeat heavily).
    SCOPE_CACHE_CAP = 65536

    def __init__(
        self,
        include: str | Pattern[str],
        exclude: str | Pattern[str] | None = None,
        *,
        keep_global: bool = True,
        keep_failed_opens: bool = True,
    ) -> None:
        self.include = re.compile(include) if isinstance(include, str) else include
        self.exclude = re.compile(exclude) if isinstance(exclude, str) else exclude
        self.keep_global = keep_global
        self.keep_failed_opens = keep_failed_opens
        self._live_fds: dict[int, set[int]] = {}
        self._scope_cache: dict[str, bool] = {}
        self.dropped = 0

    @classmethod
    def for_mount_point(cls, mount_point: str, **kwargs) -> "TraceFilter":
        """Build the standard filter for a tester's mount point."""
        escaped = re.escape(mount_point.rstrip("/"))
        return cls(include=rf"^{escaped}(/|$)", **kwargs)

    # -- path matching -----------------------------------------------------

    def _match_path(self, path: str) -> bool:
        """Uncached regex decision (the pure function the memo caches)."""
        if self.exclude is not None and self.exclude.search(path):
            return False
        return bool(self.include.search(path))

    def path_in_scope(self, path: str) -> bool:
        cached = self._scope_cache.get(path)
        if cached is None:
            cached = self._match_path(path)
            if len(self._scope_cache) < self.SCOPE_CACHE_CAP:
                self._scope_cache[path] = cached
        return cached

    # -- event filtering ----------------------------------------------------

    def admit(self, event: SyscallEvent) -> bool:
        """Decide one event, updating fd-tracking state."""
        return self.admit_record(event.name, event.args, event.retval, event.pid)

    def admit_record(self, name: str, args, retval: int, pid: int) -> bool:
        """Decide one (name, args, retval, pid) record.

        The field-level twin of :meth:`admit`: batch consumers hold
        events as columns/rows rather than objects, and this entry
        point lets them skip materializing a :class:`SyscallEvent`
        per record on the hot path.
        """
        step = self.decide(name, args, retval)
        if step.__class__ is tuple:
            return self.apply(step, pid)
        return step

    def decide(self, name: str, args, retval: int):
        """What one event does, read from the event alone.

        Returns a fixed verdict, or an ``(op, fd, new)`` step for
        :meth:`apply` to run on the issuing pid's fd table (see
        :data:`_HOLDS`).  Reads no fd table and changes none, so events
        that agree on name, args and retval get the same answer.
        """
        path_arg = _OPEN_LIKE.get(name)
        if path_arg is not None:
            path = args.get(path_arg)
            if path is None and retval < 0:
                # NULL-pointer path (EFAULT): the record carries no path
                # to scope by, so it cannot be attributed away from the
                # tester; keep it like any other failed open.
                return self.keep_failed_opens
            if not (isinstance(path, str) and self.path_in_scope(path)):
                return False
            if retval < 0:
                return self.keep_failed_opens
            return (_ADD, retval, None)

        if name == "close":
            fd = args.get("fd")
            return (_DISCARD, fd, None) if isinstance(fd, int) else False

        if name in ("dup", "dup2"):
            # A duplicate of a tracked fd is itself tracked.
            source = args.get("fildes" if name == "dup" else "oldfd")
            return (_DUP, source, retval) if isinstance(source, int) else False

        # chdir-style: path argument under other names.
        for key in _PATH_KEYS:
            value = args.get(key)
            if isinstance(value, str):
                return self.path_in_scope(value)

        for key in _FD_ARGS:
            fd = args.get(key)
            if isinstance(fd, int):
                return (_HOLDS, fd, None)

        if name in _GLOBAL_EVENTS:
            return self.keep_global
        return False

    def apply(self, step: tuple, pid: int) -> bool:
        """Run a :meth:`decide` step on *pid*'s fd table; the verdict.

        A pid has a set only while it tracks an fd: its first tracked
        open creates the set, and the close that empties it drops it.
        """
        op, fd, new = step
        live = self._live_fds
        fds = live.get(pid)
        if op == _HOLDS:
            return fds is not None and fd in fds
        if op == _ADD:
            if fds is None:
                live[pid] = {fd}
            else:
                fds.add(fd)
            return True
        if fds is None or fd not in fds:
            return False
        if op == _DISCARD:
            if len(fds) == 1:
                del live[pid]
            else:
                fds.discard(fd)
        elif new >= 0:  # _DUP
            fds.add(new)
        return True

    def filter(self, events: Iterable[SyscallEvent]) -> Iterator[SyscallEvent]:
        """Yield in-scope events; resets fd state first."""
        self.reset()
        for event in events:
            if self.admit(event):
                yield event
            else:
                self.dropped += 1

    def reset(self) -> None:
        self._live_fds.clear()
        self.dropped = 0


class AcceptAllFilter:
    """No-op filter for traces already scoped at capture time."""

    dropped = 0

    def filter(self, events: Iterable[SyscallEvent]) -> Iterator[SyscallEvent]:
        return iter(events)

    def admit(self, event: SyscallEvent) -> bool:
        return True

    def admit_record(self, name: str, args, retval: int, pid: int) -> bool:
        return True

    def decide(self, name: str, args, retval: int) -> bool:
        return True

    def apply(self, step: tuple, pid: int) -> bool:
        return True

    def reset(self) -> None:
        return None
