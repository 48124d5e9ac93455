"""Syscall trace event model.

A :class:`SyscallEvent` is the unit of information IOCov consumes: one
record per syscall invocation carrying the syscall name, its arguments,
and its outcome.  The schema deliberately matches what LTTng's syscall
tracepoints provide (entry arguments + exit return value), flattened
into a single record the way the IOCov prototype's analyzer sees them.

An event is a named 7-field row ``(name, args, retval, errno, pid,
comm, timestamp)``: the tuple every parser, the ``.rbt`` decoder and
the analyzer's counting loop carry, so an event the VFS emits is
counted as it is.

This module has no dependency on the VFS so that trace parsing and
analysis can run on externally captured traces without pulling in the
simulator.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Mapping, NamedTuple


class SyscallEvent(NamedTuple):
    """One traced syscall invocation.

    Attributes:
        name: the syscall name as the kernel exposes it (variant names
            preserved: ``openat``, ``pwrite64``, …).
        args: argument name -> value.  Values are ints, strings
            (paths, xattr names), or lists of ints (iovec lengths).
            Buffer *contents* are never recorded, matching LTTng.
            Read-only: events and parser rows may share one args dict
            (see :data:`repro.trace.batch.Row`), so a consumer that
            needs different args builds a new mapping.
        retval: raw kernel return value (negative errno on failure).
        errno: positive errno on failure, 0 on success (redundant with
            retval but convenient).
        pid: issuing process id.
        comm: issuing process name (LTTng records this per event).
        timestamp: monotonic event time in nanoseconds.
    """

    name: str
    args: Mapping[str, Any]
    retval: int
    errno: int = 0
    pid: int = 0
    comm: str = ""
    timestamp: int = 0

    @property
    def ok(self) -> bool:
        """Whether the syscall succeeded (retval >= 0)."""
        return self.retval >= 0

    def arg(self, name: str, default: Any = None) -> Any:
        """Fetch one argument by name, with a default."""
        return self.args.get(name, default)

    def paths(self) -> Iterator[str]:
        """Yield every string-valued argument that looks like a path.

        Used by the trace filter to decide whether the event touches
        the tester's mount point.
        """
        for key, value in self.args.items():
            if isinstance(value, str) and key in ("path", "pathname", "oldpath", "newpath", "target"):
                yield value


def make_event(
    name: str,
    args: Mapping[str, Any],
    retval: int,
    errno: int = 0,
    *,
    pid: int = 0,
    comm: str = "",
    timestamp: int = 0,
) -> SyscallEvent:
    """Construct a :class:`SyscallEvent` with a defensive args copy."""
    return SyscallEvent(name, dict(args), retval, errno, pid, comm, timestamp)


def event_from_row(row: tuple) -> SyscallEvent:
    """Build an event, with its own args dict, from a ``(name, args,
    retval, errno, pid, comm, timestamp)`` row."""
    name, args, retval, errno, pid, comm, timestamp = row
    return SyscallEvent(name, dict(args), retval, errno, pid, comm, timestamp)


def split_lines(text: str) -> list[str]:
    """Split trace text into lines at ``\\n`` only.

    :meth:`str.splitlines` also breaks at ``\\r``, ``\\x0b``, ``\\x0c``,
    ``\\x1c``-``\\x1e``, ``\\x85``, U+2028 and U+2029, any of which a
    traced pathname may contain; every text path breaks lines where a
    byte-level reader does.  A trailing newline yields no empty last
    line, so blank-line counts match iterating the file.
    """
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


class CappedMemo(dict):
    """Token -> parsed value, memoized per parser.

    Indexing a missing token computes its value, and keeps it while the
    memo holds fewer than *cap* entries.  Each parser owns its memos, so
    parsers in one process (the daemon's per-tenant sessions) share no
    mutable state.
    """

    __slots__ = ("_compute", "_cap")

    def __init__(self, compute: Callable[[str], Any], cap: int) -> None:
        super().__init__()
        self._compute = compute
        self._cap = cap

    def __missing__(self, token: str) -> Any:
        value = self._compute(token)
        if len(self) < self._cap:
            self[token] = value
        return value
