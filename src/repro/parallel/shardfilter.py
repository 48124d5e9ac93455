"""Shard-local trace filtering with explicit fd-knowledge tracking.

The mount-point :class:`~repro.core.filter.TraceFilter` is *stateful*:
whether an fd-carrying event is in scope depends on opens and closes
that happened earlier in the trace.  A worker that starts mid-file
cannot know the fd table the sequential filter would have at its first
event — but it *can* know what it knows.

:class:`ShardFilter` tracks a tri-state per (pid, fd):

* **LIVE** — an in-scope open (or dup of a LIVE fd) inside this shard
  produced the fd; the sequential filter provably tracks it.
* **DEAD** — a close inside this shard retired the fd; whatever the
  prior state was, the sequential filter provably does *not* track it
  afterwards (close removes the fd whether or not it was tracked).
* **UNKNOWN** — no shard-local evidence either way.

Events whose verdict is decidable from LIVE/DEAD knowledge are decided
locally — exactly as the sequential filter would.  Events that hinge on
UNKNOWN fds are **deferred**: the worker records them (with their
stream position) and the parent replays them against the true
sequential fd state during the stitch phase.  Alongside, the worker
emits an **op log** of the definite fd-table mutations it performed
(register on in-scope open, retire on tracked close) so the parent can
reproduce the sequential fd table between deferred decisions.

Path-only decisions (open/chdir/truncate…) are stateless and always
decided locally.
"""

from __future__ import annotations

from repro.core.filter import (
    TraceFilter,
    _FD_ARGS,
    _GLOBAL_EVENTS,
    _OPEN_LIKE,
    _PATH_KEYS,
)

#: Per-(pid, fd) knowledge states.
UNKNOWN, LIVE, DEAD = 0, 1, 2

#: Op-log opcodes: definite fd-table mutations, in stream order.
OP_ADD, OP_RETIRE = 0, 1

#: One op-log entry: (seq, pid, opcode, fd).
FdOp = tuple[int, int, int, int]


class ShardFilter:
    """Decides shard-local events; defers the undecidable ones.

    Args:
        base: the real filter whose *stateless* parts (path regexes,
            keep_global / keep_failed_opens policy) this shard applies.
            Its fd table is never consulted — fd knowledge lives in the
            tri-state map here.

    Attributes:
        ops: definite fd-table mutations ``(seq, pid, op, fd)``, in
            stream order, for the parent's sequential replay.
        deferred: undecidable rows ``(seq, row)``, in stream order.
    """

    def __init__(self, base: TraceFilter) -> None:
        self.base = base
        self._fd_state: dict[int, dict[int, int]] = {}
        self.ops: list[FdOp] = []
        self.deferred: list[tuple[int, tuple]] = []

    def admit_local_row(self, seq: int, row: tuple) -> bool | None:
        """Decide one row: True / False, or None when deferred.

        *row* is ``(name, args, retval, errno, pid, comm, timestamp)``.
        Mirrors :meth:`TraceFilter.admit_record` branch for branch;
        every local True/False is provably the sequential verdict.
        """
        name, args, retval, _errno, pid, _comm, _ts = row
        base = self.base
        states = self._fd_state.setdefault(pid, {})

        path_arg = _OPEN_LIKE.get(name)
        if path_arg is not None:
            path = args.get(path_arg)
            if path is None and retval < 0:
                return base.keep_failed_opens
            relevant = isinstance(path, str) and base.path_in_scope(path)
            if relevant and retval >= 0:
                states[retval] = LIVE
                self.ops.append((seq, pid, OP_ADD, retval))
            if relevant and retval < 0:
                return base.keep_failed_opens
            return relevant

        if name == "close":
            fd = args.get("fd")
            if not isinstance(fd, int):
                return False
            state = states.get(fd, UNKNOWN)
            if state == LIVE:
                states[fd] = DEAD
                self.ops.append((seq, pid, OP_RETIRE, fd))
                return True
            if state == DEAD:
                return False
            # Unknown fd: the verdict depends on pre-shard history, but
            # the *effect* does not — after a close the fd is untracked
            # either way.  No op is logged; the parent's replay of this
            # deferred event performs the (conditional) retire itself.
            states[fd] = DEAD
            self.deferred.append((seq, row))
            return None

        if name in ("dup", "dup2"):
            source = args.get("fildes" if name == "dup" else "oldfd")
            if not isinstance(source, int):
                return False
            state = states.get(source, UNKNOWN)
            if state == LIVE:
                if retval >= 0:
                    states[retval] = LIVE
                    self.ops.append((seq, pid, OP_ADD, retval))
                return True
            if state == DEAD:
                return False
            self.deferred.append((seq, row))
            # The duplicate fd becomes tracked iff the source was; a
            # previously LIVE target stays live regardless (the
            # sequential filter never removes on dup).
            if retval >= 0 and states.get(retval, UNKNOWN) != LIVE:
                states[retval] = UNKNOWN
            return None

        for key in _PATH_KEYS:
            value = args.get(key)
            if isinstance(value, str):
                return base.path_in_scope(value)

        for key in _FD_ARGS:
            fd = args.get(key)
            if isinstance(fd, int):
                state = states.get(fd, UNKNOWN)
                if state == LIVE:
                    return True
                if state == DEAD:
                    return False
                self.deferred.append((seq, row))
                return None

        if name in _GLOBAL_EVENTS:
            return base.keep_global
        return False
