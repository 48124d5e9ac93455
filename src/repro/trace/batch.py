"""Batch-columnar trace parsing: chunk-at-a-time instead of line-at-a-time.

The per-line parsers build one :class:`~repro.trace.events.SyscallEvent`
object per record, which caps text ingest nearly an order of magnitude
below the analyzer's counting throughput.  This module closes that gap
by working on **event batches**:

* :class:`EventBatch` holds a block of parsed events either as compact
  rows (one tuple per event — what the text parsers produce) or as
  parallel columns (what the binary ``.rbt`` decoder produces, see
  :mod:`repro.trace.binary`).  Both views iterate identically.
* :class:`LttngBatchParser` / :class:`StraceBatchParser` /
  :class:`SyzkallerBatchParser` parse whole text chunks with one
  multiline ``findall`` over a strict precompiled grammar, falling back
  to the existing per-line parsers for any chunk that contains lines
  the strict grammar declines.  The fallback makes every batch parse
  *equal by construction* to the sequential per-line parse of the same
  text: the fast path can only decline, never disagree.  A malformed
  line always sends its chunk down the fallback, which records where
  the malformed lines were (``malformed_positions``), so callers that
  quarantine bad input learn the positions from the same single parse.

These are the only chunk parsers: every text ingest path
(``consume_*_file``, ``convert_file``, the live ingest session) runs
one, and every text path ends a line at ``\n`` only.

Throughput notes: the chunk grammars validate all structure inside the
regex engine (one C call per chunk), field/argument parsing is memoized
per parser on the part strings that repeat across a trace
(``flags = 577``, ``AT_FDCWD``), and each event costs one tuple append
instead of a :func:`~repro.trace.events.make_event` args copy.

For LTTng, one ``findall`` splits a chunk into units (an entry line with
the exit line right after it, or any other line) and cuts off each
line's stamp.  What the text after a stamp says is memoized per parser,
so a line a suite repeats is read once, and an entry followed by its
own exit is one row that bypasses the pairing table.  The memo holds
at most 1,024 rests and clears when full; a fill that ends with fewer
hits than misses (a trace whose lines stop repeating) switches it off,
and the parser reads the rest of its input with the full grammar, one
``findall`` match per event, parsing each repeated field block once
(see :meth:`~repro.trace.lttng.LttngParser.entry_fields`).
"""

from __future__ import annotations

import re
from typing import Any, Iterable, Iterator

from repro.trace.events import CappedMemo, SyscallEvent, event_from_row, split_lines
from repro.trace.lttng import LttngParser, _REST_RE, _UNIT_RE_M, _WRITER_RE_M, pair_row
from repro.trace.strace import (
    _CALL_PATTERN as _STRACE_PATTERN,
    _CALL_RE as _STRACE_RE,
    _parse_arg,
    _split_args,
    StraceParser,
    SYSCALL_SIGNATURES,
)
from repro.trace.syzkaller import (
    _CALL_PATTERN as _SYZ_PATTERN,
    _split_args as _syz_split_args,
    SyzkallerParser,
)
from repro.vfs.errors import ERRNO_BY_NAME

#: Target text-chunk size for file batch readers (characters).
DEFAULT_CHUNK_CHARS = 1 << 20

#: One parsed event as the batch parsers carry it.
Row = tuple  # (name, args, retval, errno, pid, comm, timestamp)

_ROW_FIELDS = ("name", "args", "retval", "errno", "pid", "comm", "timestamp")

_MISS = object()

#: Most decimal tokens (pids, retvals: they repeat heavily) one parser
#: memoizes.
_INT_MEMO_CAP = 65536

#: Most line rests (the text after a line's stamp) one
#: :class:`LttngBatchParser` memoizes.  A full memo ends a *fill*: it
#: clears, like the field memo, unless the fill had fewer hits than
#: misses, which switches the memo off.
_REST_MEMO_CAP = 1024


def make_parse_stats(
    fmt: str, skipped: int, malformed: int, unpaired: int
) -> dict[str, Any]:
    """Fixed-key-order parse statistics (text/``.rbt`` byte parity)."""
    return {
        "format": fmt,
        "skipped_lines": skipped,
        "malformed_lines": malformed,
        "unpaired_entries": unpaired,
    }


class EventBatch:
    """A block of parsed syscall events.

    Storage is one of two interchangeable forms:

    * **rows** — a list of ``(name, args, retval, errno, pid, comm,
      timestamp)`` tuples.  The text batch parsers produce this: one
      append per event, no object construction.
    * **columns** — parallel sequences per field (numeric fields as
      ``array('q')`` where they fit), with syscall args held as
      per-key columns.  The binary decoder produces this without any
      per-event Python work; argument dicts are materialized lazily
      the first time rows are requested.
    """

    __slots__ = ("_rows", "_cols", "_arg_cols")

    def __init__(self, rows=None, cols=None, arg_cols=None) -> None:
        self._rows = rows
        #: (names, argses, retvals, errnos, pids, comms, timestamps)
        self._cols = cols
        self._arg_cols = arg_cols

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: list[Row]) -> "EventBatch":
        return cls(rows=rows)

    @classmethod
    def from_columns(
        cls, names, argses, retvals, errnos, pids, comms, timestamps, arg_cols=None
    ) -> "EventBatch":
        """Columnar constructor (binary decode path).

        *argses* may be None when *arg_cols* (the per-key columns, see
        :mod:`repro.trace.binary`) is given; dicts are then built
        lazily on first row access.
        """
        return cls(
            cols=[names, argses, retvals, errnos, pids, comms, timestamps],
            arg_cols=arg_cols,
        )

    # -- access --------------------------------------------------------------

    def __len__(self) -> int:
        if self._rows is not None:
            return len(self._rows)
        return len(self._cols[0])

    def _materialize_args(self) -> list:
        cols = self._cols
        if cols[1] is None:
            n = len(cols[0])
            argses = [dict() for _ in range(n)]
            for key, fill in self._arg_cols:
                fill(key, argses)
            cols[1] = argses
        return cols[1]

    def rows(self) -> list[Row]:
        """The batch as row tuples (materialized once for columns)."""
        if self._rows is None:
            names, _, retvals, errnos, pids, comms, timestamps = self._cols
            self._rows = list(
                zip(names, self._materialize_args(), retvals, errnos, pids, comms, timestamps)
            )
        return self._rows

    def iter_rows(self) -> Iterator[Row]:
        if self._rows is not None:
            return iter(self._rows)
        names, _, retvals, errnos, pids, comms, timestamps = self._cols
        return zip(names, self._materialize_args(), retvals, errnos, pids, comms, timestamps)

    def iter_events(self) -> Iterator[SyscallEvent]:
        """Yield one :class:`SyscallEvent` per row (compat shim)."""
        return map(event_from_row, self.iter_rows())


def _read_chunks(path: str, chunk_chars: int) -> Iterator[str]:
    """Yield newline-aligned text chunks of roughly *chunk_chars*.

    ``newline="\n"`` keeps a lone ``\r`` inside its line, as a
    byte-level reader does.
    """
    with open(path, encoding="utf-8", newline="\n") as handle:
        while True:
            chunk = handle.read(chunk_chars)
            if not chunk:
                return
            if chunk[-1] != "\n":
                chunk += handle.readline()
            yield chunk


def _line_count(chunk: str) -> int:
    lines = chunk.count("\n")
    if chunk and not chunk.endswith("\n"):
        lines += 1
    return lines


class LttngBatchParser:
    """Chunk-mode LTTng text parsing into :class:`EventBatch` rows.

    Equivalent to ``LttngParser().parse(...)`` on the same lines: same
    FIFO entry/exit pairing per (pid, name), same orphan-exit skipping,
    same skipped/malformed accounting.  The pairing table lives on the
    instance so pairs may span chunk boundaries.

    Test suites repeat their calls, so most lines are identical once
    their stamp (time and delta) is cut off.  The parser memoizes what
    each such *rest* says (:meth:`_read_rest`) and splits a chunk into
    units with one ``findall`` (:data:`~repro.trace.lttng._UNIT_RE_M`).
    The memo holds at most ``_REST_MEMO_CAP`` rests.  When a full memo
    has had fewer hits than misses since it last cleared, the parser
    drops it and reads the rest of its input with the full grammar
    (:meth:`_consume_matches`), starting over with the chunk at hand.
    The memo and that switch belong to the parser, so every reader and
    every live session decides for its own input.
    """

    format = "lttng"

    def __init__(self) -> None:
        #: per-line fallback (and the skipped/malformed counters for
        #: lines the strict grammar declines).
        self._parser = LttngParser()
        self._ints = CappedMemo(int, _INT_MEMO_CAP)
        #: line rest -> what it says; None once the memo is switched off.
        self._rests: dict[str, tuple] | None = {}
        #: memo hits since the memo last cleared.
        self._rest_hits = 0
        #: (pid, name) -> entries awaiting their exits, oldest first; a
        #: key leaves the table when its last entry pairs.
        self._pending: dict[tuple[int, str], list] = {}
        self.orphan_exits = 0
        #: indices, within the last parsed chunk's lines, of the lines
        #: the grammar rejected (only the fallback can find any).
        self.malformed_positions: list[int] = []

    # -- counters ------------------------------------------------------------

    @property
    def skipped_lines(self) -> int:
        """Matches ``LttngParser.parse``: rejects plus orphan exits."""
        return self._parser.skipped_lines + self.orphan_exits

    @property
    def malformed_lines(self) -> int:
        return self._parser.malformed_lines

    @property
    def unpaired_entries(self) -> int:
        """Entry lines still awaiting their exits."""
        return sum(len(queue) for queue in self._pending.values())

    def stats(self) -> dict[str, Any]:
        return make_parse_stats(
            self.format, self.skipped_lines, self.malformed_lines, self.unpaired_entries
        )

    # -- parsing -------------------------------------------------------------

    def parse_chunk(self, chunk: str) -> list[Row]:
        """Parse one newline-aligned text chunk into rows."""
        lines = _line_count(chunk)
        rows = None
        if self._rests is not None:
            rows = self._consume_units(_UNIT_RE_M.findall(chunk), lines)
        if rows is None and self._rests is None:
            # The memo is off, or went off in this chunk.
            rows = self._consume_matches(_WRITER_RE_M.findall(chunk), lines)
        if rows is None:
            rows = self._consume_lines(split_lines(chunk))
        else:
            self.malformed_positions = []
        return rows

    def parse_lines(self, lines: Iterable[str]) -> list[Row]:
        return self._consume_lines(lines)

    def iter_file_batches(
        self, path: str, chunk_chars: int = DEFAULT_CHUNK_CHARS
    ) -> Iterator[EventBatch]:
        for chunk in _read_chunks(path, chunk_chars):
            rows = self.parse_chunk(chunk)
            if rows:
                yield EventBatch.from_rows(rows)

    def _read_rest(self, rest: str) -> tuple | None:
        """What a line says after its stamp, or None to decline.

        An entry says ``((pid, name), comm, fields)``, an exit ``((pid,
        name), comm, ret, errno)``.  A rest the strict grammar or
        :meth:`~repro.trace.lttng.LttngParser.entry_fields` declines is
        left to the per-line parser.
        """
        match = _REST_RE.fullmatch(rest)
        if match is None:
            return None
        xname, xcomm, xpid, xret, ename, ecomm, epid, body = match.groups()
        if xname:
            ret = int(xret)
            return (int(xpid), xname), xcomm, ret, -ret if ret < 0 else 0
        fields = self._parser.entry_fields(body)
        if fields is None:
            return None
        return (int(epid), ename), ecomm, fields

    def _consume_units(self, units: list[tuple], lines: int) -> list[Row] | None:
        """Memo path over :data:`_UNIT_RE_M` tuples; None means redo.

        A unit whose exit has its entry's ``(pid, name)``, with no older
        entry of that key waiting, is one row; every other line pairs
        through the pending table.  Declines as :meth:`_consume_matches`
        does, and when the memo switches off in this chunk.
        """
        pending = self._pending
        snapshot = {key: list(queue) for key, queue in pending.items()}
        orphans_before = self.orphan_exits
        rests = self._rests
        get = rests.get
        hits = self._rest_hits
        ts_ns = self._parser.ts_memo
        rows: list[Row] = []
        append = rows.append
        singles = 0
        for ts, nsf, entry, exit_, line in units:
            if entry:
                said = get(entry)
                reply = get(exit_)
                if said is not None and reply is not None:
                    key = said[0]
                    if reply[0] == key and not pending.get(key):
                        hits += 2
                        append((key[1], said[2].copy(), reply[2], reply[3], key[0],
                                said[1] or reply[1], ts_ns[ts] + int(nsf)))
                        continue
                unit = (entry, exit_)
            else:
                singles += 1
                unit = (line,)
            for rest in unit:
                said = get(rest)
                if said is not None:
                    hits += 1
                else:
                    if len(rests) >= _REST_MEMO_CAP:
                        # The memo is full: this fill has ended.  Each
                        # of its misses added one rest.
                        if hits < len(rests):
                            self._rests = None
                            break
                        rests.clear()
                        hits = 0
                    said = self._read_rest(rest)
                    if said is None:
                        break
                    rests[rest] = said
                key = said[0]
                queue = pending.get(key)
                if len(said) == 3:
                    # An entry: it waits for its exit.
                    record = (ts_ns[ts] + int(nsf), said[1], said[2].copy())
                    if queue is None:
                        pending[key] = [record]
                    else:
                        queue.append(record)
                elif queue:
                    entry_ns, comm, fields = queue.pop(0)
                    if not queue:
                        del pending[key]
                    append((key[1], fields, said[2], said[3], key[0], comm or said[1], entry_ns))
                else:
                    self.orphan_exits += 1
            else:
                continue
            break
        else:
            if 2 * len(units) - singles == lines:
                self._rest_hits = hits
                return rows
        # An unmatched line, a rest the strict grammar declines, or the
        # memo went off: the chunk is parsed again from the start.
        self._rest_hits = hits
        self._pending = snapshot
        self.orphan_exits = orphans_before
        return None

    def _consume_matches(self, matches: list[tuple], lines: int) -> list[Row] | None:
        """Fast path over findall tuples; None means redo per-line.

        Declines unless the matches cover all *lines* of the chunk (a
        pair match covers two).  Pairing state mutates as matches are
        consumed, so the pending table is snapshotted up front and
        restored on decline.
        """
        pending = self._pending
        snapshot = {key: list(queue) for key, queue in pending.items()}
        orphans_before = self.orphan_exits
        rows: list[Row] = []
        append = rows.append
        ts_ns = self._parser.ts_memo
        ints = self._ints
        entry_fields = self._parser.entry_fields
        singles = 0
        for ts, nsf, xname, xcomm, xpid, xret, ename, ecomm, epid, body, pcomm, pret in matches:
            if pret:
                # An entry and its own exit on the next line.
                fields = entry_fields(body)
                if fields is None:
                    break
                pid = ints[epid]
                entry_ns = ts_ns[ts] + int(nsf)
                comm = ecomm
                queue = pending.get((pid, ename))
                if queue:
                    # An older entry of this (pid, name) still waits:
                    # the exit pairs with it, first in first out.
                    queue.append((entry_ns, ecomm, fields))
                    entry_ns, comm, fields = queue.pop(0)
                ret = ints[pret]
                append((ename, fields, ret, -ret if ret < 0 else 0, pid, comm or pcomm, entry_ns))
                continue
            singles += 1
            if xname:
                # Exit line: ret was captured by the grammar.
                key = (ints[xpid], xname)
                queue = pending.get(key)
                if not queue:
                    # Exit without entry: trace started mid-call; the
                    # sequential parser skips it too.
                    self.orphan_exits += 1
                    continue
                entry_ns, entry_comm, fields = queue.pop(0)
                if not queue:
                    del pending[key]
                ret = ints[xret]
                append(
                    (
                        xname,
                        fields,
                        ret,
                        -ret if ret < 0 else 0,
                        key[0],
                        entry_comm or xcomm,
                        entry_ns,
                    )
                )
            else:
                fields = entry_fields(body)
                if fields is None:
                    break
                key = (ints[epid], ename)
                queue = pending.get(key)
                entry = (ts_ns[ts] + int(nsf), ecomm, fields)
                if queue is None:
                    pending[key] = [entry]
                else:
                    queue.append(entry)
        else:
            if 2 * len(matches) - singles == lines:
                return rows
        # An unmatched line or an odd field block: the permissive
        # grammar must decide what this chunk means.
        self._pending = snapshot
        self.orphan_exits = orphans_before
        return None

    def _consume_lines(self, lines: Iterable[str]) -> list[Row]:
        """Per-line fallback sharing the pairing table and counters."""
        rows: list[Row] = []
        bad: list[int] = []
        parser = self._parser
        pending = self._pending
        for index, line in enumerate(lines):
            malformed = parser.malformed_lines
            parsed = parser.parse_line(line)
            if parsed is None:
                if parser.malformed_lines != malformed:
                    bad.append(index)
                continue
            kind, name, ns, pid, comm, fields = parsed
            key = (pid, name)
            if kind == "entry":
                pending.setdefault(key, []).append((ns, comm, fields))
                continue
            queue = pending.get(key)
            if not queue:
                self.orphan_exits += 1
                continue
            entry_ns, entry_comm, args = queue.pop(0)
            if not queue:
                del pending[key]
            rows.append(pair_row(name, args, fields, pid, entry_comm or comm, entry_ns))
        self.malformed_positions = bad
        return rows


def _per_line_rows(self, lines: Iterable[str]) -> list[Row]:
    """Per-line fallback of the self-contained formats (strace, syzkaller)."""
    rows: list[Row] = []
    bad: list[int] = []
    parser = self._parser
    for index, line in enumerate(lines):
        malformed = parser.malformed_lines
        event = parser.parse_line(line)
        if event is not None:
            rows.append(event)
        elif parser.malformed_lines != malformed:
            bad.append(index)
    self.malformed_positions = bad
    return rows


#: Chunk-mode variants of the per-line grammars.
_STRACE_RE_M = re.compile("(?m)" + _STRACE_PATTERN)
_SYZ_RE_M = re.compile("(?m)" + _SYZ_PATTERN)

#: Argument keys the per-line parsers drop (buffer contents are not
#: coverage-relevant).
_STRACE_DROP_KEYS = frozenset({"buf", "statbuf", "vec"})
_SYZ_DROP_KEYS = frozenset({"buf", "vec"})

#: Positional fallback names, preallocated for the common arities.
_ARGN = tuple(f"arg{i}" for i in range(16))

#: Most strace argument tokens one parser memoizes (flag expressions,
#: AT_FDCWD, fds and modes repeat; values are immutable).
_ARG_MEMO_CAP = 16384

#: Tokens in one strace argument list: maximal runs of quoted strings
#: and non-comma text.  When joining the tokens back with "," exactly
#: reconstructs the argument text, the token boundaries provably sit at
#: top-level commas and the fast split equals `_split_args`.
_STRACE_TOKEN_RE = re.compile(r'(?:"(?:[^"\\]|\\.)*"|[^",])+|"')
#: Any bracket (opener *or* closer: a stray closer changes the
#: char-loop splitter's depth) routes to the char-loop splitter.
_BRACKET_RE = re.compile(r"[()\[\]{}]")

#: Same reconstruction trick for syzkaller, with single-level bracket
#: groups allowed (pointer arguments carry parens) and escape-aware
#: quoted strings matching the char-loop splitter's escape handling.
_SYZ_TOKEN_RE = re.compile(
    r"(?:'(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\""
    r"|\([^()]*\)|\[[^][]*\]|\{[^{}]*\}|[^,'\"()\[\]{}])+"
)


def _fast_split_strace(text: str) -> list[str]:
    if not text:
        return []
    if _BRACKET_RE.search(text) is None:
        tokens = _STRACE_TOKEN_RE.findall(text)
        if ",".join(tokens) == text:
            return [token.strip() for token in tokens]
    return _split_args(text)


def _fast_split_syz(text: str) -> list[str]:
    if not text:
        return []
    tokens = _SYZ_TOKEN_RE.findall(text)
    if ",".join(tokens) == text:
        return [token.strip() for token in tokens]
    return _syz_split_args(text)


class StraceBatchParser:
    """Chunk-mode strace parsing into :class:`EventBatch` rows."""

    format = "strace"

    def __init__(self) -> None:
        self._parser = StraceParser()
        self._ints = CappedMemo(int, _INT_MEMO_CAP)
        self._args = CappedMemo(_parse_arg, _ARG_MEMO_CAP)
        #: see :attr:`LttngBatchParser.malformed_positions`
        self.malformed_positions: list[int] = []

    @property
    def skipped_lines(self) -> int:
        return self._parser.skipped_lines

    @property
    def malformed_lines(self) -> int:
        return self._parser.malformed_lines

    unpaired_entries = 0

    def stats(self) -> dict[str, Any]:
        return make_parse_stats(
            self.format, self.skipped_lines, self.malformed_lines, 0
        )

    def parse_chunk(self, chunk: str) -> list[Row]:
        # parse_line short-circuits interrupted-call halves *before*
        # the grammar, so their presence anywhere sends the chunk down
        # the per-line path.
        if "<unfinished ...>" not in chunk and "resumed>" not in chunk:
            matches = _STRACE_RE_M.findall(chunk)
            if len(matches) == _line_count(chunk):
                rows: list[Row] = []
                build = self._row_from_groups
                for groups in matches:
                    row = build(*groups)
                    if row is not None:
                        rows.append(row)
                self.malformed_positions = []
                return rows
        return self._consume_lines(split_lines(chunk))

    def parse_lines(self, lines: Iterable[str]) -> list[Row]:
        return self._consume_lines(lines)

    def iter_file_batches(
        self, path: str, chunk_chars: int = DEFAULT_CHUNK_CHARS
    ) -> Iterator[EventBatch]:
        for chunk in _read_chunks(path, chunk_chars):
            rows = self.parse_chunk(chunk)
            if rows:
                yield EventBatch.from_rows(rows)

    def _arg_value(self, token: str) -> Any:
        if token and token[0] == '"' and "\\" not in token:
            # Truncated-string ellipsis strip without the escape decoder.
            return token[1 : token.rfind('"')]
        return self._args[token]

    def _row_from_groups(self, pid_s, ts, name, argstr, ret_s, errname) -> Row | None:
        if ret_s == "?":
            self._parser.skipped_lines += 1
            return None
        signature = SYSCALL_SIGNATURES.get(name)
        args: dict[str, Any] = {}
        arg_value = self._arg_value
        if signature is None:
            for index, token in enumerate(_fast_split_strace(argstr)):
                key = _ARGN[index] if index < 16 else f"arg{index}"
                args[key] = arg_value(token)
        else:
            sig_len = len(signature)
            for index, token in enumerate(_fast_split_strace(argstr)):
                if index < sig_len:
                    key = signature[index]
                    if key in _STRACE_DROP_KEYS:
                        continue
                else:
                    key = _ARGN[index] if index < 16 else f"arg{index}"
                args[key] = arg_value(token)
        retval = self._ints[ret_s]
        err = 0
        if retval < 0:
            err = ERRNO_BY_NAME.get(errname, -retval) if errname else -retval
            retval = -err
        pid = self._ints[pid_s] if pid_s else 0
        return (name, args, retval, err, pid, "", 0)

    _consume_lines = _per_line_rows


class SyzkallerBatchParser:
    """Chunk-mode syzkaller program parsing (input-only events).

    Resource bindings are order-dependent, so the chunk fast path
    replays matches strictly in line order against the same resource
    table the per-line parser would build.
    """

    format = "syzkaller"

    def __init__(self) -> None:
        self._parser = SyzkallerParser()
        #: see :attr:`LttngBatchParser.malformed_positions`
        self.malformed_positions: list[int] = []

    @property
    def skipped_lines(self) -> int:
        return self._parser.skipped_lines

    @property
    def malformed_lines(self) -> int:
        return self._parser.malformed_lines

    unpaired_entries = 0

    def stats(self) -> dict[str, Any]:
        return make_parse_stats(
            self.format, self.skipped_lines, self.malformed_lines, 0
        )

    def parse_chunk(self, chunk: str) -> list[Row]:
        # Comments would be stripped by parse_line before matching, so
        # their presence sends the chunk down the per-line path.
        if "#" not in chunk:
            matches = _SYZ_RE_M.findall(chunk)
            if len(matches) == _line_count(chunk):
                rows: list[Row] = []
                build = self._row_from_groups
                for groups in matches:
                    rows.append(build(*groups))
                self.malformed_positions = []
                return rows
        return self._consume_lines(split_lines(chunk))

    def parse_lines(self, lines: Iterable[str]) -> list[Row]:
        return self._consume_lines(lines)

    def iter_file_batches(
        self, path: str, chunk_chars: int = DEFAULT_CHUNK_CHARS
    ) -> Iterator[EventBatch]:
        for chunk in _read_chunks(path, chunk_chars):
            rows = self.parse_chunk(chunk)
            if rows:
                yield EventBatch.from_rows(rows)

    def _row_from_groups(self, res, name, argstr) -> Row:
        parser = self._parser
        resources = parser._resources
        decode = parser._decode_arg
        signature = SYSCALL_SIGNATURES.get(name)
        args: dict[str, Any] = {}
        sig_len = len(signature) if signature is not None else 0
        for index, token in enumerate(_fast_split_syz(argstr)):
            if index < sig_len:
                key = signature[index]
                if key in _SYZ_DROP_KEYS:
                    continue
            else:
                key = _ARGN[index] if index < 16 else f"arg{index}"
            value = resources.get(token, _MISS)
            if value is _MISS:
                value = decode(token)
            args[key] = value
        if res:
            resources[res] = 3 + len(resources)
        return (name, args, 0, 0, 0, "", 0)

    _consume_lines = _per_line_rows


#: format name -> batch parser factory
BATCH_PARSERS = {
    "lttng": LttngBatchParser,
    "strace": StraceBatchParser,
    "syzkaller": SyzkallerBatchParser,
}


def make_batch_parser(fmt: str):
    """Build the batch parser for *fmt* (``lttng``/``strace``/``syzkaller``)."""
    try:
        return BATCH_PARSERS[fmt]()
    except KeyError:
        raise ValueError(f"unknown trace format: {fmt!r}") from None
