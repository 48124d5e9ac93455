"""Batch trace parsing: a text trace is read a chunk at a time.

Each text format has one batch parser, which turns a newline-aligned
chunk of text into an **event batch**:

* :class:`EventBatch` holds a block of parsed events as compact rows
  (one tuple per event; what the binary ``.rbt`` decoder produces too,
  see :mod:`repro.trace.binary`) or as templates (each repeated event
  once, plus one template id and one timestamp per event — what the
  LTTng parser's line memo produces).  Both iterate identically, and
  their rows are read-only (:data:`Row`).  A templated batch keeps a
  repeated event's timestamp as the text its line holds and converts
  it when a row is first read; counting reads none.
* :class:`LttngBatchParser` parses whole text chunks with one
  multiline ``findall`` over a strict precompiled grammar, falling back
  to the per-line :class:`~repro.trace.lttng.LttngParser` for any chunk
  that contains lines the strict grammar declines.  The fallback makes
  every batch parse *equal by construction* to the sequential per-line
  parse of the same text: the fast path can only decline, never
  disagree.  A malformed line always sends its chunk down the fallback,
  which records where the malformed lines were (``malformed_positions``),
  so callers that quarantine bad input learn the positions from the
  same single parse.
* :class:`StraceBatchParser` and :class:`SyzkallerBatchParser` have no
  grammar of their own: each parses a chunk line by line through its
  format's one grammar (:class:`~repro.trace.strace.StraceParser`,
  :class:`~repro.trace.syzkaller.SyzkallerParser`), recording
  ``malformed_positions`` as it goes.

These are the only chunk parsers: every text ingest path
(``consume_*_file``, ``convert_file``, the live ingest session) runs
one, and every text path ends a line at ``\n`` only.

Throughput notes: the LTTng chunk grammar validates all structure
inside the regex engine (one C call per chunk), field parsing is
memoized per parser on the part strings that repeat across a trace
(``flags = 577``), and each event costs one tuple append instead of a
:func:`~repro.trace.events.make_event` args copy.  The strace and
syzkaller parsers memoize each argument token's value per parser
(``AT_FDCWD``, ``0x42``), and build each event over the args dict they
fill.

For LTTng, one ``findall`` splits a chunk into units (an entry line with
the exit line right after it, or any other line) and cuts off each
line's stamp.  A line without a valid stamp, a blank one included, is a
unit too, at which the chunk declines.  What the text after a stamp says
is memoized per parser, so a line a suite repeats is read once.  An
entry followed by its own exit bypasses the pairing table, and a chunk
memo maps its two rests to one template of the chunk's batch, so a
repeated event costs a lookup and two appends, its stamp kept as text,
and shares its template's args with its repeats (most events of a test
suite's trace repeat one earlier in their chunk in everything but the
timestamp).  An entry that waits in the pairing table converts its stamp
to nanoseconds as it waits.  The line memo holds at most 1,024 rests and
clears when full, and the chunk memo with it; a fill that ends with
fewer hits than misses (a trace whose lines stop repeating) switches it
off, and the parser reads the rest of its input with the full grammar,
one ``findall`` match per event, parsing each repeated field block once
(see :meth:`~repro.trace.lttng.LttngParser.entry_fields`).  That path
and the per-line path hand out rows, as the strace and syzkaller
parsers do.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.trace.events import CappedMemo, SyscallEvent, event_from_row, split_lines
from repro.trace.lttng import LttngParser, _REST_RE, _UNIT_RE_M, _WRITER_RE_M, pair_row
from repro.trace.strace import StraceParser
from repro.trace.syzkaller import SyzkallerParser

#: Bytes a file batch reader reads at a time; each block is extended to
#: its next newline.  A block, its text and its parsed rows are what a
#: reader holds in flight.  The LTTng line memo gives each block its own
#: templates, so a smaller block makes more of them: the seed-1 xfstests
#: trace (93,987 events) gets 7,937 at 1 MiB, 9,090 at 256 KiB and
#: 10,363 at 128 KiB, where CI's perf-smoke job allows fewer than a
#: tenth of the events.
DEFAULT_CHUNK_BYTES = 1 << 18

#: One parsed event as the batch parsers carry it.  Rows are read-only:
#: rows may share one args dict (the events of one template, and the
#: LTTng parser's memoized fields across chunks), so no consumer may
#: change a row's args; one that needs different args builds a new dict.
Row = tuple  # (name, args, retval, errno, pid, comm, timestamp)

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
      timestamp)`` tuples.  The per-line and full-grammar text paths
      and the binary ``.rbt`` decoder (:mod:`repro.trace.binary`)
      produce this: one tuple per event.
    * **templates** — what the LTTng line-memo path produces (see
      :attr:`templated`): ``(name, args, retval, errno, pid, comm)``
      tuples, each of the chunk's repeated events once (an event the
      parser pairs through its pending table is a template of its own),
      one template id per event in trace order, and one timestamp per
      event.  Row *i* is ``templates[ids[i]]
      + (stamps[i],)``, so the events of one template share its args
      dict, and a consumer may do per template what it would do per
      event (:meth:`repro.core.analyzer.IOCov.consume_batch`).

    Both forms yield the same rows; rows are read-only (see :data:`Row`).

    A templated batch may hold a stamp as the parser cut it from its
    line, ``HH:MM:SS.nnnnnnnnn``, with the parser's ``HH:MM:SS`` memo
    (*ts_ns*) to convert it: the stamps are converted to int
    nanoseconds once, when :meth:`rows`, :meth:`iter_rows` or
    :attr:`templated` is first read.  Counting reads
    :attr:`template_ids` only, so it converts no stamp.
    """

    __slots__ = ("_rows", "_templated", "_ts_ns")

    def __init__(self, rows=None, templated=None, ts_ns=None) -> None:
        self._rows = rows
        self._templated = templated
        #: ``HH:MM:SS`` -> nanoseconds, while text stamps wait to convert.
        self._ts_ns = ts_ns

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: list[Row]) -> "EventBatch":
        return cls(rows=rows)

    @classmethod
    def from_templates(
        cls, templates: list[tuple], ids: list[int], stamps: list, ts_ns=None
    ) -> "EventBatch":
        """Templated constructor: row *i* is ``templates[ids[i]] + (stamps[i],)``."""
        return cls(templated=(templates, ids, stamps), ts_ns=ts_ns)

    # -- access --------------------------------------------------------------

    def __len__(self) -> int:
        if self._rows is not None:
            return len(self._rows)
        return len(self._templated[1])

    @property
    def templated(self) -> tuple[list[tuple], list[int], list[int]] | None:
        """(templates, ids, stamps) of a templated batch, else None;
        converts any stamp still held as text."""
        ts_ns = self._ts_ns
        if ts_ns is not None:
            templates, ids, stamps = self._templated
            self._templated = templates, ids, [
                stamp if stamp.__class__ is int else ts_ns[stamp[:8]] + int(stamp[9:])
                for stamp in stamps
            ]
            self._ts_ns = None
        return self._templated

    @property
    def template_ids(self) -> tuple[list[tuple], list[int]] | None:
        """(templates, ids) of a templated batch, else None; converts no stamp."""
        templated = self._templated
        return None if templated is None else templated[:2]

    def rows(self) -> list[Row]:
        """The batch as row tuples (materialized once for templates)."""
        if self._rows is None:
            self._rows = list(self.iter_rows())
        return self._rows

    def iter_rows(self) -> Iterator[Row]:
        if self._rows is not None:
            return iter(self._rows)
        templates, ids, stamps = self.templated
        return map(tuple.__add__, map(templates.__getitem__, ids), zip(stamps))

    def iter_events(self) -> Iterator[SyscallEvent]:
        """Yield one :class:`SyscallEvent` per row (compat shim)."""
        return map(event_from_row, self.iter_rows())


def _read_chunks(path: str, chunk_bytes: int) -> Iterator[str]:
    """Yield the UTF-8 text of the file at *path* in newline-aligned chunks.

    Reads *chunk_bytes* at a time, extends each block to its next
    ``\\n`` and decodes it once.  A newline byte is never part of a
    multibyte character, so no block splits one.  Only ``\\n`` ends a
    line: ``\\r\\n`` and a lone ``\\r`` reach the parser as written.
    Invalid UTF-8 raises :class:`UnicodeDecodeError`.
    """
    with open(path, "rb") as handle:
        while True:
            block = handle.read(chunk_bytes)
            if not block:
                return
            if block[-1] != 0x0A:
                block += handle.readline()
            yield block.decode("utf-8")


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

    def parse_batch(self, chunk: str) -> EventBatch:
        """Parse one newline-aligned text chunk into a batch.

        Templated on the memo path, rows on the other two.
        """
        batch = None
        if self._rests is not None:
            batch = self._consume_units(_UNIT_RE_M.findall(chunk))
        if batch is None and self._rests is None:
            # The memo is off, or went off in this chunk.
            rows = self._consume_matches(_WRITER_RE_M.findall(chunk))
            if rows is not None:
                batch = EventBatch.from_rows(rows)
        if batch is None:
            return EventBatch.from_rows(self._consume_lines(split_lines(chunk)))
        self.malformed_positions = []
        return batch

    def parse_chunk(self, chunk: str) -> list[Row]:
        """Parse one newline-aligned text chunk into rows."""
        return self.parse_batch(chunk).rows()

    def parse_lines(self, lines: Iterable[str]) -> list[Row]:
        return self._consume_lines(lines)

    def iter_file_batches(
        self, path: str, chunk_bytes: int = DEFAULT_CHUNK_BYTES
    ) -> Iterator[EventBatch]:
        """Each newline-aligned chunk of the file at *path*, parsed."""
        for chunk in _read_chunks(path, chunk_bytes):
            batch = self.parse_batch(chunk)
            if len(batch):
                yield batch

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

    def _consume_units(self, units: list[tuple]) -> EventBatch | None:
        """Memo path over :data:`_UNIT_RE_M` tuples; None means redo.

        A unit whose exit has its entry's ``(pid, name)``, with no older
        entry of that key waiting, is one event of the template its two
        rests say; a chunk memo maps the rests to the template, so a
        repeated unit costs a lookup and two appends, and keeps its
        stamp as text (the batch converts it when a row is read).  Every
        other line pairs through the pending table, where an entry
        waits with its stamp in int nanoseconds (the other two paths
        share the table), and each row that pairs there is a template of
        its own.  The chunk memo holds only rests the line memo holds (it
        clears with it), so hits and misses count as if every unit
        looked its rests up.  Declines at a line without a valid stamp
        and at a rest the strict grammar declines, as
        :meth:`_consume_matches` does, and when the memo switches off in
        this chunk.
        """
        pending = self._pending
        snapshot = {key: list(queue) for key, queue in pending.items()}
        orphans_before = self.orphan_exits
        rests = self._rests
        get = rests.get
        hits = self._rest_hits
        ts_ns = self._parser.ts_memo
        #: (entry rest, exit rest) -> (template id, (pid, name))
        known: dict[tuple[str, str], tuple[int, tuple]] = {}
        known_get = known.get
        templates: list[tuple] = []
        ids: list[int] = []
        stamps: list = []
        add_id = ids.append
        add_stamp = stamps.append
        for ts, entry, exit_, line in units:
            if entry:
                pair = (entry, exit_)
                template = known_get(pair)
                if template is not None:
                    if not (pending and pending.get(template[1])):
                        hits += 2
                        add_id(template[0])
                        add_stamp(ts)
                        continue
                else:
                    said = get(entry)
                    reply = get(exit_)
                    if said is not None and reply is not None:
                        key = said[0]
                        if reply[0] == key and not pending.get(key):
                            hits += 2
                            known[pair] = (len(templates), key)
                            add_id(len(templates))
                            templates.append((key[1], said[2], reply[2], reply[3], key[0],
                                              said[1] or reply[1]))
                            add_stamp(ts)
                            continue
                unit = pair
            elif ts:
                unit = (line,)
            else:
                # A line without a valid stamp.
                break
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
                        known.clear()
                        hits = 0
                    said = self._read_rest(rest)
                    if said is None:
                        break
                    rests[rest] = said
                key = said[0]
                queue = pending.get(key)
                if len(said) == 3:
                    # An entry: it waits for its exit.
                    record = (ts_ns[ts[:8]] + int(ts[9:]), said[1], said[2])
                    if queue is None:
                        pending[key] = [record]
                    else:
                        queue.append(record)
                elif queue:
                    entry_ns, comm, fields = queue.pop(0)
                    if not queue:
                        del pending[key]
                    add_id(len(templates))
                    templates.append((key[1], fields, said[2], said[3], key[0], comm or said[1]))
                    add_stamp(entry_ns)
                else:
                    self.orphan_exits += 1
            else:
                continue
            break
        else:
            self._rest_hits = hits
            return EventBatch.from_templates(templates, ids, stamps, ts_ns)
        # An unstamped line, a rest the strict grammar declines, or the
        # memo went off: the chunk is parsed again from the start.
        self._rest_hits = hits
        self._pending = snapshot
        self.orphan_exits = orphans_before
        return None

    def _consume_matches(self, matches: list[tuple]) -> list[Row] | None:
        """Fast path over :data:`_WRITER_RE_M` tuples; None means redo per-line.

        Declines at a line the writer grammar declines (its last
        alternative's match, every group empty) and at a field block
        :meth:`~repro.trace.lttng.LttngParser.entry_fields` declines.
        Pairing state mutates as matches are consumed, so the pending
        table is snapshotted up front and restored on decline.
        """
        pending = self._pending
        snapshot = {key: list(queue) for key, queue in pending.items()}
        orphans_before = self.orphan_exits
        rows: list[Row] = []
        append = rows.append
        ts_ns = self._parser.ts_memo
        ints = self._ints
        entry_fields = self._parser.entry_fields
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
            elif ename:
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
                # A line the writer grammar declines.
                break
        else:
            return rows
        # A declined line or an odd field block: the permissive
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


class _LineBatchParser:
    """Chunk parsing through a per-line parser, one line at a time.

    strace and syzkaller lines stand alone (no entry/exit pairing), so
    a chunk is its lines parsed in order by the format's one grammar,
    the per-line parser's ``parse_line``, whose state (syzkaller's
    resource bindings, the argument memo) carries across chunks.
    """

    format: str
    #: the per-line parser class of the format
    line_parser: type

    def __init__(self) -> None:
        self._parser = self.line_parser()
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

    def parse_batch(self, chunk: str) -> EventBatch:
        """Parse one newline-aligned text chunk into a batch of rows."""
        return EventBatch.from_rows(self.parse_chunk(chunk))

    def parse_chunk(self, chunk: str) -> list[Row]:
        """Parse one newline-aligned text chunk into rows."""
        return self.parse_lines(split_lines(chunk))

    def parse_lines(self, lines: Iterable[str]) -> list[Row]:
        """Parse *lines* in order, noting where the malformed ones are."""
        rows: list[Row] = []
        append = rows.append
        bad: list[int] = []
        parser = self._parser
        parse_line = parser.parse_line
        malformed = parser.malformed_lines
        for index, line in enumerate(lines):
            event = parse_line(line)
            if event is not None:
                append(event)
            elif parser.malformed_lines != malformed:
                malformed = parser.malformed_lines
                bad.append(index)
        self.malformed_positions = bad
        return rows

    iter_file_batches = LttngBatchParser.iter_file_batches


class StraceBatchParser(_LineBatchParser):
    """strace text, chunk at a time, through :class:`StraceParser`."""

    format = "strace"
    line_parser = StraceParser


class SyzkallerBatchParser(_LineBatchParser):
    """Syzkaller program logs, chunk at a time, through
    :class:`SyzkallerParser` (input-only events; resource bindings
    apply in line order across chunks)."""

    format = "syzkaller"
    line_parser = SyzkallerParser


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
