"""LTTng-style text trace serialization and parsing.

The IOCov prototype traces testers with LTTng and consumes the
babeltrace text rendering of the resulting CTF trace.  This module
round-trips our :class:`~repro.trace.events.SyscallEvent` records
through that same text shape so the analyzer can ingest either live
recorder output or an on-disk trace file:

.. code-block:: text

    [00:00:00.000000042] (+0.000000001) sim syscall_entry_openat: \
{ cpu_id = 0 }, { procname = "fsx", pid = 1 }, \
{ dfd = -100, pathname = "/mnt/test/f0", flags = 577, mode = 420 }
    [00:00:00.000000043] (+0.000000001) sim syscall_exit_openat: \
{ cpu_id = 0 }, { procname = "fsx", pid = 1 }, { ret = 3 }

Each syscall becomes an entry/exit line pair keyed by name; the parser
pairs them back up (per pid, in order) into flattened events.  A
parser memoizes the field blocks it has parsed, since test suites
repeat the same calls over and over; a writer likewise memoizes the
constant heads of its lines.

The strict grammar of the writer's lines is written as a *stamp* (the
time and the delta) and a *rest* (everything after the stamp), so the
chunk parser (:class:`~repro.trace.batch.LttngBatchParser`) can
memoize what a rest says: once the stamp is cut off, most lines of a
suite's trace are repeats.

A quoted value, the procname included, escapes ``\\``, ``"`` and a
newline (as ``\n``), so a string argument or a comm holding braces,
quotes or line breaks stays inside its field block and its line.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Any, Iterable, Iterator, Mapping, TextIO

from repro.trace.events import CappedMemo, SyscallEvent, event_from_row, split_lines

_NS_PER_SEC = 1_000_000_000

#: One babeltrace-style line:
#: [HH:MM:SS.nnnnnnnnn] (+d.ddddddddd) host syscall_entry_NAME: { ctx }, ... { fields }
_LINE_RE = re.compile(
    r"^\[(?P<h>\d+):(?P<m>\d+):(?P<s>\d+)\.(?P<ns>\d{9})\]\s+"
    r"\(\+?[-\d.?]+\)\s+"
    r"(?P<host>\S+)\s+"
    r"syscall_(?P<kind>entry|exit)_(?P<name>\w+):\s+"
    r"(?P<rest>.*)$"
)

#: A ``{ ... }`` field block; quoted values may hold braces.
_FIELD_BLOCK_RE = re.compile(r'\{((?:[^{}"]|"(?:[^"\\]|\\.)*")*)\}')
_FIELD_RE = re.compile(r"(\w+)\s*=\s*(\"(?:[^\"\\]|\\.)*\"|[^,]+)")

_NAME_RE = re.compile(r"\w+\Z")

#: Context-field names the parser lifts out of the field blocks.
_CONTEXT_KEYS = ("pid", "procname", "cpu_id")

#: Strict single-line grammar for exactly the shape :class:`LttngWriter`
#: emits: a *stamp* (time and delta), then a *rest* (host, event and
#: field blocks).  Everything structural — timestamp layout, context
#: blocks, the quoted procname, the exit ``ret`` value — is validated by
#: the regex engine in one C-level match, so the Python side only
#: converts captured strings.  Lines that deviate (escaped procnames,
#: extra context fields, leading-zero pids or retvals, multi-digit hours, …)
#: simply fail to match and take the permissive `_LINE_RE` path, so the
#: fast path can never *disagree* with the slow one — it can only
#: decline.
#:
#: ``[HH:MM:SS.nnnnnnnnn] (+d.ddddddddd) ``: the stamp, delta included,
#: with the second's label and the nanoseconds as ``%s`` holes.
_STAMP = r"\[%s\.%s\] \(\+[0-9.]+\) "
#: A stamp whose time is read (groups: HH:MM:SS, nanoseconds) and one
#: whose time is not (the exit line after an entry).
_READ_STAMP = _STAMP % (r"(\d\d:\d\d:\d\d)", r"(\d{9})")
_NEXT_STAMP = _STAMP % (r"\d\d:\d\d:\d\d", r"\d{9}")
#: The context block and the separator after it, with the pid's
#: pattern as a ``%s`` hole; group: comm.
_CONTEXT = r": \{ cpu_id = \d+ \}, \{ procname = \"([^\"\\{}]*)\", pid = %s \}, "
_RET = r"\{ ret = (-?(?:0|[1-9]\d*)) \}"
#: The host, then the event's kind and name.
_EVENT = r"\S+ syscall_"
#: A pid, written as ``_RET`` writes a number: ``07`` is left to the
#: permissive grammar, which rejects it, whatever else the line holds.
_PID = r"(0|[1-9]\d*)"
_WRITER_EXIT = r"exit_(\w+)" + _CONTEXT % _PID + _RET
_WRITER_ENTRY = r"entry_(\w+)" + _CONTEXT % _PID + r"\{ (.*) \}"
#: What a writer line says after its stamp.
#: Groups: exit: 1 name 2 comm 3 pid 4 ret | entry: 5 name 6 comm 7 pid 8 body
_WRITER_REST = f"{_EVENT}(?:{_WRITER_EXIT}|{_WRITER_ENTRY})"
_REST_RE = re.compile(_WRITER_REST)

#: Groups: 1 ts(HH:MM:SS) 2 ns, then the rest's groups shifted by two.
_WRITER_RE = re.compile(f"{_READ_STAMP}{_WRITER_REST}$")

#: The next line when it is the matched entry's own exit: the same name
#: and pid (backreferences to groups 7 and 9), and otherwise what the
#: exit alternative accepts.  Groups: 11 comm 12 ret.
_OWN_EXIT = r"\n" + _NEXT_STAMP + _EVENT + r"exit_\7" + _CONTEXT % r"\9" + _RET
#: Chunk-mode grammar for `findall` over whole reads, anchored per
#: line.  Its pair alternative is an entry followed by its own exit, so
#: a writer-shaped event costs one match; groups 11 and 12 are empty
#: for a lone entry or exit.
_WRITER_RE_M = re.compile(
    f"(?m)^{_READ_STAMP}{_EVENT}(?:{_WRITER_EXIT}|{_WRITER_ENTRY}(?:{_OWN_EXIT})?)$"
)

#: Chunk-mode split into *units* for the line memo of
#: :class:`~repro.trace.batch.LttngBatchParser`: an entry line with the
#: exit line right after it, or any other stamped line.  Only the
#: stamps are checked here; what each rest says is the rest grammar's
#: to decide.  Groups: 1 ts(HH:MM:SS) 2 ns of the unit's first line |
#: pair: 3 entry rest 4 exit rest | other: 5 the line's rest.
_UNIT_RE_M = re.compile(
    rf"(?m)^{_READ_STAMP}(?:({_EVENT}entry_.*)\n{_NEXT_STAMP}({_EVENT}exit_.*)|(.*))$"
)

#: Most field blocks one :class:`LttngParser` memoizes before it starts
#: over.  Suites repeat a small set of blocks, the most frequent ones
#: late in a trace, so clearing when full keeps the hit share where a
#: memo that stopped filling would lose it.
_FIELD_MEMO_CAP = 1024

#: Most "HH:MM:SS" labels one parser or writer memoizes.  Traces advance
#: through at most 86 400 distinct wall-second labels per day.
_TS_MEMO_CAP = 65536

#: Most ``(name, comm, pid)`` line-head pairs one writer memoizes.
_HEAD_MEMO_CAP = 4096

#: Events :meth:`LttngWriter.write` formats per ``stream.write`` call.
_WRITE_BATCH = 2048

#: The escapes a quoted value may carry, undone in one pass.
_ESCAPE_RE = re.compile(r'\\([\\"n])')
_UNESCAPED = {"\\": "\\", '"': '"', "n": "\n"}

#: Most "key = value" field parts one parser memoizes.  Field parts
#: repeat heavily across a trace (``flags = 577``, ``mode = 420``) while
#: only path-carrying parts are unique, so a string-keyed memo removes
#: almost all per-field parse work.  Values are ints / strings / None —
#: immutable — so sharing them across events is safe.
_PART_MEMO_CAP = 16384


def _hms_ns(hms: str) -> int:
    """Convert an ``HH:MM:SS`` label to nanoseconds."""
    return (int(hms[0:2]) * 3600 + int(hms[3:5]) * 60 + int(hms[6:8])) * _NS_PER_SEC


def _format_value(value: Any) -> str:
    if value is None:
        return "0x0"
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{escaped}"'
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (list, tuple)):
        return f'"{",".join(str(item) for item in value)}"'
    return f'"{value}"'


def _parse_value(text: str) -> Any:
    text = text.strip()
    if text.startswith('"') and text.endswith('"'):
        return _ESCAPE_RE.sub(lambda m: _UNESCAPED[m[1]], text[1:-1])
    if text == "0x0":
        return None
    try:
        return int(text, 0)
    except ValueError:
        return text


def _fast_fields(body: str, cache: dict[str, tuple[str, Any]]) -> dict[str, Any] | None:
    """Parse a writer-shaped field block with split + the part memo *cache*.

    Only accepts the strict shape the regex grammar would parse to the
    identical dict: ``key = value`` parts joined by ``", "`` where keys
    are word characters and quoted values carry no interior quotes (a
    quoted value containing ``", "`` mis-splits, but its first fragment
    then holds an unterminated quote and is rejected here).  Anything
    else returns None and the caller falls back to the regex path, so
    the fast path can never *disagree* with the slow one — it can only
    decline.  The caller must already have excluded braces/backslashes.
    """
    if not body:
        return {}
    fields: dict[str, Any] = {}
    for part in body.split(", "):
        hit = cache.get(part)
        if hit is not None:
            fields[hit[0]] = hit[1]
            continue
        key, sep, tok = part.partition(" = ")
        if not sep or _NAME_RE.fullmatch(key) is None or key in _CONTEXT_KEYS:
            return None
        tok = tok.strip()
        if not tok:
            return None
        c0 = tok[0]
        if c0 == '"':
            if len(tok) < 2 or tok.find('"', 1) != len(tok) - 1:
                return None
            value: Any = tok[1:-1]
        # The regex grammar ends an unquoted value at a *bare* comma,
        # not just at the ", " separator this split uses.
        elif "," in tok:
            return None
        # int(text, 0) rejects leading-zero decimals ('010'), so those
        # must take the same _parse_value route the regex path takes
        # (where they stay strings).
        elif tok.isdecimal():
            value = _parse_value(tok) if (c0 == "0" and len(tok) > 1) else int(tok)
        elif c0 == "-" and tok[1:].isdecimal():
            value = _parse_value(tok) if (len(tok) > 2 and tok[1] == "0") else int(tok)
        else:
            value = _parse_value(tok)
        fields[key] = value
        if len(cache) < _PART_MEMO_CAP:
            cache[part] = (key, value)
    return fields


def _second_label(seconds: int) -> str:
    """``[HH:MM:SS.``, the label of a timestamp's whole *seconds*."""
    minutes, sec = divmod(seconds, 60)
    hours, minute = divmod(minutes, 60)
    return f"[{hours % 24:02d}:{minute:02d}:{sec:02d}."


class LttngWriter:
    """Serializes events to the babeltrace-like text format.

    An event's two lines share everything but the timestamps, the
    fields and the return value, so a writer memoizes each line's
    constant head per ``(name, comm, pid)`` and the timestamp label per
    second (both capped), and formats ints and escape-free strings
    inline.
    """

    def __init__(self, hostname: str = "sim") -> None:
        self.hostname = hostname
        self._heads = CappedMemo(self._line_heads, _HEAD_MEMO_CAP)
        self._seconds = CappedMemo(_second_label, _TS_MEMO_CAP)

    def _line_heads(self, key: tuple[str, str, int]) -> tuple[str, str]:
        """The entry and exit line text between timestamp and payload."""
        name, comm, pid = key
        procname = _format_value(comm or "tester")
        context = f"{{ cpu_id = 0 }}, {{ procname = {procname}, pid = {pid} }}"
        head = f"] (+0.000000001) {self.hostname} syscall_"
        return f"{head}entry_{name}: {context}, {{ ", f"{head}exit_{name}: {context}, {{ ret = "

    def _lines(self, events: Iterable[SyscallEvent]) -> list[str]:
        """Each event's entry and exit line, in order."""
        lines: list[str] = []
        append = lines.append
        heads = self._heads
        seconds = self._seconds
        for name, args, retval, _errno, pid, comm, timestamp in events:
            entry_head, exit_head = heads[name, comm, pid]
            fields = []
            for key, value in args.items():
                cls = value.__class__
                if cls is int:
                    fields.append(f"{key} = {value}")
                elif cls is str and '"' not in value and "\\" not in value and "\n" not in value:
                    fields.append(f'{key} = "{value}"')
                else:
                    fields.append(f"{key} = {_format_value(value)}")
            sec, ns = divmod(timestamp, _NS_PER_SEC)
            append(f"{seconds[sec]}{ns:09d}{entry_head}{', '.join(fields)} }}")
            sec, ns = divmod(timestamp + 1, _NS_PER_SEC)
            append(f"{seconds[sec]}{ns:09d}{exit_head}{retval} }}")
        return lines

    def format_event(self, event: SyscallEvent) -> list[str]:
        """Render one event as its entry/exit line pair."""
        return self._lines((event,))

    def write(self, events: Iterable[SyscallEvent], stream: TextIO) -> int:
        """Write all *events*; returns the number of lines written."""
        events = iter(events)
        written = 0
        while True:
            lines = self._lines(islice(events, _WRITE_BATCH))
            if not lines:
                return written
            written += len(lines)
            lines.append("")
            stream.write("\n".join(lines))

    def dumps(self, events: Iterable[SyscallEvent]) -> str:
        lines = self._lines(events)
        if lines:
            lines.append("")
        return "\n".join(lines)


class LttngParseError(ValueError):
    """A trace line could not be understood."""


#: An exit line that found no pending entry (its entry precedes the
#: current stream — possible when parsing from mid-trace).
#: ``fields`` is the exit field dict (carrying ``ret``).
OrphanExit = tuple[int, str, int, str, dict]  # (ns, name, pid, comm, fields)


class LttngParser:
    """Parses the babeltrace-like text format back into events.

    Entry and exit lines are paired per (pid, syscall-name) in file
    order, tolerating interleaving across pids the way a real multi-CPU
    trace interleaves.  Unpaired entries (a syscall still in flight
    when the trace stopped) are dropped, matching the prototype's
    behaviour.

    :meth:`parse_records` additionally surfaces the pairing residue of
    a stream read from mid-trace: exit lines whose entries precede it
    (*orphan exits*) and entry lines whose exits follow it (left in
    :attr:`pending_entries` after iteration); plain :meth:`parse`
    treats orphan exits as skipped lines.

    Each parser memoizes the field blocks of writer-shaped entries
    (:meth:`entry_fields`), so a block a suite repeats is parsed once
    per parser; the memo holds at most ``_FIELD_MEMO_CAP`` blocks and
    starts over when full.  Its field-part and timestamp memos are
    capped too, and belong to the parser like the block memo.
    """

    def __init__(self, strict: bool = False, fast: bool = True) -> None:
        self.strict = strict
        #: use the string-ops fast path for writer-shaped lines; False
        #: forces every line through the regex grammar (benchmarks use
        #: this to measure the legacy path).
        self.fast = fast
        self.skipped_lines = 0
        #: nonblank lines the grammar rejected (a subset of skipped).
        self.malformed_lines = 0
        #: (pid, name) -> pending entry records, set after an iteration
        #: of :meth:`parse_records` is exhausted.
        self.pending_entries: dict[tuple[int, str], list[tuple[int, str, dict[str, Any]]]] = {}
        #: writer-shaped field block -> its fields (see :meth:`entry_fields`)
        self._field_memo: dict[str, dict[str, Any]] = {}
        #: "key = value" part -> (key, value), filled by :func:`_fast_fields`
        self._part_memo: dict[str, tuple[str, Any]] = {}
        #: "HH:MM:SS" -> nanoseconds at that second
        self.ts_memo = CappedMemo(_hms_ns, _TS_MEMO_CAP)

    def entry_fields(self, body: str) -> dict[str, Any] | None:
        """Fields of a writer-shaped entry block, or None to decline.

        Memoized per parser: suites repeat the same blocks over and
        over.  Every call returns a fresh dict, so callers may mutate
        what they get.  A declined block (braces, escapes, or a shape
        :func:`_fast_fields` rejects) is left to the permissive grammar.
        """
        memo = self._field_memo
        fields = memo.get(body)
        if fields is None:
            if "{" in body or "}" in body or "\\" in body:
                return None
            fields = _fast_fields(body, self._part_memo)
            if fields is None:
                return None
            if len(memo) >= _FIELD_MEMO_CAP:
                memo.clear()
            memo[body] = fields
        return fields.copy()

    def parse_line(self, line: str) -> tuple[str, str, int, int, str, dict[str, Any]] | None:
        """Parse one line into (kind, name, ts, pid, comm, fields)."""
        stripped = line.strip()
        if self.fast:
            m = _WRITER_RE.match(stripped)
            if m is not None:
                g = m.groups()
                body = g[9]
                if body is None:
                    # Exit alternative: ret was captured by the regex.
                    ns = self.ts_memo[g[0]] + int(g[1])
                    return "exit", g[2], ns, int(g[4]), g[3], {"ret": int(g[5])}
                fields = self.entry_fields(body)
                if fields is not None:
                    ns = self.ts_memo[g[0]] + int(g[1])
                    return "entry", g[6], ns, int(g[8]), g[7], fields
                # Braces/escapes derail the regex block splitter — the
                # slow path must decide what such a line means.
        match = _LINE_RE.match(stripped)
        if match is None:
            if stripped:
                if self.strict:
                    raise LttngParseError(f"unparseable line: {line!r}")
                self.malformed_lines += 1
            self.skipped_lines += 1
            return None
        ns = (
            (int(match["h"]) * 3600 + int(match["m"]) * 60 + int(match["s"]))
            * _NS_PER_SEC
            + int(match["ns"])
        )
        fields: dict[str, Any] = {}
        pid = 0
        comm = ""
        for block in _FIELD_BLOCK_RE.findall(match["rest"]):
            for key, raw in _FIELD_RE.findall(block):
                value = _parse_value(raw)
                if key == "pid":
                    if not isinstance(value, int):
                        # Grammar-shaped line with a non-numeric pid:
                        # reject as malformed instead of crashing.
                        if self.strict:
                            raise LttngParseError(f"bad pid in line: {line!r}")
                        self.malformed_lines += 1
                        self.skipped_lines += 1
                        return None
                    pid = value
                elif key == "procname":
                    comm = str(value)
                elif key == "cpu_id":
                    continue
                else:
                    fields[key] = value
        kind = match["kind"]
        if kind == "exit" and not isinstance(fields.get("ret", 0), int):
            # Exit line with a non-integer ret: reject as malformed
            # instead of crashing the pairing stage downstream.
            if self.strict:
                raise LttngParseError(f"bad ret in line: {line!r}")
            self.malformed_lines += 1
            self.skipped_lines += 1
            return None
        return kind, match["name"], ns, pid, comm, fields

    def parse_records(
        self, lines: Iterable[str]
    ) -> Iterator[tuple[str, tuple | OrphanExit]]:
        """Yield ``("event", row)`` / ``("orphan", exit_info)`` records.

        An event is a ``(name, args, retval, errno, pid, comm,
        timestamp)`` row.  Records appear in exit-line order — the order
        :meth:`parse` yields events.  After exhaustion,
        :attr:`pending_entries` holds entries still awaiting exits.
        """
        pending: dict[tuple[int, str], list[tuple[int, str, dict[str, Any]]]] = {}
        self.pending_entries = pending
        for line in lines:
            parsed = self.parse_line(line)
            if parsed is None:
                continue
            kind, name, ns, pid, comm, fields = parsed
            key = (pid, name)
            if kind == "entry":
                pending.setdefault(key, []).append((ns, comm, fields))
                continue
            queue = pending.get(key)
            if not queue:
                # Exit without entry: the stream started mid-call
                # (parse skips it).
                yield "orphan", (ns, name, pid, comm, fields)
                continue
            entry_ns, entry_comm, args = queue.pop(0)
            yield "event", pair_row(name, args, fields, pid, entry_comm or comm, entry_ns)

    def parse(self, lines: Iterable[str]) -> Iterator[SyscallEvent]:
        """Yield flattened events from entry/exit line pairs."""
        for kind, payload in self.parse_records(lines):
            if kind == "event":
                yield event_from_row(payload)
            else:
                # Exit without entry: trace started mid-call; skip.
                self.skipped_lines += 1

    def parse_text(self, text: str) -> list[SyscallEvent]:
        return list(self.parse(split_lines(text)))

    def iter_parse_file(self, path: str) -> Iterator[SyscallEvent]:
        """Stream events from disk without materializing the trace."""
        with open(path, encoding="utf-8", newline="\n") as handle:
            yield from self.parse(handle)

    def parse_file(self, path: str) -> list[SyscallEvent]:
        return list(self.iter_parse_file(path))


def pair_row(
    name: str,
    entry_args: dict[str, Any],
    exit_fields: Mapping[str, Any],
    pid: int,
    comm: str,
    entry_ns: int,
) -> tuple:
    """Flatten one entry/exit pair into an event row."""
    retval = int(exit_fields.get("ret", 0))
    return (name, entry_args, retval, -retval if retval < 0 else 0, pid, comm, entry_ns)
