"""Batch-parser parity: chunk-mode parsing equals the per-line readers.

The fast chunk grammars are allowed to *decline* a chunk (falling back
to the per-line parsers) but never to disagree with them, so every test
here compares batch output — rows and drop counters both — against a
fresh per-line reference on the same text.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.trace import batch
from repro.trace.batch import (
    EventBatch,
    LttngBatchParser,
    StraceBatchParser,
    make_batch_parser,
)
from repro.trace.events import make_event
from repro.trace.lttng import LttngParser, LttngWriter
from repro.trace.strace import StraceParser

# -- corpora --------------------------------------------------------------------

STRACE_LINES = [
    'openat(AT_FDCWD, "/mnt/test/f0", O_WRONLY|O_CREAT|O_TRUNC, 0644) = 3',
    'write(3, "abcd"..., 4096) = 4096',
    'open("/mnt/test/x", O_RDONLY) = -1 ENOENT (No such file or directory)',
    "close(77) = -1 EBADF",
    "lseek(3, 1024, SEEK_END) = 5120",
    "[pid 1234] 1688888888.123456 fsync(5) = 0",
    r'chdir("/mnt/te\"st") = 0',
    'setxattr("/mnt/test/f", "user.k", "v"..., 5, XATTR_CREATE) = 0',
    "epoll_create(8) = 5",
    'rename("/mnt/test/a,b", "/mnt/test/c") = 0',
    'pread64(3, "zz", 2, 100) = 2',
    "dup2(3, 9) = 9",
]

STRACE_NOISE = [
    "+++ exited with 0 +++",
    "--- SIGCHLD {si_signo=SIGCHLD} ---",
    'write(3, "x", 1 <unfinished ...>',
    "<... write resumed>) = 1",
    "exit_group(0) = ?",
    "not a trace line at all",
    "",
]

SYZ_LINES = [
    "r0 = openat(0xffffffffffffff9c, &(0x7f0000000040)='./file0\\x00', 0x42, 0x1ff)",
    'write(r0, &(0x7f0000000080)="616263", 0x3)',
    "close(r0)",
    "r1 = openat$dir(0xffffffffffffff9c, &(0x7f00000000c0)='./d\\x00', 0x0, 0x0)",
    "lseek(r1, 0x400, 0x2)",
    "ftruncate(r1, 0x1000)",
]

SYZ_NOISE = [
    "# a comment line",
    "   ",
    "garbage that is not a call",
]


def _lttng_text(count: int = 40, seed: int = 7) -> str:
    rng = random.Random(seed)
    events = []
    for i in range(count):
        events.append(
            make_event(
                rng.choice(["open", "openat", "write", "read", "lseek"]),
                {"pathname": f"/mnt/test/f{i % 5}", "flags": rng.randrange(0, 4096)},
                rng.randrange(-40, 1 << 30),
                0,
                pid=rng.randrange(1, 4),
                comm="tester",
                timestamp=i * 1000,
            )
        )
    return LttngWriter().dumps(events)


def _rows_via_lines(fmt: str, text: str):
    """Per-line reference: a fresh batch parser forced down the
    fallback path line by line (the fallback *is* the per-line parser),
    plus the sequential parsers' own counters for cross-checking."""
    parser = make_batch_parser(fmt)
    rows = []
    for line in text.splitlines():
        rows.extend(parser.parse_lines([line]))
    return rows, parser.stats()


def _rows_via_chunks(fmt: str, text: str, chunk_lines: int):
    parser = make_batch_parser(fmt)
    lines = text.splitlines(keepends=True)
    rows = []
    for start in range(0, len(lines), chunk_lines):
        chunk = "".join(lines[start : start + chunk_lines])
        rows.extend(parser.parse_chunk(chunk))
    return rows, parser.stats()


@pytest.mark.parametrize("chunk_lines", [1, 3, 1000])
def test_strace_chunk_parity(chunk_lines):
    text = "\n".join(STRACE_LINES * 3 + STRACE_NOISE + STRACE_LINES) + "\n"
    want_rows, want_stats = _rows_via_lines("strace", text)
    got_rows, got_stats = _rows_via_chunks("strace", text, chunk_lines)
    assert got_rows == want_rows
    assert got_stats == want_stats
    # Cross-check counters against the plain per-line parser.
    ref = StraceParser()
    for line in text.splitlines():
        ref.parse_line(line)
    assert want_stats["skipped_lines"] == ref.skipped_lines
    assert want_stats["malformed_lines"] == ref.malformed_lines


@pytest.mark.parametrize("chunk_lines", [1, 2, 1000])
def test_syzkaller_chunk_parity(chunk_lines):
    text = "\n".join(SYZ_LINES + SYZ_NOISE + SYZ_LINES) + "\n"
    want_rows, want_stats = _rows_via_lines("syzkaller", text)
    got_rows, got_stats = _rows_via_chunks("syzkaller", text, chunk_lines)
    assert got_rows == want_rows
    assert got_stats == want_stats
    # Resource bindings survive the fast path in order.
    fds = [row[1].get("fd") for row in got_rows if row[0] == "write"]
    assert all(isinstance(fd, int) and fd >= 3 for fd in fds)


@pytest.mark.parametrize("chunk_lines", [1, 5, 1000])
def test_lttng_chunk_parity(chunk_lines):
    text = _lttng_text()
    want_rows, want_stats = _rows_via_lines("lttng", text)
    got_rows, got_stats = _rows_via_chunks("lttng", text, chunk_lines)
    assert got_rows == want_rows
    assert got_stats == want_stats
    events = LttngParser().parse_text(text)
    assert len(got_rows) == len(events)
    for row, event in zip(got_rows, events):
        assert row[:5] == (event.name, event.args, event.retval, event.errno, event.pid)


def test_lttng_orphan_exit_and_unpaired_entry_counters():
    text = _lttng_text(count=10)
    lines = text.splitlines()
    # Drop the first line (an entry): its exit becomes an orphan.
    # Drop the last line (an exit): its entry stays unpaired.
    mangled = "\n".join(lines[1:-1]) + "\n"
    parser = LttngBatchParser()
    rows = parser.parse_chunk(mangled)
    assert len(rows) == 8
    assert parser.skipped_lines == 1  # the orphan exit
    assert parser.unpaired_entries == 1
    ref = LttngParser()
    ref_events = ref.parse_text(mangled)
    assert len(ref_events) == len(rows)
    assert parser.stats()["skipped_lines"] == ref.skipped_lines


def test_lttng_pairing_spans_chunk_boundaries():
    text = _lttng_text(count=20)
    lines = text.splitlines(keepends=True)
    parser = LttngBatchParser()
    rows = []
    # Cut mid-pair: entry in one chunk, exit in the next.
    for start in range(0, len(lines), 3):
        rows.extend(parser.parse_chunk("".join(lines[start : start + 3])))
    want_rows, _ = _rows_via_lines("lttng", text)
    assert rows == want_rows
    assert parser.unpaired_entries == 0


def test_malformed_lines_are_counted_not_dropped_silently():
    bad = "\n".join(
        [
            'openat(AT_FDCWD, "/mnt/test/ok", O_RDONLY) = 3',
            "complete garbage ####",
            "close(3) = 0",
        ]
    )
    parser = StraceBatchParser()
    rows = parser.parse_chunk(bad)
    assert [row[0] for row in rows] == ["openat", "close"]
    assert parser.malformed_lines == 1
    assert parser.stats()["malformed_lines"] == 1


def test_make_batch_parser_rejects_unknown_format():
    with pytest.raises(ValueError):
        make_batch_parser("ftrace")


def test_event_batch_row_and_event_views_agree():
    rows = [
        ("open", {"pathname": "/a", "flags": 0}, 3, 0, 10, "t", 5),
        ("close", {"fd": 3}, 0, 0, 10, "t", 6),
    ]
    batch = EventBatch.from_rows(list(rows))
    assert len(batch) == 2
    assert batch.rows() == rows
    events = list(batch.iter_events())
    assert [e.name for e in events] == ["open", "close"]
    assert [
        (e.name, e.args, e.retval, e.errno, e.pid, e.comm, e.timestamp)
        for e in events
    ] == rows
    assert events[1].args == {"fd": 3}


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    cuts=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=6),
)
@settings(max_examples=25, deadline=None)
def test_lttng_parity_any_chunking(seed, cuts):
    """Chunk-boundary invariance: any newline-aligned split parses equal."""
    text = _lttng_text(count=15, seed=seed)
    lines = text.splitlines(keepends=True)
    parser = LttngBatchParser()
    rows = []
    index = 0
    cut_iter = itertools.cycle(cuts)
    while index < len(lines):
        step = next(cut_iter)
        rows.extend(parser.parse_chunk("".join(lines[index : index + step])))
        index += step
    want_rows, want_stats = _rows_via_lines("lttng", text)
    assert rows == want_rows
    assert parser.stats() == want_stats


def _per_line_reference(text: str):
    """Rows and stats of the plain per-line parser (no batch code)."""
    parser = LttngParser()
    records = list(parser.parse_records(text.splitlines()))
    rows = [payload for kind, payload in records if kind == "event"]
    orphans = sum(1 for kind, _ in records if kind == "orphan")
    stats = {
        "format": "lttng",
        "skipped_lines": parser.skipped_lines + orphans,
        "malformed_lines": parser.malformed_lines,
        "unpaired_entries": sum(len(q) for q in parser.pending_entries.values()),
    }
    return rows, stats


_STREAM_EVENT = st.tuples(
    st.sampled_from(["read", "write", "openat"]),
    st.integers(min_value=1, max_value=3),  # pid
    st.integers(min_value=-5, max_value=9),  # retval
    st.sampled_from(["/mnt/test/a", "/mnt/test/b", "/mnt/test/{odd}"]),
    st.integers(min_value=0, max_value=4),  # exit delay, in entries
)


@given(
    events=st.lists(_STREAM_EVENT, min_size=1, max_size=30),
    drop_first_entry=st.booleans(),
    drop_last_exit=st.booleans(),
    garbage_at=st.one_of(st.none(), st.integers(min_value=0, max_value=60)),
    cuts=st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=5),
)
@example(  # entry, entry, exit: the exit follows the younger entry
    events=[("read", 1, 3, "/mnt/test/a", 1), ("read", 1, 4, "/mnt/test/b", 0)],
    drop_first_entry=False,
    drop_last_exit=False,
    garbage_at=None,
    cuts=[100],
)
@settings(max_examples=200, deadline=None)
def test_lttng_interleaved_streams_match_per_line_parser(
    events, drop_first_entry, drop_last_exit, garbage_at, cuts
):
    """Delayed exits across pids: batch rows and stats equal per-line ones.

    Exits land up to four entries after their own, so streams mix
    adjacent pairs with entries of the same (pid, name) still waiting,
    which the pair match must hand to FIFO pairing.
    """
    writer = LttngWriter()
    slots = []
    for index, (name, pid, ret, path, delay) in enumerate(events):
        event = make_event(
            name, {"pathname": path, "count": index % 3}, ret, 0,
            pid=pid, comm="tester", timestamp=index * 10,
        )
        entry, exit_line = writer.format_event(event)
        slots.append(((index, 0, index), entry))
        slots.append(((index + delay, 1, index), exit_line))
    lines = [line for _, line in sorted(slots)]
    if drop_first_entry:
        lines.remove(next(line for line in lines if "syscall_entry_" in line))
    if drop_last_exit:
        last_exit = max(i for i, line in enumerate(lines) if "syscall_exit_" in line)
        del lines[last_exit]
    if garbage_at is not None:
        lines.insert(min(garbage_at, len(lines)), "not an lttng line")
    with_ends = [line + "\n" for line in lines]

    parser = LttngBatchParser()
    rows = []
    index = 0
    cut_iter = itertools.cycle(cuts)
    while index < len(with_ends):
        step = next(cut_iter)
        rows.extend(parser.parse_chunk("".join(with_ends[index : index + step])))
        index += step
    want_rows, want_stats = _per_line_reference("".join(with_ends))
    assert rows == want_rows
    assert parser.stats() == want_stats


def test_strace_fast_path_handles_commas_inside_strings():
    line = 'rename("/mnt/a,b,c", "/mnt/d") = 0'
    batch_rows = StraceBatchParser().parse_chunk(line + "\n")
    event = StraceParser().parse_line(line)
    assert batch_rows[0][1] == event.args
    assert batch_rows[0][1]["oldpath"] == "/mnt/a,b,c"


def _memos(parser) -> list[dict]:
    """Every memo a batch parser (and its per-line fallback) owns."""
    memos = [parser._ints]
    if isinstance(parser, LttngBatchParser):
        line_parser = parser._parser
        memos += [line_parser._field_memo, line_parser._part_memo, line_parser.ts_memo]
        if parser._rests is not None:
            # The line memo, until a fill with few hits drops it.
            memos.append(parser._rests)
    else:
        memos.append(parser._args)
    return memos


def test_memos_belong_to_each_parser_and_stay_capped(monkeypatch):
    from repro.trace import batch, lttng

    for module, name in ((lttng, "_FIELD_MEMO_CAP"), (lttng, "_PART_MEMO_CAP"),
                         (lttng, "_TS_MEMO_CAP"), (batch, "_INT_MEMO_CAP"),
                         (batch, "_ARG_MEMO_CAP"), (batch, "_REST_MEMO_CAP")):
        monkeypatch.setattr(module, name, 8)
    # Every event brings a new pid, second, path, flags value and fd.
    events = [
        make_event("openat", {"dfd": -100, "pathname": f"/mnt/test/f{i}", "flags": i},
                   i + 3, pid=i + 1, timestamp=i * 1_000_000_000)
        for i in range(40)
    ]
    texts = {
        "lttng": LttngWriter().dumps(events),
        "strace": "".join(f'[pid {i + 1}] openat(AT_FDCWD, "/mnt/test/f{i}", {i}) = {i + 3}\n'
                          for i in range(40)),
    }
    for fmt, text in texts.items():
        first, second = make_batch_parser(fmt), make_batch_parser(fmt)
        assert len(first.parse_chunk(text)) == 40
        assert not {id(m) for m in _memos(first)} & {id(m) for m in _memos(second)}
        for memo in _memos(first):
            assert 0 < len(memo) <= 8
        assert all(not memo for memo in _memos(second))


# -- the line memo ---------------------------------------------------------------

#: Comms a tracer may record: plain or empty, or with a quote, a
#: backslash or a newline (escaped, so the strict grammar declines them).
_COMMS = st.one_of(
    st.sampled_from(["tester", "", "fsx"]),
    st.sampled_from(["tester", 'say "hi"', "back\\slash", "two\nlines"]),
)


def _quoted(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


def _babeltrace_line(ns, delta, host, kind, name, cpu, comm, pid, payload) -> str:
    """One line as babeltrace prints it: any delta, cpu and host."""
    seconds, nanos = divmod(ns, 1_000_000_000)
    minutes, sec = divmod(seconds, 60)
    hours, minute = divmod(minutes, 60)
    return (
        f"[{hours % 24:02d}:{minute:02d}:{sec:02d}.{nanos:09d}] (+0.{delta:09d}) "
        f"{host} syscall_{kind}_{name}: {{ cpu_id = {cpu} }}, "
        f"{{ procname = {_quoted(comm)}, pid = {pid} }}, {{ {payload} }}"
    )


#: An event shape: what its two lines say after their stamps.
_SHAPE = st.tuples(
    st.sampled_from(["read", "readv", "write"]),  # names sharing a prefix
    st.sampled_from([7, 8]),  # pid
    st.integers(min_value=-3, max_value=3),  # retval
    st.integers(min_value=0, max_value=2),  # count
    st.booleans(),  # the exit writes its pid with a leading zero
)

#: What a process's lines share: its cpu, host and comm.
_PROCESS = st.tuples(
    st.integers(min_value=0, max_value=3), st.sampled_from(["sim", "node-2"]), _COMMS
)


@st.composite
def _babeltrace_texts(draw):
    """Writer-like text with delayed exits, dropped lines and noise.

    Events draw on a few shapes, so rests repeat and the memo gets hits.
    """
    processes = {7: draw(_PROCESS), 8: draw(_PROCESS)}
    shapes = draw(st.lists(_SHAPE, min_size=1, max_size=6))
    events = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=5),
                  st.integers(min_value=0, max_value=3)),  # exit delay, in entries
        min_size=1, max_size=40,
    ))
    slots = []
    for index, (shape, delay) in enumerate(events):
        name, pid, ret, count, zero = shapes[shape % len(shapes)]
        cpu, host, comm = processes[pid]
        ns = 3_600_000_000_000 + index * 1_234_567
        delta = index * 1_237 % 100_000
        slots.append(((index, 0, index), _babeltrace_line(
            ns, delta, host, "entry", name, cpu, comm, pid, f"fd = 3, count = {count}")))
        slots.append(((index + delay, 1, index), _babeltrace_line(
            ns + 500, delta + 1, host, "exit", name, cpu, comm,
            f"0{pid}" if zero else pid, f"ret = {ret}")))
    lines = [line for _, line in sorted(slots)]
    # A dropped entry leaves an orphan exit, a dropped exit a lone entry.
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        del lines[draw(st.integers(min_value=0, max_value=len(lines) - 1))]
    for extra in draw(st.lists(st.sampled_from(["", "not an lttng line"]), max_size=2)):
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), extra)
    return "".join(line + "\n" for line in lines)


def _parse_in_cuts(parser, text: str, cuts) -> list:
    lines = text.splitlines(keepends=True)
    rows = []
    index = 0
    cut_iter = itertools.cycle(cuts)
    while index < len(lines):
        step = next(cut_iter)
        rows.extend(parser.parse_chunk("".join(lines[index : index + step])))
        index += step
    return rows


@given(
    text=_babeltrace_texts(),
    cuts=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=5),
)
@example(  # memoized rests, and an older entry waits when the next meets its exit
    text="".join(
        _babeltrace_line(ns, 1_234, "sim", kind, "read", 0, "tester", 7, payload) + "\n"
        for ns, kind, payload in [
            (10, "entry", "fd = 3, count = 1"),
            (20, "exit", "ret = 1"),
            (30, "entry", "fd = 3, count = 1"),
            (40, "entry", "fd = 3, count = 1"),
            (50, "exit", "ret = 1"),
            (60, "exit", "ret = 1"),
        ]
    ),
    cuts=[100],
)
@settings(max_examples=150, deadline=None)
def test_lttng_memo_paths_match_per_line_parser(text, cuts):
    """Both chunk paths, memo on and switched off, equal the per-line parse.

    With the default cap no fill ends in so short a trace; with a cap
    of 2 fills end, and one with few hits hands the rest of the input,
    from that chunk on, to the full grammar.
    """
    want = _per_line_reference(text)
    for cap in (batch._REST_MEMO_CAP, 2):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(batch, "_REST_MEMO_CAP", cap)
            parser = LttngBatchParser()
            rows = _parse_in_cuts(parser, text, cuts)
        assert (rows, parser.stats()) == want, cap


def test_a_fill_with_few_hits_switches_the_memo_off(monkeypatch):
    monkeypatch.setattr(batch, "_REST_MEMO_CAP", 4)
    writer = LttngWriter()

    def events(pids, repeats, start):
        return [
            make_event("read", {"fd": 3, "count": pid}, pid, pid=pid,
                       timestamp=(start + i) * 1_000)
            for i, pid in enumerate(pid for pid in pids for _ in range(repeats))
        ]

    chunks = [
        # Three shapes, three times each: the first fill ends on the
        # third shape's entry with 8 hits for 4 misses, so it clears.
        writer.dumps(events([1, 2, 3], 3, 0)),
        # A new pid per event: the fill holding the third shape ends on
        # the second event with 4 hits for 4 misses and clears; the
        # next ends with 0 hits, on the fourth event, and the memo goes
        # off in this chunk.
        writer.dumps(events(range(100, 106), 1, 10)),
        writer.dumps(events([1, 2, 3], 2, 20)),
    ]
    parser = LttngBatchParser()
    calls = []
    for name in ("_consume_units", "_consume_matches"):
        method = getattr(parser, name)
        monkeypatch.setattr(
            parser, name, lambda *args, _m=method, _n=name: calls.append(_n) or _m(*args)
        )
    rows, paths = [], []
    for number, chunk in enumerate(chunks):
        calls.clear()
        rows += parser.parse_chunk(chunk)
        paths.append(list(calls))
        if number == 0:
            # Cleared when full: only the last shape's two rests remain.
            assert parser._rests is not None and len(parser._rests) == 2
    assert parser._rests is None
    assert paths == [
        ["_consume_units"],
        ["_consume_units", "_consume_matches"],
        ["_consume_matches"],
    ]
    assert (rows, parser.stats()) == _per_line_reference("".join(chunks))
    assert len(rows) == 9 + 6 + 6


# -- many processes, and the paths a chunk takes -----------------------------------


@given(
    events=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=40),  # pid, one of many
            st.sampled_from(["read", "write"]),
            st.integers(min_value=0, max_value=3),  # exit delay, in entries
        ),
        min_size=1, max_size=40,
    ),
    comm=st.sampled_from(["tester", 'say "hi"']),  # the second goes line by line
    memo=st.booleans(),
    dropped=st.lists(st.integers(min_value=0, max_value=80), max_size=2),
    cuts=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=5),
)
@settings(max_examples=150, deadline=None)
def test_the_pending_table_holds_only_waiting_entries(events, comm, memo, dropped, cuts):
    """Many pids, interleaved: a key leaves the table when its last entry pairs.

    After every chunk, on the memo path, the full grammar and the
    per-line path alike, each key of the table holds an entry awaiting
    its exit; rows and stats equal the per-line parse.
    """
    writer = LttngWriter()
    slots = []
    for index, (pid, name, delay) in enumerate(events):
        event = make_event(name, {"fd": 3, "count": index % 2}, 1, 0,
                           pid=1000 + pid, comm=comm, timestamp=index * 10)
        entry, exit_line = writer.format_event(event)
        slots.append(((index, 0, index), entry))
        slots.append(((index + delay, 1, index), exit_line))
    lines = [line + "\n" for _, line in sorted(slots)]
    for position in dropped:  # orphan exits and entries that never pair
        if position < len(lines):
            del lines[position]
    parser = LttngBatchParser()
    if not memo:
        parser._rests = None
    rows = []
    index = 0
    cut_iter = itertools.cycle(cuts)
    while index < len(lines):
        step = next(cut_iter)
        rows.extend(parser.parse_chunk("".join(lines[index : index + step])))
        index += step
        assert all(parser._pending.values()), parser._pending
    assert (rows, parser.stats()) == _per_line_reference("".join(lines))


def test_a_leading_zero_pid_means_the_same_to_both_grammars():
    """``pid = 07`` is malformed, whether or not the comm is escaped."""
    for comm in ("tester", 'say "hi"'):
        lines = [
            _babeltrace_line(10, 1, "sim", "entry", "read", 0, comm, "07", "fd = 3, count = 1"),
            _babeltrace_line(20, 1, "sim", "exit", "read", 0, comm, "07", "ret = 1"),
        ]
        per_line = LttngParser()
        assert [per_line.parse_line(line) for line in lines] == [None, None], comm
        assert per_line.malformed_lines == 2
        for memo in (True, False):
            parser = LttngBatchParser()
            if not memo:
                parser._rests = None
            assert parser.parse_chunk("".join(line + "\n" for line in lines)) == [], comm
            assert parser.malformed_lines == 2


def test_a_writer_shaped_chunk_never_goes_line_by_line(monkeypatch):
    """The writer's own output takes the memo path, or the full grammar
    once the memo is off; neither declines it to the per-line parser."""
    events = [
        make_event("read", {"fd": 3, "count": i % 3}, 1, pid=1 + i % 4, timestamp=i * 10)
        for i in range(40)
    ]
    adjacent = LttngWriter().dumps(events)
    # The same events with each exit written after the next entry.
    lines = adjacent.splitlines(keepends=True)
    for i in range(1, len(lines) - 2, 4):
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    for text in (adjacent, "".join(lines)):
        for memo in (True, False):
            parser = LttngBatchParser()
            if not memo:
                parser._rests = None
            monkeypatch.setattr(parser, "_consume_lines",
                                lambda lines: pytest.fail("a writer chunk went line by line"))
            rows = parser.parse_chunk(text)
            assert (rows, parser.stats()) == _per_line_reference(text)
            assert len(rows) == 40


def test_hits_before_a_decline_count_toward_the_switch(monkeypatch):
    """A declined chunk keeps the hits it counted, as it keeps its misses."""
    monkeypatch.setattr(batch, "_REST_MEMO_CAP", 4)
    writer = LttngWriter()

    def events(pids, start):
        return [make_event("read", {"fd": 3, "count": pid}, pid, pid=pid,
                           timestamp=(start + i) * 1_000)
                for i, pid in enumerate(pids)]

    # Two misses then four hits, then a line with no stamp: the chunk
    # declines and goes line by line.
    declined = writer.dumps(events([1, 1, 1], 0)) + "not an lttng line\n"
    # Two new shapes: the fill ends on the second one's entry with 4
    # hits for 4 misses, so the memo clears and stays on.
    fresh = writer.dumps(events([2, 3], 10))
    parser = LttngBatchParser()
    rows = parser.parse_chunk(declined) + parser.parse_chunk(fresh)
    assert parser.malformed_positions == []
    assert parser._rests is not None
    assert (rows, parser.stats()) == _per_line_reference(declined + fresh)


def test_an_exit_names_the_process_when_its_entry_has_no_comm():
    """An entry with an empty comm takes its exit's, paired at once or later."""
    def line(ns, kind, comm, payload):
        return _babeltrace_line(ns, 1, "sim", kind, "read", 0, comm, 7, payload) + "\n"

    entry = lambda ns: line(ns, "entry", "", "fd = 3, count = 1")
    exit_ = lambda ns: line(ns, "exit", "fsx", "ret = 1")
    # Adjacent twice (the second pair is a memo hit), then delayed.
    text = "".join([entry(10), exit_(20), entry(30), exit_(40),
                    entry(50), entry(60), exit_(70), exit_(80)])
    want = _per_line_reference(text)
    assert [row[5] for row in want[0]] == ["fsx"] * 4
    for memo in (True, False):
        parser = LttngBatchParser()
        if not memo:
            parser._rests = None
        assert (parser.parse_chunk(text), parser.stats()) == want
