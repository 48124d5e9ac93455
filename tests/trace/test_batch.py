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
    else:
        memos.append(parser._args)
    return memos


def test_memos_belong_to_each_parser_and_stay_capped(monkeypatch):
    from repro.trace import batch, lttng

    for module, name in ((lttng, "_FIELD_MEMO_CAP"), (lttng, "_PART_MEMO_CAP"),
                         (lttng, "_TS_MEMO_CAP"), (batch, "_INT_MEMO_CAP"),
                         (batch, "_ARG_MEMO_CAP")):
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
