"""LTTng text codec: formatting, parsing, round trips, malformed input."""

import pytest

from repro.trace.events import make_event
from repro.trace.lttng import LttngParseError, LttngParser, LttngWriter
from repro.vfs import constants as C


def test_format_event_produces_entry_exit_pair():
    writer = LttngWriter(hostname="host1")
    event = make_event(
        "openat",
        {"dfd": C.AT_FDCWD, "pathname": "/mnt/test/f", "flags": 577, "mode": 0o644},
        3,
        pid=42,
        comm="fsx",
        timestamp=1_000_000_007,
    )
    entry, exit_line = writer.format_event(event)
    assert "syscall_entry_openat" in entry
    assert 'pathname = "/mnt/test/f"' in entry
    assert "flags = 577" in entry
    assert 'procname = "fsx"' in entry
    assert "syscall_exit_openat" in exit_line
    assert "ret = 3" in exit_line
    assert "host1" in entry


def test_roundtrip_single_event():
    writer, parser = LttngWriter(), LttngParser()
    event = make_event(
        "write", {"fd": 3, "count": 4096}, 4096, pid=7, comm="w", timestamp=55
    )
    parsed = parser.parse_text(writer.dumps([event]))
    assert len(parsed) == 1
    got = parsed[0]
    assert got.name == "write"
    assert got.args == {"fd": 3, "count": 4096}
    assert got.retval == 4096
    assert got.pid == 7


def test_roundtrip_preserves_failures():
    writer, parser = LttngWriter(), LttngParser()
    event = make_event("open", {"pathname": "/x", "flags": 0}, -2, 2)
    got = parser.parse_text(writer.dumps([event]))[0]
    assert got.retval == -2 and got.errno == 2


def test_roundtrip_none_argument():
    writer, parser = LttngWriter(), LttngParser()
    event = make_event("open", {"pathname": None, "flags": 0}, -14, 14)
    got = parser.parse_text(writer.dumps([event]))[0]
    assert got.args["pathname"] is None


def test_roundtrip_string_escaping():
    writer, parser = LttngWriter(), LttngParser()
    tricky = '/dir/with "quotes" and \\slash'
    event = make_event("open", {"pathname": tricky, "flags": 0}, 3)
    got = parser.parse_text(writer.dumps([event]))[0]
    assert got.args["pathname"] == tricky


def test_roundtrip_negative_int_argument():
    writer, parser = LttngWriter(), LttngParser()
    event = make_event("openat", {"dfd": C.AT_FDCWD, "pathname": "/f", "flags": 0}, 3)
    got = parser.parse_text(writer.dumps([event]))[0]
    assert got.args["dfd"] == C.AT_FDCWD


def test_interleaved_pids_pair_correctly():
    writer, parser = LttngParser(), None
    w = LttngWriter()
    a = make_event("read", {"fd": 3, "count": 10}, 10, pid=1, timestamp=10)
    b = make_event("read", {"fd": 4, "count": 20}, 20, pid=2, timestamp=11)
    lines_a = w.format_event(a)
    lines_b = w.format_event(b)
    # Interleave: entry A, entry B, exit A, exit B.
    text = "\n".join([lines_a[0], lines_b[0], lines_a[1], lines_b[1]])
    parsed = LttngParser().parse_text(text)
    by_pid = {event.pid: event for event in parsed}
    assert by_pid[1].retval == 10
    assert by_pid[2].retval == 20


def test_unpaired_entry_dropped():
    w = LttngWriter()
    event = make_event("read", {"fd": 3, "count": 10}, 10)
    entry, _exit = w.format_event(event)
    assert LttngParser().parse_text(entry) == []


def test_exit_without_entry_skipped():
    w = LttngWriter()
    event = make_event("read", {"fd": 3, "count": 10}, 10)
    _entry, exit_line = w.format_event(event)
    parser = LttngParser()
    assert parser.parse_text(exit_line) == []
    assert parser.skipped_lines == 1


def test_garbage_lines_skipped_by_default():
    parser = LttngParser()
    assert parser.parse_text("not a trace line\n\n???") == []
    assert parser.skipped_lines >= 1


def test_garbage_line_strict_raises():
    with pytest.raises(LttngParseError):
        LttngParser(strict=True).parse_text("definitely not a trace line")


def test_parse_file(tmp_path):
    writer = LttngWriter()
    events = [
        make_event("mkdir", {"pathname": f"/d{i}", "mode": 0o755}, 0, timestamp=i)
        for i in range(10)
    ]
    path = tmp_path / "trace.txt"
    with open(path, "w") as handle:
        assert writer.write(events, handle) == 20  # entry+exit per event
    parsed = LttngParser().parse_file(str(path))
    assert [event.args["pathname"] for event in parsed] == [f"/d{i}" for i in range(10)]


def test_live_trace_roundtrip(sc, recorder):
    """Full pipeline: VFS -> recorder -> text -> parser."""
    sc.mkdir("/mnt", 0o755)
    fd = sc.open("/mnt/f", C.O_CREAT | C.O_WRONLY, 0o644).retval
    sc.write(fd, count=100)
    sc.close(fd)
    text = LttngWriter().dumps(recorder.events)
    parsed = LttngParser().parse_text(text)
    assert len(parsed) == len(recorder.events)
    assert [event.name for event in parsed] == [
        event.name for event in recorder.events
    ]
    for got, want in zip(parsed, recorder.events):
        assert got.retval == want.retval
        assert dict(got.args) == dict(want.args)


def test_field_memo_hands_out_unaliased_dicts():
    from repro.trace.batch import LttngBatchParser

    writer = LttngWriter()
    event = make_event("write", {"fd": 3, "count": 4096}, 4096, pid=7, timestamp=5)
    entry, _exit = writer.format_event(event)
    parser = LttngParser()
    first = parser.parse_line(entry)[5]
    second = parser.parse_line(entry)[5]
    assert first == second == {"fd": 3, "count": 4096}
    assert first is not second
    first["count"] = 0
    first["extra"] = 1
    assert second == {"fd": 3, "count": 4096}
    assert parser.parse_line(entry)[5] == {"fd": 3, "count": 4096}

    # The batch fast path shares the memo and its rows share no dicts.
    batch = LttngBatchParser()
    rows = batch.parse_chunk(writer.dumps([event, event]))
    assert [row[1] for row in rows] == [{"fd": 3, "count": 4096}] * 2
    assert rows[0][1] is not rows[1][1]
    rows[0][1].clear()
    assert rows[1][1] == {"fd": 3, "count": 4096}
    assert batch.parse_chunk(writer.dumps([event]))[0][1] == {"fd": 3, "count": 4096}


def test_field_memo_stays_bounded():
    from repro.trace.lttng import _FIELD_MEMO_CAP

    writer = LttngWriter()
    parser = LttngParser()
    for i in range(_FIELD_MEMO_CAP * 2 + 3):
        event = make_event("write", {"fd": 3, "count": i}, i, timestamp=i)
        entry, _exit = writer.format_event(event)
        assert parser.parse_line(entry)[5] == {"fd": 3, "count": i}
        assert len(parser._field_memo) <= _FIELD_MEMO_CAP
