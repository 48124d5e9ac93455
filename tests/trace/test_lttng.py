"""LTTng text codec: formatting, parsing, round trips, malformed input."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_field_memo_hands_out_one_read_only_dict_per_block():
    """Rows are read-only, so a repeated field block is one dict: the
    per-line parser, the line-memo path and the full grammar all hand
    out the field memo's own dict, and counting, writing and encoding
    the rows leave it as parsed."""
    from repro.core.analyzer import IOCov
    from repro.trace.batch import LttngBatchParser
    from repro.trace.binary import encode_batch

    writer = LttngWriter()
    event = make_event("write", {"fd": 3, "count": 4096}, 4096, pid=7, timestamp=5)
    entry, _exit = writer.format_event(event)
    parser = LttngParser()
    fields = parser.parse_line(entry)[5]
    assert fields == {"fd": 3, "count": 4096}
    assert parser.parse_line(entry)[5] is fields

    text = writer.dumps([event, event])
    for memo in (True, False):
        batch = LttngBatchParser()
        if not memo:
            batch._rests = None
        rows = batch.parse_chunk(text)
        [shared] = batch._parser._field_memo.values()
        assert [row[1] for row in rows] == [{"fd": 3, "count": 4096}] * 2
        assert all(row[1] is shared for row in rows)
        IOCov().consume(rows).report()
        writer.dumps(rows)
        encode_batch(rows)
        assert shared == {"fd": 3, "count": 4096}
        assert batch.parse_chunk(text)[0][1] is shared


def test_field_memo_stays_bounded():
    from repro.trace.lttng import _FIELD_MEMO_CAP

    writer = LttngWriter()
    parser = LttngParser()
    for i in range(_FIELD_MEMO_CAP * 2 + 3):
        event = make_event("write", {"fd": 3, "count": i}, i, timestamp=i)
        entry, _exit = writer.format_event(event)
        assert parser.parse_line(entry)[5] == {"fd": 3, "count": i}
        assert len(parser._field_memo) <= _FIELD_MEMO_CAP


# -- the writer's memoized heads format what the per-event formatter did ----------


def _reference_value(value):
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


def _reference_timestamp(ns):
    seconds, nanos = divmod(ns, 1_000_000_000)
    minutes, sec = divmod(seconds, 60)
    hours, minute = divmod(minutes, 60)
    return f"{hours % 24:02d}:{minute:02d}:{sec:02d}.{nanos:09d}"


def _reference_lines(event, hostname):
    """One event's two lines, formatted field by field with no memo.

    This is the formatter the writer had before it memoized line heads,
    plus the newline escape of quoted values.
    """
    context = (
        f'{{ cpu_id = 0 }}, {{ procname = "{event.comm or "tester"}", '
        f"pid = {event.pid} }}"
    )
    fields = ", ".join(f"{key} = {_reference_value(value)}" for key, value in event.args.items())
    entry = (
        f"[{_reference_timestamp(event.timestamp)}] (+0.000000001) {hostname} "
        f"syscall_entry_{event.name}: {context}, {{ {fields} }}"
    )
    exit_line = (
        f"[{_reference_timestamp(event.timestamp + 1)}] (+0.000000001) {hostname} "
        f"syscall_exit_{event.name}: {context}, {{ ret = {event.retval} }}"
    )
    return [entry, exit_line]


_NS = 1_000_000_000

_VALUES = st.one_of(
    st.integers(-(2**70), 2**70),
    st.sampled_from([-1, 0, 2**63 - 1, 2**63, 2**64 + 1, -(2**63) - 1]),
    st.booleans(),
    st.floats(),
    st.none(),
    st.lists(st.integers(-5, 2**64), max_size=3),
    st.tuples(st.integers(0, 9), st.integers(0, 9)),
    st.text(alphabet='ab/ "\\{},=\n\té\u2028', max_size=8),
)

#: Timestamps next to the second, minute, hour and 24 h boundaries.
_TIMESTAMPS = st.one_of(
    st.integers(0, 10**15),
    st.builds(
        lambda base, delta: base + delta,
        st.sampled_from([_NS, 60 * _NS, 3600 * _NS, 86400 * _NS, 3 * 86400 * _NS]),
        st.integers(-2, 1),
    ),
)

_WRITER_EVENTS = st.lists(
    st.builds(
        make_event,
        name=st.sampled_from(["open", "write", "close"]),
        args=st.dictionaries(st.sampled_from(["pathname", "flags", "fd", "count"]), _VALUES,
                             max_size=4),
        retval=st.integers(-(2**64), 2**64),
        errno=st.just(0),
        # Few names, comms and pids: (name, comm, pid) triples repeat.
        pid=st.sampled_from([0, 1, 1000, 2**40]),
        comm=st.sampled_from(["", "tester", "fsx", "xfs_io"]),
        timestamp=_TIMESTAMPS,
    ),
    max_size=30,
)


@given(events=_WRITER_EVENTS, hostname=st.sampled_from(["sim", "host1"]))
@settings(max_examples=150, deadline=None)
def test_writer_matches_per_event_reference(events, hostname):
    want = [line for event in events for line in _reference_lines(event, hostname)]
    text = "".join(line + "\n" for line in want)
    writer = LttngWriter(hostname)
    assert [line for event in events for line in writer.format_event(event)] == want
    assert writer.dumps(events) == text
    stream = io.StringIO()
    assert writer.write(events, stream) == len(want)
    assert stream.getvalue() == text


def test_write_spans_several_batches():
    from repro.trace.lttng import _WRITE_BATCH

    events = [
        make_event("write", {"fd": 3, "count": i}, i, pid=i % 3, timestamp=i * 7919)
        for i in range(2 * _WRITE_BATCH + 5)
    ]
    stream = io.StringIO()
    assert LttngWriter().write(events, stream) == 2 * len(events)
    assert stream.getvalue() == "".join(
        line + "\n" for event in events for line in _reference_lines(event, "sim")
    )
    assert LttngWriter().write([], stream) == 0
