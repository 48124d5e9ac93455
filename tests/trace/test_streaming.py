"""Streaming ingestion and zero-copy recorder access."""

from repro.core import IOCov
from repro.trace.events import make_event
from repro.trace.lttng import LttngParser, LttngWriter
from repro.trace.recorder import TraceRecorder
from repro.trace.strace import StraceParser
from repro.trace.syzkaller import SyzkallerParser


def _sample_events():
    return [
        make_event("open", {"pathname": f"/mnt/test/f{i}", "flags": i % 4}, 3 + i, pid=1)
        for i in range(25)
    ] + [make_event("write", {"fd": 3, "count": 100}, 100, pid=1)]


# -- iter_parse_file ≡ parse_file ---------------------------------------------


def test_lttng_iter_parse_file_matches_parse_file(tmp_path):
    path = tmp_path / "t.lttng.txt"
    with open(path, "w") as fh:
        LttngWriter().write(_sample_events(), fh)
    eager = LttngParser().parse_file(str(path))
    streamed_iter = LttngParser().iter_parse_file(str(path))
    assert not isinstance(streamed_iter, list)  # a generator, not a list
    assert list(streamed_iter) == eager


def test_strace_iter_parse_file_matches_parse_file(tmp_path):
    path = tmp_path / "cap.log"
    path.write_text(
        'openat(AT_FDCWD, "/mnt/test/x", O_RDONLY) = 3\n'
        'read(3, "", 512) = 0\n'
        "close(3) = 0\n"
    )
    assert list(StraceParser().iter_parse_file(str(path))) == StraceParser().parse_file(
        str(path)
    )


def test_syzkaller_iter_parse_file_matches_parse_file(tmp_path):
    path = tmp_path / "prog.syz"
    path.write_text(
        "r0 = openat(0xffffffffffffff9c, &(0x7f0000000040)='./f\\x00', 0x42, 0x1ff)\n"
        "close(r0)\n"
    )
    assert list(
        SyzkallerParser().iter_parse_file(str(path))
    ) == SyzkallerParser().parse_file(str(path))


# -- consume streams ------------------------------------------------------------


def test_consume_generator_matches_list(tmp_path):
    """A one-shot parser generator counts the same as a materialized list."""
    events = _sample_events()
    direct = IOCov(mount_point="/mnt/test").consume(events).report().to_dict()
    path = tmp_path / "t.lttng.txt"
    with open(path, "w") as fh:
        LttngWriter().write(events, fh)
    streamed = (
        IOCov(mount_point="/mnt/test")
        .consume(LttngParser().iter_parse_file(str(path)))
        .report()
        .to_dict()
    )
    assert streamed == direct


# -- recorder access semantics -------------------------------------------------


def test_recorder_events_property_copies():
    recorder = TraceRecorder()
    recorder(make_event("sync", {}, 0))
    snapshot = recorder.events
    snapshot.append("sentinel")
    assert len(recorder) == 1  # internal buffer untouched


def test_recorder_iter_events_is_zero_copy():
    recorder = TraceRecorder()
    for event in _sample_events():
        recorder(event)
    iterated = list(recorder.iter_events())
    assert iterated == recorder.events
    assert list(recorder) == iterated  # __iter__ too


def test_recorder_drain_hands_over_buffer():
    recorder = TraceRecorder()
    events = _sample_events()
    for event in events:
        recorder(event)
    drained = recorder.drain()
    assert drained == events
    assert len(recorder) == 0
    # recording continues into a fresh buffer
    recorder(make_event("sync", {}, 0))
    assert len(recorder) == 1
    assert len(drained) == len(events)
