"""Cross-path equivalence: every ingest path counts a trace the same way.

IOCov's filter -> variant merge -> partition -> count pipeline has one
meaning, so the same trace text must give the same report and the same
parse statistics whichever path ingests it.  Equality across paths is
the metamorphic relation used as the oracle here: the per-line
reference parser, the batch file reader, ``.rbt`` conversion, and the
live ingest session fed the text in random pieces.  The session's
quarantine must name exactly the lines the per-line parser rejects.
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IOCov
from repro.obs.ingest import QUARANTINE_CAP, IngestSession
from repro.trace import batch
from repro.trace.batch import LttngBatchParser, make_parse_stats
from repro.trace.binary import convert_file, read_rbt_events
from repro.trace.events import make_event, split_lines
from repro.trace.lttng import LttngParser, LttngWriter
from repro.trace.strace import StraceParser

MOUNT = "/mnt/test"
SUITE = "eq"

REFERENCE_PARSERS = {"lttng": LttngParser, "strace": StraceParser}

# -- trace generation ------------------------------------------------------------

_PATHS = st.sampled_from(["/mnt/test/a", "/mnt/test/d/b", "/tmp/x", "/mnt/testx"])
_FDS = st.integers(3, 6)
_PIDS = st.sampled_from([1, 2])


def _openat(path, fd, pid):
    return make_event(
        "openat", {"dfd": -100, "pathname": path, "flags": 577, "mode": 420}, fd, pid=pid
    )


def _failed_mkdir(path, pid):
    return make_event("mkdir", {"pathname": path, "mode": 493}, -17, 17, pid=pid)


_EVENTS = st.lists(
    st.one_of(
        st.builds(_openat, _PATHS, _FDS, _PIDS),
        st.builds(
            lambda fd, count, pid: make_event(
                "write", {"fd": fd, "count": count}, count, pid=pid
            ),
            _FDS, st.integers(0, 9000), _PIDS,
        ),
        st.builds(lambda fd, pid: make_event("close", {"fd": fd}, 0, pid=pid), _FDS, _PIDS),
        st.builds(
            lambda fd, new, pid: make_event("dup", {"fildes": fd}, new, pid=pid),
            _FDS, _FDS, _PIDS,
        ),
        st.builds(_failed_mkdir, _PATHS, _PIDS),
    ),
    max_size=40,
)

#: Lines no grammar accepts (each is malformed in both formats).
_JUNK = st.sampled_from(["utter garbage", "open(", "{ ret = 3 }", "[00:00:01] broken"])

#: strace lines that are skipped but never malformed.
_STRACE_NOISE = st.sampled_from([
    "--- SIGCHLD {si_signo=SIGCHLD} ---",
    "+++ exited with 0 +++",
    'write(1, "x", 1 <unfinished ...>',
    "<... write resumed>) = 1",
    "exit_group(0) = ?",
    "",
])


def _strace_line(event) -> str:
    prefix = f"[pid {event.pid}] "
    args = event.args
    if event.name == "openat":
        return (f'{prefix}openat(AT_FDCWD, "{args["pathname"]}", '
                f"O_WRONLY|O_CREAT|O_TRUNC, 0644) = {event.retval}")
    if event.name == "write":
        return f'{prefix}write({args["fd"]}, "abc"..., {args["count"]}) = {event.retval}'
    if event.name == "close":
        return f"{prefix}close({args['fd']}) = 0"
    if event.name == "dup":
        return f"{prefix}dup({args['fildes']}) = {event.retval}"
    return f'{prefix}mkdir("{args["pathname"]}", 0755) = -1 EEXIST (File exists)'


@st.composite
def traces(draw):
    """``(fmt, text)``: a rendered trace with injected bad and noise lines."""
    fmt = draw(st.sampled_from(sorted(REFERENCE_PARSERS)))
    events = draw(_EVENTS)
    if fmt == "lttng":
        lines = [line for event in events for line in LttngWriter().format_event(event)]
        # Dropping lines leaves orphan exits and unpaired entries.
        drops = draw(st.sets(st.integers(0, max(len(lines) - 1, 0)), max_size=3))
        lines = [line for index, line in enumerate(lines) if index not in drops]
        extras = st.one_of(_JUNK, st.just(""))
    else:
        lines = [_strace_line(event) for event in events]
        extras = st.one_of(_JUNK, _STRACE_NOISE)
    for extra in draw(st.lists(extras, max_size=4)):
        lines.insert(draw(st.integers(0, len(lines))), extra)
    text = "\n".join(lines)
    if lines and draw(st.booleans()):
        text += "\n"
    return fmt, text


# -- the ingest paths ------------------------------------------------------------


def _reference(fmt: str, text: str):
    parser = REFERENCE_PARSERS[fmt]()
    iocov = IOCov(mount_point=MOUNT, suite_name=SUITE).consume(parser.parse_text(text))
    unpaired = sum(len(q) for q in getattr(parser, "pending_entries", {}).values())
    stats = make_parse_stats(fmt, parser.skipped_lines, parser.malformed_lines, unpaired)
    return iocov.report().to_json(), stats


def _rejected_line_numbers(fmt: str, text: str) -> list[int]:
    parser = REFERENCE_PARSERS[fmt]()
    rejected = []
    for number, line in enumerate(split_lines(text), start=1):
        before = parser.malformed_lines
        parser.parse_line(line)
        if parser.malformed_lines != before:
            rejected.append(number)
    return rejected


def _file_paths(fmt: str, path: str, directory: str) -> dict:
    results = {}
    iocov = getattr(IOCov(mount_point=MOUNT, suite_name=SUITE), f"consume_{fmt}_file")(path)
    results["file"] = (iocov.report().to_json(), iocov.parse_stats)
    rbt = os.path.join(directory, "trace.rbt")
    convert_file(path, rbt, fmt)
    iocov = IOCov(mount_point=MOUNT, suite_name=SUITE).consume_rbt_file(rbt)
    results["rbt"] = (iocov.report().to_json(), iocov.parse_stats)
    return results


def _session(fmt: str, text: str, pieces: list[int]):
    """The live session fed *text* in pieces; returns (json, stats, quarantine)."""
    session = IngestSession(fmt, mount_point=MOUNT, suite_name=SUITE, error_budget=1.0)
    try:
        start = 0
        index = 0
        while start < len(text):
            size = pieces[index % len(pieces)]
            session.feed_text(text[start:start + size])
            start += size
            index += 1
        session.end_of_stream()
        assert session.flush()
        quarantined = [item.line_number for item in session.quarantine]
        return session.report().to_json(), session.parser.stats(), quarantined
    finally:
        session.close()


@given(trace=traces(), pieces=st.lists(st.integers(1, 300), min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_every_ingest_path_counts_the_same(trace, pieces):
    fmt, text = trace
    want = _reference(fmt, text)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, f"trace.{fmt}.txt")
        with open(path, "wb") as handle:
            handle.write(text.encode("utf-8"))
        for name, got in _file_paths(fmt, path, directory).items():
            assert got == want, name
    report, stats, quarantined = _session(fmt, text, pieces)
    assert (report, stats) == want
    rejected = _rejected_line_numbers(fmt, text)
    assert quarantined == rejected[:QUARANTINE_CAP]
    assert len(rejected) == want[1]["malformed_lines"]


# -- lines end at "\n" only --------------------------------------------------------

#: Characters str.splitlines() (or universal newlines) treats as line
#: breaks that a traced pathname may legally contain.
LINE_BREAKERS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("dirty", (False, True), ids=("clean", "malformed"))
@pytest.mark.parametrize("char", LINE_BREAKERS, ids=lambda c: f"U+{ord(c):04X}")
def test_lines_end_at_newline_only(tmp_path, char, dirty):
    events = []
    for i in range(200):
        events += [
            _openat(f"/mnt/test/f{char}{i}", 3, 1),
            make_event("write", {"fd": 3, "count": 10}, 10, pid=1),
            make_event("close", {"fd": 3}, 0, pid=1),
        ]
    lines = split_lines(LttngWriter().dumps(events))
    if dirty:
        lines.insert(len(lines) // 2, "this line is malformed")
    text = "\n".join(lines) + "\n"
    trace = tmp_path / "trace.lttng.txt"
    trace.write_bytes(text.encode("utf-8"))

    reports = {
        "consume_lttng_file": IOCov(mount_point=MOUNT, suite_name=SUITE)
        .consume_lttng_file(str(trace)).report(),
        "iter_parse_file": IOCov(mount_point=MOUNT, suite_name=SUITE)
        .consume(LttngParser().iter_parse_file(str(trace))).report(),
        "parse_text": IOCov(mount_point=MOUNT, suite_name=SUITE)
        .consume(LttngParser().parse_text(text)).report(),
    }
    session = IngestSession("lttng", mount_point=MOUNT, suite_name=SUITE)
    try:
        session.feed_text(text)
        assert session.flush()
        reports["IngestSession"] = session.report()
        assert [item.line_number for item in session.quarantine] == (
            [len(lines) // 2 + 1] if dirty else []
        )
    finally:
        session.close()
    assert reports["consume_lttng_file"].events_admitted == 600
    want = reports["consume_lttng_file"].to_json()
    for name, report in reports.items():
        assert report.to_json() == want, name


# -- string arguments survive every text path ----------------------------------------

#: Characters that once split a field block or a line, or lost the
#: arguments of the event holding them.
_AWKWARD = st.text(alphabet='an{}"\\\n\r\t\u2028é中 ,=', max_size=6)
_AWKWARD_PATHS = st.one_of(
    st.builds(lambda tail: f"/mnt/test/{tail}", _AWKWARD),
    st.builds(lambda tail: f"/tmp/{tail}", _AWKWARD),
)

_AWKWARD_EVENTS = st.lists(
    st.one_of(
        st.builds(_openat, _AWKWARD_PATHS, _FDS, _PIDS),
        st.builds(
            lambda path, fd, pid: make_event(
                "open", {"pathname": path, "flags": 0, "mode": 0}, fd, pid=pid
            ),
            _AWKWARD_PATHS, _FDS, _PIDS,
        ),
        st.builds(
            lambda fd, count, pid: make_event(
                "write", {"fd": fd, "count": count}, count, pid=pid
            ),
            _FDS, st.integers(0, 9000), _PIDS,
        ),
        st.builds(lambda fd, pid: make_event("close", {"fd": fd}, 0, pid=pid), _FDS, _PIDS),
        st.builds(
            lambda path, name, pid: make_event(
                "setxattr",
                {"pathname": path, "name": f"user.{name}", "size": 4, "flags": 0},
                0,
                pid=pid,
            ),
            _AWKWARD_PATHS, _AWKWARD, _PIDS,
        ),
        st.builds(_failed_mkdir, _AWKWARD_PATHS, _PIDS),
    ),
    max_size=30,
)


@given(events=_AWKWARD_EVENTS)
@settings(max_examples=60, deadline=None)
def test_string_arguments_survive_every_text_path(events):
    want = IOCov(mount_point=MOUNT, suite_name=SUITE).consume(events).report().to_json()
    text = LttngWriter().dumps(events)
    # The codec is exact: every argument parses back as it was written.
    parsed = LttngParser().parse_text(text)
    assert [(e.name, e.args, e.retval, e.pid) for e in parsed] == [
        (e.name, e.args, e.retval, e.pid) for e in events
    ]
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "trace.lttng.txt")
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        for name, (got, stats) in _file_paths("lttng", path, directory).items():
            assert got == want, name
            assert stats["malformed_lines"] == 0, name
            assert stats["skipped_lines"] == stats["unpaired_entries"] == 0, name


# -- the line memo switching off mid-stream -------------------------------------------

#: A small cap, so that fills of the batch parser's line memo end inside
#: these short traces.
_SMALL_REST_CAP = 8


def _memo_trace(rests_stop_repeating: bool) -> str:
    """200 events in blocks of 20 that share a path.

    Each block brings one new rest, so a fill ends with many more hits
    than misses.  With *rests_stop_repeating*, every event after the
    first 60 has a pid of its own, and the next fill has no hits.
    """
    events = []
    for i in range(200):
        pid = 1000 + i if rests_stop_repeating and i >= 60 else 1
        events += [
            _openat(f"/mnt/test/f{i // 20}", 3, pid),
            make_event("write", {"fd": 3, "count": 512}, 512, pid=pid),
            make_event("close", {"fd": 3}, 0, pid=pid),
        ]
    return LttngWriter().dumps(events)


@pytest.mark.parametrize("rests_stop_repeating", (True, False), ids=("switches", "stays-on"))
@given(
    junk_at=st.one_of(st.none(), st.integers(0, 1200)),
    pieces=st.lists(st.integers(1, 300), min_size=1, max_size=5),
)
@settings(max_examples=15, deadline=None)
def test_every_ingest_path_agrees_when_the_memo_switches(rests_stop_repeating, junk_at, pieces):
    lines = split_lines(_memo_trace(rests_stop_repeating))
    if junk_at is not None:
        lines.insert(junk_at, "utter garbage")
    text = "\n".join(lines) + "\n"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batch, "_REST_MEMO_CAP", _SMALL_REST_CAP)
        probe = LttngBatchParser()
        probe.parse_chunk(_memo_trace(rests_stop_repeating))
        assert (probe._rests is None) == rests_stop_repeating
        want = _reference("lttng", text)
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "trace.lttng.txt")
            with open(path, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
            for name, got in _file_paths("lttng", path, directory).items():
                assert got == want, name
        report, stats, quarantined = _session("lttng", text, pieces)
    assert (report, stats) == want
    assert quarantined == _rejected_line_numbers("lttng", text)
    assert len(quarantined) == (junk_at is not None)


# -- comms survive every text path ----------------------------------------------------

#: Characters that once made a comm come back empty, or split its lines.
_AWKWARD_COMMS = st.text(alphabet='a"\\\n\r{} \u2028é中', min_size=1, max_size=6)


@given(
    comms=st.lists(_AWKWARD_COMMS, min_size=1, max_size=4),
    events=_EVENTS.filter(bool),
)
@settings(max_examples=60, deadline=None)
def test_comms_survive_every_text_path(comms, events):
    events = [event._replace(comm=comms[i % len(comms)]) for i, event in enumerate(events)]
    written = [event.comm for event in events]
    want = IOCov(mount_point=MOUNT, suite_name=SUITE).consume(events).report().to_json()
    text = LttngWriter().dumps(events)
    parser = LttngParser()
    parsed = parser.parse_text(text)
    assert [event.comm for event in parsed] == written
    assert parser.malformed_lines == 0
    assert IOCov(mount_point=MOUNT, suite_name=SUITE).consume(parsed).report().to_json() == want
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "trace.lttng.txt")
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        batches = LttngBatchParser().iter_file_batches(path)
        assert [row[5] for chunk in batches for row in chunk.rows()] == written
        for name, (got, stats) in _file_paths("lttng", path, directory).items():
            assert got == want, name
            assert stats["malformed_lines"] == 0, name
        rbt = os.path.join(directory, "trace.rbt")
        assert [event.comm for event in read_rbt_events(rbt)] == written
