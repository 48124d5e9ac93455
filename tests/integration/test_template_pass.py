"""Counting the LTTng parser's batches as they come equals the row loop.

The batch parser hands a chunk it reads through its line memo out as a
templated :class:`~repro.trace.batch.EventBatch`, and
:meth:`IOCov.consume_batch` counts such a batch per template.  Chunks on
the full grammar or line by line stay rows.  For every filter, the
parser's batches counted as they come must leave what
:meth:`IOCov._ingest_rows` leaves over the same rows: the report, the
event counters, the ``untracked`` order and the filter's fd table.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import IOCov
from repro.core.filter import AcceptAllFilter, TraceFilter
from repro.trace.batch import LttngBatchParser
from repro.trace.events import make_event
from repro.trace.lttng import LttngParser, LttngWriter

MOUNT = "/mnt/test"

#: Every filter shape counting may meet.
FILTERS = {
    "mount": lambda: TraceFilter.for_mount_point(MOUNT),
    "exclude": lambda: TraceFilter(include=r"^/mnt/test(/|$)", exclude=r"/mnt/test/scratch"),
    "no-failed-opens": lambda: TraceFilter.for_mount_point(MOUNT, keep_failed_opens=False),
    "no-global": lambda: TraceFilter.for_mount_point(MOUNT, keep_global=False),
    "accept-all": AcceptAllFilter,
}

#: Paths inside the mount, inside its excluded part, and outside it.
_PATHS = ["/mnt/test/f", "/mnt/test/scratch/x", "/tmp/x"]
_FDS = st.sampled_from([0, 3, 4])


def _open(name, path, retval):
    args = {"pathname": path, "flags": 577, "mode": 420}
    if name == "openat":
        args = {"dfd": -100, **args}
    return name, args, retval


_CALLS = st.one_of(
    # Opens onto fd 0 and others, failed opens with and without a path.
    st.builds(_open, st.sampled_from(["open", "openat", "creat"]),
              st.sampled_from(_PATHS + [None]), st.sampled_from([0, 3, 4, -2])),
    st.builds(lambda name, fd, ret: (name, {"fd": fd, "count": 8}, ret),
              st.sampled_from(["read", "write"]), _FDS, st.sampled_from([8, -9])),
    st.builds(lambda fd: ("lseek", {"fd": fd, "offset": 0, "whence": 0}, 0), _FDS),
    st.builds(lambda fd, ret: ("close", {"fd": fd}, ret), _FDS, st.sampled_from([0, -9])),
    st.builds(lambda fd, ret: ("dup", {"fildes": fd}, ret), _FDS, st.sampled_from([0, 4, -9])),
    st.builds(lambda old, new: ("dup2", {"oldfd": old, "newfd": new}, new), _FDS, _FDS),
    st.builds(lambda path: ("chdir", {"filename": path}, 0), st.sampled_from(_PATHS)),
    st.builds(lambda path: ("rename", {"oldpath": path, "newpath": path + "2"}, 0),
              st.sampled_from(_PATHS)),
    st.just(("sync", {}, 0)),
)


@st.composite
def _traces(draw):
    """Writer text for many pids with interleaved entries and exits.

    A few calls repeat, so most chunks take the line memo; an escaped
    comm sends its chunk line by line.
    """
    calls = draw(st.lists(_CALLS, min_size=1, max_size=8))
    steps = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=len(calls) - 1),
            st.integers(min_value=0, max_value=30),  # pid, one of many
            st.integers(min_value=0, max_value=2),  # exit delay, in entries
            st.sampled_from(["tester"] * 9 + ['say "hi"']),
        ),
        min_size=1, max_size=60,
    ))
    writer = LttngWriter()
    slots = []
    for index, (call, pid, delay, comm) in enumerate(steps):
        name, args, retval = calls[call]
        event = make_event(name, args, retval, -retval if retval < 0 else 0,
                           pid=1000 + pid, comm=comm, timestamp=index * 10)
        entry, exit_line = writer.format_event(event)
        slots.append(((index, 0, index), entry))
        slots.append(((index + delay, 1, index), exit_line))
    return [line + "\n" for _, line in sorted(slots)]


def _batches(lines, cuts):
    parser = LttngBatchParser()
    batches = []
    index = 0
    for step in itertools.cycle(cuts):
        if index >= len(lines):
            return batches
        batches.append(parser.parse_batch("".join(lines[index : index + step])))
        index += step


def _outcome(iocov):
    return (
        iocov.report().to_json(),
        iocov.events_processed,
        iocov.events_admitted,
        list(iocov.untracked.items()),
        getattr(iocov.filter, "_live_fds", None),
    )


@given(
    lines=_traces(),
    cuts=st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=4),
)
@example(  # fd 0 opened, read, duplicated and closed by one pid, in one chunk
    lines=[
        line + "\n"
        for event in [
            make_event("open", {"pathname": "/mnt/test/f", "flags": 0}, 0, pid=5, timestamp=1),
            make_event("read", {"fd": 0, "count": 8}, 8, pid=5, timestamp=2),
            make_event("dup", {"fildes": 0}, 3, pid=5, timestamp=3),
            make_event("close", {"fd": 0}, 0, pid=5, timestamp=4),
            make_event("read", {"fd": 3, "count": 8}, 8, pid=5, timestamp=5),
            make_event("read", {"fd": 0, "count": 8}, 8, pid=5, timestamp=6),
        ]
        for line in LttngWriter().format_event(event)
    ],
    cuts=[100],
)
@settings(max_examples=150, deadline=None)
def test_counting_batches_as_they_come_equals_the_row_loop(lines, cuts):
    batches = _batches(lines, cuts)
    for name, make_filter in FILTERS.items():
        templated = IOCov(trace_filter=make_filter(), suite_name="t")
        rows = IOCov(trace_filter=make_filter(), suite_name="t")
        for batch in batches:
            templated.consume_batch(batch)
            rows._ingest_rows(batch.iter_rows())
        assert _outcome(templated) == _outcome(rows), name


def test_a_writer_shaped_chunk_is_counted_by_the_template_pass(monkeypatch, tmp_path):
    """The writer's own text takes the template pass, never the row loop."""
    events = [
        make_event(name, args, retval, pid=1 + i % 3, timestamp=i * 10)
        for i in range(60)
        for name, args, retval in [
            ("open", {"pathname": "/mnt/test/f", "flags": 0}, 3),
            ("write", {"fd": 3, "count": i % 4}, i % 4),
            ("close", {"fd": 3}, 0),
        ]
    ]
    path = tmp_path / "trace.lttng.txt"
    path.write_text(LttngWriter().dumps(events))
    want = IOCov(mount_point=MOUNT).consume(events).report().to_json()
    batch = LttngBatchParser().parse_batch(path.read_text())
    templates, ids, stamps = batch.templated
    assert len(ids) == len(stamps) == len(events)
    # A distinct event's first pair misses the line memo and pairs
    # through the pending table as a template of its own; its repeats
    # share one template.
    distinct = {(e.name, tuple(e.args.items()), e.retval, e.errno, e.pid, e.comm) for e in events}
    assert len(templates) == 2 * len(distinct) < len(events) / 4
    monkeypatch.setattr(IOCov, "_ingest_rows",
                        lambda self, rows: pytest.fail("a templated batch went to the row loop"))
    assert IOCov(mount_point=MOUNT).consume_lttng_file(str(path)).report().to_json() == want


class _Lookups:
    """A parser's ``HH:MM:SS`` memo that notes each stamp it converts."""

    def __init__(self, memo, seen):
        self._memo = memo
        self._seen = seen

    def __getitem__(self, label):
        self._seen.append(label)
        return self._memo[label]


def test_counting_converts_only_the_stamps_of_waiting_entries(monkeypatch, tmp_path):
    """Counting reads no timestamp, so a templated event's stays text.

    Only an entry that waits in the pending table converts its stamp:
    here each distinct event's first pair (each entry says its exit), as
    above.  Reading the rows converts the rest, each stamp once.
    """
    events = []
    for i in range(50):
        for name, args, retval in [
            ("openat", {"dfd": -100, "pathname": "/mnt/test/f", "flags": 65, "mode": 420}, 3),
            ("read", {"fd": 3, "count": i % 5}, i % 5),
            ("close", {"fd": 3}, 0),
        ]:
            # Stamps 0.3 s apart: they span many seconds.
            events.append(make_event(name, args, retval, pid=1 + i % 2,
                                     timestamp=len(events) * 300_000_007))
    text = LttngWriter().dumps(events)
    path = tmp_path / "trace.lttng.txt"
    path.write_text(text)
    converted = []
    init = LttngParser.__init__

    def init_recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.ts_memo = _Lookups(self.ts_memo, converted)

    monkeypatch.setattr(LttngParser, "__init__", init_recording)
    want = IOCov(mount_point=MOUNT).consume(events).report().to_json()
    assert IOCov(mount_point=MOUNT).consume_lttng_file(str(path)).report().to_json() == want
    distinct = {(e.name, tuple(e.args.items()), e.retval, e.pid) for e in events}
    assert len(converted) == len(distinct) == 14
    converted.clear()
    rows = LttngBatchParser().parse_chunk(text)
    assert [row[-1] for row in rows] == [event.timestamp for event in events]
    assert len(converted) == len(events)
