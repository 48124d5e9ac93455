"""Push-mode ingest: traces fed in arbitrary pieces, malformed positions.

``repro push`` streams a trace to the daemon in network-sized pieces.
:class:`IngestSession` parses them with one persistent batch parser,
which keeps LTTng entry/exit pairing and syzkaller resource bindings
alive across feeds and reports where the malformed lines of each chunk
are.  These tests pin both halves: streamed counts equal the per-line
reference, and noise (blank lines, strace signal/exit annotations,
interrupted-call halves, unknown returns, syzkaller comments) is never
reported malformed.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IOCov
from repro.obs.ingest import IngestSession
from repro.trace.batch import LttngBatchParser, StraceBatchParser, SyzkallerBatchParser
from repro.trace.events import make_event
from repro.trace.lttng import LttngParser, LttngWriter
from repro.trace.strace import StraceParser
from repro.trace.syzkaller import SyzkallerParser

MINI = "tests/fixtures/mini.lttng.txt"

_EVENT = st.builds(
    make_event,
    name=st.sampled_from(["open", "openat", "write", "read", "lseek", "close"]),
    args=st.dictionaries(
        st.sampled_from(["pathname", "flags", "mode", "fd", "count", "whence"]),
        st.integers(min_value=-(2**31), max_value=2**31),
        max_size=4,
    ),
    retval=st.integers(min_value=-133, max_value=2**31),
    errno=st.just(0),
    pid=st.integers(min_value=0, max_value=65535),
    comm=st.just("tester"),
    timestamp=st.integers(min_value=0, max_value=10**12),
)

ENTRY = ('[00:00:00.000000001] (+0.000000001) sim syscall_entry_close:'
         ' { cpu_id = 0 }, { procname = "t", pid = 5 }, { fd = 3 }')
ORPHAN_EXIT = ('[00:00:00.000000002] (+0.000000001) sim syscall_exit_read:'
               ' { cpu_id = 0 }, { procname = "t", pid = 5 }, { ret = 0 }')


def _pushed(fmt: str, text: str, piece: int, mount_point=None):
    """Feed *text* in *piece*-sized pieces; returns (report dict, session)."""
    session = IngestSession(fmt, mount_point=mount_point, suite_name="push")
    try:
        for start in range(0, len(text), piece):
            session.feed_text(text[start:start + piece])
        session.end_of_stream()
        assert session.flush()
        return session.report().to_dict(), session
    finally:
        session.close()


def _reference(parser, text: str, mount_point=None) -> dict:
    events = parser.parse_text(text)
    iocov = IOCov(mount_point=mount_point, suite_name="push")
    return iocov.consume(events).report().to_dict()


@given(events=st.lists(_EVENT, max_size=15), piece=st.integers(1, 400))
@settings(max_examples=60, deadline=None)
def test_lttng_push_parity_any_split(events, piece):
    """Pushed in arbitrary pieces == the per-line parse, for any trace."""
    text = LttngWriter().dumps(events)
    pushed, session = _pushed("lttng", text, piece)
    assert pushed == _reference(LttngParser(), text)
    assert session.parser.malformed_lines == 0


@pytest.mark.parametrize("piece", (7, 211, 1 << 20))
def test_lttng_push_parity_real_fixture(piece):
    with open(MINI, encoding="utf-8", newline="\n") as handle:
        text = handle.read()
    pushed, session = _pushed("lttng", text, piece, mount_point="/mnt/test")
    assert pushed == _reference(LttngParser(), text, mount_point="/mnt/test")
    assert session.quarantine == []


def test_lttng_pending_entries_and_orphan_exits():
    parser = LttngBatchParser()
    rows = parser.parse_chunk(f"{ORPHAN_EXIT}\n{ENTRY}\n")
    # Mid-stream start: the orphan exit is a benign skip, not malformed.
    assert rows == [] and parser.malformed_positions == []
    assert parser.unpaired_entries == 1
    assert parser.stats()["skipped_lines"] == 1
    assert parser.malformed_lines == 0


def test_lttng_malformed_detection():
    parser = LttngBatchParser()
    rows = parser.parse_chunk(f"{ENTRY}\nutter garbage\n\n")
    assert rows == []
    assert parser.malformed_positions == [1]  # the blank line is not
    assert parser.malformed_lines == 1
    assert parser.skipped_lines == 2
    # A clean chunk after a dirty one reports no positions.
    parser.parse_chunk(ENTRY + "\n")
    assert parser.malformed_positions == []


def test_strace_push_parity():
    text = (
        'open("/mnt/test/f", O_RDONLY|O_CLOEXEC) = 3\n'
        "read(3, 100) = 100\n"
        "close(3) = 0\n"
        'open("/mnt/test/missing", O_WRONLY) = -1 ENOENT (No such file)\n'
    )
    pushed, session = _pushed("strace", text, 13)
    assert pushed == _reference(StraceParser(), text)
    assert session.events_counted == 4


def test_strace_noise_is_not_malformed():
    noise = [
        "--- SIGCHLD {si_signo=SIGCHLD} ---",
        "+++ exited with 0 +++",
        'write(1, "x", 1 <unfinished ...>',
        "<... write resumed>) = 1",
        "exit_group(0) = ?",
        "",
    ]
    parser = StraceBatchParser()
    rows = parser.parse_chunk("\n".join(noise + ["complete nonsense here"]) + "\n")
    assert rows == []
    assert parser.malformed_positions == [len(noise)]
    assert parser.malformed_lines == 1
    # Each noise line on its own, too (the fast path declines them all).
    for line in noise:
        parser.parse_chunk(line + "\n")
        assert parser.malformed_positions == [], line
    assert parser.malformed_lines == 1


def test_syzkaller_push_keeps_resource_bindings():
    text = 'r0 = open(&(0x7f0000000000)="2f746d702f78", 0x2, 0x1ff)\nclose(r0)\n'
    pushed, session = _pushed("syzkaller", text, 9)
    assert pushed == _reference(SyzkallerParser(), text)
    assert session.events_counted == 2


def test_syzkaller_malformed_detection():
    parser = SyzkallerBatchParser()
    rows = parser.parse_chunk(
        "# a comment\n]]]]not a program[[[\n\nclose(0x3)  # trailing comment\n"
    )
    assert [row[0] for row in rows] == ["close"]
    assert parser.malformed_positions == [1]
    assert parser.malformed_lines == 1


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        IngestSession("dtrace")
