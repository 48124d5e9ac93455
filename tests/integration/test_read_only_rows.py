"""Rows are read-only: every consumer reads a row's args, none writes them.

The LTTng parser's memo path hands out one args dict for all the events
of a template, and its memoized fields across chunks, so a consumer
that wrote into a row's args would change other rows.  Each consumer
here is fed rows whose args are read-only mappings and must give what
it gives for the same rows with plain dicts.
"""

from __future__ import annotations

import io
from types import MappingProxyType

from repro.core import IOCov
from repro.core.filter import TraceFilter
from repro.trace.binary import RbtWriter, encode_batch
from repro.trace.lttng import LttngWriter

MOUNT = "/mnt/test"

#: Calls whose counting preps args (``creat``, ``fchdir``), open, dup
#: and close an fd, and carry a list (iovec lengths).
ROWS = [
    ("creat", {"pathname": "/mnt/test/a", "mode": 420}, 3, 0, 1, "t", 10),
    ("write", {"fd": 3, "count": 8}, 8, 0, 1, "t", 20),
    ("writev", {"fd": 3, "vlen": 2, "count": [4, 4]}, 8, 0, 1, "t", 30),
    ("open", {"pathname": "/mnt/test", "flags": 65536}, 4, 0, 1, "t", 40),
    ("fchdir", {"fd": 4}, 0, 0, 1, "t", 50),
    ("dup", {"fildes": 3}, 5, 0, 1, "t", 60),
    ("close", {"fd": 3}, 0, 0, 1, "t", 70),
    ("read", {"fd": 5, "count": 8}, -9, 9, 1, "t", 80),
    ("open", {"pathname": "/tmp/x", "flags": 0}, 6, 0, 2, "u", 90),
]


def _read_only(rows):
    return [(row[0], MappingProxyType(row[1])) + row[2:] for row in rows]


def _both(consume):
    """What *consume* gives for plain rows and for read-only rows."""
    plain = [row[:1] + (dict(row[1]),) + row[2:] for row in ROWS]
    return consume(plain), consume(_read_only(ROWS))


def test_counting_reads_read_only_args():
    def count(rows):
        iocov = IOCov(mount_point=MOUNT, suite_name="ro")
        iocov._ingest_rows(rows)
        return iocov.report().to_json(), list(iocov.untracked.items())

    plain, read_only = _both(count)
    assert plain == read_only
    assert '"O_WRONLY"' in plain[0]  # creat's prep added the implied flags


def test_the_filter_reads_read_only_args():
    def admit(rows):
        flt = TraceFilter.for_mount_point(MOUNT)
        verdicts = [flt.admit_record(row[0], row[1], row[2], row[4]) for row in rows]
        return verdicts, flt._live_fds

    plain, read_only = _both(admit)
    assert plain == read_only
    assert plain[1] == {1: {4, 5}}


def test_the_writers_read_read_only_args():
    def write(rows):
        sink = io.BytesIO()
        RbtWriter(sink).write_rows(rows)
        return LttngWriter().dumps(rows), encode_batch(rows), sink.getvalue()

    plain, read_only = _both(write)
    assert plain == read_only
