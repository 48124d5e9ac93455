"""``run_sharded``'s ``stats``: the topology and parse fields it still fills.

``run_sharded`` runs the serial reader; the benchmark harness reads its
``jobs_effective``, ``shards`` and ``parse`` fields, so each must match
what the serial pass itself reports.
"""

from __future__ import annotations

import os

import pytest

from repro.core import IOCov
from repro.parallel import run_sharded

FIXTURE = os.path.join(os.path.dirname(__file__), "..", "fixtures", "mini.lttng.txt")
MOUNT = "/mnt/test"


def _sequential(path: str, fmt: str = "lttng", mount: str | None = MOUNT) -> IOCov:
    iocov = IOCov(mount_point=mount, suite_name="s")
    getattr(iocov, f"consume_{fmt}_file")(path)
    return iocov


def test_jobs_clamped_to_cpu_count():
    stats: dict = {}
    run_sharded(FIXTURE, jobs=512, mount_point=MOUNT, suite_name="s", stats=stats)
    assert stats["jobs_requested"] == 512
    assert stats["jobs_effective"] <= (os.cpu_count() or 1)


def test_sharded_parse_stats_match_serial(tmp_path):
    # Malformed and skipped lines mixed in: both counts must reach the
    # stats unchanged.
    lines = []
    for i in range(2048):
        lines.append(f'openat(AT_FDCWD, "/mnt/test/f{i % 7}", 0x2, 0644) = {3 + i % 5}')
        lines.append(f"write({3 + i % 5}, \"x\"..., {1 << (i % 20)}) = {1 << (i % 20)}")
        if i % 97 == 0:
            lines.append("### malformed noise ###")
        if i % 131 == 0:
            lines.append("exit_group(0) = ?")
    path = tmp_path / "t.strace"
    path.write_text("\n".join(lines) + "\n")
    serial = _sequential(str(path), fmt="strace")
    stats: dict = {}
    with pytest.warns(DeprecationWarning):
        report = run_sharded(
            str(path),
            fmt="strace",
            jobs=4,
            mount_point=MOUNT,
            suite_name="s",
            stats=stats,
        )
    assert stats["shards"] == 1
    assert report.to_dict() == serial.report().to_dict()
    assert stats["parse"] == serial.parse_stats
    assert stats["parse"]["malformed_lines"] > 0
    assert stats["parse"]["skipped_lines"] > 0


def test_lttng_sharded_parse_stats_include_stitch_residue(tmp_path):
    # An exit whose entry is missing and an entry whose exit is missing
    # are each counted once, exactly as the serial pass counts them.
    import random

    from repro.trace.events import make_event
    from repro.trace.lttng import LttngWriter

    rng = random.Random(11)
    events = [
        make_event(
            "write",
            {"fd": 3, "count": rng.randrange(1, 1 << 30)},
            4096,
            0,
            pid=rng.randrange(1, 3),
            comm="t",
            timestamp=i * 10,
        )
        for i in range(300)
    ]
    text = LttngWriter().dumps(events)
    lines = text.splitlines()
    # Orphan exit at the head, unpaired entry at the tail.
    mangled = "\n".join(lines[1:-1]) + "\n"
    path = tmp_path / "t.lttng.txt"
    path.write_text(mangled)
    serial = _sequential(str(path), mount=None)
    stats: dict = {}
    report = run_sharded(str(path), jobs=3, suite_name="s", stats=stats)
    assert stats["shards"] == 1
    assert report.to_dict() == serial.report().to_dict()
    assert stats["parse"] == serial.parse_stats
    assert stats["parse"]["skipped_lines"] == 1
    assert stats["parse"]["unpaired_entries"] == 1


def test_sharded_binary_deferred_path_stays_exact(tmp_path):
    # An fd closed and reopened under the same number: every write must
    # land on the reopened file, as in the serial pass.
    lines = ['openat(AT_FDCWD, "/mnt/test/f", 0x2, 0644) = 3']
    for i in range(400):
        lines.append(f'write(3, "x"..., {1 << (i % 16)}) = {1 << (i % 16)}')
        if i % 50 == 49:
            lines.append("close(3) = 0")
            lines.append('openat(AT_FDCWD, "/mnt/test/f", 0x2, 0644) = 3')
    path = tmp_path / "t.strace"
    path.write_text("\n".join(lines) + "\n")
    serial = _sequential(str(path), fmt="strace")
    stats: dict = {}
    report = run_sharded(
        str(path),
        fmt="strace",
        jobs=4,
        mount_point=MOUNT,
        suite_name="s",
        stats=stats,
    )
    assert stats["shards"] == 1
    assert report.to_dict() == serial.report().to_dict()
