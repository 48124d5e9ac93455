"""``run_sharded`` ≡ sequential analysis, bit for bit.

``run_sharded`` is a deprecated name the benchmark harness still calls;
it runs the serial reader whatever *jobs* asks for.  Property-based:
random event streams (opens in and out of scope, fd reuse, dups,
closes, interleaved pids, global events) serialized to a trace file,
analyzed sequentially and through ``run_sharded`` with random job
counts — the two reports must compare equal as dicts (counts,
combinations, unclassified, untracked, event totals).
"""

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IOCov
from repro.parallel import run_sharded
from repro.trace.events import make_event
from repro.trace.lttng import LttngWriter

_PATHS = st.sampled_from(
    [
        "/mnt/test/a",
        "/mnt/test/b/c",
        "/mnt/test",
        "/mnt/tester/out",
        "/tmp/scratch",
        "/etc/fstab",
    ]
)
_FDS = st.integers(3, 12)
_PIDS = st.sampled_from([1, 2])

_EVENT = st.one_of(
    st.builds(
        lambda path, fd, ok, flags, pid: make_event(
            "openat",
            {"dfd": -100, "pathname": path, "flags": flags, "mode": 0o644},
            fd if ok else -2,
            0 if ok else 2,
            pid=pid,
        ),
        path=_PATHS,
        fd=_FDS,
        ok=st.booleans(),
        flags=st.sampled_from([0, 1, 2, 64, 577, 1089]),
        pid=_PIDS,
    ),
    st.builds(
        lambda fd, count, pid: make_event(
            "write", {"fd": fd, "count": count}, count, pid=pid
        ),
        fd=_FDS,
        count=st.sampled_from([0, 1, 511, 4096, 100_000]),
        pid=_PIDS,
    ),
    st.builds(
        lambda fd, pid: make_event("read", {"fd": fd, "count": 4096}, 0, pid=pid),
        fd=_FDS,
        pid=_PIDS,
    ),
    st.builds(
        lambda fd, pid: make_event("close", {"fd": fd}, 0, pid=pid),
        fd=_FDS,
        pid=_PIDS,
    ),
    st.builds(
        lambda fd, new, pid: make_event("dup", {"fildes": fd}, new, pid=pid),
        fd=_FDS,
        new=st.integers(3, 20),
        pid=_PIDS,
    ),
    st.builds(
        lambda path, pid: make_event("chdir", {"filename": path}, 0, pid=pid),
        path=_PATHS,
        pid=_PIDS,
    ),
    st.builds(lambda pid: make_event("sync", {}, 0, pid=pid), pid=_PIDS),
)


def _roundtrip(events, jobs, mount):
    """Write events, analyze both ways, return (sequential, sharded)."""
    handle = tempfile.NamedTemporaryFile(
        "w", suffix=".lttng.txt", delete=False
    )
    try:
        with handle:
            LttngWriter().write(events, handle)
        sequential = (
            IOCov(mount_point=mount, suite_name="eq")
            .consume_lttng_file(handle.name)
            .report()
            .to_dict()
        )
        sharded = run_sharded(
            handle.name,
            fmt="lttng",
            jobs=jobs,
            mount_point=mount,
            suite_name="eq",
        ).to_dict()
        return sequential, sharded
    finally:
        os.unlink(handle.name)


@given(events=st.lists(_EVENT, min_size=0, max_size=80), jobs=st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_sharded_equals_sequential_with_mount_filter(events, jobs):
    sequential, sharded = _roundtrip(events, jobs, "/mnt/test")
    assert sharded == sequential


@given(events=st.lists(_EVENT, min_size=1, max_size=50), jobs=st.integers(2, 6))
@settings(max_examples=25, deadline=None)
def test_sharded_equals_sequential_unfiltered(events, jobs):
    sequential, sharded = _roundtrip(events, jobs, None)
    assert sharded == sequential


def test_sharded_equals_sequential_with_real_processes(tmp_path):
    """A default-settings run, as the benchmark harness makes it."""
    events = [
        make_event(
            "openat",
            {"dfd": -100, "pathname": f"/mnt/test/f{i % 5}", "flags": i % 3},
            3 + (i % 7),
            pid=1 + (i % 2),
        )
        for i in range(200)
    ]
    events += [
        make_event("write", {"fd": 3 + (i % 7), "count": 4096}, 4096, pid=1 + (i % 2))
        for i in range(200)
    ]
    path = tmp_path / "pool.lttng.txt"
    with open(path, "w") as fh:
        LttngWriter().write(events, fh)
    sequential = (
        IOCov(mount_point="/mnt/test", suite_name="pool")
        .consume_lttng_file(str(path))
        .report()
        .to_dict()
    )
    sharded = run_sharded(
        str(path),
        fmt="lttng",
        jobs=3,
        mount_point="/mnt/test",
        suite_name="pool",
    ).to_dict()
    assert sharded == sequential


def test_interleaved_same_key_pairs_stay_exact(tmp_path):
    """Entry/exit pairs of one (pid, syscall) interleave and pair FIFO."""
    writer = LttngWriter()
    lines = []
    for i in range(150):
        a = writer.format_event(
            make_event("write", {"fd": 3, "count": i}, 7, pid=1, timestamp=10 * i)
        )
        b = writer.format_event(
            make_event("write", {"fd": 4, "count": i + 1}, 8, pid=1, timestamp=10 * i + 1)
        )
        lines += [a[0], b[0], a[1], b[1]]  # entry A, entry B, exit A, exit B
    path = tmp_path / "interleaved.lttng.txt"
    path.write_text("\n".join(lines) + "\n")
    sequential = (
        IOCov(suite_name="i").consume_lttng_file(str(path)).report().to_dict()
    )
    for jobs in (2, 5, 9):
        sharded = run_sharded(
            str(path),
            fmt="lttng",
            jobs=jobs,
            suite_name="i",
        ).to_dict()
        assert sharded == sequential, jobs


def test_strace_and_syzkaller_sharding(tmp_path):
    strace_lines = []
    for i in range(300):
        strace_lines.append(
            f'[pid 9] openat(AT_FDCWD, "/mnt/test/s{i % 4}", O_RDWR|O_CREAT, 0600) = {3 + i % 6}'
        )
        strace_lines.append(f"[pid 9] write({3 + i % 6}, \"z\"..., 128) = 128")
        if i % 5 == 0:
            strace_lines.append(f"[pid 9] close({3 + i % 6}) = 0")
    spath = tmp_path / "cap.strace.log"
    spath.write_text("\n".join(strace_lines) + "\n")
    sequential = (
        IOCov(mount_point="/mnt/test", suite_name="s")
        .consume_strace_file(str(spath))
        .report()
        .to_dict()
    )
    sharded = run_sharded(
        str(spath),
        fmt="strace",
        jobs=4,
        mount_point="/mnt/test",
        suite_name="s",
    ).to_dict()
    assert sharded == sequential

    syz_lines = []
    for i in range(200):
        syz_lines.append(
            f"r{i} = openat(0xffffffffffffff9c, &(0x7f0000000040)='./g{i % 3}\\x00', 0x42, 0x1ff)"
        )
        if i:
            syz_lines.append(f"write(r{i - 1}, &(0x7f0000000080)=\"61\", 0x1)")
    zpath = tmp_path / "prog.syz"
    zpath.write_text("\n".join(syz_lines) + "\n")
    sequential = (
        IOCov(suite_name="z").consume_syzkaller_file(str(zpath)).report().to_dict()
    )
    sharded = run_sharded(
        str(zpath),
        fmt="syzkaller",
        jobs=5,
        suite_name="z",
    ).to_dict()
    assert sharded == sequential
