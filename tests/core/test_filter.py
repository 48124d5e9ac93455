"""Trace filter: mount-point scoping with fd tracking."""

import pytest

from repro.core.filter import AcceptAllFilter, TraceFilter
from repro.trace.events import make_event
from repro.vfs import constants as C


def ev(name, args, retval=0, errno=0, pid=1):
    return make_event(name, args, retval, errno, pid=pid)


@pytest.fixture
def flt() -> TraceFilter:
    return TraceFilter.for_mount_point("/mnt/test")


def test_path_in_scope(flt):
    assert flt.path_in_scope("/mnt/test/f")
    assert flt.path_in_scope("/mnt/test")
    assert not flt.path_in_scope("/mnt/tester")  # prefix but wrong dir
    assert not flt.path_in_scope("/tmp/x")
    assert not flt.path_in_scope("/mnt")


def test_open_admitted_by_path(flt):
    assert flt.admit(ev("open", {"pathname": "/mnt/test/f", "flags": 0}, 3))
    assert not flt.admit(ev("open", {"pathname": "/etc/passwd", "flags": 0}, 4))


def test_fd_events_follow_their_open(flt):
    assert flt.admit(ev("open", {"pathname": "/mnt/test/f", "flags": 0}, 3))
    assert flt.admit(ev("read", {"fd": 3, "count": 100}, 100))
    assert flt.admit(ev("close", {"fd": 3}, 0))
    # After close the fd is foreign again.
    assert not flt.admit(ev("read", {"fd": 3, "count": 100}, 100))


def test_foreign_fd_events_dropped(flt):
    flt.admit(ev("open", {"pathname": "/var/log/x", "flags": 0}, 7))
    assert not flt.admit(ev("write", {"fd": 7, "count": 10}, 10))
    assert not flt.admit(ev("close", {"fd": 7}, 0))


def test_failed_open_with_matching_path_kept(flt):
    event = ev("open", {"pathname": "/mnt/test/missing", "flags": 0}, -2, 2)
    assert flt.admit(event)


def test_failed_open_can_be_dropped():
    flt = TraceFilter.for_mount_point("/mnt/test", keep_failed_opens=False)
    assert not flt.admit(ev("open", {"pathname": "/mnt/test/missing"}, -2, 2))


def test_an_open_and_a_dup_onto_fd_0_are_tracked():
    """fd 0 is a success: only a negative return is a failed open or dup."""
    flt = TraceFilter.for_mount_point("/mnt/test", keep_failed_opens=False)
    assert flt.admit(ev("open", {"pathname": "/mnt/test/f", "flags": 0}, 0, pid=1))
    assert flt.admit(ev("read", {"fd": 0, "count": 1}, 1, pid=1))
    assert flt.admit(ev("open", {"pathname": "/mnt/test/g", "flags": 0}, 3, pid=2))
    assert flt.admit(ev("dup", {"fildes": 3}, 0, pid=2))
    assert flt.admit(ev("read", {"fd": 0, "count": 1}, 1, pid=2))


def test_fd_tracking_is_per_pid(flt):
    assert flt.admit(ev("open", {"pathname": "/mnt/test/f", "flags": 0}, 3, pid=1))
    assert not flt.admit(ev("read", {"fd": 3, "count": 1}, 1, pid=2))


def test_path_syscalls_other_arg_names(flt):
    assert flt.admit(ev("chdir", {"filename": "/mnt/test/d"}, 0))
    assert not flt.admit(ev("chdir", {"filename": "/home"}, 0))
    assert flt.admit(ev("truncate", {"path": "/mnt/test/f", "length": 0}, 0))
    assert flt.admit(ev("rename", {"oldpath": "/mnt/test/a", "newpath": "/mnt/test/b"}, 0))


def test_sync_is_global(flt):
    assert flt.admit(ev("sync", {}, 0))
    strict = TraceFilter.for_mount_point("/mnt/test", keep_global=False)
    assert not strict.admit(ev("sync", {}, 0))


def test_exclude_overrides_include():
    flt = TraceFilter(include=r"^/mnt/test(/|$)", exclude=r"/mnt/test/scratch")
    assert flt.admit(ev("open", {"pathname": "/mnt/test/f"}, 3))
    assert not flt.admit(ev("open", {"pathname": "/mnt/test/scratch/tmp"}, 4))


def test_filter_stream_counts_dropped(flt):
    events = [
        ev("open", {"pathname": "/mnt/test/f", "flags": 0}, 3),
        ev("open", {"pathname": "/etc/hosts", "flags": 0}, 4),
        ev("read", {"fd": 3, "count": 10}, 10),
        ev("read", {"fd": 4, "count": 10}, 10),
    ]
    kept = list(flt.filter(events))
    assert len(kept) == 2
    assert flt.dropped == 2


def test_filter_reset_clears_fd_state(flt):
    flt.admit(ev("open", {"pathname": "/mnt/test/f", "flags": 0}, 3))
    flt.reset()
    assert not flt.admit(ev("read", {"fd": 3, "count": 1}, 1))


def test_openat_variants_register_fds(flt):
    assert flt.admit(
        ev("openat", {"dfd": C.AT_FDCWD, "pathname": "/mnt/test/f", "flags": 0}, 5)
    )
    assert flt.admit(ev("write", {"fd": 5, "count": 3}, 3))
    assert flt.admit(
        ev("creat", {"pathname": "/mnt/test/g", "mode": 0o644}, 6)
    )
    assert flt.admit(ev("ftruncate", {"fd": 6, "length": 0}, 0))


def test_accept_all_filter():
    flt = AcceptAllFilter()
    events = [ev("open", {"pathname": "/anything"}, 3)]
    assert list(flt.filter(events)) == events
    assert flt.admit(events[0])


def test_a_pid_has_an_fd_table_only_while_it_tracks_an_fd(flt):
    """10,000 processes that each open and close one fd leave no table."""
    for pid in range(10_000):
        assert flt.admit(ev("open", {"pathname": "/mnt/test/f", "flags": 0}, 3, pid=pid))
        assert flt.admit(ev("close", {"fd": 3}, 0, pid=pid))
    assert flt._live_fds == {}
    # Foreign and fd-less events create no table either.
    assert not flt.admit(ev("read", {"fd": 3, "count": 1}, 1, pid=1))
    assert not flt.admit(ev("close", {"fd": 3}, 0, pid=2))
    assert not flt.admit(ev("open", {"pathname": "/tmp/x", "flags": 0}, 3, pid=3))
    assert flt.admit(ev("chdir", {"filename": "/mnt/test"}, 0, pid=4))
    assert flt._live_fds == {}
    # A dup keeps the table until its last tracked fd closes.
    assert flt.admit(ev("open", {"pathname": "/mnt/test/f", "flags": 0}, 3, pid=5))
    assert flt.admit(ev("dup", {"fildes": 3}, 4, pid=5))
    assert flt.admit(ev("close", {"fd": 3}, 0, pid=5))
    assert flt._live_fds == {5: {4}}
    assert flt.admit(ev("close", {"fd": 4}, 0, pid=5))
    assert flt._live_fds == {}


def test_decide_reads_the_event_and_apply_runs_its_step(flt):
    """``admit_record`` is ``decide`` then, for an fd step, ``apply``."""
    opened = ("open", {"pathname": "/mnt/test/f", "flags": 0}, 3)
    step = flt.decide(*opened)
    assert step.__class__ is tuple and flt._live_fds == {}
    assert flt.decide(*opened) == step
    assert flt.decide("open", {"pathname": "/tmp/x", "flags": 0}, 3) is False
    assert flt.decide("chdir", {"filename": "/mnt/test/d"}, 0) is True
    read = flt.decide("read", {"fd": 3, "count": 1}, 1)
    assert not flt.apply(read, 7)
    assert flt.apply(step, 7) and flt.apply(read, 7)
    assert not flt.apply(read, 8)
    assert AcceptAllFilter().decide(*opened) is True
