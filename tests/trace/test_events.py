"""SyscallEvent model tests."""

from repro.core import IOCov
from repro.trace.events import SyscallEvent, event_from_row, make_event
from repro.trace.recorder import TraceRecorder
from repro.vfs import constants as C
from repro.vfs.filesystem import FileSystem
from repro.vfs.syscalls import SyscallInterface


def test_ok_property():
    assert make_event("open", {}, 3).ok
    assert make_event("write", {}, 0).ok
    assert not make_event("open", {}, -2, 2).ok


def test_arg_accessor_with_default():
    event = make_event("open", {"flags": 0o100}, 3)
    assert event.arg("flags") == 0o100
    assert event.arg("missing") is None
    assert event.arg("missing", 7) == 7


def test_make_event_copies_args():
    args = {"fd": 1}
    event = make_event("close", args, 0)
    args["fd"] = 99
    assert event.arg("fd") == 1


def test_paths_yields_path_like_args():
    event = make_event(
        "rename",
        {"oldpath": "/a", "newpath": "/b", "flags": 0},
        0,
    )
    assert sorted(event.paths()) == ["/a", "/b"]
    event = make_event("open", {"pathname": "/f", "mode": 0o644}, 3)
    assert list(event.paths()) == ["/f"]
    event = make_event("close", {"fd": 3}, 0)
    assert list(event.paths()) == []


def test_event_is_frozen():
    event = make_event("open", {}, 0)
    try:
        event.retval = 5  # type: ignore[misc]
    except AttributeError:
        pass
    else:  # pragma: no cover
        raise AssertionError("event should be immutable")


def _traced_events():
    sc = SyscallInterface(FileSystem())
    sc.process.pid, sc.process.comm = 4242, "fsx"
    recorder = TraceRecorder()
    recorder.attach(sc)
    sc.mkdir("/mnt", 0o755)
    sc.mkdir("/mnt/test", 0o755)
    fd = sc.open("/mnt/test/f", C.O_CREAT | C.O_WRONLY, 0o644).retval
    sc.pwrite64(fd, count=4096, offset=0)
    sc.writev(fd, [b"ab", b"cde"])
    sc.close(fd)
    sc.creat("/mnt/test/g", 0o600)
    sc.open("/mnt/test/missing", C.O_RDONLY)
    sc.setxattr("/mnt/test/f", "user.k", b"v")
    sc.sync()
    return recorder.drain()


def test_vfs_event_is_the_row():
    events = _traced_events()
    assert len(events) == 10
    for event in events:
        assert type(event) is SyscallEvent
        name, args, retval, errno, pid, comm, timestamp = event
        assert event == make_event(
            name, args, retval, errno, pid=pid, comm=comm, timestamp=timestamp
        )
        assert (name, retval, errno, timestamp) == (
            event.name, event.retval, event.errno, event.timestamp
        )
    assert {(event.pid, event.comm) for event in events} == {(4242, "fsx")}
    assert [event.timestamp for event in events] == sorted({e.timestamp for e in events})
    failed = events[7]
    assert failed.name == "open" and failed.errno == 2 and failed.retval == -2
    assert failed.args == {"pathname": "/mnt/test/missing", "flags": C.O_RDONLY, "mode": 0o644}


def test_consume_events_equals_consume_of_rows():
    events = _traced_events()
    rows = [tuple(event) for event in events]
    assert all(type(row) is tuple and len(row) == 7 for row in rows)
    direct = IOCov(mount_point="/mnt/test").consume(events).report().to_json()
    rebuilt = IOCov(mount_point="/mnt/test").consume(map(event_from_row, rows)).report()
    assert direct == rebuilt.to_json()
