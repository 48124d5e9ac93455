"""strace parser tests: real-looking lines, flags, errors, noise."""

import errno

import pytest

from repro.trace.strace import StraceParseError, StraceParser
from repro.vfs import constants as C


@pytest.fixture
def parser() -> StraceParser:
    return StraceParser()


def test_simple_openat(parser):
    event = parser.parse_line(
        'openat(AT_FDCWD, "/mnt/test/f0", O_WRONLY|O_CREAT|O_TRUNC, 0644) = 3'
    )
    assert event.name == "openat"
    assert event.args["dfd"] == C.AT_FDCWD
    assert event.args["pathname"] == "/mnt/test/f0"
    assert event.args["flags"] == C.O_WRONLY | C.O_CREAT | C.O_TRUNC
    assert event.args["mode"] == 0o644  # octal literal
    assert event.retval == 3 and event.ok


def test_write_drops_buffer_keeps_count(parser):
    event = parser.parse_line('write(3, "abcd"..., 4096) = 4096')
    assert event.name == "write"
    assert "buf" not in event.args
    assert event.args["count"] == 4096
    assert event.retval == 4096


def test_failed_call_with_errno(parser):
    event = parser.parse_line(
        'open("/mnt/test/x", O_RDONLY) = -1 ENOENT (No such file or directory)'
    )
    assert event.errno == errno.ENOENT
    assert event.retval == -errno.ENOENT


def test_errno_without_message(parser):
    event = parser.parse_line("close(77) = -1 EBADF")
    assert event.errno == errno.EBADF


def test_lseek_whence_symbol(parser):
    event = parser.parse_line("lseek(3, 1024, SEEK_END) = 5120")
    assert event.args["whence"] == C.SEEK_END
    assert event.args["offset"] == 1024


def test_pid_prefix_and_timestamp(parser):
    event = parser.parse_line(
        "[pid 1234] 1688888888.123456 fsync(5) = 0"
    )
    assert event.pid == 1234
    assert event.name == "fsync"


def test_string_with_escapes(parser):
    event = parser.parse_line(r'chdir("/mnt/te\"st") = 0')
    assert event.args["filename"] == '/mnt/te"st'


def test_unfinished_and_resumed_skipped(parser):
    assert parser.parse_line("write(3, \"x\", 1 <unfinished ...>") is None
    assert parser.parse_line("<... write resumed>) = 1") is None
    assert parser.skipped_lines == 2


def test_resumed_in_a_path_is_not_an_interrupted_call(parser):
    event = parser.parse_line('open("/mnt/test/resumed>", O_RDONLY) = 3')
    assert event.args["pathname"] == "/mnt/test/resumed>"
    assert parser.skipped_lines == 0
    assert parser.parse_line("[pid 42] <... open resumed>) = 3") is None
    assert parser.parse_line("[pid 42] 1688888888.123456 <... open resumed>) = 3") is None
    assert (parser.skipped_lines, parser.malformed_lines) == (2, 0)


def test_unknown_retval_skipped(parser):
    assert parser.parse_line("exit_group(0) = ?") is None


def test_garbage_line_lenient_vs_strict(parser):
    assert parser.parse_line("+++ exited with 0 +++") is None
    with pytest.raises(StraceParseError):
        StraceParser(strict=True).parse_line("+++ exited with 0 +++")


def test_unknown_syscall_uses_positional_names(parser):
    event = parser.parse_line("epoll_create(8) = 5")
    assert event.name == "epoll_create"
    assert event.args["arg0"] == 8


def test_setxattr_line(parser):
    event = parser.parse_line(
        'setxattr("/mnt/test/f", "user.k", "v"..., 5, XATTR_CREATE) = 0'
    )
    assert event.args["name"] == "user.k"
    assert event.args["size"] == 5
    assert event.args["flags"] == C.XATTR_CREATE
    assert "value" not in event.args or event.args["value"] is not None


def test_parse_text_multiline(parser):
    text = "\n".join(
        [
            'mkdir("/mnt/test/d", 0755) = 0',
            'openat(AT_FDCWD, "/mnt/test/d/f", O_RDWR|O_CREAT, 0600) = 4',
            "ftruncate(4, 8192) = 0",
            "close(4) = 0",
        ]
    )
    events = parser.parse_text(text)
    assert [event.name for event in events] == ["mkdir", "openat", "ftruncate", "close"]
    assert events[2].args["length"] == 8192


def test_parse_file(parser, tmp_path):
    path = tmp_path / "strace.log"
    path.write_text('open("/f", O_RDONLY) = 3\nclose(3) = 0\n')
    events = parser.parse_file(str(path))
    assert len(events) == 2


def test_hex_and_decimal_literals(parser):
    event = parser.parse_line("lseek(3, 0x1000, SEEK_SET) = 4096")
    assert event.args["offset"] == 4096


def test_flags_mixing_symbol_and_number(parser):
    event = parser.parse_line('open("/f", O_RDONLY|0x8000) = 3')
    assert event.args["flags"] == C.O_LARGEFILE  # 0x8000 == O_LARGEFILE value
