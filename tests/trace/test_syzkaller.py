"""Syzkaller program-log parser tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.strace import split_args
from repro.trace.syzkaller import SyzkallerParser, _split_args
from repro.vfs import constants as C


@pytest.fixture
def parser() -> SyzkallerParser:
    return SyzkallerParser()


def test_openat_with_resource_binding(parser):
    event = parser.parse_line(
        "r0 = openat(0xffffffffffffff9c, &(0x7f0000000040)='./file0\\x00', 0x42, 0x1ff)"
    )
    assert event.name == "openat"
    assert event.args["dfd"] == C.AT_FDCWD
    assert event.args["pathname"] == "./file0"
    assert event.args["flags"] == 0x42
    assert event.args["mode"] == 0x1FF
    assert event.retval == 0  # logs carry no return values


def test_resource_reference_resolves_to_fd(parser):
    parser.parse_line("r0 = openat(0xffffffffffffff9c, &(0x7f0000000040)='./f\\x00', 0x2, 0x0)")
    event = parser.parse_line('write(r0, &(0x7f0000000080)="616263", 0x3)')
    assert event.name == "write"
    assert isinstance(event.args["fd"], int) and event.args["fd"] >= 3
    assert event.args["count"] == 3


def test_hex_data_buffer_becomes_length(parser):
    event = parser.parse_line('write(3, &(0x7f0000000080)="deadbeef", 0x4)')
    # 'buf' is dropped; 8 hex chars = 4 bytes would be its decode.
    assert "buf" not in event.args
    assert event.args["count"] == 4


def test_comment_and_blank_lines_ignored(parser):
    assert parser.parse_line("# a comment") is None
    assert parser.parse_line("   ") is None


def test_a_hash_inside_quotes_is_not_a_comment(parser):
    event = parser.parse_line("mkdir(&(0x7f0000000040)='./#a#\\x00', 0x1ff)")
    assert event.args["pathname"] == "./#a#"
    event = parser.parse_line(
        "mkdir(&(0x7f0000000040)='./#b\\x00', 0x1ff)  # made by 'x' # twice"
    )
    assert event.args["pathname"] == "./#b"
    assert parser.parse_line("  # env: EROFS") is None
    assert (parser.skipped_lines, parser.malformed_lines) == (0, 0)


def test_syscall_variant_suffix_stripped(parser):
    event = parser.parse_line("r1 = openat$dir(0xffffffffffffff9c, &(0x7f00000000c0)='./d\\x00', 0x0, 0x0)")
    assert event.name == "openat"


def test_parse_program_text(parser):
    program = "\n".join(
        [
            "r0 = openat(0xffffffffffffff9c, &(0x7f0000000040)='./file0\\x00', 0x42, 0x1ff)",
            'write(r0, &(0x7f0000000080)="6162", 0x2)',
            "close(r0)",
        ]
    )
    events = parser.parse_text(program)
    assert [event.name for event in events] == ["openat", "write", "close"]
    assert events[2].args["fd"] == events[1].args["fd"]


def test_events_feed_input_coverage_only():
    """Syzkaller events contribute inputs; outputs all read as success."""
    from repro.core import IOCov

    parser = SyzkallerParser()
    events = parser.parse_text(
        "r0 = openat(0xffffffffffffff9c, &(0x7f0000000040)='./f\\x00', 0x42, 0x1ff)\n"
        'write(r0, &(0x7f0000000080)="61", 0x1)'
    )
    report = IOCov(suite_name="syzkaller").consume(events).report()
    flags = report.input_frequencies("open", "flags")
    assert flags["O_RDWR"] == 1 and flags["O_CREAT"] == 1
    outputs = report.output_frequencies("open")
    assert outputs["OK"] == 1
    assert all(count == 0 for key, count in outputs.items() if key != "OK")


@pytest.mark.parametrize("warm", [False, True])
def test_a_resource_name_is_text_until_a_program_binds_it(warm):
    """``r1`` decodes to the string until ``r1 = ...``, then to its fd,
    whatever the parser's argument memo already holds."""
    from repro.trace.batch import SyzkallerBatchParser

    log = [
        "close(r1)",
        "r0 = openat(0xffffffffffffff9c, &(0x7f0000000040)='./a\\x00', 0x42, 0x1ff)",
        "r1 = openat(0xffffffffffffff9c, &(0x7f0000000040)='./b\\x00', 0x42, 0x1ff)",
        "close(r1)",
        "close(r0)",
    ]
    batch_parser = SyzkallerBatchParser()
    parser = batch_parser._parser
    if warm:
        for _ in range(3):
            assert parser.parse_line("fsync(r1)").args == {"fd": "r1"}
        assert parser._values["r1"] == "r1"
    rows = batch_parser.parse_chunk("\n".join(log) + "\n")
    assert [row[1]["fd"] for row in rows if row[0] == "close"] == ["r1", 4, 3]


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="a0x ,'\"\\()[]{}&=", max_size=24))
def test_the_token_split_splits_where_the_character_loop_does(text):
    assert _split_args(text) == split_args(text, "'\"")
