"""Binary ``.rbt`` container tests: roundtrip, streaming, corruption.

The property tests close the loop the format exists for: *text trace →
convert → decode → analyze* must produce a coverage report identical to
analyzing the text directly, for every format, because the converter
runs the (parity-proven) batch parsers and the container is lossless.
"""

from __future__ import annotations

import io
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analyzer import IOCov
from repro.trace.batch import EventBatch
from repro.trace.binary import (
    MAGIC,
    RbtDecoder,
    RbtFormatError,
    RbtReader,
    RbtTruncatedError,
    RbtWriter,
    convert_file,
    decode_batch,
    encode_batch,
    encode_stream,
    read_rbt_events,
    read_rbt_header,
)
from repro.trace.binary import _read_uvarint
from repro.trace.events import make_event
from repro.trace.lttng import LttngWriter

#: The repository root: the golden file's header holds the source path
#: ``repro convert`` was given, relative to it.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
MINI_TEXT = "tests/fixtures/mini.lttng.txt"
#: ``repro convert tests/fixtures/mini.lttng.txt`` as ``.rbt`` v1 wrote it.
MINI_RBT = "tests/fixtures/mini.rbt"

ADVERSARIAL_ROWS = [
    ("open", {"pathname": "/mnt/a,b", "flags": 0}, 3, 0, 1, "app", 100),
    ("write", {"fd": 3, "count": 2**63}, 4096, 0, 1, "app", 101),  # > i64
    ("lseek", {"offset": -(2**70), "whence": 2}, 0, 0, 2, "", 0),
    ("ioctl", {"argp": None, "request": 0x5401}, -25, 25, 1, "app", 102),
    ("writev", {"fd": 3, "iov": [1, "two", None]}, 7, 0, 1, "app", 103),
    ("open", {"pathname": "", "flags": 0o777}, -2, 2, 65535, "x" * 40, 10**15),
    ("noargs", {}, 0, 0, 0, "", 0),
]


def _rows_from_events(events):
    return [
        (e.name, e.args, e.retval, e.errno, e.pid, e.comm, e.timestamp)
        for e in events
    ]


def test_encode_decode_roundtrip_adversarial():
    payload = encode_batch(list(ADVERSARIAL_ROWS))
    assert decode_batch(payload).rows() == ADVERSARIAL_ROWS


def test_empty_batch_roundtrip():
    assert decode_batch(encode_batch([])).rows() == []


def test_writer_reader_file_roundtrip(tmp_path):
    path = tmp_path / "t.rbt"
    with open(path, "wb") as sink:
        with RbtWriter(sink, header={"note": "hello"}) as writer:
            writer.write_rows(ADVERSARIAL_ROWS[:3])
            writer.write_batch(EventBatch.from_rows(ADVERSARIAL_ROWS[3:]))
    reader = RbtReader(str(path))
    assert reader.header["note"] == "hello"
    rows = [row for batch in reader for row in batch.rows()]
    assert rows == ADVERSARIAL_ROWS
    assert read_rbt_header(str(path))["note"] == "hello"
    events = read_rbt_events(str(path))
    assert _rows_from_events(events) == ADVERSARIAL_ROWS


def test_a_writer_cut_short_by_an_error_leaves_a_truncated_stream():
    sink = io.BytesIO()
    with pytest.raises(TypeError):
        with RbtWriter(sink) as writer:
            writer.write_rows(ADVERSARIAL_ROWS)
            writer.write_rows([("open", {"pathname": {"not", "json"}}, 0, 0, 1, "", 0)])
    decoder = RbtDecoder()
    assert len(decoder.feed(sink.getvalue())) == 1
    with pytest.raises(RbtTruncatedError):
        decoder.end()


@pytest.mark.parametrize("feed_size", [1, 3, 7, 100, 4096])
def test_streaming_decoder_any_feed_size(feed_size):
    blob = encode_stream(
        [EventBatch.from_rows(ADVERSARIAL_ROWS)] * 3, header={"k": 1}
    )
    decoder = RbtDecoder()
    rows = []
    for start in range(0, len(blob), feed_size):
        for batch in decoder.feed(blob[start : start + feed_size]):
            rows.extend(batch.rows())
    decoder.end()
    assert decoder.header == {"k": 1}
    assert decoder.finished
    assert rows == ADVERSARIAL_ROWS * 3


def test_decoder_rejects_bad_magic():
    with pytest.raises(RbtFormatError):
        RbtDecoder().feed(b"PK\x03\x04 not an rbt stream")


def test_decoder_rejects_bad_version():
    blob = bytearray(encode_stream([EventBatch.from_rows(ADVERSARIAL_ROWS)]))
    blob[len(MAGIC)] = 99
    with pytest.raises(RbtFormatError):
        RbtDecoder().feed(bytes(blob))


def test_decoder_rejects_trailing_garbage():
    blob = encode_stream([EventBatch.from_rows(ADVERSARIAL_ROWS)])
    decoder = RbtDecoder()
    decoder.feed(blob)
    with pytest.raises(RbtFormatError):
        decoder.feed(b"extra bytes after the terminator")
        decoder.end()


@pytest.mark.parametrize("keep", [0, 4, 9, 12, 40, -2])
def test_decoder_truncation_is_loud(keep):
    blob = encode_stream([EventBatch.from_rows(ADVERSARIAL_ROWS)])
    truncated = blob[:keep] if keep >= 0 else blob[:keep]
    decoder = RbtDecoder()
    with pytest.raises((RbtTruncatedError, RbtFormatError)):
        decoder.feed(truncated)
        decoder.end()


def test_reader_rejects_non_rbt_file(tmp_path):
    path = tmp_path / "not.rbt"
    path.write_bytes(b"this is a text file\n")
    with pytest.raises(RbtFormatError):
        RbtReader(str(path)).header


def test_corrupt_header_json_is_loud(tmp_path):
    blob = bytearray(encode_stream([], header={"key": "value"}))
    # Smash a byte inside the JSON header blob.
    offset = bytes(blob).index(b'"key"')
    blob[offset] = 0xFF
    with pytest.raises(RbtFormatError):
        RbtDecoder().feed(bytes(blob))


def test_a_string_argument_past_its_table_is_a_format_error():
    payload = bytearray(encode_batch([("open", {"pathname": "/a"}, 3, 0, 1, "t", 5)]))
    table = bytes(payload).rindex(b'["/a"]')
    # The event's 1-based string id sits just before the table's length.
    payload[table - 5 : table - 1] = (2).to_bytes(4, "little")
    with pytest.raises(RbtFormatError):
        decode_batch(bytes(payload))


#: Same-length edits of the golden file's one frame: its name table
#: not JSON, an argument key not UTF-8, a JSON object for the table.
_GARBLES = [
    (b'["openat"', b'[xopenat"'),
    (b"\x08pathname", b"\x08\xffathname"),
    (b'["openat","read","write","dup","sync","close"]',
     b'{"openat":"read","write":"dup","sync":"close"}'),
]


@pytest.mark.parametrize("old, new", _GARBLES, ids=["table", "key", "object"])
def test_a_garbled_frame_is_a_format_error(monkeypatch, old, new):
    monkeypatch.chdir(REPO_ROOT)
    with open(MINI_RBT, "rb") as handle:
        data = handle.read()
    assert data.count(old) == 1
    data = data.replace(old, new)
    # The frame: after the magic, the version byte and the header blob.
    length, pos = _read_uvarint(data, len(MAGIC) + 1)
    length, pos = _read_uvarint(data, pos + length)
    with pytest.raises(RbtFormatError):
        decode_batch(data[pos : pos + length])
    with pytest.raises(RbtFormatError):
        RbtDecoder().feed(data)


def test_convert_writes_the_committed_v1_bytes(tmp_path, monkeypatch):
    """``.rbt`` v1 is pinned: converting the fixture from the same source
    path string writes the committed golden file byte for byte."""
    monkeypatch.chdir(REPO_ROOT)
    dst = tmp_path / "mini.rbt"
    info = convert_file(MINI_TEXT, str(dst), "lttng")
    assert (info["events"], info["frames"]) == (120, 1)
    with open(MINI_RBT, "rb") as handle:
        assert dst.read_bytes() == handle.read()


def test_the_committed_v1_file_reads_as_its_text(monkeypatch):
    """The golden file counts as the text it was converted from: the
    same report and the same parse stats."""
    monkeypatch.chdir(REPO_ROOT)
    text = IOCov(mount_point="/mnt/test", suite_name="gate").consume_lttng_file(MINI_TEXT)
    binary = IOCov(mount_point="/mnt/test", suite_name="gate").consume_rbt_file(MINI_RBT)
    assert binary.report().to_json() == text.report().to_json()
    assert binary.parse_stats == text.parse_stats


def test_convert_records_parse_stats_and_counts(tmp_path):
    src = tmp_path / "t.strace"
    src.write_text(
        'openat(AT_FDCWD, "/mnt/test/f", O_RDONLY) = 3\n'
        "complete garbage ####\n"
        "close(3) = 0\n"
    )
    dst = tmp_path / "t.rbt"
    info = convert_file(str(src), str(dst), "strace")
    assert info["events"] == 2
    assert info["parse_stats"]["malformed_lines"] == 1
    header = read_rbt_header(str(dst))
    assert header["parse_stats"] == info["parse_stats"]
    assert header["format"] == "strace"
    # The analyzer surfaces the preserved stats after a binary read.
    iocov = IOCov().consume_rbt_file(str(dst))
    assert iocov.parse_stats == info["parse_stats"]


# -- the end-to-end property --------------------------------------------------

_SAFE_TEXT = st.text(
    alphabet=st.characters(
        codec="ascii", min_codepoint=33, max_codepoint=126, exclude_characters='{}",\\'
    ),
    min_size=1,
    max_size=20,
)

_LTTNG_EVENT = st.builds(
    make_event,
    name=st.sampled_from(["open", "openat", "write", "read", "lseek", "close"]),
    args=st.dictionaries(
        st.sampled_from(["pathname", "flags", "mode", "fd", "count", "offset"]),
        st.one_of(
            st.integers(min_value=-(2**62), max_value=2**62), _SAFE_TEXT, st.none()
        ),
        max_size=4,
    ),
    retval=st.integers(min_value=-133, max_value=2**31),
    errno=st.just(0),
    pid=st.integers(min_value=0, max_value=65535),
    comm=st.text(
        alphabet=st.characters(codec="ascii", min_codepoint=97, max_codepoint=122),
        max_size=8,
    ),
    timestamp=st.integers(min_value=0, max_value=10**15),
)


@given(events=st.lists(_LTTNG_EVENT, max_size=25))
@settings(max_examples=25, deadline=None)
def test_lttng_convert_then_analyze_equals_direct(tmp_path_factory, events):
    tmp = tmp_path_factory.mktemp("rbtprop")
    src, dst = tmp / "t.txt", tmp / "t.rbt"
    src.write_text(LttngWriter().dumps(events))
    direct = IOCov(suite_name="s").consume_lttng_file(str(src))
    convert_file(str(src), str(dst), "lttng", frame_events=7)
    via_binary = IOCov(suite_name="s").consume_rbt_file(str(dst))
    assert via_binary.report().to_dict() == direct.report().to_dict()
    assert via_binary.parse_stats == direct.parse_stats


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_strace_and_syz_convert_then_analyze_equals_direct(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("rbtprop")
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**20)))
    strace_lines = []
    syz_lines = []
    for i in range(data.draw(st.integers(min_value=0, max_value=30))):
        flags = rng.randrange(0, 4096)
        strace_lines.append(
            f'openat(AT_FDCWD, "/mnt/test/f{i % 4}", {hex(flags)}, 0644) = {rng.randrange(-40, 100)}'
        )
        syz_lines.append(
            f"r{i} = openat(0xffffffffffffff9c, &(0x7f0000000040)='./f{i % 4}\\x00', "
            f"{hex(flags)}, 0x1ff)"
        )
        if rng.random() < 0.3:
            strace_lines.append("some malformed noise !!")
            syz_lines.append("# comment")
    for fmt, lines in (("strace", strace_lines), ("syzkaller", syz_lines)):
        src, dst = tmp / f"t.{fmt}", tmp / f"t.{fmt}.rbt"
        src.write_text("\n".join(lines) + ("\n" if lines else ""))
        direct = IOCov(suite_name="s")
        getattr(direct, f"consume_{fmt}_file")(str(src))
        convert_file(str(src), str(dst), fmt, frame_events=5)
        via_binary = IOCov(suite_name="s").consume_rbt_file(str(dst))
        assert via_binary.report().to_dict() == direct.report().to_dict()
        assert via_binary.parse_stats == direct.parse_stats
