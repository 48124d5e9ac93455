"""File readers hold one block in flight: text blocks and ``.rbt`` frames.

Every text reader (``iter_file_batches``, so ``IOCov.consume_*_file``,
and ``convert_file``) reads newline-aligned blocks of
``DEFAULT_CHUNK_BYTES``; whatever the block boundaries cut, the rows and
drop counters must be the per-line parser's on the same file.
``convert_file`` writes each frame as soon as it is encoded.
"""

from __future__ import annotations

import random

import pytest

from repro.core.analyzer import IOCov
from repro.trace import binary
from repro.trace.batch import (
    DEFAULT_CHUNK_BYTES,
    _read_chunks,
    make_batch_parser,
    make_parse_stats,
)
from repro.trace.binary import DEFAULT_FRAME_EVENTS, RbtReader, convert_file
from repro.trace.events import make_event
from repro.trace.lttng import LttngParser, LttngWriter
from repro.trace.strace import StraceParser
from repro.trace.syzkaller import SyzkallerParser

#: Events per test trace: more than one block of text in every format.
EVENTS = 2500


def _paths(pad: int, cr: str) -> list[str]:
    """Multibyte pathnames holding *cr*; the first one *pad* ASCII bytes
    longer."""
    return [f"/mnt/tést/{'x' * pad if i == 0 else ''}{'é' * 40}{i % 7}{cr}€"
            for i in range(EVENTS)]


def _text(fmt: str, pad: int = 0, cr: str = "") -> str:
    paths = _paths(pad, cr)
    if fmt == "lttng":
        events = [
            make_event("openat", {"dfd": -100, "pathname": path, "flags": i % 3},
                       3 + i % 5, pid=1 + i % 2, comm="téster", timestamp=1000 + i)
            for i, path in enumerate(paths)
        ]
        return LttngWriter().dumps(events)
    if fmt == "strace":
        return "".join(f'openat(AT_FDCWD, "{path}", O_RDONLY) = {3 + i % 5}\n'
                       for i, path in enumerate(paths))
    return "".join(f"r{i % 4} = openat(0xffffffffffffff9c, &(0x7f0000000040)='{path}\\x00', "
                   f"0x0, 0x0)\n" for i, path in enumerate(paths))


def _split_mid_character(fmt: str) -> bytes:
    """The trace as UTF-8 whose first block ends inside a character."""
    data = _text(fmt).encode("utf-8")
    # The last continuation byte at or before the block mark, moved onto
    # it by lengthening the first path.
    mark = max(i for i in range(DEFAULT_CHUNK_BYTES + 1) if data[i] & 0xC0 == 0x80)
    data = _text(fmt, DEFAULT_CHUNK_BYTES - mark).encode("utf-8")
    assert data[DEFAULT_CHUNK_BYTES] & 0xC0 == 0x80
    return data


def _shapes(fmt: str) -> dict[str, bytes]:
    text = _text(fmt)
    assert len(text.encode("utf-8")) > DEFAULT_CHUNK_BYTES + 1000
    return {
        "split character": _split_mid_character(fmt),
        "no final newline": text.rstrip("\n").encode("utf-8"),
        "crlf and a lone cr": _text(fmt, cr="\r").replace("\n", "\r\n").encode("utf-8"),
    }


def _per_line(fmt: str, path: str):
    """Rows and drop counters of the format's per-line parser, reading
    the file line by line."""
    with open(path, encoding="utf-8", newline="\n") as handle:
        if fmt == "lttng":
            parser = LttngParser()
            records = list(parser.parse_records(handle))
            rows = [payload for kind, payload in records if kind == "event"]
            orphans = sum(kind == "orphan" for kind, _ in records)
            unpaired = sum(len(queue) for queue in parser.pending_entries.values())
            return rows, make_parse_stats(
                fmt, parser.skipped_lines + orphans, parser.malformed_lines, unpaired)
        parser = StraceParser() if fmt == "strace" else SyzkallerParser()
        rows = list(parser.parse(handle))
        return rows, make_parse_stats(fmt, parser.skipped_lines, parser.malformed_lines, 0)


FORMATS = ["lttng", "strace", "syzkaller"]
SHAPES = ["split character", "no final newline", "crlf and a lone cr"]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("fmt", FORMATS)
def test_every_batch_path_reads_a_file_as_the_per_line_parser(tmp_path, fmt, shape):
    src = tmp_path / f"trace.{fmt}"
    data = _shapes(fmt)[shape]
    src.write_bytes(data)
    chunks = list(_read_chunks(str(src), DEFAULT_CHUNK_BYTES))
    assert len(chunks) > 1
    joined_is_the_text = "".join(chunks) == data.decode("utf-8")
    assert joined_is_the_text
    assert all(chunk.endswith("\n") for chunk in chunks[:-1])
    want_rows, want_stats = _per_line(fmt, str(src))
    assert len(want_rows) == EVENTS
    if shape == "crlf and a lone cr":
        assert all("\r" in row[1]["pathname"] for row in want_rows)

    parser = make_batch_parser(fmt)
    rows = [row for batch in parser.iter_file_batches(str(src)) for row in batch.iter_rows()]
    assert (rows, parser.stats()) == (want_rows, want_stats)

    dst = tmp_path / "trace.rbt"
    info = convert_file(str(src), str(dst), fmt)
    rows = [row for batch in RbtReader(str(dst)) for row in batch.iter_rows()]
    assert (rows, info["parse_stats"]) == (want_rows, want_stats)


@pytest.mark.parametrize("fmt", FORMATS)
def test_invalid_utf8_still_raises(tmp_path, fmt):
    src = tmp_path / f"trace.{fmt}"
    data = _text(fmt).encode("utf-8")
    src.write_bytes(data[: DEFAULT_CHUNK_BYTES + 100] + b"\xff" + data[DEFAULT_CHUNK_BYTES + 100:])
    with pytest.raises(UnicodeDecodeError):
        list(make_batch_parser(fmt).iter_file_batches(str(src)))
    dst = tmp_path / "trace.rbt"
    with pytest.raises(UnicodeDecodeError):
        convert_file(str(src), str(dst), fmt)
    assert not dst.exists()


def _varied_events(count: int) -> list:
    rng = random.Random(26)
    return [
        make_event(
            rng.choice(["open", "openat", "write", "read", "lseek", "close"]),
            {"pathname": f"/mnt/test/f{rng.randrange(50)}", "flags": rng.randrange(4096),
             "count": rng.randrange(1 << 20)},
            rng.randrange(-40, 1 << 20),
            0,
            pid=rng.randrange(1, 5),
            comm="tester",
            timestamp=i * 1000,
        )
        for i in range(count)
    ]


def test_a_trace_of_many_frames_analyzes_as_its_text(tmp_path):
    events = 3 * DEFAULT_FRAME_EVENTS + 500
    src, dst = tmp_path / "trace.lttng.txt", tmp_path / "trace.rbt"
    src.write_text(LttngWriter().dumps(_varied_events(events)))
    info = convert_file(str(src), str(dst), "lttng")
    assert info["frames"] == 4 and info["events"] == events
    assert [len(batch) for batch in RbtReader(str(dst))] == [DEFAULT_FRAME_EVENTS] * 3 + [500]
    text = IOCov(mount_point="/mnt/test", suite_name="s").consume_lttng_file(str(src))
    rbt = IOCov(mount_point="/mnt/test", suite_name="s").consume_rbt_file(str(dst))
    assert rbt.report().to_json() == text.report().to_json()
    assert rbt.parse_stats == text.parse_stats


def test_convert_writes_each_frame_before_it_encodes_the_next(tmp_path, monkeypatch):
    src, dst = tmp_path / "trace.lttng.txt", tmp_path / "trace.rbt"
    src.write_text(LttngWriter().dumps(_varied_events(100)))
    calls = []
    encode_batch = binary.encode_batch
    write_payload = binary.RbtWriter.write_payload

    def encoding(rows):
        calls.append("encode")
        return encode_batch(rows)

    def writing(writer, payload):
        written = write_payload(writer, payload)
        if written:
            calls.append("write")
        return written

    monkeypatch.setattr(binary, "encode_batch", encoding)
    monkeypatch.setattr(binary.RbtWriter, "write_payload", writing)
    info = convert_file(str(src), str(dst), "lttng", frame_events=30)
    assert info["frames"] == 4
    assert calls == ["encode", "write"] * 4
    assert [len(batch) for batch in RbtReader(str(dst))] == [30, 30, 30, 10]


@pytest.mark.parametrize("frame_events", [0, -1])
def test_convert_refuses_frames_of_no_events(tmp_path, frame_events):
    src, dst = tmp_path / "trace.lttng.txt", tmp_path / "trace.rbt"
    src.write_text(LttngWriter().dumps(_varied_events(3)))
    with pytest.raises(ValueError, match="frame_events"):
        convert_file(str(src), str(dst), "lttng", frame_events=frame_events)
    assert not dst.exists()
