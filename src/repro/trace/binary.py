"""``.rbt`` — repro binary trace: a compact columnar trace container.

Text traces pay their parse cost on *every* analysis run.  Converting
once (``repro convert``) amortizes that cost: the binary layout needs
no grammar, no argument tokenizer and no string interning on read —
decoding is a handful of ``array.frombytes``/``json.loads`` calls per
frame, then one dict store per argument value.

Layout (all integers little-endian, varints are unsigned LEB128)::

    magic   8 bytes  b"\\x89RBT\\r\\n\\x1a\\n"
    version u8       (currently 1)
    header  uvarint length + UTF-8 JSON object
            {"format": "lttng", "parse_stats": {...}, ...}
    frame*  uvarint payload length + payload   (length > 0)
    end     uvarint 0                          (explicit terminator)

Frame payload::

    n_events  uvarint
    names     u32 id per event + string table     (see *id column*)
    comms     u32 id per event + string table
    retvals   scalar column
    errnos    scalar column
    pids      scalar column
    timestamps scalar column
    n_keys    uvarint, then per argument key:
        key     uvarint length + UTF-8 bytes
        tag u8  0 = int column: n presence bytes, then i64 per present
                1 = str column: u32 per event (0 = absent, else
                    1-based string-table id) + string table
                2 = obj column: n presence bytes, then a JSON array
                    holding the present values in order

    scalar column: tag u8 0 = n * i64; 1 = uvarint length + JSON array
    id column:     n * u32 indexes + uvarint length + JSON string table
    string table:  JSON array of strings, referenced by index

The terminator makes truncation *detectable*: a stream that ends
mid-frame or before the zero-length frame raises
:class:`RbtTruncatedError` instead of silently yielding fewer events.

Decoding fills each frame's argument dicts one key column at a time
and hands the frame out as an :class:`~repro.trace.batch.EventBatch`
of rows: every consumer (counting, live ingest and its journal replay,
re-encoding) reads all of a frame's rows.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from array import array
from itertools import compress
from typing import Any, BinaryIO, Iterable, Iterator

from repro.trace.batch import (
    DEFAULT_CHUNK_BYTES,
    EventBatch,
    Row,
    _read_chunks,
    make_batch_parser,
)

MAGIC = b"\x89RBT\r\n\x1a\n"
VERSION = 1

#: Events per frame :func:`convert_file` writes (frames decode
#: independently).  A reader holds one decoded frame at a time, so the
#: frame size bounds what reading a ``.rbt`` holds in flight; readers
#: read frames of any size.
DEFAULT_FRAME_EVENTS = 2048

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

_BIG_ENDIAN = sys.byteorder == "big"

_JSON_SEPARATORS = (",", ":")


class RbtError(ValueError):
    """Base class for ``.rbt`` container errors."""


class RbtFormatError(RbtError):
    """The byte stream violates the ``.rbt`` grammar."""


class RbtTruncatedError(RbtError):
    """The stream ended before the explicit terminator frame."""


# -- varints -----------------------------------------------------------------


def _write_uvarint(out: bytearray, value: int) -> None:
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_uvarint(buf, pos: int) -> tuple[int, int]:
    """Decode one LEB128 uvarint at *pos*; returns (value, new_pos).

    Raises :class:`RbtTruncatedError` when the buffer ends mid-varint.
    """
    result = 0
    shift = 0
    end = len(buf)
    while True:
        if pos >= end:
            raise RbtTruncatedError("byte stream ends inside a varint")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise RbtFormatError("varint too long")


# -- column encoding ---------------------------------------------------------


def _dump_json(value: Any) -> bytes:
    return json.dumps(value, separators=_JSON_SEPARATORS, ensure_ascii=False).encode(
        "utf-8"
    )


def _append_blob(out: bytearray, blob: bytes) -> None:
    _write_uvarint(out, len(blob))
    out += blob


def _encode_scalar_column(out: bytearray, values: list) -> None:
    """tag 0: packed i64; tag 1: JSON fallback for exotic values."""
    packable = all(
        type(v) is int and _I64_MIN <= v <= _I64_MAX for v in values
    )
    if packable:
        out.append(0)
        col = array("q", values)
        if _BIG_ENDIAN:
            col.byteswap()
        out += col.tobytes()
    else:
        out.append(1)
        _append_blob(out, _dump_json(values))


def _encode_id_column(out: bytearray, values: list) -> None:
    """Dictionary-encode a low-cardinality string column (names, comms)."""
    table: dict[str, int] = {}
    ids = array("I", bytes(0))
    append = ids.append
    for value in values:
        idx = table.get(value)
        if idx is None:
            idx = len(table)
            table[value] = idx
        append(idx)
    if _BIG_ENDIAN:
        ids.byteswap()
    out += ids.tobytes()
    _append_blob(out, _dump_json(list(table)))


def _encode_arg_columns(out: bytearray, argses: list) -> None:
    """Pivot per-event dicts into per-key columns."""
    keys: dict[str, None] = {}
    for args in argses:
        for key in args:
            keys[key] = None
    _write_uvarint(out, len(keys))
    n = len(argses)
    missing = _MISSING
    for key in keys:
        _append_blob(out, key.encode("utf-8"))
        values = [args.get(key, missing) for args in argses]
        present = [v for v in values if v is not missing]
        if all(type(v) is int and _I64_MIN <= v <= _I64_MAX for v in present):
            out.append(0)
            out += bytes(1 if v is not missing else 0 for v in values)
            col = array("q", present)
            if _BIG_ENDIAN:
                col.byteswap()
            out += col.tobytes()
        elif all(type(v) is str for v in present):
            out.append(1)
            table: dict[str, int] = {}
            ids = array("I", bytes(0))
            append = ids.append
            for v in values:
                if v is missing:
                    append(0)
                    continue
                idx = table.get(v)
                if idx is None:
                    idx = len(table)
                    table[v] = idx
                append(idx + 1)
            if _BIG_ENDIAN:
                ids.byteswap()
            out += ids.tobytes()
            _append_blob(out, _dump_json(list(table)))
        else:
            out.append(2)
            out += bytes(1 if v is not missing else 0 for v in values)
            _append_blob(out, _dump_json([_jsonable(v) for v in present]))


_MISSING = object()


def _jsonable(value: Any) -> Any:
    """Coerce an argument value into a JSON-representable shape.

    Tuples become lists (their event equality already treats them as
    sequences only through ``.args`` dict comparisons on decode, and
    the text parsers never produce tuples).
    """
    if isinstance(value, tuple):
        return list(value)
    return value


def encode_batch(rows: Iterable[Row]) -> bytes:
    """Encode one batch of rows into a frame *payload* (no length prefix)."""
    rows = list(rows)
    out = bytearray()
    _write_uvarint(out, len(rows))
    if not rows:
        return bytes(out)
    names, argses, retvals, errnos, pids, comms, timestamps = map(list, zip(*rows))
    _encode_id_column(out, names)
    _encode_id_column(out, comms)
    _encode_scalar_column(out, retvals)
    _encode_scalar_column(out, errnos)
    _encode_scalar_column(out, pids)
    _encode_scalar_column(out, timestamps)
    _encode_arg_columns(out, argses)
    return bytes(out)


# -- column decoding ---------------------------------------------------------


def _i64_from(view: memoryview, count: int) -> array:
    col = array("q")
    col.frombytes(view[: count * 8])
    if _BIG_ENDIAN:
        col.byteswap()
    return col


def _u32_from(view: memoryview, count: int):
    col = array("I")
    if col.itemsize == 4:
        col.frombytes(view[: count * 4])
        if _BIG_ENDIAN:
            col.byteswap()
        return col
    # Exotic platform where unsigned int is not 32-bit: decode portably.
    raw = bytes(view[: count * 4])
    return [
        int.from_bytes(raw[i : i + 4], "little") for i in range(0, len(raw), 4)
    ]


def _take_blob(view: memoryview, pos: int) -> tuple[bytes, int]:
    length, pos = _read_uvarint(view, pos)
    if pos + length > len(view):
        raise RbtTruncatedError("frame ends inside a length-prefixed blob")
    return bytes(view[pos : pos + length]), pos + length


def _load_blob(blob: bytes, what: str) -> Any:
    """An argument key (*what* is ``"key"``: UTF-8 text) or a JSON
    table or column (a list) from a frame's bytes.

    Raises :class:`RbtFormatError` for anything else, so a garbled
    frame fails as every other malformed frame does.
    """
    try:
        value = blob.decode("utf-8") if what == "key" else json.loads(blob)
    except (ValueError, RecursionError):
        raise RbtFormatError(f"frame {what} is not valid") from None
    if not isinstance(value, str if what == "key" else list):
        raise RbtFormatError(f"frame {what} has the wrong JSON type")
    return value


def _decode_scalar_column(view: memoryview, pos: int, n: int):
    if pos >= len(view):
        raise RbtTruncatedError("frame ends before a scalar column tag")
    tag = view[pos]
    pos += 1
    if tag == 0:
        if pos + n * 8 > len(view):
            raise RbtTruncatedError("frame ends inside an i64 column")
        return _i64_from(view[pos:], n), pos + n * 8
    if tag == 1:
        blob, pos = _take_blob(view, pos)
        values = _load_blob(blob, "scalar column")
        if len(values) != n:
            raise RbtFormatError("JSON scalar column length mismatch")
        return values, pos
    raise RbtFormatError(f"unknown scalar column tag {tag}")


def _decode_id_column(view: memoryview, pos: int, n: int):
    if pos + n * 4 > len(view):
        raise RbtTruncatedError("frame ends inside an id column")
    ids = _u32_from(view[pos:], n)
    pos += n * 4
    blob, pos = _take_blob(view, pos)
    table = _load_blob(blob, "string table")
    try:
        return [table[i] for i in ids], pos
    except IndexError:
        raise RbtFormatError("id column references past the string table") from None


def _decode_arg_columns(view: memoryview, pos: int, argses: list) -> int:
    """Fill each event's args dict in *argses*, one key column at a time."""
    n = len(argses)
    n_keys, pos = _read_uvarint(view, pos)
    for _ in range(n_keys):
        key_bytes, pos = _take_blob(view, pos)
        key = _load_blob(key_bytes, "key")
        if pos >= len(view):
            raise RbtTruncatedError("frame ends before an argument column tag")
        tag = view[pos]
        pos += 1
        # Each tag yields the events that hold the key (a truthy
        # presence entry each) and their values, in event order.
        if tag == 0:
            if pos + n > len(view):
                raise RbtTruncatedError("frame ends inside a presence column")
            presence = bytes(view[pos : pos + n])
            pos += n
            count = sum(presence)
            if pos + count * 8 > len(view):
                raise RbtTruncatedError("frame ends inside an i64 arg column")
            values = _i64_from(view[pos:], count)
            pos += count * 8
        elif tag == 1:
            if pos + n * 4 > len(view):
                raise RbtTruncatedError("frame ends inside a string arg column")
            presence = _u32_from(view[pos:], n)  # 1-based string ids
            pos += n * 4
            blob, pos = _take_blob(view, pos)
            table = _load_blob(blob, "string table")
            if max(presence, default=0) > len(table):
                raise RbtFormatError("argument column references past the string table")
            values = [table[idx - 1] for idx in presence if idx]
        elif tag == 2:
            if pos + n > len(view):
                raise RbtTruncatedError("frame ends inside a presence column")
            presence = bytes(view[pos : pos + n])
            pos += n
            blob, pos = _take_blob(view, pos)
            values = _load_blob(blob, "argument column")
            if len(values) != sum(presence):
                raise RbtFormatError("JSON arg column length mismatch")
        else:
            raise RbtFormatError(f"unknown argument column tag {tag}")
        for args, value in zip(compress(argses, presence), values):
            args[key] = value
    return pos


def decode_batch(payload: bytes) -> EventBatch:
    """Decode one frame payload into an :class:`EventBatch` of rows."""
    view = memoryview(payload)
    n, pos = _read_uvarint(view, 0)
    if n == 0:
        return EventBatch.from_rows([])
    names, pos = _decode_id_column(view, pos, n)
    comms, pos = _decode_id_column(view, pos, n)
    retvals, pos = _decode_scalar_column(view, pos, n)
    errnos, pos = _decode_scalar_column(view, pos, n)
    pids, pos = _decode_scalar_column(view, pos, n)
    timestamps, pos = _decode_scalar_column(view, pos, n)
    argses = [{} for _ in range(n)]
    pos = _decode_arg_columns(view, pos, argses)
    if pos != len(view):
        raise RbtFormatError("trailing bytes after the last frame column")
    return EventBatch.from_rows(
        list(zip(names, argses, retvals, errnos, pids, comms, timestamps))
    )


# -- container writer --------------------------------------------------------


class RbtWriter:
    """Streams batches into an ``.rbt`` container.

    Args:
        sink: a binary file-like object.
        header: JSON-serializable metadata stored in the container
            header (``format`` is conventional; ``parse_stats`` carries
            the text-parse drop counters across the conversion).
    """

    def __init__(self, sink: BinaryIO, header: dict[str, Any] | None = None) -> None:
        self._sink = sink
        self.events_written = 0
        self.frames_written = 0
        prefix = bytearray(MAGIC)
        prefix.append(VERSION)
        _append_blob(prefix, _dump_json(header or {}))
        sink.write(bytes(prefix))

    def write_rows(self, rows: Iterable[Row]) -> int:
        """Encode *rows* as one frame; returns the events written."""
        return self.write_payload(encode_batch(rows))

    def write_payload(self, payload: bytes) -> int:
        """Write one :func:`encode_batch` payload as a frame; returns its events."""
        count, _ = _read_uvarint(payload, 0)
        if count == 0:
            return 0
        frame = bytearray()
        _write_uvarint(frame, len(payload))
        self._sink.write(bytes(frame))
        self._sink.write(payload)
        self.events_written += count
        self.frames_written += 1
        return count

    def write_batch(self, batch: EventBatch) -> int:
        return self.write_rows(batch.rows())

    def close(self) -> None:
        """Write the explicit terminator frame."""
        self._sink.write(b"\x00")

    def __enter__(self) -> "RbtWriter":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        # A stream cut short by an error stays unterminated, so reading
        # it raises RbtTruncatedError instead of yielding fewer events.
        if exc_type is None:
            self.close()


def encode_stream(
    batches: Iterable[EventBatch], header: dict[str, Any] | None = None
) -> bytes:
    """Encode *batches* into a complete in-memory ``.rbt`` container."""
    import io

    sink = io.BytesIO()
    with RbtWriter(sink, header) as writer:
        for batch in batches:
            writer.write_batch(batch)
    return sink.getvalue()


# -- container reader --------------------------------------------------------


class RbtDecoder:
    """Incremental ``.rbt`` decoder for network/streamed payloads.

    Feed arbitrary byte pieces; complete frames come out as they
    arrive, as payloads (:meth:`frames`) or decoded (:meth:`feed`).
    ``end()`` validates that the stream terminated cleanly.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._header: dict[str, Any] | None = None
        self._finished = False

    @property
    def header(self) -> dict[str, Any] | None:
        """The container header, available once the prefix has arrived."""
        return self._header

    @property
    def finished(self) -> bool:
        """True once the terminator frame has been consumed."""
        return self._finished

    def feed(self, data: bytes) -> list[EventBatch]:
        """Consume *data*; return the batches completed by it."""
        return [decode_batch(payload) for payload in self.frames(data)]

    def frames(self, data: bytes) -> list[bytes]:
        """Consume *data*; return the payloads of the frames it completes."""
        if self._finished and data:
            raise RbtFormatError("bytes after the terminator frame")
        self._buffer += data
        payloads: list[bytes] = []
        buf = self._buffer
        pos = 0
        if self._header is None:
            pos = self._try_header()
            if pos < 0:
                return payloads
            buf = self._buffer
        while True:
            try:
                length, after = _read_uvarint(buf, pos)
            except RbtTruncatedError:
                break  # mid-varint: wait for more bytes
            if length == 0:
                self._finished = True
                if after != len(buf):
                    raise RbtFormatError("bytes after the terminator frame")
                pos = after
                break
            if after + length > len(buf):
                break  # incomplete frame: wait for more bytes
            payloads.append(bytes(buf[after : after + length]))
            pos = after + length
        if pos:
            del self._buffer[:pos]
        return payloads

    def _try_header(self) -> int:
        """Parse the magic/version/header prefix; -1 if incomplete."""
        buf = self._buffer
        if len(buf) < len(MAGIC) + 1:
            if bytes(buf[: len(MAGIC)]) != MAGIC[: len(buf)]:
                raise RbtFormatError("bad magic: not an .rbt stream")
            return -1
        if bytes(buf[: len(MAGIC)]) != MAGIC:
            raise RbtFormatError("bad magic: not an .rbt stream")
        version = buf[len(MAGIC)]
        if version != VERSION:
            raise RbtFormatError(f"unsupported .rbt version {version}")
        pos = len(MAGIC) + 1
        try:
            length, after = _read_uvarint(buf, pos)
        except RbtTruncatedError:
            return -1
        if after + length > len(buf):
            return -1
        try:
            header = json.loads(bytes(buf[after : after + length]))
        except ValueError:
            raise RbtFormatError("container header is not valid JSON") from None
        if not isinstance(header, dict):
            raise RbtFormatError("container header must be a JSON object")
        self._header = header
        return after + length

    def end(self) -> None:
        """Assert the stream ended exactly at the terminator."""
        if self._header is None:
            raise RbtTruncatedError("stream ended inside the container header")
        if not self._finished:
            raise RbtTruncatedError("stream ended before the terminator frame")
        if self._buffer:
            raise RbtFormatError("bytes after the terminator frame")


class RbtReader:
    """Reads an ``.rbt`` file; iterating yields :class:`EventBatch`es."""

    #: Bytes per read while streaming frames off disk.  A read smaller
    #: than a frame (a full 2,048-event frame of the seed-1 xfstests
    #: trace is 126-206 KB) completes at most one frame, so only the
    #: frame being counted holds its rows.
    READ_SIZE = 1 << 16

    def __init__(self, path: str) -> None:
        self.path = path
        self._decoder = RbtDecoder()
        self._header: dict[str, Any] | None = None

    @property
    def header(self) -> dict[str, Any]:
        if self._header is None:
            decoder = RbtDecoder()
            with open(self.path, "rb") as handle:
                while decoder.header is None:
                    piece = handle.read(4096)
                    if not piece:
                        decoder.end()  # raises RbtTruncatedError
                    decoder.feed(piece)
            self._header = decoder.header
        return self._header

    def __iter__(self) -> Iterator[EventBatch]:
        decoder = RbtDecoder()
        with open(self.path, "rb") as handle:
            while True:
                piece = handle.read(self.READ_SIZE)
                if not piece:
                    break
                yield from decoder.feed(piece)
        decoder.end()
        self._header = decoder.header


def iter_rbt_batches(path: str) -> Iterator[EventBatch]:
    """Stream decoded batches from an ``.rbt`` file."""
    return iter(RbtReader(path))


def read_rbt_header(path: str) -> dict[str, Any]:
    """Read just the container header of an ``.rbt`` file."""
    return RbtReader(path).header


def read_rbt_events(path: str):
    """Materialize every event in an ``.rbt`` file (compat/test shim)."""
    events = []
    for batch in iter_rbt_batches(path):
        events.extend(batch.iter_events())
    return events


# -- text -> binary conversion ----------------------------------------------


def convert_file(
    src: str,
    dst: str,
    fmt: str,
    *,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    frame_events: int = DEFAULT_FRAME_EVENTS,
    extra_header: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Convert a text trace at *src* into an ``.rbt`` file at *dst*.

    Returns the conversion summary (event/frame counts plus the text
    parser's drop counters, which are also stored in the container
    header so later analyses can surface them).  Holds one text chunk
    and one frame in memory, whatever the trace's size.
    """
    if frame_events < 1:
        raise ValueError(f"frame_events must be at least 1, not {frame_events}")
    parser = make_batch_parser(fmt)
    pending: list[Row] = []
    # Parse stats are only final once the whole text is read, and they
    # belong in the header, which comes first.  So each frame is written
    # as soon as it is encoded, behind a placeholder header, to an
    # unnamed temporary file beside *dst* (where the output must fit
    # anyway); after the parse, the real header is written and the
    # staged frames are copied behind it, 64 KiB at a time.  A
    # conversion that fails writes no *dst*.
    with tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(dst))) as staged:
        staging = RbtWriter(staged)
        frames_start = staged.tell()
        for chunk in _read_chunks(src, chunk_bytes):
            pending.extend(parser.parse_chunk(chunk))
            while len(pending) >= frame_events:
                staging.write_rows(pending[:frame_events])
                del pending[:frame_events]
        staging.write_rows(pending)
        stats = parser.stats()
        header: dict[str, Any] = {"format": fmt, "source": src}
        header.update(extra_header or {})
        header["parse_stats"] = stats
        header["events"] = staging.events_written
        staged.seek(frames_start)
        with open(dst, "wb") as sink, RbtWriter(sink, header):
            shutil.copyfileobj(staged, sink, 1 << 16)
    return {
        "format": fmt,
        "events": staging.events_written,
        "frames": staging.frames_written,
        "parse_stats": stats,
    }
