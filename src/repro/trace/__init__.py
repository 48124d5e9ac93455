"""Syscall tracing: event model, recorder, and trace-format codecs.

Capture paths into the IOCov analyzer:

* live: :class:`TraceRecorder` attached to a
  :class:`~repro.vfs.syscalls.SyscallInterface` (the LTTng equivalent);
* text traces, one batch parser per format (:func:`make_batch_parser`:
  :class:`LttngBatchParser`, :class:`StraceBatchParser`,
  :class:`SyzkallerBatchParser`) parsing chunk at a time into
  :class:`EventBatch` rows, or templates on the LTTng line-memo path.
  It is the only chunk parser: file reads,
  ``.rbt`` conversion and live ingest all run it, and it reports the
  positions of malformed lines itself;
* the per-line grammars (:class:`LttngParser`, :class:`StraceParser`,
  :class:`SyzkallerParser`) are the reference the tests compare every
  other path against.  :class:`LttngParser` is the LTTng batch
  parser's fallback for chunks its strict regexes decline; the strace
  and syzkaller batch parsers have no grammar of their own and run
  theirs line by line;
* binary ``.rbt`` container: :func:`convert_file` (which writes
  through :class:`RbtWriter`), :class:`RbtReader`, :class:`RbtDecoder`
  — parse once, then decode each frame straight to
  :class:`EventBatch` rows.

Every text path ends a line at ``\n`` only (:func:`split_lines`).
"""

from repro.trace.batch import (
    EventBatch,
    LttngBatchParser,
    StraceBatchParser,
    SyzkallerBatchParser,
    make_batch_parser,
    make_parse_stats,
)
from repro.trace.binary import (
    RbtDecoder,
    RbtError,
    RbtFormatError,
    RbtReader,
    RbtTruncatedError,
    RbtWriter,
    convert_file,
    decode_batch,
    encode_batch,
    iter_rbt_batches,
    read_rbt_events,
    read_rbt_header,
)
from repro.trace.events import SyscallEvent, make_event, split_lines
from repro.trace.lttng import LttngParseError, LttngParser, LttngWriter
from repro.trace.recorder import TraceRecorder
from repro.trace.replay import ReplayDivergence, ReplayReport, TraceReplayer
from repro.trace.strace import StraceParseError, StraceParser
from repro.trace.syzkaller import SyzkallerParser

__all__ = [
    "EventBatch",
    "LttngBatchParser",
    "LttngParseError",
    "LttngParser",
    "LttngWriter",
    "RbtDecoder",
    "RbtError",
    "RbtFormatError",
    "RbtReader",
    "RbtTruncatedError",
    "RbtWriter",
    "ReplayDivergence",
    "ReplayReport",
    "StraceBatchParser",
    "StraceParseError",
    "StraceParser",
    "SyscallEvent",
    "SyzkallerBatchParser",
    "SyzkallerParser",
    "TraceRecorder",
    "TraceReplayer",
    "convert_file",
    "decode_batch",
    "encode_batch",
    "iter_rbt_batches",
    "make_batch_parser",
    "make_event",
    "make_parse_stats",
    "read_rbt_events",
    "read_rbt_header",
    "split_lines",
]
