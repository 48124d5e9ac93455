"""Per-shard analysis: parse → filter → count, with stitch residue.

A worker consumes one byte span of the trace file and produces a
:class:`ShardResult` — its coverage tallies plus everything the parent
needs to make the combined result *bit-identical* to a sequential
pass:

* the :class:`~repro.parallel.shardfilter.ShardFilter` op log and
  deferred rows (stateful mount-point filtering across shards);
* LTTng pairing residue: orphan exit lines (entry in an earlier
  shard) and pending entry lines (exit in a later shard), plus the
  per-key diagnostics the parent uses to prove local pairing was
  position-exact.

Every record in the shard gets a sequence number (``seq``) in stream
order; ops, deferred rows, and orphans all carry their seq so the
parent can interleave its fixup replay at exactly the right points.
Events travel as row tuples throughout and are counted by
:meth:`IOCov._ingest_rows`, like every other ingest path.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.core.analyzer import IOCov
from repro.core.filter import TraceFilter
from repro.core.input_coverage import InputCoverage
from repro.core.output_coverage import OutputCoverage
from repro.parallel.shardfilter import FdOp, ShardFilter
from repro.parallel.sharding import iter_span_chunks, iter_span_lines
from repro.trace.batch import StraceBatchParser, SyzkallerBatchParser
from repro.trace.binary import decode_batch, encode_batch
from repro.trace.events import split_lines
from repro.trace.lttng import LttngParser, OrphanExit

#: Trace formats the sharded pipeline understands.
FORMATS = ("lttng", "strace", "syzkaller")

#: (pid, name) -> pending LTTng entries (ns, comm, args), stream order.
PendingMap = dict[tuple[int, str], list[tuple[int, str, dict[str, Any]]]]


@dataclass(frozen=True)
class ShardTask:
    """Everything a worker needs; must stay cheaply picklable."""

    index: int
    path: str
    start: int
    end: int
    fmt: str
    mount_point: str | None
    #: syzkaller resource table at the shard's first line (from the
    #: executor's sequential pre-scan); None for other formats.
    resources: dict[str, int] | None = None


@dataclass
class ShardResult:
    """One shard's tallies plus the residue the stitch phase consumes."""

    index: int
    input: InputCoverage
    output: OutputCoverage
    untracked: Counter
    events_processed: int
    events_admitted: int
    #: definite fd-table mutations, (seq, pid, op, fd), stream order
    ops: list[FdOp] = field(default_factory=list)
    #: rows whose filter verdict needs pre-shard fd state
    deferred: list[tuple[int, tuple]] = field(default_factory=list)
    #: LTTng exit lines whose entries live in an earlier shard
    orphans: list[tuple[int, OrphanExit]] = field(default_factory=list)
    #: LTTng entry lines whose exits live in a later shard
    pending: PendingMap = field(default_factory=dict)
    #: (pid, name) -> orphan exits seen before the first *local* pair
    #: for that key; the parent proves local pairing exact by checking
    #: the carried-over entry queue was drained by then.
    first_pair_orphans: dict[tuple[int, str], int] = field(default_factory=dict)
    #: parser drop counters for this shard's span (summed by the parent
    #: into the run-level parse stats).
    skipped_lines: int = 0
    malformed_lines: int = 0
    #: deferred rows shipped as one encoded ``.rbt`` frame;
    #: ``deferred_seqs`` carries the matching stream positions.  When
    #: set, ``deferred`` is empty.
    deferred_blob: bytes | None = None
    deferred_seqs: list[int] | None = None

    def iter_deferred(self):
        """Yield ``(seq, row)`` regardless of the transport encoding."""
        if self.deferred_blob is not None:
            return zip(self.deferred_seqs, decode_batch(self.deferred_blob).iter_rows())
        return iter(self.deferred)

    def merge(self, other: "ShardResult") -> "ShardResult":
        """Fold another shard's coverage tallies in (exact: sums).

        Only the mergeable tallies combine — stitch residue (ops,
        deferred, orphans, pending) is consumed separately by the
        parent and is not carried through merges.
        """
        self.input.merge(other.input)
        self.output.merge(other.output)
        self.untracked.update(other.untracked)
        self.events_processed += other.events_processed
        self.events_admitted += other.events_admitted
        return self


def _count(
    iocov: IOCov, shard_filter: ShardFilter | None, records: Iterable[tuple[int, tuple]]
) -> None:
    """Count the ``(seq, row)`` records the shard decides to admit.

    Every record counts as *processed* here (the worker saw it);
    deferred rows reach the admitted side only through the parent's
    replay.
    """
    if shard_filter is None:
        iocov._ingest_rows(row for _seq, row in records)
        return
    admit = shard_filter.admit_local_row
    processed = 0

    def admitted() -> Iterator[tuple]:
        nonlocal processed
        for seq, row in records:
            processed += 1
            if admit(seq, row) is True:
                yield row

    iocov._ingest_rows(admitted())
    iocov.events_processed = processed


def analyze_shard(task: ShardTask) -> ShardResult:
    """Analyze one byte span of the trace file (runs in a worker).

    The file-reading entry point: streams the span off disk.  The
    pool's shared-memory path hands the span bytes over directly via
    :func:`analyze_shard_data` instead.
    """
    return _analyze_shard_impl(task, data=None)


def analyze_shard_data(task: ShardTask, data: str) -> ShardResult:
    """Analyze one shard whose span text was delivered in memory.

    *data* is the exact decoded text of the span ``[start, end)`` —
    what the executor's reader thread placed in the shared-memory
    segment.  Results are identical to :func:`analyze_shard` reading
    the same span from ``task.path``.
    """
    return _analyze_shard_impl(task, data=data)


def _analyze_shard_impl(task: ShardTask, data: str | None) -> ShardResult:
    if task.fmt not in FORMATS:
        raise ValueError(f"unknown trace format: {task.fmt!r}")
    iocov = IOCov(suite_name=f"shard-{task.index}")
    shard_filter = (
        ShardFilter(TraceFilter.for_mount_point(task.mount_point))
        if task.mount_point is not None
        else None
    )

    orphans: list[tuple[int, OrphanExit]] = []
    pending: PendingMap = {}
    first_pair_orphans: dict[tuple[int, str], int] = {}

    if task.fmt == "lttng":
        # Entry/exit pairing and the orphan/pending stitch residue need
        # the record stream, so LTTng shards stay on the per-line
        # reader (whose fast line grammar does the heavy lifting).
        if data is None:
            lines = iter_span_lines(task.path, task.start, task.end)
        else:
            lines = split_lines(data)
        parser = LttngParser()
        orphan_seen: dict[tuple[int, str], int] = {}

        def records() -> Iterator[tuple[int, tuple]]:
            for seq, (kind, payload) in enumerate(parser.parse_records(lines)):
                if kind == "orphan":
                    key = (payload[2], payload[1])  # (pid, name)
                    orphan_seen[key] = orphan_seen.get(key, 0) + 1
                    orphans.append((seq, payload))
                    continue
                key = (payload[4], payload[0])  # (pid, name)
                if key not in first_pair_orphans:
                    first_pair_orphans[key] = orphan_seen.get(key, 0)
                yield seq, payload

        _count(iocov, shard_filter, records())
        pending = parser.pending_entries
    else:
        # Self-contained line formats: batch-parse the span chunk by
        # chunk.
        parser = (
            StraceBatchParser()
            if task.fmt == "strace"
            else SyzkallerBatchParser(resources=task.resources)
        )
        if data is None:
            chunks = iter_span_chunks(task.path, task.start, task.end)
        else:
            # In-memory span: one chunk (batch parsing is chunking-
            # independent, property-tested in tests/trace/test_batch.py).
            chunks = (data,) if data else ()
        rows = (row for chunk in chunks for row in parser.parse_chunk(chunk))
        _count(iocov, shard_filter, enumerate(rows))
    skipped = parser.skipped_lines
    malformed = parser.malformed_lines

    deferred = shard_filter.deferred if shard_filter is not None else []
    deferred_blob = None
    deferred_seqs = None
    if deferred:
        # Ship the deferred rows as one encoded frame, decoded lazily
        # by the parent's stitch phase.
        deferred_seqs = [seq for seq, _ in deferred]
        deferred_blob = encode_batch([row for _, row in deferred])
        deferred = []

    return ShardResult(
        index=task.index,
        input=iocov.input,
        output=iocov.output,
        untracked=iocov.untracked,
        events_processed=iocov.events_processed,
        events_admitted=iocov.events_admitted,
        ops=shard_filter.ops if shard_filter is not None else [],
        deferred=deferred,
        orphans=orphans,
        pending=pending,
        first_pair_orphans=first_pair_orphans,
        skipped_lines=skipped,
        malformed_lines=malformed,
        deferred_blob=deferred_blob,
        deferred_seqs=deferred_seqs,
    )
