"""Sharded trace analysis: fan out, stitch, merge — exactly.

:func:`run_sharded` splits a trace file into line-aligned byte spans,
analyzes each span in a worker process (parse → shard-local filter →
count), then combines the shard states into a report **bit-identical**
to a sequential pass.  Exactness rests on three mechanisms:

1. **Counter merging** — every coverage tally is a sum, so shard
   states fold together losslessly (:meth:`ShardResult.merge`,
   tree-reduced).
2. **Filter fixup replay** — rows a shard could not decide locally
   (they hinge on pre-shard fd state) were deferred; the parent
   replays each shard's op log, deferred rows, and boundary pairs in
   stream order against a real :class:`TraceFilter`, reconstructing
   the exact sequential fd table at every decision point.
3. **LTTng boundary stitching** — exit lines orphaned by a shard cut
   are paired with entry lines carried over from earlier shards.  When
   shard-local pairing *might* have diverged from sequential FIFO
   pairing (carried entries still queued when a shard paired locally),
   the executor detects it and falls back to a sequential pass rather
   than return an inexact result.

The fallback path means the parity guarantee is unconditional; the
fast path merely becomes the common case (real traces pair entry and
exit lines adjacently, so carried queues drain immediately).
"""

from __future__ import annotations

import heapq
import os
import queue
import threading
from collections import defaultdict, deque
from typing import Any

from repro.core.analyzer import IOCov
from repro.core.filter import AcceptAllFilter, TraceFilter
from repro.core.report import CoverageReport
from repro.parallel.pool import PoolError, get_pool, pool_is_warm
from repro.parallel.shardfilter import OP_ADD
from repro.parallel.sharding import DEFAULT_MIN_SHARD_BYTES, shard_spans
from repro.parallel.worker import (
    FORMATS,
    ShardResult,
    ShardTask,
    analyze_shard,
)
from repro.trace.batch import make_parse_stats
from repro.trace.lttng import pair_row
from repro.trace.syzkaller import scan_resource_bindings

#: Below this many *estimated* events per worker, fan-out costs more
#: than it saves; the executor runs sequentially instead.  Two
#: thresholds, because the dominant cost differs by an order of
#: magnitude: a *cold* call pays worker startup (~18 ms/worker
#: measured), a *warm* call only pays shared-memory handoff and result
#: pickling.
MIN_SHARD_EVENTS = 4096
MIN_SHARD_EVENTS_WARM = 1024

#: Extra shard payloads the reader thread may stage beyond the worker
#: count — the pipeline depth of the parse→analyze overlap.
PIPELINE_SLACK = 2

#: Bytes sampled from the head of the file to estimate the event count.
_SAMPLE_BYTES = 128 * 1024


class ShardAmbiguityError(RuntimeError):
    """Shard-local LTTng pairing may differ from the sequential pairing.

    Raised during the stitch phase when a shard paired an exit with a
    local entry while entries carried over from earlier shards were
    still queued for the same (pid, syscall) — sequential FIFO pairing
    would have consumed the carried entry instead.  The executor
    answers by re-running sequentially; results stay exact.
    """


def run_sharded(
    path: str,
    *,
    fmt: str = "lttng",
    jobs: int | None = None,
    mount_point: str | None = None,
    suite_name: str | None = None,
    inline: bool = False,
    min_shard_bytes: int = DEFAULT_MIN_SHARD_BYTES,
    stats: dict | None = None,
) -> CoverageReport:
    """Analyze *path* with up to *jobs* workers; exact parity guaranteed.

    Args:
        path: trace file (LTTng text, strace, or syzkaller format).
        fmt: one of ``lttng`` / ``strace`` / ``syzkaller``.
        jobs: worker count; defaults to the machine's CPU count.
        mount_point: tester mount point for the scoping filter (same
            meaning as :class:`IOCov`'s); None accepts everything.
        suite_name: report label; defaults to *path*.
        inline: run shards in-process instead of a process pool —
            deterministic single-process mode for tests and debugging.
        min_shard_bytes: floor on shard size; small files get fewer
            shards rather than micro-shards.
        stats: optional dict the executor fills with how the run
            actually executed (``shards``, ``sequential_fallback``) —
            recorded in the run store so a stored run names the
            topology that produced it.

    Returns:
        A :class:`CoverageReport` bit-identical to the sequential
        ``IOCov(...).consume_<fmt>_file(path).report()``.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown trace format: {fmt!r}")
    suite = suite_name if suite_name is not None else path
    cpus = os.cpu_count() or 1
    if jobs is None:
        jobs = cpus
    requested = jobs
    if not inline and jobs > cpus:
        # More workers than cores is pure fork/pickle overhead: each
        # extra process time-slices the same CPUs it shares with the
        # others (the measured negative scaling on small machines).
        jobs = cpus
    if stats is None:
        stats = {}
    stats.update(jobs_requested=requested, jobs_effective=jobs)
    # The degrade reason names the step that set the final shard count.
    degrade_reason = "cpu_clamp" if jobs < requested else None
    spans = shard_spans(path, jobs, min_shard_bytes=min_shard_bytes)
    stats.update(shards=len(spans), sequential_fallback=False, pool_skipped=False)
    warm = pool_is_warm()
    threshold = MIN_SHARD_EVENTS_WARM if warm else MIN_SHARD_EVENTS
    if len(spans) <= 1:
        stats.update(shards=1)
        if jobs > 1:
            degrade_reason = "small_file"
    elif not inline and _estimate_events(path, fmt) < jobs * threshold:
        # Not enough work to amortize the fan-out: the pool would
        # *lose* wall-clock time against the batch sequential path
        # (the measured --jobs regression on small traces).  A warm
        # pool lowers the bar — dispatch costs microseconds, not the
        # cold per-worker startup.
        stats.update(shards=1, pool_skipped=True)
        degrade_reason = "min_shard_events"
    if degrade_reason is not None:
        stats["degrade_reason"] = degrade_reason
    if stats["shards"] == 1:
        return _run_sequential(path, fmt, mount_point, suite, stats)

    if fmt == "syzkaller":
        snapshots = _syzkaller_snapshots(path, [start for start, _ in spans])
    else:
        snapshots = [None] * len(spans)
    tasks = [
        ShardTask(
            index=index,
            path=path,
            start=start,
            end=end,
            fmt=fmt,
            mount_point=mount_point,
            resources=snapshots[index],
        )
        for index, (start, end) in enumerate(spans)
    ]

    merged: ShardResult | None = None
    if inline:
        results = [analyze_shard(task) for task in tasks]
    else:
        try:
            results, merged = _run_pool_pipelined(path, tasks, jobs, warm, stats)
        except PoolError as exc:
            # Pool unavailable or a worker died mid-call: the parity
            # guarantee is unconditional, so re-run sequentially.
            stats.update(
                sequential_fallback=True, fallback_reason=type(exc).__name__
            )
            return _run_sequential(path, fmt, mount_point, suite, stats)

    residue: dict[str, int] = {}
    try:
        combined = _stitch_and_merge(results, mount_point, suite, residue, merged)
    except ShardAmbiguityError:
        stats.update(sequential_fallback=True, fallback_reason="shard_ambiguity")
        return _run_sequential(path, fmt, mount_point, suite, stats)
    stats["parse"] = make_parse_stats(
        fmt,
        sum(result.skipped_lines for result in results)
        + residue.get("unstitched_orphans", 0),
        sum(result.malformed_lines for result in results),
        residue.get("unpaired_entries", 0),
    )
    return combined.report()


def _estimate_events(path: str, fmt: str) -> int:
    """Cheap event-count estimate from a head sample of the file.

    Average line length over the first :data:`_SAMPLE_BYTES` scales to
    the file size; LTTng needs two lines (entry + exit) per event.
    """
    size = os.path.getsize(path)
    if size == 0:
        return 0
    with open(path, "rb") as handle:
        sample = handle.read(_SAMPLE_BYTES)
    newlines = sample.count(b"\n")
    if newlines == 0:
        return 1
    estimated_lines = size * newlines // len(sample)
    return estimated_lines // 2 if fmt == "lttng" else estimated_lines


def _run_pool_pipelined(
    path: str,
    tasks: list[ShardTask],
    jobs: int,
    warm: bool,
    stats: dict,
) -> tuple[list[ShardResult], ShardResult]:
    """The pipelined scheduler over the persistent worker pool.

    Three stages overlap:

    * a **reader thread** walks the spans in file order, reads each
      span's bytes, and hands them to the pool through shared memory —
      staying at most ``workers + PIPELINE_SLACK`` spans ahead so a
      huge trace never materializes in memory at once;
    * **workers** parse and count each span as soon as its bytes land;
    * the **caller thread** folds shard tallies together *in completion
      order* — the stream-merge half of :func:`tree_merge`'s job — so
      merging the fast shards overlaps the slow shards' counting
      instead of barriering on the whole fan-out.

    Only the order-sensitive stitch residue waits for every shard.

    Returns ``(results_by_index, merged_tallies)``.

    Raises:
        PoolError: the pool could not be started, or a worker died
            with a shard in flight (the caller falls back sequential).
    """
    pool = get_pool(jobs)
    stats["pool"] = {
        "warm": warm,
        "workers": pool.workers,
        "cold_start_seconds": None if warm else round(pool.cold_start_seconds, 4),
    }
    done: queue.Queue = queue.Queue()
    slots = threading.Semaphore(pool.workers + PIPELINE_SLACK)
    abort = threading.Event()

    def feed() -> None:
        try:
            with open(path, "rb") as handle:
                for task in tasks:
                    slots.acquire()
                    if abort.is_set():
                        return
                    handle.seek(task.start)
                    data = handle.read(task.end - task.start)
                    future = pool.submit_shard(
                        task, data, worker=task.index % pool.workers
                    )
                    future.add_done_callback(
                        lambda f, index=task.index: done.put((index, f))
                    )
        except BaseException as exc:  # noqa: BLE001 - forwarded to caller
            done.put((None, exc))

    reader = threading.Thread(target=feed, name="iocov-shard-reader", daemon=True)
    reader.start()

    results: list[ShardResult | None] = [None] * len(tasks)
    merged: ShardResult | None = None
    try:
        for _ in range(len(tasks)):
            index, future = done.get()
            if index is None:
                raise future if isinstance(future, BaseException) else PoolError(
                    str(future)
                )
            slots.release()
            _incarnation, result = future.result()
            results[index] = result
            # Stream-merge: tallies fold as shards finish, any order.
            merged = result if merged is None else merged.merge(result)
    except BaseException:
        abort.set()
        # Unblock the reader if it is parked on the pipeline bound.
        for _ in tasks:
            slots.release()
        raise
    finally:
        reader.join(timeout=5)
    return results, merged


def _run_sequential(
    path: str, fmt: str, mount_point: str | None, suite: str, stats: dict
) -> CoverageReport:
    """The reference path: one batch-streaming pass (also the fallback)."""
    iocov = IOCov(mount_point=mount_point, suite_name=suite)
    getattr(iocov, f"consume_{fmt}_file")(path)
    stats["parse"] = iocov.parse_stats
    return iocov.report()


def _syzkaller_snapshots(path: str, starts: list[int]) -> list[dict[str, int]]:
    """Resource table at each shard start, via one cheap text pre-scan.

    Syzkaller's ``rN`` bindings allocate placeholder fds sequentially,
    so a shard parsing mid-file needs the bindings every earlier line
    established.  Scanning just the binding pattern is far cheaper
    than full parsing and keeps the parallel speedup worthwhile.
    """
    snapshots: list[dict[str, int]] = [{}]
    resources: dict[str, int] = {}
    offset = 0
    next_cut = 1
    with open(path, "rb") as handle:
        for raw in handle:
            if next_cut >= len(starts):
                break
            if offset >= starts[next_cut]:
                snapshots.append(dict(resources))
                next_cut += 1
                if next_cut >= len(starts):
                    break
            scan_resource_bindings(raw.decode("utf-8"), resources)
            offset += len(raw)
    while len(snapshots) < len(starts):
        snapshots.append(dict(resources))
    return snapshots


def tree_merge(results: list[ShardResult]) -> ShardResult:
    """Pairwise-reduce shard results: O(log n) merge depth."""
    items = list(results)
    if not items:
        raise ValueError("no shard results to merge")
    while len(items) > 1:
        merged: list[ShardResult] = []
        for i in range(0, len(items) - 1, 2):
            merged.append(items[i].merge(items[i + 1]))
        if len(items) % 2:
            merged.append(items[-1])
        items = merged
    return items[0]


def _stitch_and_merge(
    results: list[ShardResult],
    mount_point: str | None,
    suite: str,
    residue: dict | None = None,
    merged: ShardResult | None = None,
) -> IOCov:
    """Replay the cross-shard residue, then fold all tallies together.

    A real filter is driven through the exact sequence of fd-table
    mutations the sequential run would perform: shard op logs,
    deferred-row decisions, and stitched boundary pairs, interleaved
    in stream order by their sequence numbers.  The rows it admits are
    counted through the fixup analyzer's counting loop.

    *residue* (if given) receives the parse-stat contributions only the
    stitch phase knows: orphan exits no earlier entry matched (the
    sequential parser counts them skipped) and entry lines whose exits
    never arrived (the sequential parser's unpaired count).

    *merged* carries tallies the pipelined scheduler already
    stream-merged in completion order; when absent (the inline path)
    they are tree-merged here.  Both are exact — every tally is a sum.
    """
    real = (
        TraceFilter.for_mount_point(mount_point)
        if mount_point is not None
        else AcceptAllFilter()
    )
    admitted: list[tuple] = []
    carried: dict[tuple[int, str], deque] = defaultdict(deque)
    stitched = 0
    unstitched_orphans = 0

    for result in sorted(results, key=lambda r: r.index):
        # Prove shard-local pairing matched sequential FIFO pairing:
        # every carried entry for a key must have been consumed by
        # orphan exits before the shard's first local pair of that key.
        for key, orphans_before in result.first_pair_orphans.items():
            if len(carried[key]) > orphans_before:
                raise ShardAmbiguityError(
                    f"carried entries for {key} still queued at a local pair"
                )

        records = heapq.merge(
            ((seq, 0, payload) for seq, *payload in result.ops),
            ((seq, 1, payload) for seq, payload in result.orphans),
            ((seq, 2, payload) for seq, payload in result.iter_deferred()),
            key=lambda record: record[0],
        )
        for _seq, tag, payload in records:
            if tag == 0:  # definite fd-table mutation from the shard
                pid, op, fd = payload
                if op == OP_ADD:
                    real.register_fd(pid, fd)
                else:
                    real.retire_fd(pid, fd)
                continue
            if tag == 1:  # orphan exit: pair with a carried entry
                _ns, name, pid, comm, fields = payload
                queue = carried[(pid, name)]
                if not queue:
                    # Exit with no entry anywhere before it — the
                    # sequential parser counts it as a skipped line.
                    unstitched_orphans += 1
                    continue
                entry_ns, entry_comm, args = queue.popleft()
                row = pair_row(name, args, fields, pid, entry_comm or comm, entry_ns)
                stitched += 1
            else:  # deferred row: decide against the true fd state
                row = payload
            if real.admit_record(row[0], row[1], row[2], row[4]):
                admitted.append(row)

        for key, entries in result.pending.items():
            carried[key].extend(entries)

    if residue is not None:
        residue["unstitched_orphans"] = unstitched_orphans
        residue["unpaired_entries"] = sum(len(q) for q in carried.values())
    # Rows arrive already decided, so the fixup analyzer accepts all of
    # them; only the stitched pairs are new to *processed* (the shards
    # already counted their deferred rows as seen).
    fixup = IOCov(suite_name=suite)
    fixup._ingest_rows(admitted)
    fixup.events_processed = stitched
    top = merged if merged is not None else tree_merge(results)
    fixup.input.merge(top.input)
    fixup.output.merge(top.output)
    fixup.untracked.update(top.untracked)
    fixup.events_processed += top.events_processed
    fixup.events_admitted += top.events_admitted
    return fixup
