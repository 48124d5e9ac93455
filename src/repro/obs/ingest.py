"""The live ingestion pipeline: queue, parse, quarantine, count.

:class:`IngestSession` is the daemon's engine, kept free of HTTP so the
failure modes are testable directly:

* **bounded queue with backpressure** — producers (HTTP handler
  threads) block in :meth:`feed_text` once ``queue_size`` lines are
  outstanding, which propagates back to the client as TCP backpressure
  instead of unbounded daemon memory;
* **chunk-mode parsing** — lines travel through the queue as whole
  chunks and are parsed by the session's persistent batch parser
  (:func:`~repro.trace.batch.make_batch_parser`: the regex fast path,
  with LTTng entry/exit pairing and syzkaller resource bindings kept
  across chunks), so a trace streamed in arbitrary network-sized
  pieces counts identically to a one-shot ``repro analyze`` of the
  same bytes — at batch-parse speed;
* **malformed-line quarantine with an error budget** — grammar-rejected
  lines are kept (capped) with their positions, which the batch parser
  reports for each chunk it parses; once the malformed ratio exceeds
  the budget the session degrades and refuses further input rather
  than publishing numbers built on garbage;
* **journaling** — accepted lines are appended to the run store's
  journal *before* they are counted, so a crash loses nothing:
  :meth:`IngestSession.recover` replays the journal through a fresh
  parser/analyzer on restart;
* **drain** — :meth:`close` waits for every queued line to be parsed
  and counted (the SIGTERM path), then optionally snapshots the final
  state into the store;
* **namespacing** — every session belongs to a ``tenant/project``;
  journal records, stored runs, and metric samples carry the
  namespace, so one registry and one store serve many tenants.
"""

from __future__ import annotations

import base64
import binascii
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.core.analyzer import IOCov
from repro.obs.metrics import MetricsRegistry
from repro.obs.store import DEFAULT_PROJECT, DEFAULT_TENANT, BaseRunStore
from repro.trace.batch import EventBatch, make_batch_parser
from repro.trace.binary import RbtError, decode_batch, encode_batch

#: Default bound on queued-but-uncounted lines.
DEFAULT_QUEUE_SIZE = 65536

#: Journal marker for binary batches: one journal "line" per frame,
#: ``#repro-rbt1:`` + base64 of the frame payload.  The ``#`` prefix
#: keeps the line inert if it ever reaches a text parser by mistake,
#: and :meth:`IngestSession.recover` dispatches on it.
RBT_JOURNAL_PREFIX = "#repro-rbt1:"

#: Default error budget: malformed fraction that degrades the session.
DEFAULT_ERROR_BUDGET = 0.05

#: Malformed lines below this count never degrade the session (a lone
#: bad line in a ten-line trace should not trip a 5% budget).
DEFAULT_BUDGET_GRACE = 20

#: How many quarantined lines are retained for inspection.
QUARANTINE_CAP = 100

#: The worker coalesces queued chunks until roughly this many lines
#: count under one lock round.
WORKER_ROUND_LINES = 4096

_SENTINEL = object()


class SessionDegradedError(RuntimeError):
    """The session exceeded its malformed-line error budget."""


@dataclass
class Quarantined:
    """One grammar-rejected line, kept for inspection."""

    line_number: int
    line: str

    def to_dict(self) -> dict[str, Any]:
        return {"line_number": self.line_number, "line": self.line}


@dataclass
class _Flush:
    """Queue marker: set the event once everything before it counted."""

    done: threading.Event = field(default_factory=threading.Event)


def _chunk_text(lines: list[str]) -> str:
    """One parser chunk holding exactly *lines* (blank ones included)."""
    return "\n".join(lines) + "\n"


class IngestSession:
    """A live trace-ingestion session feeding one :class:`IOCov`.

    Args:
        fmt: trace format (``lttng``/``strace``/``syzkaller``).
        mount_point: scoping filter mount point (None = accept all).
        suite_name: label for the live report.
        store: run store for journaling and snapshots (optional).
        journal_session: journal key in the store.
        queue_size: bound on queued lines (backpressure threshold).
        error_budget: malformed-line fraction that degrades the session.
        budget_grace: malformed-line count below which the budget never
            trips.
        registry: metrics registry to instrument (optional; shareable
            across sessions — samples carry tenant/project labels).
        tenant: namespace tenant for journal/store/metric scoping.
        project: namespace project.

    Attributes:
        parser: the batch parser; ``malformed_lines`` and
            ``unpaired_entries`` are the session's parse counters.
        journal_record_corrupt: binary journal records that
            :meth:`recover` could not decode and skipped.
    """

    def __init__(
        self,
        fmt: str = "lttng",
        *,
        mount_point: str | None = None,
        suite_name: str = "live",
        store: BaseRunStore | None = None,
        journal_session: str = "live",
        queue_size: int = DEFAULT_QUEUE_SIZE,
        error_budget: float = DEFAULT_ERROR_BUDGET,
        budget_grace: int = DEFAULT_BUDGET_GRACE,
        registry: MetricsRegistry | None = None,
        tenant: str = DEFAULT_TENANT,
        project: str = DEFAULT_PROJECT,
    ) -> None:
        self.fmt = fmt
        self.mount_point = mount_point
        self.suite_name = suite_name
        self.store = store
        self.journal_session = journal_session
        self.queue_size = queue_size
        self.error_budget = error_budget
        self.budget_grace = budget_grace
        self.tenant = tenant
        self.project = project
        self._labels = {"tenant": tenant, "project": project}
        self._ns = {"tenant": tenant, "project": project}
        self.iocov = IOCov(mount_point=mount_point, suite_name=suite_name)
        self.parser = make_batch_parser(fmt)
        self.quarantine: list[Quarantined] = []
        self.degraded = False
        self.closed = False
        self.lines_received = 0
        self.events_counted = 0
        self.batches_received = 0
        self.runs_stored = 0
        self.journal_record_corrupt = 0
        self._lock = threading.Lock()  # guards iocov + counters
        #: producers serialize whole requests on this so interleaved
        #: chunked POSTs cannot shuffle each other's partial lines
        self.feed_lock = threading.Lock()
        self._queue: queue.Queue = queue.Queue()
        #: backpressure: lines enqueued but not yet counted, guarded by
        #: its own condition so producers block at line granularity even
        #: though queue items are whole chunks
        self._pending_lines = 0
        self._space = threading.Condition()
        self._feed_tail = ""
        self._metrics(registry)
        self._worker = threading.Thread(
            target=self._run_worker,
            name=f"iocov-ingest-{tenant}-{project}",
            daemon=True,
        )
        self._worker.start()

    def _metrics(self, registry: MetricsRegistry | None) -> None:
        registry = registry or MetricsRegistry()
        self.registry = registry
        self.m_lines = registry.counter(
            "iocov_ingest_lines_total", "Trace lines accepted for ingestion"
        )
        self.m_events = registry.counter(
            "iocov_ingest_events_total", "Syscall events parsed and counted"
        )
        self.m_parse_errors = registry.counter(
            "iocov_parse_errors_total", "Grammar-rejected (quarantined) trace lines"
        )
        self.m_queue_depth = registry.gauge(
            "iocov_ingest_queue_depth", "Lines queued but not yet counted"
        )
        self.m_batch_seconds = registry.histogram(
            "iocov_ingest_batch_seconds",
            "Wall time spent parsing and counting one ingest batch",
        )
        self.m_runs = registry.counter(
            "iocov_runs_stored_total", "Coverage runs snapshotted into the store"
        )

    # -- the worker ----------------------------------------------------------

    @staticmethod
    def _work_size(item: Any) -> int:
        return len(item) if isinstance(item, list) else 1

    def _run_worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SENTINEL:
                break
            if isinstance(item, _Flush):
                item.done.set()
                continue
            # Coalesce opportunistically: one lock round per work batch.
            work = [item]
            round_lines = self._work_size(item)
            flushes: list[_Flush] = []
            stop = False
            while round_lines < WORKER_ROUND_LINES:
                try:
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    break
                if extra is _SENTINEL:
                    self._queue.put(_SENTINEL)  # re-post for the outer loop
                    stop = True
                    break
                if isinstance(extra, _Flush):
                    flushes.append(extra)
                    break  # honor ordering: flush after this batch counts
                work.append(extra)
                round_lines += self._work_size(extra)
            self._ingest_work(work)
            with self._space:
                self._pending_lines -= round_lines
                depth = self._pending_lines
                self._space.notify_all()
            for flush in flushes:
                flush.done.set()
            self.m_queue_depth.set(max(depth, 0), **self._labels)
            if stop:
                break

    def _ingest_work(self, items: list) -> None:
        """Count one drained queue round: line chunks and/or event batches.

        Items are consumed strictly in queue order — a binary frame
        between two text chunks counts exactly where it arrived, so fd
        state evolves as it would have in one sequential stream.
        """
        started = time.perf_counter()
        n_lines = 0
        n_events = 0
        malformed: list[Quarantined] = []
        parser = self.parser
        with self._lock:
            for item in items:
                if isinstance(item, EventBatch):
                    self.iocov.consume_batch(item)
                    self.batches_received += 1
                    n_events += len(item)
                    continue
                base = self.lines_received
                rows = parser.parse_chunk(_chunk_text(item))
                n_lines += len(item)
                self.lines_received += len(item)
                for index in parser.malformed_positions:
                    malformed.append(Quarantined(base + index + 1, item[index]))
                if rows:
                    self.iocov.consume_batch(EventBatch.from_rows(rows))
                    n_events += len(rows)
            self.events_counted += n_events
            if malformed:
                space = QUARANTINE_CAP - len(self.quarantine)
                self.quarantine.extend(malformed[:space])
                if (
                    self.parser.malformed_lines > self.budget_grace
                    and self.parser.malformed_lines
                    > self.error_budget * self.lines_received
                ):
                    self.degraded = True
        self.m_lines.inc(n_lines, **self._labels)
        self.m_events.inc(n_events, **self._labels)
        if malformed:
            self.m_parse_errors.inc(len(malformed), **self._labels)
        self.m_batch_seconds.observe(time.perf_counter() - started, **self._labels)

    # -- feeding -------------------------------------------------------------

    def _check_accepting(self) -> None:
        if self.closed:
            raise RuntimeError("ingest session is closed")
        # degraded and the parser counters are written by the worker
        # under _lock; read them under the same lock.
        with self._lock:
            degraded = self.degraded
            malformed = self.parser.malformed_lines
            fed = self.lines_received
        if degraded:
            raise SessionDegradedError(
                f"error budget exhausted: {malformed} of "
                f"{fed} lines malformed "
                f"(budget {self.error_budget:.1%})"
            )

    def _enqueue(self, item: Any, weight: int) -> None:
        """Admit one queue item, blocking while the line bound is hit."""
        with self._space:
            while self._pending_lines >= self.queue_size and not self.closed:
                # Producers are *meant* to park here while serialized
                # by feed_lock: the worker drains the queue without
                # taking either lock, so this cannot deadlock.
                self._space.wait(0.5)  # lint: allow(blocking-under-lock)
            self._pending_lines += weight
            depth = self._pending_lines
        self._queue.put(item)
        self.m_queue_depth.set(depth, **self._labels)

    def feed_lines(self, lines: list[str], *, journal: bool = True) -> None:
        """Enqueue complete lines; blocks when the queue is full.

        Raises:
            SessionDegradedError: the error budget is exhausted.
            RuntimeError: the session was closed.
        """
        self._check_accepting()
        if not lines:
            return
        if journal and self.store is not None:
            self.store.journal_append(self.journal_session, lines, **self._ns)
        chunk = list(lines)
        self._enqueue(chunk, len(chunk))

    def feed_text(self, data: str, *, journal: bool = True) -> None:
        """Feed a raw payload that may split lines arbitrarily.

        Partial trailing lines are buffered (in the feeder, not the
        queue) until their newline arrives in a later call.
        """
        self._check_accepting()
        buffered = self._feed_tail + data
        lines = buffered.split("\n")
        self._feed_tail = lines.pop()
        if lines:
            self.feed_lines(lines, journal=journal)

    def feed_batch(self, batch: EventBatch, *, journal: bool = True) -> None:
        """Enqueue one decoded binary frame (``.rbt`` ingest path).

        The frame is journaled as a single :data:`RBT_JOURNAL_PREFIX`
        line (base64 of its re-encoded payload) so crash recovery
        replays binary and text input alike, in arrival order.

        Raises:
            SessionDegradedError: the error budget is exhausted.
            RuntimeError: the session was closed.
        """
        self._check_accepting()
        if not len(batch):
            return
        if journal and self.store is not None:
            blob = base64.b64encode(encode_batch(batch.rows())).decode("ascii")
            self.store.journal_append(
                self.journal_session, [RBT_JOURNAL_PREFIX + blob], **self._ns
            )
        self._enqueue(batch, 1)

    def end_of_stream(self) -> None:
        """Complete any buffered partial line (client finished sending)."""
        tail, self._feed_tail = self._feed_tail, ""
        if tail:
            self.feed_lines([tail])
        if self.store is not None:
            self.store.journal_sync()

    def flush(self, timeout: float | None = 30.0) -> bool:
        """Block until everything fed so far is parsed and counted."""
        if self.store is not None:
            self.store.journal_sync()
        marker = _Flush()
        self._queue.put(marker)
        return marker.done.wait(timeout)

    # -- snapshots ------------------------------------------------------------

    def report(self):
        """A consistent snapshot of the live coverage state."""
        with self._lock:
            return self.iocov.report()

    def snapshot_to_store(self, *, meta: dict | None = None) -> int:
        """Persist the current state as a run; clears the journal.

        Raises:
            RuntimeError: no store is attached.
        """
        if self.store is None:
            raise RuntimeError("no run store attached to this session")
        self.flush()
        with self._lock:
            report = self.iocov.report()
            document = {
                "source": "serve",
                "format": self.fmt,
                "tenant": self.tenant,
                "project": self.project,
                "lines_received": self.lines_received,
                "parse_errors": self.parser.malformed_lines,
                "degraded": self.degraded,
            }
            document.update(meta or {})
        run_id = self.store.save_report(
            report, trace_format=self.fmt, meta=document, **self._ns
        )
        self.store.journal_clear(self.journal_session, **self._ns)
        self.runs_stored += 1
        self.m_runs.inc(**self._labels)
        return run_id

    def stats(self) -> dict[str, Any]:
        """Session counters for the ``/session`` endpoint."""
        # _pending_lines is guarded by the _space condition, not _lock.
        with self._space:
            depth = self._pending_lines
        with self._lock:
            return {
                "format": self.fmt,
                "suite": self.suite_name,
                "tenant": self.tenant,
                "project": self.project,
                "mount_point": self.mount_point,
                "lines_received": self.lines_received,
                "batches_received": self.batches_received,
                "events_counted": self.events_counted,
                "parse_errors": self.parser.malformed_lines,
                "pending_pairs": self.parser.unpaired_entries,
                "degraded": self.degraded,
                "error_budget": self.error_budget,
                "queue_depth": max(depth, 0),
                "runs_stored": self.runs_stored,
                "journal_record_corrupt": self.journal_record_corrupt,
                "quarantine": [item.to_dict() for item in self.quarantine[:20]],
            }

    # -- recovery and shutdown -------------------------------------------------

    def recover(self) -> int:
        """Replay the store's journal into this (fresh) session.

        Returns the number of journal lines replayed.  Lines are *not*
        re-journaled — they are already durable.  A binary record that
        fails to decode loses only itself: it is counted in
        :attr:`journal_record_corrupt`, not in the returned number.
        """
        if self.store is None:
            return 0
        replayed = 0
        batch: list[str] = []
        for line in self.store.journal_lines(self.journal_session, **self._ns):
            if line.startswith(RBT_JOURNAL_PREFIX):
                # Binary frame: flush buffered text first so replay
                # order matches arrival order, then decode and enqueue.
                if batch:
                    self.feed_lines(batch, journal=False)
                    batch = []
                try:
                    payload = base64.b64decode(
                        line[len(RBT_JOURNAL_PREFIX):], validate=True
                    )
                    frame = decode_batch(payload)
                except (binascii.Error, RbtError):
                    with self._lock:
                        self.journal_record_corrupt += 1
                    continue
                replayed += 1
                self.feed_batch(frame, journal=False)
                continue
            replayed += 1
            batch.append(line)
            if len(batch) >= WORKER_ROUND_LINES:
                self.feed_lines(batch, journal=False)
                batch = []
        if batch:
            self.feed_lines(batch, journal=False)
        if replayed:
            self.flush()
        return replayed

    def close(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the worker; with *drain*, count everything queued first."""
        if self.closed:
            return
        self.closed = True
        if not drain:
            # Abandon queued lines (crash simulation in tests).
            try:
                while True:
                    self._queue.get_nowait()
            except queue.Empty:
                pass
            with self._space:
                self._pending_lines = 0
                self._space.notify_all()
        self._queue.put(_SENTINEL)
        self._worker.join(timeout)
