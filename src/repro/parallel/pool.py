"""Persistent worker-pool runtime with shared-memory handoff.

:class:`WorkerPool` is the shared parallel substrate under both
``repro analyze --jobs`` and the obs daemon's ``--analysis-workers``
mode.  It fixes the two structural costs the benchmark history pinned
on the old per-call ``ProcessPoolExecutor``:

* **spawn-once, stay warm** — workers are OS processes started once
  (fork preferred: the ~18 ms/worker import cost is paid a single
  time) and reused across every subsequent call.  A warm dispatch is a
  queue put, not a process launch.
* **shared-memory handoff** — bulk payloads (trace shard spans, parsed
  event batches, deferred-row ``.rbt`` blobs) travel through
  :mod:`multiprocessing.shared_memory` segments read via
  :class:`memoryview`, not pickled through the pool's pipes.  Only
  small descriptors and tallies ride the task/result queues.

Scheduling is asynchronous: :meth:`WorkerPool.submit_shard` /
:meth:`WorkerPool.submit_parse` return :class:`PoolFuture`\\ s
immediately, so a producer (the executor's reader thread, an ingest
session's worker thread) can keep feeding while workers compute —
the parse→analyze overlap the executor's pipelined scheduler builds
on.  Tasks can be pinned to a worker index, which gives the obs
daemon namespace→worker **affinity**: one worker owns a namespace's
persistent batch parser, so entry/exit pairing state spans chunks and
per-session ordering is preserved.  That parser reports the malformed
line positions of each chunk itself, so a dirty chunk is parsed once,
like a clean one.

Failure containment: a dead worker fails only the futures routed to
it (:class:`WorkerCrashError`) and is respawned with a bumped
*incarnation* number; callers that depend on worker-resident state
(the obs parse offload) detect the incarnation change and fall back
inline, while stateless callers (the shard executor) fall back to the
sequential path — parity is never at risk.  Every shared-memory
segment the pool touches is tracked and unlinked on result receipt,
worker crash, or :meth:`~WorkerPool.shutdown` (also wired to
``atexit`` for the process-global pool), so a clean exit leaks
nothing into ``/dev/shm``.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import queue
import threading
import time
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Callable

from repro.parallel.worker import ShardTask, analyze_shard_data

#: Payloads at or below this many bytes ride the queues directly;
#: larger ones go through a shared-memory segment.  Queue transfers
#: copy through a pipe (two syscalls + pickle framing), which beats
#: segment setup/teardown only for small blobs.
SHM_INLINE_MAX = 32 * 1024

#: Result-queue poll interval; also how often dead workers are reaped.
_POLL_SECONDS = 0.1

#: Grace given to workers to drain their queues at shutdown.
_JOIN_SECONDS = 5.0


class PoolError(RuntimeError):
    """Base class for worker-pool failures."""


class PoolUnavailableError(PoolError):
    """The platform cannot run pool workers (no subprocesses allowed)."""


class WorkerCrashError(PoolError):
    """The worker a task was routed to died before answering."""


class PoolClosedError(PoolError):
    """The pool was shut down while the task was in flight."""


def _unregister_shm(name: str) -> None:
    """Drop *name* from this process's resource tracker, best effort.

    Python < 3.13 registers a segment with the tracker on *attach* as
    well as on create (bpo-38119); an attaching process that kept the
    registration would unlink a segment it does not own when it exits.
    Ownership here is explicit — the pool unlinks — so both sides
    deregister and the tracker is kept out of the game.
    """
    try:
        resource_tracker.unregister(name if name.startswith("/") else "/" + name,
                                    "shared_memory")
    except Exception:
        pass


def _blob_pack(prefix: str, data) -> tuple[str, Any]:
    """Encode *data* for the queue: inline bytes or a shm segment ref.

    Returns ``("inline", bytes)`` or ``("shm", (name, size))``.  The
    segment is created here and ownership passes to the receiver (the
    creator deregisters it from its own tracker); the pool's bookkeeping
    unlinks it on receipt, crash, or shutdown.
    """
    view = memoryview(data)
    if view.nbytes <= SHM_INLINE_MAX:
        return "inline", bytes(view)
    segment = shared_memory.SharedMemory(
        name=f"{prefix}_{os.getpid()}_{next(_SEGMENT_IDS)}", create=True,
        size=view.nbytes,
    )
    try:
        segment.buf[: view.nbytes] = view
    finally:
        _unregister_shm(segment._name)  # ownership is tracked pool-side
        segment.close()
    return "shm", (segment.name, view.nbytes)


def _blob_unpack(ref: tuple[str, Any]) -> bytes:
    """Materialize a :func:`_blob_pack` reference; frees shm segments.

    The attach registers the segment with the (shared) resource
    tracker; ``unlink`` deregisters it — the pair stays balanced, so
    the tracker never sees an unregister for a name it does not hold.
    """
    kind, payload = ref
    if kind == "inline":
        return payload
    name, size = payload
    segment = shared_memory.SharedMemory(name=name)
    try:
        with memoryview(segment.buf) as view:
            return bytes(view[:size])
    finally:
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:
            _unregister_shm(name)  # someone else unlinked: drop our claim


def _blob_discard(ref: tuple[str, Any] | None) -> None:
    """Unlink the segment behind a never-consumed blob reference."""
    if not ref or ref[0] != "shm":
        return
    name, _size = ref[1]
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return
    segment.close()
    try:
        segment.unlink()
    except FileNotFoundError:
        _unregister_shm(name)


_SEGMENT_IDS = itertools.count()


class PoolFuture:
    """Minimal completion handle for one pool task."""

    __slots__ = ("_done", "_result", "_error", "_callbacks", "_lock", "worker")

    def __init__(self, worker: int) -> None:
        self._done = threading.Event()
        self._result: Any = None
        self._error: BaseException | None = None
        self._callbacks: list[Callable[["PoolFuture"], None]] = []
        self._lock = threading.Lock()
        self.worker = worker

    def _resolve(self, result: Any = None, error: BaseException | None = None) -> None:
        with self._lock:
            if self._done.is_set():
                return
            self._result = result
            self._error = error
            self._done.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def add_done_callback(self, callback: Callable[["PoolFuture"], None]) -> None:
        with self._lock:
            if not self._done.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> Any:
        if not self._done.wait(timeout):
            raise TimeoutError("pool task did not complete in time")
        if self._error is not None:
            raise self._error
        return self._result


# -- the worker side -----------------------------------------------------------


def _parse_task(state: dict, key: str, fmt: str, text: str):
    """Parse one text chunk with the namespace's persistent parser.

    Returns the obs offload contract: encoded rows, the malformed line
    positions within the chunk (as the batch parser reports them), this
    chunk's malformed-line delta, and the parser's absolute
    unpaired-entry count (state, not a delta).
    """
    from repro.trace.batch import make_batch_parser
    from repro.trace.binary import encode_batch

    parser = state.get(key)
    if parser is None or parser.format != fmt:
        parser = make_batch_parser(fmt)
        state[key] = parser
    before = parser.malformed_lines
    rows = parser.parse_chunk(text)
    return (
        encode_batch(rows),
        len(rows),
        parser.malformed_positions,
        parser.malformed_lines - before,
        parser.unpaired_entries,
    )


def _worker_main(worker_id: int, incarnation: int, prefix: str,
                 task_queue, result_queue) -> None:
    """One pool worker: loop over tasks until the ``None`` sentinel.

    Runs with ``repro`` fully imported (inherited via fork, or imported
    once at spawn) — the whole point of the persistent pool.  Parser
    state for the obs parse offload lives in ``parse_state``, keyed by
    namespace, for the lifetime of this incarnation.
    """
    parse_state: dict[str, Any] = {}
    out_prefix = f"{prefix}w{worker_id}"
    while True:
        task = task_queue.get()
        if task is None:
            return
        kind, task_id, payload = task
        try:
            if kind == "shard":
                meta, blob_ref = payload
                text = _blob_unpack(blob_ref).decode("utf-8")
                result = analyze_shard_data(meta, text)
                blob = result.deferred_blob
                deferred_ref = None
                if blob is not None:
                    result.deferred_blob = None
                    deferred_ref = _blob_pack(out_prefix, blob)
                answer = (incarnation, result, deferred_ref)
            elif kind == "parse":
                key, fmt, blob_ref = payload
                text = _blob_unpack(blob_ref).decode("utf-8")
                encoded, nrows, bad, mal, pending = _parse_task(
                    parse_state, key, fmt, text
                )
                answer = (
                    incarnation,
                    _blob_pack(out_prefix, encoded),
                    nrows, bad, mal, pending,
                )
            elif kind == "ping":
                answer = (incarnation, payload)
            else:
                raise ValueError(f"unknown pool task kind {kind!r}")
        except BaseException as exc:  # noqa: BLE001 - forwarded to the parent
            try:
                result_queue.put((task_id, False, f"{type(exc).__name__}: {exc}"))
            except Exception:
                return
        else:
            result_queue.put((task_id, True, answer))


# -- the parent side -----------------------------------------------------------


class _Worker:
    """Parent-side record of one worker process."""

    __slots__ = ("index", "incarnation", "process", "task_queue", "inflight")

    def __init__(self, index: int, incarnation: int, process, task_queue) -> None:
        self.index = index
        self.incarnation = incarnation
        self.process = process
        self.task_queue = task_queue
        #: task ids routed to this worker and not yet answered
        self.inflight: set[int] = set()


class WorkerPool:
    """A persistent pool of analysis worker processes.

    Args:
        workers: number of worker processes.
        name: segment-name tag (shows up in ``/dev/shm``, useful for
            leak tests and post-mortems).

    Raises:
        PoolUnavailableError: the platform refuses subprocesses.
    """

    def __init__(self, workers: int, *, name: str = "iocov") -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        self.prefix = f"{name}{os.getpid()}x{next(_SEGMENT_IDS)}"
        self.closed = False
        self.dispatches = 0
        self.respawns = 0
        started = time.perf_counter()
        self._lock = threading.Lock()  # guards futures/segments/workers
        self._task_ids = itertools.count()
        self._futures: dict[int, PoolFuture] = {}
        #: task id -> shm names owned by the pool for that task
        self._segments: dict[int, list[str]] = {}
        self._result_queue = self._ctx.Queue()
        self._workers: list[_Worker] = []
        try:
            for index in range(workers):
                self._workers.append(self._spawn(index, incarnation=0))
        except (OSError, PermissionError) as exc:
            self._abandon()
            raise PoolUnavailableError(f"cannot start pool workers: {exc}") from exc
        self.cold_start_seconds = time.perf_counter() - started
        self._collector = threading.Thread(
            target=self._collect, name=f"iocov-pool-{self.prefix}", daemon=True
        )
        self._collector.start()

    # -- lifecycle ------------------------------------------------------------

    def _spawn(self, index: int, incarnation: int) -> _Worker:
        task_queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=_worker_main,
            args=(index, incarnation, self.prefix, task_queue, self._result_queue),
            name=f"iocov-worker-{index}",
            daemon=True,
        )
        process.start()
        return _Worker(index, incarnation, process, task_queue)

    def _abandon(self) -> None:
        for worker in self._workers:
            if worker.process.is_alive():
                worker.process.terminate()

    @property
    def workers(self) -> int:
        with self._lock:
            return len(self._workers)

    def incarnation(self, worker: int) -> int:
        with self._lock:
            return self._workers[worker].incarnation

    def grow(self, workers: int) -> None:
        """Add workers until the pool has at least *workers* of them."""
        with self._lock:
            if self.closed:
                raise PoolClosedError("pool is shut down")
            while len(self._workers) < workers:
                self._workers.append(self._spawn(len(self._workers), incarnation=0))

    def shutdown(self, timeout: float = _JOIN_SECONDS) -> None:
        """Stop every worker and unlink every tracked shm segment.

        Idempotent; also runs via ``atexit`` for the global pool.  After
        the workers exit, any segment still tracked (undelivered task
        payloads, results nobody consumed) is swept away, so a clean
        shutdown leaves nothing behind in ``/dev/shm``.
        """
        with self._lock:
            if self.closed:
                return
            self.closed = True
            workers = list(self._workers)
            futures = list(self._futures.values())
            self._futures.clear()
        for worker in workers:
            try:
                worker.task_queue.put(None)
            except (OSError, ValueError):
                pass
        for worker in workers:
            worker.process.join(timeout)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(1.0)
        for future in futures:
            future._resolve(error=PoolClosedError("pool is shut down"))
        with self._lock:
            leftover = [n for names in self._segments.values() for n in names]
            self._segments.clear()
        for name in leftover:
            _blob_discard(("shm", (name, 0)))
        # Results nobody consumed reference *worker-created* segments
        # (parse output, deferred blobs) the parent never tracked —
        # sweep the queue so they unlink too.
        try:
            while True:
                _task_id, ok, answer = self._result_queue.get_nowait()
                if ok:
                    self._discard_answer(answer)
        except (queue.Empty, OSError, EOFError, ValueError):
            pass
        for worker in workers:
            worker.task_queue.close()
        self._result_queue.close()

    # -- submission -----------------------------------------------------------

    def _submit(self, kind: str, payload_builder, worker: int) -> PoolFuture:
        """Route one task to *worker*; returns its future.

        *payload_builder* is called with the task id so blob segments
        can be registered against it before the task is enqueued.
        """
        with self._lock:
            if self.closed:
                raise PoolClosedError("pool is shut down")
            record = self._workers[worker % len(self._workers)]
            task_id = next(self._task_ids)
            future = PoolFuture(record.index)
            self._futures[task_id] = future
            record.inflight.add(task_id)
            self.dispatches += 1
        try:
            payload = payload_builder(task_id)
            record.task_queue.put((kind, task_id, payload))
        except BaseException as exc:
            with self._lock:
                self._futures.pop(task_id, None)
                record.inflight.discard(task_id)
                names = self._segments.pop(task_id, [])
            for name in names:
                _blob_discard(("shm", (name, 0)))
            future._resolve(error=exc if isinstance(exc, PoolError) else
                            PoolError(f"task submission failed: {exc}"))
        return future

    def _track_blob(self, task_id: int, ref: tuple[str, Any]) -> tuple[str, Any]:
        if ref[0] == "shm":
            with self._lock:
                self._segments.setdefault(task_id, []).append(ref[1][0])
        return ref

    def submit_shard(self, task: ShardTask, data, *, worker: int) -> PoolFuture:
        """Analyze one shard span; *data* is the span's raw bytes."""

        def build(task_id: int):
            ref = self._track_blob(task_id, _blob_pack(self.prefix, data))
            return (task, ref)

        return self._submit("shard", build, worker)

    def submit_parse(self, key: str, fmt: str, text: str, *,
                     worker: int | None = None) -> PoolFuture:
        """Batch-parse one text chunk under namespace *key*'s parser.

        Without an explicit *worker* the task is pinned by hashing the
        key — the namespace→worker affinity that keeps one namespace's
        pairing state on one worker, in arrival order.
        """
        if worker is None:
            worker = self.worker_for(key)

        def build(task_id: int):
            ref = self._track_blob(
                task_id, _blob_pack(self.prefix, text.encode("utf-8"))
            )
            return (key, fmt, ref)

        return self._submit("parse", build, worker)

    def ping(self, worker: int = 0) -> float:
        """Round-trip one no-op task; returns the wall seconds it took."""
        started = time.perf_counter()
        self._submit("ping", lambda task_id: started, worker).result(timeout=30)
        return time.perf_counter() - started

    def worker_for(self, key: str) -> int:
        """Stable worker index for an affinity key."""
        import zlib

        with self._lock:
            size = len(self._workers)
        return zlib.crc32(key.encode("utf-8")) % max(1, size)

    # -- completion -----------------------------------------------------------

    def _collect(self) -> None:
        """Drain results, resolve futures, reap and respawn dead workers."""
        while True:
            with self._lock:
                if self.closed:
                    return
            try:
                task_id, ok, answer = self._result_queue.get(timeout=_POLL_SECONDS)
            except queue.Empty:
                self._reap_dead()
                continue
            except (OSError, EOFError, ValueError):
                return
            with self._lock:
                future = self._futures.pop(task_id, None)
                names = self._segments.pop(task_id, [])
                for worker in self._workers:
                    worker.inflight.discard(task_id)
            for name in names:
                _blob_discard(("shm", (name, 0)))
            if future is None:
                # A task whose future was already failed (worker-crash
                # raced a queued result) — free its result blobs too.
                if ok:
                    self._discard_answer(answer)
                continue
            if ok:
                try:
                    future._resolve(result=self._open_answer(answer))
                except BaseException as exc:  # noqa: BLE001
                    future._resolve(error=PoolError(f"result decode failed: {exc}"))
            else:
                future._resolve(error=PoolError(f"worker task failed: {answer}"))

    @staticmethod
    def _open_answer(answer):
        """Materialize any blob references in a worker's answer."""
        if len(answer) == 3 and answer[1].__class__.__name__ == "ShardResult":
            incarnation, result, deferred_ref = answer
            if deferred_ref is not None:
                result.deferred_blob = _blob_unpack(deferred_ref)
            return incarnation, result
        if len(answer) == 6:  # parse answer
            incarnation, blob_ref, nrows, bad, mal, pending = answer
            return incarnation, _blob_unpack(blob_ref), nrows, bad, mal, pending
        return answer  # ping

    @staticmethod
    def _discard_answer(answer) -> None:
        for part in answer if isinstance(answer, tuple) else ():
            if isinstance(part, tuple) and len(part) == 2 and part[0] in ("shm", "inline"):
                _blob_discard(part)

    def _reap_dead(self) -> None:
        """Fail futures routed to dead workers; respawn the workers."""
        crashed: list[tuple[_Worker, list[PoolFuture], list[str]]] = []
        with self._lock:
            for slot, worker in enumerate(self._workers):
                if worker.process.is_alive() or self.closed:
                    continue
                failed = []
                names: list[str] = []
                for task_id in sorted(worker.inflight):
                    future = self._futures.pop(task_id, None)
                    if future is not None:
                        failed.append(future)
                    names.extend(self._segments.pop(task_id, []))
                worker.inflight.clear()
                replacement = self._spawn(worker.index, worker.incarnation + 1)
                self._workers[slot] = replacement
                self.respawns += 1
                crashed.append((worker, failed, names))
        for worker, failed, names in crashed:
            worker.task_queue.close()
            for name in names:
                _blob_discard(("shm", (name, 0)))
            for future in failed:
                future._resolve(error=WorkerCrashError(
                    f"worker {worker.index} (incarnation {worker.incarnation}) "
                    "died with the task in flight"
                ))

    # -- introspection --------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "workers": len(self._workers),
                "dispatches": self.dispatches,
                "respawns": self.respawns,
                "inflight": sum(len(w.inflight) for w in self._workers),
                "cold_start_seconds": round(self.cold_start_seconds, 4),
            }


# -- the process-global pool ----------------------------------------------------

_global_pool: WorkerPool | None = None
_global_lock = threading.Lock()


def get_pool(workers: int) -> WorkerPool:
    """The process-wide pool, created on first use and grown on demand.

    ``repro analyze --jobs`` calls land here so repeated invocations in
    one process (benchmarks, library users, the campaign loop) pay pool
    startup exactly once.

    Raises:
        PoolUnavailableError: worker processes cannot be started.
    """
    global _global_pool
    with _global_lock:
        if _global_pool is not None and _global_pool.closed:
            _global_pool = None
        if _global_pool is None:
            _global_pool = WorkerPool(workers)
            atexit.register(shutdown_pool)
        elif _global_pool.workers < workers:
            _global_pool.grow(workers)
        return _global_pool


def pool_is_warm() -> bool:
    """True when the process-global pool is already running."""
    with _global_lock:
        return _global_pool is not None and not _global_pool.closed


def shutdown_pool() -> None:
    """Shut the process-global pool down (idempotent; atexit-wired)."""
    global _global_pool
    with _global_lock:
        pool, _global_pool = _global_pool, None
    if pool is not None:
        pool.shutdown()
