"""The ``repro serve`` daemon: HTTP ingest + snapshots + metrics.

A long-running stdlib-only (``http.server``) service around a
:class:`TenantManager` of :class:`~repro.obs.ingest.IngestSession`\\ s
and one :class:`~repro.obs.store.BaseRunStore`:

==============================  =============================================
``POST /ingest``                stream trace lines (chunked or Content-Length
                                body); lines are journaled, parsed, and
                                counted before the response, so a 200 means
                                "visible in /live"
``POST /runs``                  snapshot the live state into the store
``GET  /live``                  live coverage snapshot — byte-identical
                                payload to ``repro analyze --json``
``GET  /runs``                  stored-run index (all namespaces)
``GET  /runs/<id>``             one stored run: metadata + report document
``GET  /session``               ingest counters, quarantine, degradation
``GET  /metrics``               Prometheus exposition (per-tenant labels)
``GET  /healthz``               liveness probe
``…/t/<tenant>/<route>``        any of the above scoped to a tenant
``…/t/<tenant>/p/<proj>/…``     …and to a project within it
==============================  =============================================

Unprefixed routes keep their pre-tenant behavior by mapping to the
server's default namespace, so old clients and dashboards never notice
the refactor.

Concurrency: requests are accepted by a **bounded worker pool** — the
listener thread only enqueues connections; ``workers`` threads run the
HTTP handlers, each connection carries a socket timeout, and when the
accept queue is full the client gets an immediate ``503`` with a
``Retry-After`` hint instead of an unbounded backlog.  Per-tenant
sessions make ingest embarrassingly parallel across namespaces while
each session's own lock keeps a single tenant's stream ordered.

Robustness: a handler counts a request body as it reads it, so a
client that sends faster than the daemon counts meets TCP backpressure;
malformed lines are quarantined against an error budget (HTTP 422 once
exhausted), a half-sent chunked body is abandoned without corrupting
session state beyond its own complete lines, every ``/ingest`` answer
follows a journal sync, SIGTERM snapshots every tenant's final state,
on startup existing journals are replayed per namespace, and a **store
lockfile** refuses to start a second daemon over the same store (which
would corrupt the journal) rather than failing silently.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import socket
import sys
import threading
import zlib
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Any

from repro.obs.ingest import IngestSession, SessionDegradedError
from repro.obs.metrics import MetricsRegistry
from repro.obs.store import (
    DEFAULT_PROJECT,
    DEFAULT_TENANT,
    BaseRunStore,
    NamespaceError,
    open_store,
    validate_namespace,
)
from repro.trace.binary import RbtDecoder, RbtError

try:
    import fcntl
except ImportError:  # non-POSIX: locking degrades to best-effort
    fcntl = None  # type: ignore[assignment]

#: ``POST /ingest`` Content-Type for binary ``.rbt`` bodies.
RBT_CONTENT_TYPE = "application/x-rbt"

#: Default daemon port (unregistered; "IOCV" on a phone pad, roughly).
DEFAULT_PORT = 9177

#: Hard cap on one request's body (chunked or not): 256 MiB.
MAX_BODY_BYTES = 256 * 1024 * 1024

#: Default HTTP worker-pool size.
DEFAULT_WORKERS = 8

#: Default bound on connections queued for a free worker.
DEFAULT_CONN_QUEUE = 64

#: Default per-connection socket timeout (seconds).
DEFAULT_CONN_TIMEOUT = 30.0

#: ``Retry-After`` hint (seconds) on backpressure 503 responses.
RETRY_AFTER_SECONDS = 1

#: GIL switch interval (seconds) while a daemon is live.  Concurrent
#: tenants' HTTP handler threads are the parser threads, one CPU-bound
#: thread per pushing client; the default 5 ms slice makes them convoy
#: on the GIL (~30% aggregate loss measured at 4 clients).  Coarser
#: slices trade a little request-latency fairness for batch throughput
#: — the right trade for an ingest daemon.  The previous value is
#: restored on ``server_close``.
INGEST_SWITCH_INTERVAL = 0.05


class ChunkedBodyError(ValueError):
    """The chunked request body violated the framing grammar."""


class StoreLockError(RuntimeError):
    """Another daemon already holds the store's lockfile."""


class _StoreLock:
    """An exclusive advisory lock over one store path.

    ``flock`` locks die with the process, so a crashed daemon never
    wedges the store — only a *live* second daemon is refused.
    """

    def __init__(self, store_path: str) -> None:
        # Match open_store's directory detection so the lock path is
        # stable whether or not the store exists yet.
        if store_path.endswith(("/", os.sep)) or os.path.isdir(store_path):
            self.path = os.path.join(store_path, ".serve.lock")
        else:
            self.path = store_path + ".lock"
        self._fh: Any = None

    def acquire(self) -> None:
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        fh = open(self.path, "a+")
        if fcntl is not None:
            try:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                fh.close()
                raise StoreLockError(
                    f"another daemon is already serving this store "
                    f"(lockfile {self.path!r} is held); refusing to start — "
                    "two daemons on one store would corrupt the journal"
                ) from None
        self._fh = fh

    def release(self) -> None:
        if self._fh is not None:
            if fcntl is not None:
                try:
                    fcntl.flock(self._fh.fileno(), fcntl.LOCK_UN)
                except OSError:
                    pass
            self._fh.close()
            self._fh = None


def _read_chunked(rfile, limit: int = MAX_BODY_BYTES):
    """Yield decoded chunks of an RFC 7230 chunked body."""
    total = 0
    while True:
        size_line = rfile.readline(1024)
        if not size_line:
            raise ChunkedBodyError("connection closed mid-body")
        size_text = size_line.split(b";", 1)[0].strip()
        try:
            size = int(size_text, 16)
        except ValueError:
            raise ChunkedBodyError(f"bad chunk size {size_text!r}") from None
        if size == 0:
            # Trailer section: consume until the blank line.
            while True:
                trailer = rfile.readline(1024)
                if trailer in (b"\r\n", b"\n", b""):
                    return
        total += size
        if total > limit:
            raise ChunkedBodyError("chunked body exceeds limit")
        remaining = size
        while remaining:
            piece = rfile.read(min(remaining, 65536))
            if not piece:
                raise ChunkedBodyError("connection closed mid-chunk")
            remaining -= len(piece)
            yield piece
        terminator = rfile.read(1)
        if terminator == b"\r":
            terminator += rfile.read(1)
        # Accept CRLF (the spec) and a bare LF from sloppy clients.
        if terminator not in (b"\r\n", b"\n"):
            raise ChunkedBodyError("missing chunk terminator")


def _gunzip_pieces(pieces):
    """Decompress a gzip-encoded body stream piece by piece."""
    decomp = zlib.decompressobj(16 + zlib.MAX_WBITS)
    for piece in pieces:
        out = decomp.decompress(piece)
        if out:
            yield out
    out = decomp.flush()
    if out:
        yield out
    if not decomp.eof:
        raise zlib.error("truncated gzip body")


class TenantManager:
    """Per-namespace ingest sessions sharing one registry and store.

    Sessions materialize lazily on first use; the *default* namespace's
    session is created eagerly so unprefixed routes (and direct
    ``server.session`` access) always have a target.  All sessions
    share the metrics registry — their samples are told apart by
    ``tenant``/``project`` labels.
    """

    def __init__(
        self,
        *,
        fmt: str = "lttng",
        mount_point: str | None = None,
        suite_name: str = "live",
        store: BaseRunStore | None = None,
        registry: MetricsRegistry | None = None,
        default_tenant: str = DEFAULT_TENANT,
        default_project: str = DEFAULT_PROJECT,
        session_kwargs: dict[str, Any] | None = None,
    ) -> None:
        validate_namespace(default_tenant, default_project)
        self.fmt = fmt
        self.mount_point = mount_point
        self.suite_name = suite_name
        self.store = store
        self.registry = registry or MetricsRegistry()
        self.default = (default_tenant, default_project)
        self._session_kwargs = dict(session_kwargs or {})
        self._lock = threading.Lock()
        self._sessions: dict[tuple[str, str], IngestSession] = {}
        self.session(*self.default)  # the default session always exists

    def session(self, tenant: str, project: str) -> IngestSession:
        """The namespace's session, created on first use.

        Raises:
            NamespaceError: bad tenant/project name.
        """
        validate_namespace(tenant, project)
        key = (tenant, project)
        with self._lock:
            session = self._sessions.get(key)
            if session is None:
                session = IngestSession(
                    self.fmt,
                    mount_point=self.mount_point,
                    suite_name=self.suite_name,
                    store=self.store,
                    registry=self.registry,
                    tenant=tenant,
                    project=project,
                    **self._session_kwargs,
                )
                self._sessions[key] = session
            return session

    def peek(self, tenant: str, project: str) -> IngestSession | None:
        """The namespace's session if it exists, else None."""
        with self._lock:
            return self._sessions.get((tenant, project))

    @property
    def default_session(self) -> IngestSession:
        return self.session(*self.default)

    def sessions(self) -> list[IngestSession]:
        with self._lock:
            return list(self._sessions.values())

    def close_all(self) -> None:
        for session in self.sessions():
            session.close()


class ObsServer(HTTPServer):
    """The daemon: pooled HTTP front end over tenant ingest sessions.

    The listener (``serve_forever``) thread never runs a handler — it
    hands accepted connections to a bounded queue serviced by
    ``workers`` threads.  A full queue answers ``503`` + ``Retry-After``
    immediately, bounding both memory and client latency.
    """

    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        *,
        tenants: TenantManager,
        store: BaseRunStore | None,
        store_lock: _StoreLock | None = None,
        workers: int = DEFAULT_WORKERS,
        conn_queue: int = DEFAULT_CONN_QUEUE,
        conn_timeout: float = DEFAULT_CONN_TIMEOUT,
    ) -> None:
        super().__init__(address, ObsRequestHandler)
        self._old_switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(INGEST_SWITCH_INTERVAL)
        self.tenants = tenants
        self.store = store
        self.conn_timeout = conn_timeout
        self.draining = False
        self.drained = threading.Event()
        self._store_lock = store_lock
        self._conn_queue: queue.Queue = queue.Queue(maxsize=conn_queue)
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"iocov-http-{i}", daemon=True
            )
            for i in range(max(1, workers))
        ]
        for worker in self._workers:
            worker.start()

    @property
    def session(self) -> IngestSession:
        """The default namespace's session (pre-tenant compatibility)."""
        return self.tenants.default_session

    # -- the worker pool ------------------------------------------------------

    def process_request(self, request, client_address) -> None:
        """Enqueue the accepted connection; reject when saturated."""
        try:
            request.settimeout(self.conn_timeout)
        except OSError:
            pass
        try:
            self._conn_queue.put_nowait((request, client_address))
        except queue.Full:
            self._reject_busy(request)

    def _reject_busy(self, request) -> None:
        body = json.dumps(
            {"error": "server busy", "retry_after": RETRY_AFTER_SECONDS}
        ).encode("utf-8")
        head = (
            "HTTP/1.1 503 Service Unavailable\r\n"
            "Content-Type: application/json; charset=utf-8\r\n"
            f"Retry-After: {RETRY_AFTER_SECONDS}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("ascii")
        try:
            request.sendall(head + body)
        except OSError:
            pass
        finally:
            self.shutdown_request(request)

    def _worker_loop(self) -> None:
        while True:
            item = self._conn_queue.get()
            if item is None:
                return
            request, client_address = item
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)

    def _stop_workers(self) -> None:
        workers, self._workers = self._workers, []
        for _ in workers:
            self._conn_queue.put(None)
        for worker in workers:
            worker.join(timeout=5)

    def handle_error(self, request, client_address) -> None:  # noqa: D102
        pass  # per-connection failures are the client's problem, not ours

    def server_close(self) -> None:
        super().server_close()
        self._stop_workers()
        sys.setswitchinterval(self._old_switch_interval)
        if self._store_lock is not None:
            self._store_lock.release()
            self._store_lock = None

    # -- drain ----------------------------------------------------------------

    def drain_and_stop(self, *, snapshot: bool = True) -> int | None:
        """The SIGTERM path: stop intake, sync the journal, snapshot.

        Every tenant session flushes; with *snapshot*, the default
        session always snapshots (pre-tenant behavior) and other
        tenants snapshot when they ingested anything.  Returns the
        default session's snapshot run id (None when *snapshot* is off
        or no store is attached).  Idempotent.
        """
        if self.draining:
            self.drained.wait()
            return None
        self.draining = True
        run_id: int | None = None
        try:
            sessions = self.tenants.sessions()
            for session in sessions:
                session.flush()
            if snapshot and self.store is not None:
                default = self.tenants.default
                for session in sessions:
                    is_default = (session.tenant, session.project) == default
                    saw_data = session.lines_received or session.batches_received
                    if is_default or saw_data:
                        rid = session.snapshot_to_store(meta={"reason": "drain"})
                        if is_default:
                            run_id = rid
            for session in sessions:
                session.close()
        finally:
            self.drained.set()
            # shutdown() must come from another thread than the serve
            # loop; the signal handler spawns one.
            threading.Thread(target=self.shutdown, daemon=True).start()
        return run_id

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (main thread only)."""

        def _handle(signum: int, _frame: Any) -> None:
            threading.Thread(
                target=self.drain_and_stop, name="iocov-drain", daemon=True
            ).start()

        signal.signal(signal.SIGTERM, _handle)
        signal.signal(signal.SIGINT, _handle)


class ObsRequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: ObsServer  # narrowed type

    # -- plumbing -------------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # the daemon stays quiet; metrics carry the signal

    def _send(
        self,
        code: int,
        body: str,
        content_type: str = "application/json",
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        payload = body.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type + "; charset=utf-8")
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def _send_json(
        self, code: int, document: dict, extra_headers: dict[str, str] | None = None
    ) -> None:
        self._send(
            code, json.dumps(document, indent=2, default=str),
            extra_headers=extra_headers,
        )

    def _route(self) -> tuple[str, str, str] | None:
        """Split the request path into ``(tenant, project, route)``.

        ``/t/<tenant>[/p/<project>]/<route>`` scopes to a namespace;
        anything else maps to the server's default namespace.  Answers
        400 and returns None on a bad namespace name.
        """
        path = self.path.split("?", 1)[0]
        tenant, project = self.server.tenants.default
        if path == "/t" or path.startswith("/t/"):
            parts = path.split("/", 3)  # '', 't', tenant, rest
            tenant = parts[2] if len(parts) > 2 else ""
            path = "/" + (parts[3] if len(parts) > 3 else "")
            if path == "/p" or path.startswith("/p/"):
                parts = path.split("/", 3)
                project = parts[2] if len(parts) > 2 else ""
                path = "/" + (parts[3] if len(parts) > 3 else "")
        try:
            validate_namespace(tenant, project)
        except NamespaceError as exc:
            self._send_json(400, {"error": str(exc)})
            return None
        route = path.rstrip("/") or "/"
        return tenant, project, route

    # -- GET ------------------------------------------------------------------

    def do_GET(self) -> None:
        routed = self._route()
        if routed is None:
            return
        tenant, project, path = routed
        scoped = (tenant, project) != self.server.tenants.default or \
            self.path.split("?", 1)[0].startswith("/t/")
        if path == "/live":
            # The exact `repro analyze --json` payload (no envelope):
            # CI diffs this byte-for-byte against the one-shot path.
            session = self.server.tenants.session(tenant, project)
            self._send(200, session.report().to_json())
        elif path == "/session":
            session = self.server.tenants.session(tenant, project)
            self._send_json(200, session.stats())
        elif path == "/metrics":
            self._send(
                200,
                self.server.tenants.registry.render(),
                content_type="text/plain; version=0.0.4",
            )
        elif path == "/healthz":
            sessions = self.server.tenants.sessions()
            self._send_json(
                200,
                {
                    "status": (
                        "degraded"
                        if any(s.degraded for s in sessions)
                        else "ok"
                    ),
                    "draining": self.server.draining,
                    "tenants": len({s.tenant for s in sessions}),
                    "sessions": len(sessions),
                },
            )
        elif path == "/runs":
            if self.server.store is None:
                self._send_json(503, {"error": "no run store attached"})
                return
            if scoped:
                records = self.server.store.list_runs(
                    tenant=tenant, project=project
                )
            else:
                records = self.server.store.list_runs()
            self._send_json(200, {"runs": [r.to_dict() for r in records]})
        elif path.startswith("/runs/"):
            self._get_run(path[len("/runs/"):], tenant, project, scoped)
        else:
            self._send_json(404, {"error": f"no route {path}"})

    def _get_run(self, ref: str, tenant: str, project: str, scoped: bool) -> None:
        store = self.server.store
        if store is None:
            self._send_json(503, {"error": "no run store attached"})
            return
        try:
            if scoped:
                run_id = store.resolve(ref, tenant=tenant, project=project)
                record = store.get_run(run_id, tenant=tenant, project=project)
                report = store.load_report(run_id, tenant=tenant, project=project)
            else:
                run_id = store.resolve(ref)
                record = store.get_run(run_id)
                report = store.load_report(run_id)
        except (KeyError, ValueError) as exc:
            self._send_json(404, {"error": str(exc)})
            return
        self._send_json(200, {"run": record.to_dict(), "coverage": report.to_dict()})

    # -- POST -----------------------------------------------------------------

    def do_POST(self) -> None:
        routed = self._route()
        if routed is None:
            return
        tenant, project, path = routed
        if path == "/ingest":
            self._post_ingest(tenant, project)
        elif path == "/runs":
            self._post_runs(tenant, project)
        else:
            self._send_json(404, {"error": f"no route {path}"})

    def _post_ingest(self, tenant: str, project: str) -> None:
        if self.server.draining:
            self._send_json(
                503,
                {"error": "daemon is draining",
                 "retry_after": RETRY_AFTER_SECONDS},
                extra_headers={"Retry-After": str(RETRY_AFTER_SECONDS)},
            )
            return
        session = self.server.tenants.session(tenant, project)
        content_type = (
            (self.headers.get("Content-Type") or "").split(";", 1)[0].strip().lower()
        )
        binary = content_type == RBT_CONTENT_TYPE
        before_errors = session.parser.malformed_lines
        fed = 0

        def _counted_pieces():
            nonlocal fed
            for piece in self._body_pieces():
                fed += len(piece)
                yield piece

        pieces = _counted_pieces()
        if "gzip" in (self.headers.get("Content-Encoding") or "").lower():
            pieces = _gunzip_pieces(pieces)
        try:
            with session.feed_lock:
                if binary:
                    decoder = RbtDecoder()
                    for piece in pieces:
                        for frame in decoder.feed(piece):
                            session.feed_batch(frame)
                    decoder.end()
                else:
                    for piece in pieces:
                        session.feed_text(piece.decode("utf-8", errors="replace"))
                    session.end_of_stream()
            # Sync outside feed_lock: the journal fsync covers every
            # append made so far, this request's included, and other
            # feeders need not wait for it.
            flushed = session.flush()
        except SessionDegradedError as exc:
            self._send_json(422, {"error": str(exc), "session": session.stats()})
            return
        except (RbtError, zlib.error) as exc:
            # Frames already decoded and fed stay counted (they are
            # complete, valid trace data); the broken remainder is
            # rejected with the request.
            self._send_json(400, {"error": str(exc), "bytes_fed": fed})
            return
        except ChunkedBodyError as exc:
            # Complete lines already fed stay counted (they are valid
            # trace data); the partial tail is dropped with the request.
            try:
                self._send_json(400, {"error": str(exc), "bytes_fed": fed})
            except (ConnectionError, BrokenPipeError):
                pass  # the client that broke the body also went away
            self.close_connection = True
            return
        except (ConnectionError, socket.timeout):
            # Client went away mid-body; nothing to answer.
            self.close_connection = True
            return
        stats = session.stats()
        document = {
            "accepted_bytes": fed,
            "flushed": flushed,
            "tenant": tenant,
            "project": project,
            "new_parse_errors": stats["parse_errors"] - before_errors,
            "events_counted": stats["events_counted"],
            "degraded": stats["degraded"],
        }
        if stats["degraded"]:
            # This request's own lines exhausted the budget: tell the
            # client now, not on its next attempt.
            document["error"] = "error budget exhausted"
            self._send_json(422, document)
            return
        self._send_json(200, document)

    def _body_pieces(self):
        encoding = (self.headers.get("Transfer-Encoding") or "").lower()
        if "chunked" in encoding:
            yield from _read_chunked(self.rfile)
            return
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise ChunkedBodyError("body exceeds limit")
        remaining = length
        while remaining:
            piece = self.rfile.read(min(remaining, 65536))
            if not piece:
                raise ChunkedBodyError("connection closed mid-body")
            remaining -= len(piece)
            yield piece

    def _post_runs(self, tenant: str, project: str) -> None:
        if self.server.store is None:
            self._send_json(503, {"error": "no run store attached"})
            return
        # Consume any (small) JSON body of extra metadata.
        length = int(self.headers.get("Content-Length") or 0)
        meta: dict[str, Any] = {}
        if length > 1_000_000:
            # Left unread, the body would be parsed as the next request
            # on this keep-alive connection: refuse it and hang up.
            self._send_json(
                413, {"error": "metadata body exceeds 1000000 bytes"},
                extra_headers={"Connection": "close"},
            )
            return
        if length:
            try:
                meta = json.loads(self.rfile.read(length) or b"{}")
            except ValueError:
                self._send_json(400, {"error": "metadata body is not JSON"})
                return
        session = self.server.tenants.session(tenant, project)
        run_id = session.snapshot_to_store(meta=meta)
        record = self.server.store.get_run(
            run_id, tenant=tenant, project=project
        )
        self._send_json(201, {"run": record.to_dict()})


def make_server(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    *,
    fmt: str = "lttng",
    mount_point: str | None = None,
    suite_name: str = "live",
    store_path: str | None = None,
    error_budget: float | None = None,
    recover: bool = True,
    backend: str = "auto",
    workers: int = DEFAULT_WORKERS,
    conn_queue: int = DEFAULT_CONN_QUEUE,
    conn_timeout: float = DEFAULT_CONN_TIMEOUT,
    tenant: str = DEFAULT_TENANT,
    project: str = DEFAULT_PROJECT,
) -> tuple[ObsServer, int]:
    """Build the daemon; returns ``(server, journal_lines_recovered)``.

    With *recover* (the default) any journal left by a crashed daemon
    is replayed — per namespace — into fresh live analyzers before the
    server starts accepting traffic, so every tenant's ``/live``
    resumes from its durable state.  *tenant*/*project* set the default
    namespace that unprefixed routes map to.

    Raises:
        StoreLockError: another live daemon holds this store.
    """
    store_lock: _StoreLock | None = None
    store: BaseRunStore | None = None
    if store_path:
        store_lock = _StoreLock(store_path)
        store_lock.acquire()
        try:
            store = open_store(store_path, backend=backend)
        except BaseException:
            store_lock.release()
            raise
    session_kwargs: dict[str, Any] = {}
    if error_budget is not None:
        session_kwargs["error_budget"] = error_budget
    tenants = TenantManager(
        fmt=fmt,
        mount_point=mount_point,
        suite_name=suite_name,
        store=store,
        default_tenant=tenant,
        default_project=project,
        session_kwargs=session_kwargs,
    )
    recovered = 0
    if store is not None:
        namespaces = store.journal_namespaces()
        default_ns = tenants.default
        if default_ns not in namespaces:
            namespaces.append(default_ns)
        for ns_tenant, ns_project in namespaces:
            session = tenants.session(ns_tenant, ns_project)
            if recover:
                recovered += session.recover()
            else:
                store.journal_clear(
                    session.journal_session,
                    tenant=ns_tenant, project=ns_project,
                )
    server = ObsServer(
        (host, port),
        tenants=tenants,
        store=store,
        store_lock=store_lock,
        workers=workers,
        conn_queue=conn_queue,
        conn_timeout=conn_timeout,
    )
    return server, recovered
