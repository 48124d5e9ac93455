"""The ``--analysis-workers`` mode: pool-offloaded parsing, exact parity.

The GIL-breaking obs path: chunk parsing runs in persistent pool
workers with namespace→worker affinity.  Everything observable must be
indistinguishable from in-process parsing — ``/live`` payloads,
malformed-line quarantine, counter arithmetic, per-session ordering
under concurrent tenants — and a crashed worker must degrade the
session to inline parsing, never corrupt it.
"""

from __future__ import annotations

import http.client
import io
import json
import threading

import pytest

from repro.core import IOCov
from repro.obs.ingest import IngestSession, _PoolLineParser
from repro.obs.server import make_server
from repro.parallel.pool import WorkerPool
from repro.trace.events import make_event
from repro.trace.lttng import LttngWriter
from tests.obs.conftest import MINI_MOUNT


@pytest.fixture
def pool():
    p = WorkerPool(2, name="iocovobstest")
    yield p
    p.shutdown()


def _lttng_text(n_events: int, *, path_salt: str = "") -> str:
    events = []
    for i in range(n_events):
        events.append(
            make_event(
                "openat",
                {"dfd": -100, "pathname": f"/mnt/test/{path_salt}f{i % 17}",
                 "flags": i % 3, "mode": 0o644},
                3 + i % 9,
                pid=7,
            )
        )
        events.append(make_event("close", {"fd": 3 + i % 9}, 0, pid=7))
    buffer = io.StringIO()
    LttngWriter().write(events, buffer)
    return buffer.getvalue()


def _inline_reference(text: str, tmp_path=None) -> dict:
    import os
    import tempfile

    iocov = IOCov(mount_point=MINI_MOUNT, suite_name="live")
    with tempfile.NamedTemporaryFile(
        "w", suffix=".lttng.txt", delete=False
    ) as handle:
        handle.write(text)
        path = handle.name
    try:
        iocov.consume_lttng_file(path)
    finally:
        os.unlink(path)
    return iocov.report().to_dict()


def _chunks_splitting_pairs(text: str, chunk_lines: int) -> list[list[str]]:
    """Chunk the trace so LTTng entry/exit pairs straddle boundaries."""
    lines = text.splitlines()
    assert chunk_lines % 2 == 1  # odd → every boundary splits a pair
    return [lines[i:i + chunk_lines] for i in range(0, len(lines), chunk_lines)]


def test_session_offload_parity_with_inline(pool):
    text = _lttng_text(600)
    offloaded = IngestSession("lttng", mount_point=MINI_MOUNT, pool=pool)
    inline = IngestSession("lttng", mount_point=MINI_MOUNT)
    for chunk in _chunks_splitting_pairs(text, 101):
        offloaded.feed_lines(chunk)
        inline.feed_lines(chunk)
    assert offloaded.flush() and inline.flush()
    assert offloaded.report().to_dict() == inline.report().to_dict()
    assert offloaded.report().to_dict() == _inline_reference(text)
    assert offloaded.parser.unpaired_entries == inline.parser.unpaired_entries
    assert offloaded.stats()["analysis_offload"]["enabled"] is True
    assert inline.stats()["analysis_offload"] is None
    offloaded.close()
    inline.close()


def test_offload_quarantines_malformed_like_inline(pool):
    clean = _lttng_text(40).splitlines()
    dirty = clean[:10] + ["### not a trace line ###"] + clean[10:]
    offloaded = IngestSession("lttng", mount_point=MINI_MOUNT, pool=pool)
    inline = IngestSession("lttng", mount_point=MINI_MOUNT)
    for session in (offloaded, inline):
        session.feed_lines(dirty)
        session.flush()
    assert offloaded.parser.malformed_lines == inline.parser.malformed_lines == 1
    assert [q.to_dict() for q in offloaded.quarantine] == [
        q.to_dict() for q in inline.quarantine
    ]
    assert offloaded.report().to_dict() == inline.report().to_dict()
    offloaded.close()
    inline.close()


def test_worker_crash_degrades_to_inline_not_corruption(pool):
    text_a = _lttng_text(200, path_salt="a")
    text_b = _lttng_text(200, path_salt="b")
    session = IngestSession("lttng", mount_point=MINI_MOUNT, pool=pool)
    session.feed_lines(text_a.splitlines())
    assert session.flush()
    assert session.stats()["analysis_offload"]["enabled"] is True
    # Kill the session's affinity worker between rounds.
    victim = session.parser._worker
    pool._workers[victim].process.kill()
    pool._workers[victim].process.join()
    session.feed_lines(text_b.splitlines())
    assert session.flush()
    # The session reverted to inline parsing and kept exact counts.
    assert session.stats()["analysis_offload"]["enabled"] is False
    assert session.events_counted == 800  # 400 events per feed
    reference = _inline_reference(text_a + text_b)
    assert session.report().to_dict() == reference
    session.close()


def test_pool_line_parser_affinity_and_counters(pool):
    parser = _PoolLineParser("lttng", pool, key="acme/web")
    assert parser.offloaded
    text = _lttng_text(30)
    ticket = parser.submit(text.splitlines())
    ticket = parser.wait(ticket)
    batch, n_rows, bad = parser.apply(ticket)
    assert n_rows == 60 and bad == []
    assert parser.malformed_lines == 0
    assert parser.unpaired_entries == 0
    stats = parser.offload_stats()
    assert stats["enabled"] is True
    assert stats["worker"] == pool.worker_for("acme/web")


# -- the daemon end to end -------------------------------------------------------


@pytest.fixture
def server():
    srv, recovered = make_server(
        "127.0.0.1",
        0,
        fmt="lttng",
        mount_point=MINI_MOUNT,
        suite_name="live",
        analysis_workers=2,
    )
    assert recovered == 0
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    if not srv.draining:
        srv.drain_and_stop(snapshot=False)
    srv.server_close()
    thread.join(timeout=10)


def _post(server, path: str, body: bytes) -> dict:
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        conn.request("POST", path, body=body)
        response = conn.getresponse()
        payload = json.loads(response.read().decode("utf-8"))
        assert response.status == 200, payload
        return payload
    finally:
        conn.close()


def _get(server, path: str) -> dict:
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read().decode("utf-8"))
    finally:
        conn.close()


def test_daemon_reports_analysis_workers(server):
    assert _get(server, "/healthz")["analysis_workers"] == 2
    assert server.analysis_pool is not None
    assert server.analysis_pool.workers == 2


def test_concurrent_tenants_keep_per_session_ordering(server):
    # Four tenants stream pair-splitting chunks concurrently; affinity
    # pins each namespace to one worker, so every tenant's /live must
    # equal its own inline reference — interleaving across tenants
    # must never leak into a session's pairing state.
    tenants = ["red", "green", "blue", "gold"]
    texts = {t: _lttng_text(400, path_salt=t) for t in tenants}
    errors: list[Exception] = []

    def stream(tenant: str) -> None:
        try:
            for chunk in _chunks_splitting_pairs(texts[tenant], 41):
                _post(server, f"/t/{tenant}/ingest", ("\n".join(chunk) + "\n").encode())
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=stream, args=(t,)) for t in tenants]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert errors == []
    for tenant in tenants:
        live = _get(server, f"/t/{tenant}/live")
        assert live == _inline_reference(texts[tenant]), tenant
        offload = _get(server, f"/t/{tenant}/session")["analysis_offload"]
        assert offload["enabled"] is True


def test_server_close_shuts_down_the_pool():
    srv, _ = make_server("127.0.0.1", 0, fmt="lttng", analysis_workers=1)
    pool = srv.analysis_pool
    assert pool is not None and not pool.closed
    srv.server_close()
    assert pool.closed
    assert srv.analysis_pool is None
