"""Observability-service benchmarks: ingest throughput, store I/O.

Measurements land in ``BENCH_obs.json`` at the repo root (same pattern
as ``BENCH_pipeline.json``) so CI archives the daemon's costs per
commit:

* push-mode ingest throughput (lines/sec and events/sec through the
  full queue → parse → count pipeline, no HTTP),
* end-to-end HTTP chunked-upload throughput against a live daemon,
* concurrent-load aggregate throughput: four simultaneous push
  clients, one tenant each, against the worker-pool daemon (with
  ``IOCOV_BENCH_GATE=1`` the aggregate is gated against the committed
  single-client baseline — concurrency must never cost throughput),
* run-store write and read-back latency for a full coverage report.
"""

import json
import os
import threading
import time

from repro.core import IOCov
from repro.obs.ingest import IngestSession
from repro.obs.store import RunStore
from repro.trace.lttng import LttngWriter

from benchmarks.bench_record import bench_path, committed_bench, record_bench
from benchmarks.test_perf_throughput import _synthetic_events

#: Where the observability measurements land (repo root, CI-archived).
BENCH_FILE = bench_path("obs")


EVENT_COUNT = 50_000


def _trace_text() -> tuple[str, int]:
    events = _synthetic_events(EVENT_COUNT)
    return LttngWriter().dumps(events), len(events)


def test_obs_ingest_throughput():
    """Lines/sec through feed → queue → push-parse → count, one run.

    Floor: 20k events/sec — an order of magnitude below a typical
    machine, so only a real pipeline regression trips it.
    """
    text, count = _trace_text()
    lines = text.splitlines()
    session = IngestSession("lttng", mount_point="/mnt/test")
    try:
        start = time.perf_counter()
        for i in range(0, len(lines), 4096):
            session.feed_lines(lines[i:i + 4096])
        assert session.flush(timeout=120)
        secs = time.perf_counter() - start
        assert session.report().events_processed == count
    finally:
        session.close()
    record_bench(
        BENCH_FILE,
        "ingest_throughput",
        {
            "events": count,
            "lines": len(lines),
            "seconds": round(secs, 3),
            "lines_per_sec": round(len(lines) / secs),
            "events_per_sec": round(count / secs),
        },
    )
    assert count / secs >= 20_000, f"ingest {count / secs:,.0f} events/sec"


def test_obs_http_ingest_throughput():
    """End-to-end: chunked HTTP upload into a live daemon."""
    import http.client
    import threading

    from repro.obs.server import make_server

    text, count = _trace_text()
    raw = text.encode("utf-8")
    server, _ = make_server("127.0.0.1", 0, fmt="lttng", mount_point="/mnt/test")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        pieces = [raw[i:i + 65536] for i in range(0, len(raw), 65536)]
        conn = http.client.HTTPConnection(host, port, timeout=300)
        start = time.perf_counter()
        conn.request("POST", "/ingest", body=iter(pieces), encode_chunked=True)
        response = conn.getresponse()
        document = json.loads(response.read())
        secs = time.perf_counter() - start
        conn.close()
        assert response.status == 200
        assert document["events_counted"] == count
    finally:
        server.drain_and_stop(snapshot=False)
        server.server_close()
        thread.join(timeout=30)
    record_bench(
        BENCH_FILE,
        "http_ingest",
        {
            "events": count,
            "bytes": len(raw),
            "seconds": round(secs, 3),
            "events_per_sec": round(count / secs),
            "megabytes_per_sec": round(len(raw) / secs / 1e6, 1),
        },
    )


#: Simultaneous push clients in the concurrent-load group.
CONCURRENT_CLIENTS = 4

#: Measured-vs-committed tolerance for the opt-in gate, matching the
#: pipeline benchmarks' noise allowance.
GATE_FRACTION = 0.9


#: Captured at import, before any test in this run rewrites the file:
#: the gate must compare against the *committed* baseline, not a
#: measurement taken seconds earlier on the same machine state.
COMMITTED_SINGLE_CLIENT = committed_bench(BENCH_FILE, "http_ingest", "events_per_sec")


def test_obs_concurrent_http_ingest():
    """Aggregate throughput of 4 clients pushing to 4 tenants at once.

    The worker pool overlaps each connection's socket reads with the
    per-tenant ingest workers' parsing, so the aggregate must at least
    match one client on an idle daemon — concurrency must never *cost*
    throughput.  With ``IOCOV_BENCH_GATE=1`` that floor is enforced
    against the committed single-client baseline (within the standard
    noise fraction).
    """
    import http.client

    from repro.obs.server import make_server

    single_client_baseline = COMMITTED_SINGLE_CLIENT
    text, count = _trace_text()
    raw = text.encode("utf-8")
    server, _ = make_server(
        "127.0.0.1", 0, fmt="lttng", mount_point="/mnt/test",
        workers=CONCURRENT_CLIENTS * 2,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    failures = []

    def client(index: int) -> None:
        try:
            host, port = server.server_address[:2]
            pieces = [raw[i:i + 65536] for i in range(0, len(raw), 65536)]
            conn = http.client.HTTPConnection(host, port, timeout=600)
            conn.request(
                "POST", f"/t/bench{index}/ingest",
                body=iter(pieces), encode_chunked=True,
            )
            response = conn.getresponse()
            document = json.loads(response.read())
            conn.close()
            assert response.status == 200, document
            assert document["events_counted"] == count
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            failures.append(exc)

    try:
        threads = [
            threading.Thread(target=client, args=(index,))
            for index in range(CONCURRENT_CLIENTS)
        ]
        start = time.perf_counter()
        for worker in threads:
            worker.start()
        for worker in threads:
            worker.join(timeout=600)
        secs = time.perf_counter() - start
        assert not failures, failures[0]
    finally:
        server.drain_and_stop(snapshot=False)
        server.server_close()
        thread.join(timeout=30)
    total_events = count * CONCURRENT_CLIENTS
    aggregate = total_events / secs
    payload = {
        "clients": CONCURRENT_CLIENTS,
        "events_per_client": count,
        "events_total": total_events,
        "seconds": round(secs, 3),
        "aggregate_events_per_sec": round(aggregate),
    }
    if single_client_baseline:
        payload["single_client_baseline"] = single_client_baseline
        payload["speedup_vs_single_client"] = round(
            aggregate / single_client_baseline, 2
        )
    record_bench(BENCH_FILE, "concurrent_http_ingest", payload)
    if os.environ.get("IOCOV_BENCH_GATE") and single_client_baseline:
        floor = GATE_FRACTION * single_client_baseline
        assert aggregate >= floor, (
            f"concurrent aggregate {aggregate:,.0f} ev/s fell below "
            f"{GATE_FRACTION:.0%} of the committed single-client "
            f"{single_client_baseline:,.0f} ev/s"
        )


def test_obs_store_write_read(tmp_path):
    """Full-report store round trip: save latency and reload latency."""
    events = _synthetic_events(EVENT_COUNT)
    report = IOCov(mount_point="/mnt/test", suite_name="bench").consume(events).report()
    with RunStore(str(tmp_path / "bench.sqlite")) as store:
        start = time.perf_counter()
        run_id = store.save_report(
            report, trace_format="lttng", wall_seconds=1.0
        )
        write_secs = time.perf_counter() - start

        start = time.perf_counter()
        loaded = store.load_report(run_id)
        read_secs = time.perf_counter() - start
        assert loaded.to_dict() == report.to_dict()

        start = time.perf_counter()
        for _ in range(50):
            store.get_run(run_id)
        record_secs = (time.perf_counter() - start) / 50
    record_bench(
        BENCH_FILE,
        "store_io",
        {
            "events_in_report": EVENT_COUNT,
            "save_ms": round(write_secs * 1e3, 2),
            "load_report_ms": round(read_secs * 1e3, 2),
            "get_run_ms": round(record_secs * 1e3, 3),
        },
    )
    # Saving a full run must stay interactive-fast (one snapshot per
    # suite run, not per event).
    assert write_secs < 5.0 and read_secs < 5.0
