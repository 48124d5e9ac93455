"""HTTP daemon: endpoints, chunked ingest, parity, failure modes."""

from __future__ import annotations

import http.client
import json
import socket
import threading

import pytest

from repro.obs.client import PushError, fetch_json, push_file
from repro.obs.metrics import validate_exposition
from repro.obs.server import make_server
from repro.obs.store import RunStore
from tests.obs.conftest import MINI_MOUNT


@pytest.fixture
def server(tmp_path):
    """A running daemon on an ephemeral port, with a store attached."""
    srv, recovered = make_server(
        "127.0.0.1",
        0,
        fmt="lttng",
        mount_point=MINI_MOUNT,
        suite_name="mini",
        store_path=str(tmp_path / "runs.sqlite"),
    )
    assert recovered == 0
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    if not srv.draining:
        srv.drain_and_stop(snapshot=False)
    srv.server_close()
    thread.join(timeout=10)


def _url(server) -> str:
    host, port = server.server_address[:2]
    return f"{host}:{port}"


def _post(server, path: str, body: bytes, headers: dict | None = None):
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("POST", path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


def test_healthz_and_session(server):
    health = fetch_json(_url(server), "/healthz")
    assert health["status"] == "ok"
    assert health["draining"] is False
    stats = fetch_json(_url(server), "/session")
    assert stats["format"] == "lttng"
    assert stats["lines_received"] == 0


def test_live_parity_with_one_shot_analysis(server, mini_trace, mini_report):
    """The daemon-built report equals `repro analyze` byte-for-byte."""
    push_file(_url(server), mini_trace)
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", "/live")
        body = conn.getresponse().read().decode("utf-8")
    finally:
        conn.close()
    assert body == mini_report.to_json()


def test_chunked_upload_split_mid_line(server, mini_trace, mini_report):
    """Chunk boundaries that cut lines in half must not change counts."""
    with open(mini_trace, "rb") as handle:
        raw = handle.read()
    pieces = [raw[i:i + 211] for i in range(0, len(raw), 211)]
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("POST", "/ingest", body=iter(pieces), encode_chunked=True)
        response = conn.getresponse()
        assert response.status == 200
        document = json.loads(response.read())
    finally:
        conn.close()
    assert document["accepted_bytes"] == len(raw)
    assert document["new_parse_errors"] == 0
    live = fetch_json(_url(server), "/live")
    assert live == mini_report.to_dict()


def test_content_length_upload(server, mini_trace, mini_report):
    with open(mini_trace, "rb") as handle:
        raw = handle.read()
    status, document = _post(server, "/ingest", raw)
    assert status == 200
    assert document["events_counted"] == mini_report.events_processed


def test_metrics_endpoint_is_valid_prometheus(server, mini_trace):
    push_file(_url(server), mini_trace)
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type").startswith(
            "text/plain; version=0.0.4"
        )
        text = response.read().decode("utf-8")
    finally:
        conn.close()
    assert validate_exposition(text) == []
    assert "iocov_ingest_lines_total" in text
    assert "iocov_ingest_batch_seconds_bucket" in text


def test_runs_snapshot_and_listing(server, mini_trace, mini_report):
    result = push_file(_url(server), mini_trace, finalize=True)
    run_id = result["run"]["run_id"]
    listing = fetch_json(_url(server), "/runs")
    assert [run["run_id"] for run in listing["runs"]] == [run_id]
    one = fetch_json(_url(server), f"/runs/{run_id}")
    assert one["coverage"] == mini_report.to_dict()
    latest = fetch_json(_url(server), "/runs/latest")
    assert latest["run"]["run_id"] == run_id


def test_runs_metadata_body_is_stored(server):
    status, document = _post(
        server, "/runs", json.dumps({"ci_job": "nightly"}).encode("utf-8")
    )
    assert status == 201
    run_id = document["run"]["run_id"]
    assert server.store.get_run(run_id).meta["ci_job"] == "nightly"


def test_oversized_runs_metadata_is_413(server):
    """An oversized body is refused and its connection closed, so the
    unread body is never parsed as the connection's next request."""
    host, port = server.server_address[:2]
    body = json.dumps({"pad": "x" * 1_200_000}).encode("utf-8")
    head = f"POST /runs HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body)}\r\n\r\n"
    answer = b""
    with socket.create_connection((host, port), timeout=10) as sock:

        def send() -> None:
            try:
                sock.sendall(head.encode("ascii") + body)
            except OSError:
                pass  # the daemon may hang up before the body is sent

        sender = threading.Thread(target=send)
        sender.start()
        try:
            while piece := sock.recv(65536):
                answer += piece
        except ConnectionResetError:
            pass
        sender.join(timeout=10)
    assert not sender.is_alive()
    assert answer.startswith(b"HTTP/1.1 413 "), answer[:200]
    assert server.store.list_runs() == []
    assert fetch_json(_url(server), "/healthz")["status"] == "ok"


def test_unknown_paths_404(server):
    with pytest.raises(PushError) as excinfo:
        fetch_json(_url(server), "/nope")
    assert excinfo.value.status == 404
    with pytest.raises(PushError):
        fetch_json(_url(server), "/runs/999")


def test_malformed_payload_within_budget_reports_errors(server):
    body = b"total garbage line\n" * 5
    status, document = _post(server, "/ingest", body)
    assert status == 200
    assert document["new_parse_errors"] == 5
    assert document["degraded"] is False
    stats = fetch_json(_url(server), "/session")
    assert len(stats["quarantine"]) == 5


def test_error_budget_degrades_to_422(tmp_path):
    srv, _ = make_server(
        "127.0.0.1", 0, fmt="lttng", error_budget=0.1,
    )
    srv.session.budget_grace = 5
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        body = b"garbage\n" * 50
        status, document = _post(srv, "/ingest", body)
        assert status == 422
        assert "error budget" in document["error"]
        # Once degraded, even clean payloads are refused.
        status, _ = _post(srv, "/ingest", b"\n")
        assert status == 422
    finally:
        srv.drain_and_stop(snapshot=False)
        srv.server_close()
        thread.join(timeout=10)


def test_mid_stream_client_disconnect(server, mini_trace, mini_report):
    """A client dying mid-chunk must not poison the daemon."""
    host, port = server.server_address[:2]
    sock = socket.create_connection((host, port), timeout=10)
    sock.sendall(
        b"POST /ingest HTTP/1.1\r\n"
        b"Host: x\r\n"
        b"Transfer-Encoding: chunked\r\n"
        b"\r\n"
        b"1f\r\nan incomplete chunked body li\r\n"
        b"ff\r\nthe declared size now exceeds wh"  # lies, then dies
    )
    sock.close()
    # The daemon survives and a well-behaved client still gets parity.
    push_file(_url(server), mini_trace)
    live = fetch_json(_url(server), "/live")
    assert live == mini_report.to_dict()


def test_bad_chunk_size_is_400(server):
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.putrequest("POST", "/ingest")
        conn.putheader("Transfer-Encoding", "chunked")
        conn.endheaders()
        conn.send(b"NOTHEX\r\ngarbage\r\n0\r\n\r\n")
        response = conn.getresponse()
        assert response.status == 400
    finally:
        conn.close()


def test_drain_counts_in_flight_lines(tmp_path, mini_trace, mini_report):
    """SIGTERM semantics: lines fed without a flush land in the final
    snapshot, and intake refuses new work while draining."""
    store_path = str(tmp_path / "drain.sqlite")
    srv, _ = make_server(
        "127.0.0.1", 0, fmt="lttng", mount_point=MINI_MOUNT,
        suite_name="mini", store_path=store_path,
    )
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    with open(mini_trace) as handle:
        lines = handle.read().splitlines()
    # Feed without flushing — the drain snapshot must hold these.
    srv.session.feed_lines(lines)
    run_id = srv.drain_and_stop(snapshot=True)
    thread.join(timeout=10)
    srv.server_close()
    assert run_id is not None
    with RunStore(store_path) as store:
        assert store.load_report(run_id).to_dict() == mini_report.to_dict()
        assert store.get_run(run_id).meta["reason"] == "drain"
        assert store.journal_size("live") == 0


def test_draining_server_rejects_ingest(tmp_path, mini_trace):
    srv, _ = make_server("127.0.0.1", 0, fmt="lttng")
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    srv.draining = True  # simulate the drain window before shutdown
    try:
        status, document = _post(srv, "/ingest", b"line\n")
        assert status == 503
    finally:
        srv.draining = False
        srv.drain_and_stop(snapshot=False)
        srv.server_close()
        thread.join(timeout=10)


def test_recovery_after_simulated_crash(tmp_path, mini_trace, mini_report):
    """Kill a daemon without drain; a new one resumes from the journal."""
    store_path = str(tmp_path / "crash.sqlite")
    srv, recovered = make_server(
        "127.0.0.1", 0, fmt="lttng", mount_point=MINI_MOUNT,
        suite_name="mini", store_path=store_path,
    )
    assert recovered == 0
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    push_file(_url(srv), mini_trace)
    # Crash: no drain, no snapshot; journal is the only survivor.
    srv.session.close()
    srv.shutdown()
    thread.join(timeout=10)
    srv.server_close()
    srv.store.close()

    srv2, recovered = make_server(
        "127.0.0.1", 0, fmt="lttng", mount_point=MINI_MOUNT,
        suite_name="mini", store_path=store_path,
    )
    thread2 = threading.Thread(target=srv2.serve_forever, daemon=True)
    thread2.start()
    try:
        assert recovered > 0
        live = fetch_json(_url(srv2), "/live")
        assert live == mini_report.to_dict()
    finally:
        srv2.drain_and_stop(snapshot=False)
        srv2.server_close()
        thread2.join(timeout=10)
