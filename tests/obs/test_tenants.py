"""Multi-tenant daemon: routing, isolation, labels, the store lock."""

from __future__ import annotations

import http.client
import threading

import pytest

from repro.obs.client import PushError, fetch_json, push_file, tenant_path
from repro.obs.metrics import validate_exposition
from repro.obs.server import StoreLockError, make_server
from tests.obs.conftest import MINI_MOUNT


@pytest.fixture
def server(tmp_path):
    """A running daemon backed by a sharded store directory."""
    srv, recovered = make_server(
        "127.0.0.1",
        0,
        fmt="lttng",
        mount_point=MINI_MOUNT,
        suite_name="mini",
        store_path=str(tmp_path / "shards") + "/",
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


def _get_raw(server, path: str) -> tuple[int, str]:
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        conn.close()


def test_session_reads_start_no_threads(server):
    """A namespace's session costs no thread, even one only read."""
    before = threading.active_count()
    for index in range(200):
        fetch_json(_url(server), f"/t/reader{index}/session")
    assert threading.active_count() == before


def test_tenant_path_builder():
    assert tenant_path("/ingest") == "/ingest"
    assert tenant_path("/ingest", "default", "default") == "/ingest"
    assert tenant_path("/ingest", "acme") == "/t/acme/ingest"
    assert tenant_path("/live", "acme", "web") == "/t/acme/p/web/live"
    assert tenant_path("/runs", None, "web") == "/t/default/p/web/runs"


def test_tenant_routes_isolated(server, mini_trace):
    push_file(_url(server), mini_trace, tenant="acme")
    acme = fetch_json(_url(server), "/session", tenant="acme")
    assert acme["tenant"] == "acme"
    assert acme["lines_received"] > 0
    # The default tenant saw none of it.
    default = fetch_json(_url(server), "/session")
    assert default["lines_received"] == 0
    # Nor did a sibling tenant.
    other = fetch_json(_url(server), "/session", tenant="globex")
    assert other["lines_received"] == 0


def test_per_tenant_live_parity(server, mini_trace, mini_report):
    """A tenant-scoped /live is byte-identical to one-shot analyze."""
    push_file(_url(server), mini_trace, tenant="acme", project="web")
    status, body = _get_raw(server, "/t/acme/p/web/live")
    assert status == 200
    assert body == mini_report.to_json()


def test_default_routes_still_serve_default_tenant(server, mini_trace,
                                                   mini_report):
    push_file(_url(server), mini_trace)
    status, body = _get_raw(server, "/live")
    assert status == 200
    assert body == mini_report.to_json()


def test_invalid_tenant_name_is_400(server):
    status, _body = _get_raw(server, "/t/..%2fescape/live")
    assert status == 400
    with pytest.raises(PushError) as excinfo:
        fetch_json(_url(server), "/session", tenant=".hidden")
    assert excinfo.value.status == 400


def test_metrics_carry_tenant_labels(server, mini_trace):
    push_file(_url(server), mini_trace, tenant="acme")
    push_file(_url(server), mini_trace)
    status, text = _get_raw(server, "/metrics")
    assert status == 200
    assert validate_exposition(text) == []
    lines = text.splitlines()
    acme = [l for l in lines if 'tenant="acme"' in l and
            l.startswith("iocov_ingest_lines_total")]
    default = [l for l in lines if 'tenant="default"' in l and
               l.startswith("iocov_ingest_lines_total")]
    assert acme and default
    # Same trace pushed to both: identical per-tenant line counts.
    assert acme[0].rsplit(" ", 1)[1] == default[0].rsplit(" ", 1)[1]


def test_tenant_runs_scoped_and_merged(server, mini_trace):
    push_file(_url(server), mini_trace, tenant="acme", finalize=True)
    push_file(_url(server), mini_trace, finalize=True)
    scoped = fetch_json(_url(server), "/runs", tenant="acme")
    assert [run["tenant"] for run in scoped["runs"]] == ["acme"]
    merged = fetch_json(_url(server), "/runs")
    assert sorted(run["tenant"] for run in merged["runs"]) == [
        "acme", "default",
    ]


def test_runs_persist_in_tenant_shard(server, mini_trace, mini_report):
    document = push_file(_url(server), mini_trace, tenant="acme",
                         finalize=True)
    run = document["run"]
    assert run["tenant"] == "acme"
    store = server.store
    loaded = store.load_report(run["run_id"], tenant="acme",
                               project="default")
    assert loaded.to_dict() == mini_report.to_dict()


def test_second_daemon_on_same_store_rejected(server, tmp_path):
    with pytest.raises(StoreLockError):
        make_server(
            "127.0.0.1",
            0,
            fmt="lttng",
            mount_point=MINI_MOUNT,
            store_path=str(tmp_path / "shards") + "/",
        )


def test_lock_released_after_close(tmp_path):
    store_path = str(tmp_path / "runs.sqlite")
    srv, _ = make_server("127.0.0.1", 0, fmt="lttng",
                         mount_point=MINI_MOUNT, store_path=store_path)
    srv.session.close()
    srv.server_close()
    # A later daemon (the restart path) must be able to take the lock.
    srv2, _ = make_server("127.0.0.1", 0, fmt="lttng",
                          mount_point=MINI_MOUNT, store_path=store_path)
    srv2.session.close()
    srv2.server_close()
