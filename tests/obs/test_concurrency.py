"""Concurrent load: parallel tenants, same-tenant races, torn journals."""

from __future__ import annotations

import contextlib
import os
import struct
import threading

import pytest

from repro.core.analyzer import IOCov
from repro.obs.client import fetch_json, push_file
from repro.obs.server import make_server
from repro.obs.journal import JOURNAL_FILE
from tests.obs.conftest import MINI_MOUNT

N_TENANTS = 4


@contextlib.contextmanager
def _running(store_path, **kwargs):
    srv, recovered = make_server(
        "127.0.0.1",
        0,
        fmt="lttng",
        mount_point=MINI_MOUNT,
        suite_name="mini",
        store_path=store_path,
        **kwargs,
    )
    assert recovered == 0
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    if not srv.draining:
        srv.drain_and_stop(snapshot=False)
    srv.server_close()
    thread.join(timeout=10)


@pytest.fixture
def server(tmp_path):
    with _running(str(tmp_path / "shards") + "/", workers=N_TENANTS * 2) as srv:
        yield srv


@pytest.fixture
def single_file_server(tmp_path):
    with _running(str(tmp_path / "runs.sqlite")) as srv:
        yield srv


def _url(server) -> str:
    host, port = server.server_address[:2]
    return f"{host}:{port}"


def _parallel(workers):
    """Run thunks in parallel; re-raise the first failure, if any."""
    failures = []

    def runner(thunk):
        try:
            thunk()
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            failures.append(exc)

    threads = [
        threading.Thread(target=runner, args=(thunk,)) for thunk in workers
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    if failures:
        raise failures[0]


def test_parallel_tenants_no_bleed(server, mini_trace, mini_report):
    """N clients pushing to N tenants at once: every /live is exact."""
    tenants = [f"tenant{i}" for i in range(N_TENANTS)]
    _parallel([
        lambda t=t: push_file(_url(server), mini_trace, tenant=t)
        for t in tenants
    ])
    expected = mini_report.to_dict()
    for tenant in tenants:
        live = fetch_json(_url(server), "/live", tenant=tenant)
        assert live == expected, f"tenant {tenant} diverged"
    # The default tenant never saw a line.
    default = fetch_json(_url(server), "/session")
    assert default["lines_received"] == 0


def test_concurrent_pushes_one_tenant_serialized(server, mini_trace,
                                                 mini_report):
    """Two simultaneous finalizing pushes into one tenant both land."""
    _parallel([
        lambda: push_file(_url(server), mini_trace, tenant="acme",
                          finalize=True)
        for _ in range(2)
    ])
    runs = fetch_json(_url(server), "/runs", tenant="acme")["runs"]
    assert len(runs) == 2
    # Both traces were counted; the live analyzer saw exactly 2x.
    session = fetch_json(_url(server), "/session", tenant="acme")
    assert session["events_counted"] == 2 * mini_report.events_processed
    assert session["parse_errors"] == 0


def _one_fsync_per_push(server, mini_trace, monkeypatch):
    syncs = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: syncs.append(fd) or real_fsync(fd))
    answer = push_file(_url(server), mini_trace)
    assert answer["flushed"] is True
    assert server.session.lines_received == 240
    assert len(syncs) == 1


def test_push_costs_one_journal_fsync(server, mini_trace, monkeypatch):
    """One acknowledged push is one journal fsync, however many lines."""
    _one_fsync_per_push(server, mini_trace, monkeypatch)


def test_push_costs_one_journal_fsync_on_a_single_file_store(
    single_file_server, mini_trace, monkeypatch
):
    """The single-file store journals as a shard does: one fsync a push."""
    _one_fsync_per_push(single_file_server, mini_trace, monkeypatch)


def _torn_final_group_replay(store_path, journal_root, mini_trace):
    srv, recovered = make_server(
        "127.0.0.1", 0, fmt="lttng", mount_point=MINI_MOUNT,
        suite_name="mini", store_path=store_path,
    )
    assert recovered == 0
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    push_file(_url(srv), mini_trace, tenant="acme")
    # Crash: no drain, no snapshot; the namespace's journal is the survivor.
    for session in srv.tenants.sessions():
        session.close()
    srv.shutdown()
    thread.join(timeout=10)
    srv.server_close()
    srv.store.close()

    journal_path = os.path.join(journal_root, "acme", "default", JOURNAL_FILE)
    with open(mini_trace) as handle:
        total_lines = sum(1 for _ in handle)
    # Tear off the final group: a truncated frame where fsync died.
    with open(journal_path, "ab") as fh:
        fh.write(struct.pack(">II", 4096, 0xDEAD) + b"half a frame")

    srv2, recovered = make_server(
        "127.0.0.1", 0, fmt="lttng", mount_point=MINI_MOUNT,
        suite_name="mini", store_path=store_path,
    )
    thread2 = threading.Thread(target=srv2.serve_forever, daemon=True)
    thread2.start()
    try:
        assert recovered == total_lines  # every intact record, tail dropped
        live = fetch_json(_url(srv2), "/live", tenant="acme")
        expected = (
            IOCov(mount_point=MINI_MOUNT, suite_name="mini")
            .consume_lttng_file(mini_trace)
            .report()
            .to_dict()
        )
        assert live == expected
    finally:
        srv2.drain_and_stop(snapshot=False)
        srv2.server_close()
        thread2.join(timeout=10)


def test_torn_final_group_replay(tmp_path, mini_trace):
    """Recovery replays every intact journal record, drops the torn tail."""
    store_root = str(tmp_path / "shards")
    _torn_final_group_replay(store_root + "/", store_root, mini_trace)


def test_torn_final_group_replay_on_a_single_file_store(tmp_path, mini_trace):
    """The same recovery beside a single-file store: ``<db>.journal/``."""
    store_path = str(tmp_path / "runs.sqlite")
    _torn_final_group_replay(store_path, store_path + ".journal", mini_trace)
