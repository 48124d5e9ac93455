"""Pool lifecycle: warm reuse, crash containment, clean shutdown.

The persistent-pool guarantees the executor and the obs daemon build
on: a second call pays no startup, a dead worker fails only its own
futures and is respawned with a bumped incarnation, sequential
fallback preserves exact parity when the pool is gone, and shutdown —
including the SIGTERM path — leaves nothing behind in ``/dev/shm``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

from repro.core import IOCov
from repro.parallel import run_sharded
from repro.parallel.executor import PIPELINE_SLACK  # noqa: F401 - import sanity
from repro.parallel.pool import (
    SHM_INLINE_MAX,
    PoolClosedError,
    PoolError,
    PoolUnavailableError,
    WorkerCrashError,
    WorkerPool,
    get_pool,
    pool_is_warm,
    shutdown_pool,
)
from repro.trace.events import make_event
from repro.trace.lttng import LttngWriter

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "mini.lttng.txt")
MOUNT = "/mnt/test"


@pytest.fixture
def pool():
    p = WorkerPool(2, name="iocovtest")
    yield p
    p.shutdown()


def _shm_segments(prefix: str) -> list[str]:
    try:
        return [n for n in os.listdir("/dev/shm") if n.startswith(prefix)]
    except FileNotFoundError:  # non-Linux: nothing to assert against
        return []


# -- warm reuse ------------------------------------------------------------------


def test_ping_round_trips_per_worker(pool):
    for worker in range(pool.workers):
        assert pool.ping(worker) < 5.0
    stats = pool.stats()
    assert stats["dispatches"] == pool.workers
    assert stats["respawns"] == 0


def test_global_pool_warm_reuse():
    shutdown_pool()
    assert not pool_is_warm()
    first = get_pool(2)
    try:
        first.ping(0)
        assert pool_is_warm()
        started = time.perf_counter()
        second = get_pool(2)
        warm_acquire = time.perf_counter() - started
        assert second is first  # same processes: zero startup paid
        # A warm acquire is a lock grab, not a process launch.
        assert warm_acquire < 0.001
        assert second.stats()["respawns"] == 0
    finally:
        shutdown_pool()


def test_global_pool_grows_on_demand():
    shutdown_pool()
    first = get_pool(1)
    try:
        assert first.workers == 1
        grown = get_pool(3)
        assert grown is first
        assert grown.workers == 3
        for worker in range(3):
            grown.ping(worker)
    finally:
        shutdown_pool()


def test_run_sharded_reuses_warm_pool(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    events = []
    for i in range(24000):
        events.append(
            make_event(
                "openat",
                {"dfd": -100, "pathname": f"/mnt/test/f{i % 13}", "flags": 0,
                 "mode": 0o644},
                3 + i % 7,
                pid=1,
            )
        )
        events.append(make_event("close", {"fd": 3 + i % 7}, 0, pid=1))
    path = tmp_path / "t.lttng.txt"
    with open(path, "w") as handle:
        LttngWriter().write(events, handle)
    serial = IOCov(mount_point=MOUNT, suite_name="s")
    serial.consume_lttng_file(str(path))
    shutdown_pool()
    try:
        cold: dict = {}
        report = run_sharded(
            str(path), jobs=2, mount_point=MOUNT, suite_name="s", stats=cold
        )
        assert report.to_dict() == serial.report().to_dict()
        assert cold["pool"]["warm"] is False
        assert cold["pool"]["cold_start_seconds"] is not None
        warm: dict = {}
        report = run_sharded(
            str(path), jobs=2, mount_point=MOUNT, suite_name="s", stats=warm
        )
        assert report.to_dict() == serial.report().to_dict()
        assert warm["pool"]["warm"] is True
        assert warm["pool"]["cold_start_seconds"] is None
    finally:
        shutdown_pool()


# -- shared-memory handoff -------------------------------------------------------


def test_large_parse_payload_travels_via_shm_and_is_freed(pool):
    # A chunk over the inline bound must round-trip through a segment
    # and leave /dev/shm clean once the result is consumed.
    line = 'openat(AT_FDCWD, "/mnt/test/big", 0x2, 0644) = 3'
    lines = [line] * (2 * SHM_INLINE_MAX // len(line))
    text = "\n".join(lines)
    assert len(text.encode()) > SHM_INLINE_MAX
    future = pool.submit_parse("t/p", "strace", text)
    incarnation, _encoded, nrows, bad, malformed, _unpaired = future.result(
        timeout=30
    )
    assert incarnation == 0
    assert nrows == len(lines)
    assert bad == [] and malformed == 0
    deadline = time.time() + 5
    while _shm_segments(pool.prefix) and time.time() < deadline:
        time.sleep(0.01)
    assert _shm_segments(pool.prefix) == []


def test_parse_affinity_is_stable(pool):
    key = "tenant/project"
    pinned = pool.worker_for(key)
    assert all(pool.worker_for(key) == pinned for _ in range(10))
    futures = [pool.submit_parse(key, "strace", "sync() = 0") for _ in range(4)]
    assert {f.worker for f in futures} == {pinned}


# -- crash containment -----------------------------------------------------------


def test_worker_crash_fails_inflight_and_respawns(pool):
    victim = pool._workers[0].process
    victim.kill()
    victim.join()
    # The task lands on the dead worker's queue before the reaper runs
    # (it polls every 100 ms); its future must fail, not hang.
    future = pool.submit_parse("t/p", "strace", "sync() = 0", worker=0)
    with pytest.raises(WorkerCrashError):
        future.result(timeout=30)
    deadline = time.time() + 10
    while pool.stats()["respawns"] == 0 and time.time() < deadline:
        time.sleep(0.05)
    assert pool.stats()["respawns"] >= 1
    assert pool.incarnation(0) == 1
    # The respawned worker serves the same slot.
    assert pool.ping(0) < 10.0


def test_crash_only_fails_futures_on_the_dead_worker(pool):
    pool._workers[0].process.kill()
    pool._workers[0].process.join()
    doomed = pool.submit_parse("a", "strace", "sync() = 0", worker=0)
    healthy = pool.submit_parse("b", "strace", "sync() = 0", worker=1)
    assert healthy.result(timeout=30)[2] == 1  # one row parsed
    with pytest.raises(WorkerCrashError):
        doomed.result(timeout=30)


def test_run_sharded_falls_back_sequential_on_pool_error(tmp_path, monkeypatch):
    from repro.parallel import executor

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(executor, "MIN_SHARD_EVENTS", 0)
    monkeypatch.setattr(executor, "MIN_SHARD_EVENTS_WARM", 0)

    def broken_pool(jobs):
        raise PoolUnavailableError("no subprocesses on this platform")

    monkeypatch.setattr(executor, "get_pool", broken_pool)
    serial = IOCov(mount_point=MOUNT, suite_name="s")
    serial.consume_lttng_file(FIXTURE)
    stats: dict = {}
    report = run_sharded(
        FIXTURE,
        jobs=2,
        mount_point=MOUNT,
        suite_name="s",
        min_shard_bytes=256,
        stats=stats,
    )
    assert stats["sequential_fallback"] is True
    assert stats["fallback_reason"] == "PoolUnavailableError"
    assert report.to_dict() == serial.report().to_dict()
    assert stats["parse"] == serial.parse_stats


def test_submit_after_shutdown_raises(pool):
    pool.shutdown()
    with pytest.raises(PoolClosedError):
        pool.submit_parse("t/p", "strace", "sync() = 0")


def test_shutdown_fails_inflight_futures():
    pool = WorkerPool(1, name="iocovtest")
    futures = [
        pool.submit_parse("t/p", "strace", "sync() = 0") for _ in range(50)
    ]
    pool.shutdown()
    for future in futures:
        try:
            future.result(timeout=10)
        except PoolError:
            pass  # PoolClosedError for anything the worker never answered


# -- clean shutdown (the SIGTERM path) -------------------------------------------

_SIGTERM_SCRIPT = """
import os, signal, sys
from repro.parallel.pool import SHM_INLINE_MAX, get_pool, shutdown_pool

pool = get_pool(2)
signal.signal(signal.SIGTERM, lambda s, f: sys.exit(0))  # atexit runs shutdown_pool
text = "sync() = 0\\n" * (SHM_INLINE_MAX // 8)  # forces shm handoff
futures = [pool.submit_parse("t/p", "strace", text) for _ in range(8)]
for future in futures[:2]:
    future.result(timeout=30)
print("PREFIX=" + pool.prefix, flush=True)
os.kill(os.getpid(), signal.SIGTERM)
signal.pause()
"""


def test_sigterm_shutdown_leaks_no_shm_segments(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    process = subprocess.run(
        [sys.executable, "-c", _SIGTERM_SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert process.returncode == 0, process.stderr
    prefix = [
        line.split("=", 1)[1]
        for line in process.stdout.splitlines()
        if line.startswith("PREFIX=")
    ][0]
    # No segment with the pool's prefix survived the process…
    assert _shm_segments(prefix) == []
    # …and the resource tracker saw nothing leak (it would warn on
    # stderr at interpreter exit about leaked shared_memory objects).
    assert "resource_tracker" not in process.stderr, process.stderr
