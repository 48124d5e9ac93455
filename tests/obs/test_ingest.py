"""Ingest session: parity with one-shot analysis, and the failure modes."""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analyzer import IOCov
from repro.obs.ingest import IngestSession, SessionDegradedError
from repro.obs.sharded import ShardedRunStore
from repro.obs.store import RunStore
from tests.obs.conftest import MINI_MOUNT, MINI_TRACE

with open(MINI_TRACE) as _handle:
    MINI_TEXT = _handle.read()


@pytest.fixture
def session():
    s = IngestSession("lttng", mount_point=MINI_MOUNT, suite_name="mini")
    yield s
    s.close()


def _feed_in_pieces(session, text: str, piece: int) -> None:
    for start in range(0, len(text), piece):
        session.feed_text(text[start:start + piece])
    session.end_of_stream()
    assert session.flush()


@pytest.mark.parametrize("piece", (1 << 20, 137, 61))
def test_streamed_parity_with_one_shot(session, mini_trace, mini_report, piece):
    """A trace split at arbitrary byte offsets counts identically."""
    with open(mini_trace) as handle:
        text = handle.read()
    _feed_in_pieces(session, text, piece)
    assert session.report().to_dict() == mini_report.to_dict()


def test_flush_makes_counts_visible(session):
    assert session.report().events_processed == 0
    session.feed_lines(
        ['[00:00:00.000000003] (+0.000000001) sim syscall_entry_close:'
         ' { cpu_id = 0 }, { procname = "t", pid = 1 }, { fd = 3 }',
         '[00:00:00.000000004] (+0.000000001) sim syscall_exit_close:'
         ' { cpu_id = 0 }, { procname = "t", pid = 1 }, { ret = 0 }']
    )
    assert session.flush()
    assert session.report().events_processed == 1
    assert session.events_counted == 1


def test_malformed_lines_quarantined_below_grace(session):
    session.feed_lines(["this is not lttng at all", "neither is this"])
    session.flush()
    assert not session.degraded
    assert session.parser.malformed_lines == 2
    assert len(session.quarantine) == 2
    assert session.quarantine[0].line == "this is not lttng at all"
    stats = session.stats()
    assert stats["parse_errors"] == 2
    assert stats["degraded"] is False


def test_error_budget_degrades_session():
    session = IngestSession(
        "lttng", suite_name="bad", error_budget=0.5, budget_grace=5
    )
    try:
        session.feed_lines([f"garbage {n}" for n in range(10)])
        session.flush()
        assert session.degraded
        with pytest.raises(SessionDegradedError):
            session.feed_lines(["more garbage"])
    finally:
        session.close()


def test_blank_lines_are_not_malformed(session):
    session.feed_lines(["", "   ", ""])
    session.flush()
    assert session.parser.malformed_lines == 0
    assert session.quarantine == []


def test_journal_written_before_counting(tmp_path, mini_trace):
    store = RunStore(str(tmp_path / "runs.sqlite"))
    session = IngestSession(
        "lttng", mount_point=MINI_MOUNT, store=store, journal_session="live"
    )
    try:
        with open(mini_trace) as handle:
            lines = handle.read().splitlines()
        session.feed_lines(lines)
        session.flush()
        assert store.journal_size("live") == len(lines)
    finally:
        session.close()
        store.close()


def test_crash_recovery_replays_journal(tmp_path, mini_trace, mini_report):
    """Journaled-but-never-counted lines survive a simulated crash."""
    path = str(tmp_path / "runs.sqlite")
    store = RunStore(path)
    session = IngestSession("lttng", mount_point=MINI_MOUNT, store=store)
    with open(mini_trace) as handle:
        lines = handle.read().splitlines()
    session.feed_lines(lines)
    # Crash: no flush, no snapshot.  The journal is the only durable
    # record.
    session.close()
    store.close()

    store = RunStore(path)
    fresh = IngestSession(
        "lttng", mount_point=MINI_MOUNT, suite_name="mini", store=store
    )
    try:
        replayed = fresh.recover()
        assert replayed == len(lines)
        assert fresh.report().to_dict() == mini_report.to_dict()
        # Recovery must not double-journal what is already durable.
        assert store.journal_size("live") == len(lines)
    finally:
        fresh.close()
        store.close()


def test_count_fault_raises_and_journal_recovers(
    tmp_path, mini_trace, mini_report, monkeypatch
):
    """An error while counting reaches the feeder, and the lines it
    was counting are already journaled: a restart recovers them."""
    real_consume = IOCov.consume_batch
    faults = [RuntimeError("injected count fault")]

    def consume_batch(self, batch):
        if faults:
            raise faults.pop()
        return real_consume(self, batch)

    monkeypatch.setattr(IOCov, "consume_batch", consume_batch)
    store = RunStore(str(tmp_path / "runs.sqlite"))
    session = IngestSession("lttng", mount_point=MINI_MOUNT, store=store)
    with open(mini_trace) as handle:
        lines = handle.read().splitlines()
    with pytest.raises(RuntimeError, match="injected count fault"):
        session.feed_lines(lines)
    session.close()

    fresh = IngestSession(
        "lttng", mount_point=MINI_MOUNT, suite_name="mini", store=store
    )
    try:
        assert fresh.recover() == len(lines)
        assert fresh.report().to_dict() == mini_report.to_dict()
    finally:
        fresh.close()
        store.close()


@pytest.mark.parametrize("backend", ("single", "sharded"))
@given(
    cut=st.integers(0, len(MINI_TEXT)),
    pieces=st.lists(st.integers(1, 4000), min_size=1, max_size=4),
)
@settings(max_examples=25, deadline=None)
def test_kill_at_random_line_recovers_exactly(backend, cut, pieces):
    """A session dead after any prefix recovers to exactly its state,
    which is the one-shot count of the complete lines it was fed."""
    prefix = MINI_TEXT[:cut]
    with tempfile.TemporaryDirectory() as directory:
        if backend == "single":
            store = RunStore(os.path.join(directory, "runs.sqlite"))
        else:
            store = ShardedRunStore(os.path.join(directory, "shards"))
        try:
            dead = IngestSession(
                "lttng", mount_point=MINI_MOUNT, suite_name="mini", store=store
            )
            start = index = 0
            while start < len(prefix):
                size = pieces[index % len(pieces)]
                dead.feed_text(prefix[start:start + size])
                start += size
                index += 1
            dead.close()  # killed: no end of stream, no flush, no snapshot
            fresh = IngestSession(
                "lttng", mount_point=MINI_MOUNT, suite_name="mini", store=store
            )
            fresh.recover()
            complete = prefix[:prefix.rfind("\n") + 1]
            path = os.path.join(directory, "complete.lttng.txt")
            with open(path, "w") as handle:
                handle.write(complete)
            want = IOCov(mount_point=MINI_MOUNT, suite_name="mini")
            want.consume_lttng_file(path)
            assert fresh.report().to_json() == dead.report().to_json()
            assert fresh.report().to_json() == want.report().to_json()
        finally:
            store.close()


def test_snapshot_to_store_clears_journal(tmp_path, mini_trace, mini_report):
    store = RunStore(str(tmp_path / "runs.sqlite"))
    session = IngestSession(
        "lttng", mount_point=MINI_MOUNT, suite_name="mini", store=store
    )
    try:
        with open(mini_trace) as handle:
            session.feed_text(handle.read())
        session.end_of_stream()
        run_id = session.snapshot_to_store(meta={"reason": "test"})
        assert store.load_report(run_id).to_dict() == mini_report.to_dict()
        assert store.journal_size("live") == 0
        assert store.get_run(run_id).meta["reason"] == "test"
        assert session.runs_stored == 1
    finally:
        session.close()
        store.close()


def test_snapshot_without_store_raises(session):
    with pytest.raises(RuntimeError):
        session.snapshot_to_store()


def test_close_rejects_further_feeding(session):
    session.close()
    with pytest.raises(RuntimeError):
        session.feed_lines(["late line"])


def test_metrics_instrumented(session, mini_trace):
    with open(mini_trace) as handle:
        session.feed_text(handle.read())
    session.end_of_stream()
    session.flush()
    labels = {"tenant": session.tenant, "project": session.project}
    assert session.m_lines.value(**labels) == session.lines_received
    assert session.m_events.value(**labels) == session.events_counted > 0
    assert session.m_batch_seconds.count > 0
