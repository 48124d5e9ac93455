"""Binary and gzip ingest: wire parity with text, durable recovery.

Every path into the daemon — text lines, ``.rbt`` frames, gzip-wrapped
either — must leave the live analyzer in the identical state, and the
journal must replay binary frames after a crash exactly like text.
"""

from __future__ import annotations

import base64
import gzip
import threading

import pytest

from repro.core.analyzer import IOCov
from repro.obs.client import PushError, fetch_json, push_file
from repro.obs.ingest import RBT_JOURNAL_PREFIX, IngestSession
from repro.obs.server import make_server
from repro.obs.store import RunStore
from repro.trace.batch import EventBatch
from repro.trace.binary import convert_file, iter_rbt_batches
from tests.obs.conftest import MINI_MOUNT, MINI_TRACE


@pytest.fixture(scope="module")
def mini_rbt(tmp_path_factory):
    """The mini LTTng fixture converted to .rbt once per module."""
    dst = tmp_path_factory.mktemp("rbt") / "mini.rbt"
    convert_file(MINI_TRACE, str(dst), "lttng")
    return str(dst)


@pytest.fixture
def server(tmp_path):
    srv, _ = make_server(
        "127.0.0.1",
        0,
        fmt="lttng",
        mount_point=MINI_MOUNT,
        suite_name="mini",
        store_path=str(tmp_path / "runs.sqlite"),
    )
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


# -- session level -------------------------------------------------------------


def test_feed_batch_matches_text_feed(mini_trace, mini_rbt, mini_report):
    session = IngestSession("lttng", mount_point=MINI_MOUNT, suite_name="mini")
    try:
        for batch in iter_rbt_batches(mini_rbt):
            session.feed_batch(batch)
        session.flush()
        assert session.report().to_dict() == mini_report.to_dict()
        stats = session.stats()
        assert stats["batches_received"] >= 1
        assert stats["events_counted"] == mini_report.events_processed
        assert stats["lines_received"] == 0
    finally:
        session.close()


def test_interleaved_text_and_binary_counts_in_order(mini_trace, mini_rbt):
    # fd-state continuity across the transports: text open, binary
    # write on the same fd, text close — all must land in scope.
    text = IngestSession("lttng", mount_point=MINI_MOUNT, suite_name="mini")
    mixed = IngestSession("lttng", mount_point=MINI_MOUNT, suite_name="mini")
    try:
        lines = open(mini_trace).read().splitlines()
        cut = len(lines) // 2
        if cut % 2:  # keep entry/exit pairs intact
            cut += 1
        text.feed_lines(lines)
        text.flush()
        mixed.feed_lines(lines[:cut])
        mid_batches = list(iter_rbt_batches(mini_rbt))
        mixed.feed_lines(lines[cut:])
        mixed.flush()
        for batch in mid_batches:
            mixed.feed_batch(batch)
        mixed.flush()
        want = IOCov(mount_point=MINI_MOUNT, suite_name="mini")
        want.consume_lttng_file(mini_trace)
        for batch in iter_rbt_batches(mini_rbt):
            want.consume_batch(batch)
        assert mixed.report().to_dict() == want.report().to_dict()
    finally:
        text.close()
        mixed.close()


def test_binary_journal_recovery(tmp_path, mini_rbt, mini_report):
    store = RunStore(str(tmp_path / "runs.sqlite"))
    session = IngestSession(
        "lttng", mount_point=MINI_MOUNT, suite_name="mini", store=store
    )
    for batch in iter_rbt_batches(mini_rbt):
        session.feed_batch(batch)
    session.flush()
    journaled = list(store.journal_lines("live"))
    assert journaled and all(
        line.startswith(RBT_JOURNAL_PREFIX) for line in journaled
    )
    session.close()

    fresh = IngestSession(
        "lttng", mount_point=MINI_MOUNT, suite_name="mini", store=store
    )
    try:
        replayed = fresh.recover()
        assert replayed == len(journaled)
        assert fresh.report().to_dict() == mini_report.to_dict()
    finally:
        fresh.close()
        store.close()


def _recovered(path, corrupt: str | None, rows):
    """Journal two good batches (with *corrupt* between them) and recover.

    Returns ``(live report json, replay count, session stats)``.
    """
    store = RunStore(path)
    session = IngestSession(
        "lttng", mount_point=MINI_MOUNT, suite_name="mini", store=store
    )
    half = len(rows) // 2
    session.feed_batch(EventBatch.from_rows(rows[:half]))
    if corrupt is not None:
        store.journal_append("live", [RBT_JOURNAL_PREFIX + corrupt])
    session.feed_batch(EventBatch.from_rows(rows[half:]))
    session.close()
    fresh = IngestSession(
        "lttng", mount_point=MINI_MOUNT, suite_name="mini", store=store
    )
    try:
        replayed = fresh.recover()
        return fresh.report().to_json(), replayed, fresh.stats()
    finally:
        fresh.close()
        store.close()


def test_corrupt_journal_record_loses_only_itself(tmp_path, mini_rbt, mini_report):
    rows = [row for batch in iter_rbt_batches(mini_rbt) for row in batch.iter_rows()]
    want, replayed, stats = _recovered(str(tmp_path / "good.sqlite"), None, rows)
    assert want == mini_report.to_json()
    assert (replayed, stats["journal_record_corrupt"]) == (2, 0)
    # One record fails base64, the other decodes but is no .rbt frame.
    undecodable = base64.b64encode(b"not an rbt frame").decode("ascii")
    for index, corrupt in enumerate(("!!!not-base64!!!", undecodable)):
        path = str(tmp_path / f"corrupt{index}.sqlite")
        live, replayed, stats = _recovered(path, corrupt, rows)
        assert live == want
        assert (replayed, stats["journal_record_corrupt"]) == (2, 1)


# -- wire level ----------------------------------------------------------------


def test_binary_push_matches_text_push(server, mini_trace, mini_rbt, mini_report):
    document = push_file(_url(server), mini_rbt)  # auto-sniffs .rbt
    assert document["events_counted"] == mini_report.events_processed
    live = fetch_json(_url(server), "/live")
    assert live == mini_report.to_dict()
    stats = fetch_json(_url(server), "/session")
    assert stats["batches_received"] >= 1


@pytest.mark.parametrize("which", ["text", "binary"])
def test_gzip_push_parity(server, mini_trace, mini_rbt, mini_report, which):
    path = mini_trace if which == "text" else mini_rbt
    push_file(_url(server), path, gzip_body=True)
    assert fetch_json(_url(server), "/live") == mini_report.to_dict()


def test_forced_binary_on_text_file_is_client_error(server, mini_trace):
    with pytest.raises(ValueError, match="repro convert"):
        push_file(_url(server), mini_trace, transport="binary")


def test_truncated_binary_body_is_rejected(server, mini_rbt, tmp_path):
    clipped = tmp_path / "clipped.rbt"
    clipped.write_bytes(open(mini_rbt, "rb").read()[:-3])
    with pytest.raises(PushError) as excinfo:
        push_file(_url(server), str(clipped), transport="binary")
    assert excinfo.value.status == 400


def test_bad_gzip_body_is_rejected(server, tmp_path):
    bogus = tmp_path / "bogus.gz"
    # Valid gzip header, then garbage: the decompressor trips mid-body.
    bogus.write_bytes(gzip.compress(b"hello")[:6] + b"\x00" * 32)
    import http.client

    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request(
            "POST",
            "/ingest",
            body=bogus.read_bytes(),
            headers={"Content-Encoding": "gzip"},
        )
        assert conn.getresponse().status == 400
    finally:
        conn.close()
