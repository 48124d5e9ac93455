"""Run store: persistence, resolution, journaling, schema guard."""

from __future__ import annotations

import os
import sqlite3
import struct

import pytest

from repro.obs.store import RunStore, StoreVersionError, open_store


@pytest.fixture
def store(tmp_path):
    with RunStore(str(tmp_path / "runs.sqlite")) as s:
        yield s


def test_save_and_load_round_trip(store, mini_report):
    run_id = store.save_report(
        mini_report,
        trace_path="mini.lttng.txt",
        trace_format="lttng",
        seed=7,
        jobs=4,
        wall_seconds=0.5,
    )
    loaded = store.load_report(run_id)
    assert loaded.to_dict() == mini_report.to_dict()


def test_run_record_metadata(store, mini_report):
    run_id = store.save_report(
        mini_report,
        trace_path="/tmp/t.lttng",
        trace_format="lttng",
        seed=11,
        jobs=2,
        wall_seconds=2.0,
        meta={"shards": 2},
    )
    record = store.get_run(run_id)
    assert record.trace_path == "/tmp/t.lttng"
    assert record.trace_format == "lttng"
    assert record.seed == 11
    assert record.jobs == 2
    assert record.events_processed == mini_report.events_processed
    assert record.events_per_sec == pytest.approx(
        mini_report.events_processed / 2.0
    )
    assert record.meta == {"shards": 2}
    assert record.to_dict()["run_id"] == run_id


def test_list_runs_newest_first_with_limit(store, mini_report):
    ids = [
        store.save_report(mini_report, created_at=float(stamp))
        for stamp in (100, 200, 300)
    ]
    listed = [record.run_id for record in store.list_runs()]
    assert listed == ids[::-1]
    assert [r.run_id for r in store.list_runs(limit=2)] == ids[:0:-1]


def test_list_runs_suite_filter(store, mini_report):
    store.save_report(mini_report)
    records = store.list_runs(suite=mini_report.suite_name)
    assert len(records) == 1
    assert store.list_runs(suite="no-such-suite") == []


def test_resolve_refs(store, mini_report):
    first = store.save_report(mini_report)
    second = store.save_report(mini_report)
    assert store.resolve(str(first)) == first
    assert store.resolve("latest") == second
    assert store.resolve("latest~1") == first
    with pytest.raises((KeyError, ValueError)):
        store.resolve("latest~9")
    with pytest.raises((KeyError, ValueError)):
        store.resolve("nonsense")
    with pytest.raises((KeyError, ValueError)):
        store.resolve(str(second + 100))


def test_tcd_scores_persisted(store, mini_report):
    run_id = store.save_report(mini_report)
    score = store.tcd_score(run_id, "input", "open", "flags")
    assert score == pytest.approx(mini_report.input_tcd("open", "flags", 1000.0))


def test_delete_run(store, mini_report):
    run_id = store.save_report(mini_report)
    store.delete_run(run_id)
    assert store.list_runs() == []
    with pytest.raises((KeyError, ValueError)):
        store.get_run(run_id)


def test_journal_append_read_clear(store):
    store.journal_append("live", ["line one", "line two"])
    store.journal_append("live", ["line three"])
    store.journal_append("other", ["unrelated"])
    assert list(store.journal_lines("live")) == [
        "line one", "line two", "line three",
    ]
    assert store.journal_size("live") == 3
    store.journal_clear("live")
    assert store.journal_size("live") == 0
    assert store.journal_size("other") == 1


def test_store_reopens_existing_file(tmp_path, mini_report):
    path = str(tmp_path / "runs.sqlite")
    with RunStore(path) as store:
        run_id = store.save_report(mini_report)
    with RunStore(path) as store:
        assert store.load_report(run_id).to_dict() == mini_report.to_dict()


def test_schema_version_guard(tmp_path):
    path = str(tmp_path / "runs.sqlite")
    RunStore(path).close()
    conn = sqlite3.connect(path)
    conn.execute(
        "UPDATE schema_meta SET value = '999' WHERE key = 'schema_version'"
    )
    conn.commit()
    conn.close()
    with pytest.raises(StoreVersionError):
        RunStore(path)


_V1_SCHEMA = """
CREATE TABLE schema_meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE runs (
    id               INTEGER PRIMARY KEY AUTOINCREMENT,
    suite            TEXT NOT NULL,
    created_at       REAL NOT NULL,
    trace_path       TEXT,
    trace_format     TEXT,
    seed             INTEGER,
    jobs             INTEGER,
    events_processed INTEGER NOT NULL DEFAULT 0,
    events_admitted  INTEGER NOT NULL DEFAULT 0,
    wall_seconds     REAL,
    events_per_sec   REAL,
    meta_json        TEXT NOT NULL DEFAULT '{}',
    report_json      TEXT NOT NULL
);
CREATE TABLE input_counts (
    run_id    INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    syscall   TEXT NOT NULL,
    arg       TEXT NOT NULL,
    partition TEXT NOT NULL,
    count     INTEGER NOT NULL,
    PRIMARY KEY (run_id, syscall, arg, partition)
);
CREATE TABLE output_counts (
    run_id    INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    syscall   TEXT NOT NULL,
    partition TEXT NOT NULL,
    count     INTEGER NOT NULL,
    PRIMARY KEY (run_id, syscall, partition)
);
CREATE TABLE tcd_scores (
    run_id  INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    kind    TEXT NOT NULL,
    syscall TEXT NOT NULL,
    arg     TEXT NOT NULL DEFAULT '',
    target  REAL NOT NULL,
    tcd     REAL NOT NULL,
    PRIMARY KEY (run_id, kind, syscall, arg)
);
CREATE TABLE journal (
    seq     INTEGER PRIMARY KEY AUTOINCREMENT,
    session TEXT NOT NULL,
    line    TEXT NOT NULL
);
CREATE INDEX journal_session ON journal (session, seq);
INSERT INTO schema_meta (key, value) VALUES ('schema_version', '1');
"""


def test_v1_file_migrates_to_namespaced_v2(tmp_path, mini_report):
    """A pre-tenant store opens cleanly; old rows join default/default."""
    path = str(tmp_path / "v1.sqlite")
    conn = sqlite3.connect(path)
    conn.executescript(_V1_SCHEMA)
    conn.execute(
        "INSERT INTO runs (suite, created_at, report_json)"
        " VALUES ('old-suite', 100.0, ?)",
        (mini_report.to_json(),),
    )
    conn.execute(
        "INSERT INTO journal (session, line) VALUES ('live', 'old line')"
    )
    conn.commit()
    conn.close()

    with RunStore(path) as store:
        record = store.get_run(1)
        assert (record.tenant, record.project) == ("default", "default")
        assert record.suite == "old-suite"
        assert list(store.journal_lines("live")) == ["old line"]
        # The file is fully v2 now: namespaced writes work alongside.
        store.save_report(mini_report, tenant="acme")
        assert store.namespaces() == [
            ("default", "default"), ("acme", "default"),
        ] or store.namespaces() == [
            ("acme", "default"), ("default", "default"),
        ]

    conn = sqlite3.connect(path)
    version = conn.execute(
        "SELECT value FROM schema_meta WHERE key = 'schema_version'"
    ).fetchone()[0]
    conn.close()
    assert version == "3"


#: What a v2 file adds to the v3 schema: the journal table, and its version.
_V2_JOURNAL = """
CREATE TABLE journal (
    seq     INTEGER PRIMARY KEY AUTOINCREMENT,
    session TEXT NOT NULL,
    tenant  TEXT NOT NULL DEFAULT 'default',
    project TEXT NOT NULL DEFAULT 'default',
    line    TEXT NOT NULL
);
CREATE INDEX journal_session ON journal (tenant, project, session, seq);
UPDATE schema_meta SET value = '2' WHERE key = 'schema_version';
"""

#: (session, tenant, project, line) in append order, sessions interleaved.
_V2_ROWS = [
    ("live", "default", "default", "d1"),
    ("other", "default", "default", "o1"),
    ("live", "acme", "web", "a1"),
    ("live", "default", "default", "d2"),
    ("other", "acme", "web", "b1"),
    ("live", "acme", "web", "a2"),
]


def _journal_by_key(store):
    return {
        (tenant, project, session): list(
            store.journal_lines(session, tenant=tenant, project=project)
        )
        for tenant, project in store.journal_namespaces()
        for session in store.journal_sessions(tenant=tenant, project=project)
    }


def test_v2_journal_rows_move_to_journal_files_exactly_once(tmp_path, monkeypatch):
    """A v2 file's journal replays the same lines after open, and a move
    cut short before the table's drop is redone, not doubled."""
    path = str(tmp_path / "v2.sqlite")
    RunStore(path).close()
    conn = sqlite3.connect(path)
    conn.executescript(_V2_JOURNAL)
    conn.executemany(
        "INSERT INTO journal (session, tenant, project, line) VALUES (?, ?, ?, ?)",
        _V2_ROWS,
    )
    conn.commit()
    conn.close()
    want = {}
    for session, tenant, project, line in _V2_ROWS:
        want.setdefault((tenant, project, session), []).append(line)

    move = RunStore._move_journal_table

    def move_then_fail(self, root):
        move(self, root)
        raise OSError("stopped between the journal files and the drop")

    monkeypatch.setattr(RunStore, "_move_journal_table", move_then_fail)
    with pytest.raises(OSError):
        RunStore(path)
    assert os.path.exists(os.path.join(path + ".journal", "acme", "web", "journal.rjl"))
    monkeypatch.undo()

    for _ in range(2):  # the move redone, then a plain v3 open
        with RunStore(path) as store:
            assert _journal_by_key(store) == want
            assert store.journal_size("live", tenant="acme", project="web") == 2
    conn = sqlite3.connect(path)
    version = conn.execute(
        "SELECT value FROM schema_meta WHERE key = 'schema_version'"
    ).fetchone()[0]
    tables = {row[0] for row in conn.execute("SELECT name FROM sqlite_master")}
    conn.close()
    assert version == "3"
    assert "journal" not in tables


@pytest.mark.parametrize("name", ["runs.sqlite", "shards/"])
def test_a_reader_leaves_a_live_journal_untouched(tmp_path, mini_report, name):
    """Only the journal's writer may cut a torn tail: a store opened
    beside a running daemon, to read runs, leaves ``journal.rjl`` as is."""
    path = os.path.join(str(tmp_path), name)
    root = path if name.endswith("/") else path + ".journal"
    journal_path = os.path.join(root, "default", "default", "journal.rjl")
    writer = open_store(path)
    try:
        writer.save_report(mini_report)
        writer.journal_append("live", ["l1", "l2"])
        writer.journal_sync()
        # The writer's buffer has flushed half a frame when the reader opens.
        with open(journal_path, "ab") as fh:
            fh.write(struct.pack(">II", 64, 0) + b"half a frame")
        with open(journal_path, "rb") as fh:
            before = fh.read()
        with open_store(path) as reader:
            assert reader.resolve("latest") == 1
            assert reader.namespaces() == [("default", "default")]
        with open(journal_path, "rb") as fh:
            assert fh.read() == before
    finally:
        writer.close()

