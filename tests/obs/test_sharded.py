"""Sharded backend: batched journal, per-namespace shards, migration."""

from __future__ import annotations

import os
import struct
import tracemalloc

import pytest

from repro.obs.journal import BatchedJournal
from repro.obs.sharded import (
    SHARD_DB,
    SHARD_MARKER,
    ShardedRunStore,
    migrate_single_to_sharded,
)
from repro.obs.store import NamespaceError, RunStore, open_store


# -- BatchedJournal ----------------------------------------------------------


def test_journal_round_trip(tmp_path):
    journal = BatchedJournal(str(tmp_path / "j.rjl"))
    journal.append("live", ["line one", "line two"])
    journal.append("other", ["elsewhere"])
    journal.sync()
    assert list(journal.lines("live")) == ["line one", "line two"]
    assert journal.size("live") == 2
    assert journal.size("other") == 1
    assert journal.sessions() == ["live", "other"]
    journal.close()


def test_journal_survives_reopen(tmp_path):
    path = str(tmp_path / "j.rjl")
    journal = BatchedJournal(path)
    journal.append("live", [f"line {i}" for i in range(5)])
    journal.close()  # close syncs the pending group
    reopened = BatchedJournal(path)
    assert list(reopened.lines("live")) == [f"line {i}" for i in range(5)]
    assert reopened.size("live") == 5
    reopened.close()


def test_journal_group_commit_defers_fsync(tmp_path, monkeypatch):
    """Appends cost no fsync; one sync commits them all with one."""
    syncs = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: syncs.append(fd) or real_fsync(fd))
    journal = BatchedJournal(str(tmp_path / "j.rjl"))
    journal.append("live", [f"line {i}" for i in range(17)])
    assert syncs == []
    journal.sync()
    assert len(syncs) == 1
    journal.sync()  # nothing pending: no extra fsync
    assert len(syncs) == 1
    journal.close()


def test_journal_truncates_torn_tail(tmp_path):
    """A crash mid-group leaves a torn frame; reopen drops only that."""
    path = str(tmp_path / "j.rjl")
    journal = BatchedJournal(path)
    journal.append("live", ["intact one", "intact two"])
    journal.close()
    good_size = os.path.getsize(path)
    with open(path, "ab") as fh:  # a frame cut off mid-payload
        fh.write(struct.pack(">II", 100, 0) + b"torn")
    reopened = BatchedJournal(path)
    assert list(reopened.lines("live")) == ["intact one", "intact two"]
    assert os.path.getsize(path) == good_size
    reopened.append("live", ["after recovery"])
    assert list(reopened.lines("live"))[-1] == "after recovery"
    reopened.close()


def test_journal_rejects_corrupt_crc(tmp_path):
    path = str(tmp_path / "j.rjl")
    journal = BatchedJournal(path)
    journal.append("live", ["good record", "to be corrupted"])
    journal.close()
    with open(path, "r+b") as fh:
        fh.seek(-1, os.SEEK_END)
        fh.write(b"\xff")  # flip the final payload byte: CRC mismatch
    reopened = BatchedJournal(path)
    assert list(reopened.lines("live")) == ["good record"]
    reopened.close()


def test_journal_clear_compacts_other_sessions_survive(tmp_path):
    path = str(tmp_path / "j.rjl")
    journal = BatchedJournal(path)
    journal.append("live", ["a" * 1000, "b" * 1000])
    journal.append("keep", ["short"])
    journal.sync()
    size_before = os.path.getsize(path)
    journal.clear("live")
    assert os.path.getsize(path) < size_before
    assert journal.size("live") == 0
    assert list(journal.lines("live")) == []
    assert list(journal.lines("keep")) == ["short"]
    journal.close()


def test_journal_clear_makes_the_compacted_file_and_its_name_durable(
    tmp_path, monkeypatch
):
    """The compacted file's bytes, then the directory it is renamed in:
    without the second fsync a power loss can bring back the records of
    a session whose snapshot is already stored."""
    path = str(tmp_path / "j.rjl")
    journal = BatchedJournal(path)
    journal.append("live", ["counted"])
    journal.append("keep", ["pending"])
    journal.sync()
    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: synced.append(os.fstat(fd)) or real_fsync(fd))
    journal.clear("live")
    journal.close()
    assert [(st.st_dev, st.st_ino) for st in synced] == [
        (st.st_dev, st.st_ino) for st in (os.stat(path), os.stat(tmp_path))
    ]


def test_journal_replay_holds_one_frame_at_a_time(tmp_path):
    """A ~5 MB journal opens, replays and compacts in well under 1 MB."""
    path = str(tmp_path / "j.rjl")
    lines = [f"{i:06d} " + "x" * 500 for i in range(10_000)]
    journal = BatchedJournal(path)
    journal.append("live", lines)
    journal.append("keep", ["short"])
    journal.close()
    assert os.path.getsize(path) > 5_000_000
    tracemalloc.start()
    try:
        reopened = BatchedJournal(path)
        replayed = sum(got == want for got, want in zip(reopened.lines("live"), lines))
        reopened.clear("live")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert replayed == len(lines)
    assert list(reopened.lines("keep")) == ["short"]
    reopened.close()
    assert peak < 1_000_000, peak


def test_journal_replay_stops_where_the_file_ended_when_it_began(tmp_path):
    journal = BatchedJournal(str(tmp_path / "j.rjl"))
    journal.append("live", ["one", "two"])
    replay = journal.lines("live")
    assert next(replay) == "one"
    journal.append("live", ["three"])
    journal.sync()
    assert list(replay) == ["two"]
    assert list(journal.lines("live")) == ["one", "two", "three"]
    journal.close()


# -- ShardedRunStore ---------------------------------------------------------


@pytest.fixture
def sharded(tmp_path):
    store = ShardedRunStore(str(tmp_path / "shards"))
    yield store
    store.close()


def test_shard_layout_on_disk(sharded, mini_report):
    sharded.save_report(mini_report, tenant="acme", project="web")
    root = sharded.path
    assert os.path.exists(os.path.join(root, SHARD_MARKER))
    assert os.path.exists(os.path.join(root, "acme", "web", SHARD_DB))


def test_run_ids_are_per_namespace(sharded, mini_report):
    id_a = sharded.save_report(mini_report, tenant="acme", project="web")
    id_b = sharded.save_report(mini_report, tenant="globex", project="web")
    assert id_a == id_b == 1  # each shard has its own sequence
    record = sharded.get_run(id_a, tenant="acme", project="web")
    assert (record.tenant, record.project) == ("acme", "web")


def test_namespace_isolation(sharded, mini_report):
    sharded.save_report(mini_report, tenant="acme", project="web")
    with pytest.raises(KeyError):
        sharded.get_run(1, tenant="globex", project="web")
    assert sharded.list_runs(tenant="globex") == []


def test_list_runs_merges_namespaces_by_time(sharded, mini_report):
    sharded.save_report(mini_report, tenant="acme", created_at=100.0)
    sharded.save_report(mini_report, tenant="globex", created_at=300.0)
    sharded.save_report(mini_report, tenant="acme", created_at=200.0)
    merged = sharded.list_runs()
    assert [r.tenant for r in merged] == ["globex", "acme", "acme"]
    assert [r.created_at for r in merged] == [300.0, 200.0, 100.0]
    assert [r.tenant for r in sharded.list_runs(tenant="acme")] == [
        "acme", "acme",
    ]


def test_resolve_within_namespace(sharded, mini_report):
    sharded.save_report(mini_report, tenant="acme", created_at=100.0)
    latest = sharded.save_report(mini_report, tenant="acme", created_at=200.0)
    assert sharded.resolve("latest", tenant="acme") == latest
    assert sharded.resolve("latest~1", tenant="acme") == 1
    with pytest.raises(KeyError):
        sharded.resolve("latest", tenant="nobody")


def test_shards_rediscovered_on_reopen(tmp_path, mini_report):
    root = str(tmp_path / "shards")
    store = ShardedRunStore(root)
    store.save_report(mini_report, tenant="acme", project="web")
    store.journal_append("live", ["pending line"], tenant="acme", project="web")
    store.journal_sync()
    store.close()
    reopened = ShardedRunStore(root)
    assert reopened.namespaces() == [("acme", "web")]
    assert reopened.journal_namespaces() == [("acme", "web")]
    assert list(
        reopened.journal_lines("live", tenant="acme", project="web")
    ) == ["pending line"]
    reopened.close()


def test_namespace_names_validated(sharded, mini_report):
    for bad in ("../escape", "", ".hidden", "a/b"):
        with pytest.raises(NamespaceError):
            sharded.save_report(mini_report, tenant=bad)


def test_open_store_auto_detection(tmp_path, mini_report):
    file_store = open_store(str(tmp_path / "runs.sqlite"))
    assert file_store.backend_name == "single"
    file_store.close()
    dir_store = open_store(str(tmp_path / "shards") + os.sep)
    assert dir_store.backend_name == "sharded"
    dir_store.close()
    # A marker directory reopens sharded even without the trailing sep.
    again = open_store(str(tmp_path / "shards"))
    assert again.backend_name == "sharded"
    again.close()


# -- migration ---------------------------------------------------------------


def test_migrate_single_to_sharded(tmp_path, mini_report):
    src_path = str(tmp_path / "runs.sqlite")
    src = RunStore(src_path)
    src.save_report(mini_report, created_at=100.0, seed=7)
    src.save_report(mini_report, created_at=200.0, tenant="acme")
    src.journal_append("live", ["replay me"])
    src.journal_append("live", ["acme line"], tenant="acme")
    src.close()

    dest_path = str(tmp_path / "shards")
    summary = migrate_single_to_sharded(src_path, dest_path)
    assert summary["runs"] == {"default/default": 1, "acme/default": 1}
    assert summary["journal_records"] == {
        "default/default": 1, "acme/default": 1,
    }

    dest = ShardedRunStore(dest_path)
    default_runs = dest.list_runs(tenant="default", project="default")
    assert len(default_runs) == 1
    assert default_runs[0].seed == 7
    assert default_runs[0].created_at == 100.0
    loaded = dest.load_report(default_runs[0].run_id)
    assert loaded.to_dict() == mini_report.to_dict()
    assert list(dest.journal_lines("live")) == ["replay me"]
    assert list(
        dest.journal_lines("live", tenant="acme", project="default")
    ) == ["acme line"]
    dest.close()


def test_migrate_refuses_existing_sharded_dest(tmp_path, mini_report):
    src_path = str(tmp_path / "runs.sqlite")
    RunStore(src_path).close()
    dest_path = str(tmp_path / "shards")
    ShardedRunStore(dest_path).close()
    with pytest.raises(FileExistsError):
        migrate_single_to_sharded(src_path, dest_path)
