"""Unit tests for the sharding primitives: spans, shard filter, prescan."""

from collections import Counter

import pytest

from repro.core.filter import TraceFilter
from repro.core.input_coverage import InputCoverage
from repro.core.output_coverage import OutputCoverage
from repro.parallel import ShardFilter, iter_span_lines, shard_spans, tree_merge
from repro.parallel.executor import _syzkaller_snapshots
from repro.parallel.worker import ShardResult, ShardTask, analyze_shard
from repro.trace.events import event_row, make_event
from repro.trace.syzkaller import SyzkallerParser


def _write_lines(tmp_path, lines, name="trace.txt"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# -- shard_spans ------------------------------------------------------------


def test_spans_cover_file_contiguously(tmp_path):
    path = _write_lines(tmp_path, [f"line-{i:04d}" for i in range(100)])
    spans = shard_spans(path, 7, min_shard_bytes=1)
    assert spans[0][0] == 0
    for (_, end), (start, _) in zip(spans, spans[1:]):
        assert end == start
    import os

    assert spans[-1][1] == os.path.getsize(path)
    assert 1 < len(spans) <= 7


def test_spans_are_line_aligned(tmp_path):
    lines = [f"record {i} {'x' * (i % 37)}" for i in range(200)]
    path = _write_lines(tmp_path, lines)
    spans = shard_spans(path, 5, min_shard_bytes=1)
    reassembled = [
        line for start, end in spans for line in iter_span_lines(path, start, end)
    ]
    assert [line.rstrip("\n") for line in reassembled] == lines


def test_small_file_gets_one_span(tmp_path):
    path = _write_lines(tmp_path, ["a", "b"])
    assert len(shard_spans(path, 8)) == 1  # under min_shard_bytes


def test_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    assert shard_spans(str(path), 4) == [(0, 0)]


def test_invalid_jobs(tmp_path):
    path = _write_lines(tmp_path, ["x"])
    with pytest.raises(ValueError):
        shard_spans(path, 0)


# -- ShardFilter soundness ---------------------------------------------------
# Every definite (True/False) local verdict must equal the sequential
# filter's verdict when the shard happens to start at stream position 0
# (where local knowledge is complete modulo UNKNOWN fds).


def _mixed_events():
    return [
        make_event("openat", {"pathname": "/mnt/test/a", "flags": 0}, 5, pid=1),
        make_event("write", {"fd": 5, "count": 10}, 10, pid=1),
        make_event("write", {"fd": 9, "count": 10}, 10, pid=1),  # unknown fd
        make_event("close", {"fd": 5}, 0, pid=1),
        make_event("write", {"fd": 5, "count": 1}, 1, pid=1),  # dead fd
        make_event("dup", {"fildes": 9}, 11, pid=1),  # unknown source
        make_event("openat", {"pathname": "/elsewhere", "flags": 0}, 6, pid=1),
        make_event("read", {"fd": 6, "count": 1}, 1, pid=1),  # unknown (not registered)
        make_event("chdir", {"filename": "/mnt/test/d"}, 0, pid=1),
        make_event("sync", {}, 0, pid=2),
    ]


def test_shard_filter_definite_verdicts_match_sequential():
    events = _mixed_events()
    sequential = TraceFilter.for_mount_point("/mnt/test")
    shard = ShardFilter(TraceFilter.for_mount_point("/mnt/test"))
    for seq, event in enumerate(events):
        expected = sequential.admit(event)
        verdict = shard.admit_local_row(seq, event_row(event))
        if verdict is not None:
            assert verdict == expected, (seq, event.name)
    # the undecidable ones were deferred with their positions
    deferred_seqs = [seq for seq, _ in shard.deferred]
    assert deferred_seqs == sorted(deferred_seqs)
    assert len(deferred_seqs) >= 2  # fd 9 write and the dup at least


def test_shard_filter_op_log_tracks_definite_mutations():
    shard = ShardFilter(TraceFilter.for_mount_point("/mnt/test"))
    events = [
        make_event("openat", {"pathname": "/mnt/test/a", "flags": 0}, 5, pid=1),
        make_event("dup", {"fildes": 5}, 7, pid=1),
        make_event("close", {"fd": 7}, 0, pid=1),
    ]
    for seq, event in enumerate(events):
        assert shard.admit_local_row(seq, event_row(event)) is True
    assert [(op, fd) for _, _, op, fd in shard.ops] == [(0, 5), (0, 7), (1, 7)]


# -- syzkaller prescan --------------------------------------------------------


def test_syzkaller_snapshots_match_sequential_parse(tmp_path):
    lines = [
        "r0 = openat(0xffffffffffffff9c, &(0x7f0000000040)='./f0\\x00', 0x42, 0x1ff)",
        "write(r0, &(0x7f0000000080)=\"61\", 0x1)",
        "r1 = dup(r0)",
        "close(r1)",
        "r2 = openat(0xffffffffffffff9c, &(0x7f0000000040)='./f1\\x00', 0x0, 0x0)",
        "read(r2, &(0x7f0000000080)=\"\", 0x10)",
    ]
    path = _write_lines(tmp_path, lines, "prog.syz")
    spans = shard_spans(path, 3, min_shard_bytes=1)
    snapshots = _syzkaller_snapshots(path, [start for start, _ in spans])
    assert snapshots[0] == {}
    # reference: replay the prefix through the real parser
    for snapshot, (start, _) in zip(snapshots, spans):
        reference = SyzkallerParser()
        consumed = list(reference.parse(iter_span_lines(path, 0, start)))
        assert snapshot == reference._resources, (start, consumed)


# -- worker + tree merge -------------------------------------------------------


def test_analyze_shard_rejects_unknown_format(tmp_path):
    path = _write_lines(tmp_path, ["x"])
    task = ShardTask(0, path, 0, 2, "ctf", None)
    with pytest.raises(ValueError):
        analyze_shard(task)


def test_tree_merge_reduces_all_shards(tmp_path):
    from repro.trace.lttng import LttngWriter

    events = [
        make_event("open", {"pathname": f"/f{i}", "flags": i % 3}, 3 + i)
        for i in range(12)
    ]
    path = tmp_path / "t.lttng.txt"
    with open(path, "w") as fh:
        LttngWriter().write(events, fh)
    spans = shard_spans(str(path), 5, min_shard_bytes=1)
    results = [
        analyze_shard(ShardTask(i, str(path), s, e, "lttng", None))
        for i, (s, e) in enumerate(spans)
    ]
    # Entry/exit pairs cut by a shard boundary become orphan + pending
    # residue: the executor stitches those, not tree_merge.
    boundary = sum(len(result.orphans) for result in results)
    top = tree_merge(results)
    assert top.events_processed == len(events) - boundary
    assert (
        top.input.arg("open", "flags").total_observations == len(events) - boundary
    )
    with pytest.raises(ValueError):
        tree_merge([])


def test_shard_result_merge_sums_counters():
    a = ShardResult(
        0,
        input=InputCoverage(),
        output=OutputCoverage(),
        untracked=Counter({"ioctl": 2}),
        events_processed=5,
        events_admitted=3,
    )
    b = ShardResult(
        1,
        input=InputCoverage(),
        output=OutputCoverage(),
        untracked=Counter({"ioctl": 1}),
        events_processed=7,
        events_admitted=2,
    )
    a.merge(b)
    assert a.events_processed == 12
    assert a.events_admitted == 5
    assert a.untracked["ioctl"] == 3
