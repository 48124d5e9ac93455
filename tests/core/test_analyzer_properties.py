"""Crediting by shape equals crediting event by event.

:meth:`IOCov._ingest_rows` tallies admitted events by shape and credits
each shape once with its multiplicity; the template pass
(:meth:`IOCov._ingest_templates`) does so per template.  These
properties compare both against a reference that normalizes and credits
every event on its own (the variant handler plus the coverage
``record`` methods), including every Counter's insertion order, which
the reports' key order follows.
"""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import IOCov, analyzer
from repro.core.argspec import BASE_SYSCALLS, CLOSE_FD_ARG
from repro.core.input_coverage import InputCoverage
from repro.core.output_coverage import OutputCoverage
from repro.trace.batch import EventBatch
from repro.trace.events import event_from_row

#: Tracked values whose classes must stay apart, plus an unhashable one.
_VALUES = st.sampled_from([1, True, 1.0, None, 0, 577, -1, 4096, [1, 2], "/mnt/test/a"])
_ARG_KEYS = [
    "pathname", "filename", "flags", "mode", "count", "fd", "offset", "whence", "size",
    "length",
]
#: Tracked names (with variants needing argument prep) and untracked ones.
_NAMES = [
    "open", "openat", "creat", "fchdir", "chdir", "write", "read", "lseek", "close",
    "setxattr", "truncate", "rename", "mmap",
]

_ROW = st.tuples(
    st.sampled_from(_NAMES),
    st.dictionaries(st.sampled_from(_ARG_KEYS), _VALUES, max_size=4),
    st.sampled_from([0, 3, 4096, -2, -9]),
    st.integers(min_value=1, max_value=2),  # pid
)


def _rows(drawn):
    return [
        (name, args, retval, -retval if retval < 0 else 0, pid, "t", index)
        for index, (name, args, retval, pid) in enumerate(drawn)
    ]


#: A registry whose ``open`` tracks three arguments and which lacks
#: ``read``: arities the inline shapes do not cover.
_CUSTOM_REGISTRY = {name: spec for name, spec in BASE_SYSCALLS.items() if name != "read"}
_CUSTOM_REGISTRY["open"] = replace(
    BASE_SYSCALLS["open"], tracked_args=BASE_SYSCALLS["open"].tracked_args + (CLOSE_FD_ARG,)
)


def _reference(mount_point, registry, rows) -> IOCov:
    """Credit every admitted event on its own."""
    iocov = IOCov(mount_point=mount_point, registry=registry)
    for row in rows:
        event = event_from_row(row)
        iocov.events_processed += 1
        if not iocov.filter.admit(event):
            continue
        iocov.events_admitted += 1
        normalized = iocov.variants.normalize(event)
        if normalized is None:
            iocov.untracked[event.name] += 1
            continue
        base, args = normalized
        iocov.input.record(base, args)
        iocov.output.record(base, event.retval, event.errno)
    return iocov


def _state(iocov: IOCov):
    inputs = [
        (pair, list(arg.counts.items()), list(arg.combinations.items()), arg.unclassified)
        for pair, arg in sorted(iocov.input._args.items())
    ]
    outputs = [
        (name, list(cov.counts.items()))
        for name, cov in sorted(iocov.output._syscalls.items())
    ]
    return (
        inputs,
        outputs,
        list(iocov.untracked.items()),
        iocov.events_processed,
        iocov.events_admitted,
    )


@given(
    drawn=st.lists(_ROW, max_size=60),
    repeat=st.integers(min_value=1, max_value=3),
    mount_point=st.sampled_from([None, "/mnt/test"]),
    registry=st.sampled_from([None, _CUSTOM_REGISTRY]),
    tally_cap=st.sampled_from([2, 4096]),
)
@example(  # equal values of different classes in one slot
    drawn=[("write", {"fd": 3, "count": value}, 0, 1) for value in (1.0, 1, True, 1.0)],
    repeat=2,
    mount_point=None,
    registry=None,
    tally_cap=4096,
)
@settings(max_examples=300, deadline=None)
def test_shape_crediting_matches_per_event_crediting(
    drawn, repeat, mount_point, registry, tally_cap
):
    rows = _rows(drawn * repeat)  # repeated shapes
    with mock.patch.object(analyzer, "_TALLY_CAP", tally_cap):
        got = IOCov(mount_point=mount_point, registry=registry)
        got.consume(map(event_from_row, rows))
    assert _state(got) == _state(_reference(mount_point, registry, rows))


@given(
    drawn=st.lists(_ROW, min_size=1, max_size=20),
    ids=st.lists(st.integers(min_value=0, max_value=19), max_size=80),
    mount_point=st.sampled_from([None, "/mnt/test"]),
    registry=st.sampled_from([None, _CUSTOM_REGISTRY]),
    tally_cap=st.sampled_from([2, 4096]),
)
@example(  # an unhashable (iovec-list) tracked value between two hashable shapes
    drawn=[("write", {"fd": 3, "count": 1}, 0, 1), ("writev", {"fd": 3, "count": [4, 8]}, 12, 1),
           ("write", {"fd": 3, "count": 2}, 0, 1)],
    ids=[0, 1, 2, 1, 0, 2],
    mount_point=None,
    registry=None,
    tally_cap=4096,
)
@settings(max_examples=300, deadline=None)
def test_the_template_pass_matches_per_event_crediting(
    drawn, ids, mount_point, registry, tally_cap
):
    templates = [
        (name, args, retval, -retval if retval < 0 else 0, pid, "t")
        for name, args, retval, pid in drawn
    ]
    ids = [tid % len(templates) for tid in ids]
    stamps = list(range(len(ids)))
    rows = [templates[tid] + (stamp,) for tid, stamp in zip(ids, stamps)]
    with mock.patch.object(analyzer, "_TALLY_CAP", tally_cap):
        got = IOCov(mount_point=mount_point, registry=registry)
        got.consume_batch(EventBatch.from_templates(templates, ids, stamps))
    assert _state(got) == _state(_reference(mount_point, registry, rows))


def test_the_template_pass_credits_past_the_tally_cap():
    """More distinct shapes in one batch than one tally holds."""
    templates = [("write", {"fd": 1, "count": count}, count, 0, 1, "t")
                 for count in range(analyzer._TALLY_CAP + 50)]
    ids = [tid for tid in range(len(templates)) for _ in range(2)]
    ids += [0, 1, 2]
    rows = [templates[tid] + (stamp,) for stamp, tid in enumerate(ids)]
    got = IOCov()
    credited = []
    credit = got._credit
    got._credit = lambda shapes: credited.append(len(shapes)) or credit(shapes)
    got.consume_batch(EventBatch.from_templates(templates, ids, list(range(len(ids)))))
    assert credited == [analyzer._TALLY_CAP, 50]
    assert _state(got) == _state(_reference(None, None, rows))


_ARGS = [
    ("open", "flags"), ("open", "mode"), ("write", "count"), ("lseek", "whence"),
    ("chdir", "filename"), ("setxattr", "flags"),
]


_OUTCOMES = st.sampled_from([(0, 0), (3, 0), (4096, 0), (-2, 2), (-9, 9), (-95, 95)])


@given(
    pair=st.sampled_from(_ARGS),
    before=st.lists(st.tuples(_VALUES, _OUTCOMES), max_size=6),
    value=_VALUES,
    outcome=_OUTCOMES,
    n=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=300, deadline=None)
def test_record_n_equals_n_single_records(pair, before, value, outcome, n):
    bulk, single = InputCoverage().arg(*pair), InputCoverage().arg(*pair)
    bulk_out, single_out = OutputCoverage().syscall(pair[0]), OutputCoverage().syscall(pair[0])
    for earlier, earlier_outcome in before:
        bulk.record(earlier)
        single.record(earlier)
        bulk_out.record(*earlier_outcome)
        single_out.record(*earlier_outcome)
    opened = bulk.record(value, n)
    returns = [single.record(value) for _ in range(n)]
    bulk_out.record(*outcome, n)
    for _ in range(n):
        single_out.record(*outcome)
    assert opened == returns[0]
    assert list(bulk.counts.items()) == list(single.counts.items())
    assert list(bulk.combinations.items()) == list(single.combinations.items())
    assert bulk.unclassified == single.unclassified
    assert list(bulk_out.counts.items()) == list(single_out.counts.items())
