"""Input-coverage-guided fuzzer tests."""

import gc
import weakref
from functools import reduce
from operator import or_

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.campaign.mutate import _UNKNOWN_OPEN_BIT, WeightedFuzzer
from repro.core import IOCov
from repro.core.argspec import BASE_SYSCALLS
from repro.core.input_coverage import InputCoverage
from repro.core.variants import VariantHandler
from repro.testsuites import fuzzer as fuzzer_module
from repro.testsuites.fuzzer import (
    _FLAG_POOL,
    _OP_KINDS,
    CoverageGuidedFuzzer,
    FuzzOp,
    FuzzProgram,
)
from repro.trace import SyzkallerParser
from repro.trace.events import SyscallEvent
from repro.trace.recorder import TraceRecorder
from repro.vfs import constants
from repro.vfs.filesystem import FileSystem
from repro.vfs.syscalls import SyscallInterface
from tests.vfs.test_crash_properties import _volume


def test_deterministic_across_runs():
    a = CoverageGuidedFuzzer(seed=3).run(iterations=60)
    b = CoverageGuidedFuzzer(seed=3).run(iterations=60)
    assert a == b


def test_different_seeds_differ():
    a = CoverageGuidedFuzzer(seed=3).run(iterations=60)
    b = CoverageGuidedFuzzer(seed=4).run(iterations=60)
    assert a != b


def test_corpus_only_retains_contributors():
    fuzzer = CoverageGuidedFuzzer(seed=5, guided=True)
    fuzzer.run(iterations=120)
    # Re-measuring the corpus alone must reproduce (at least almost)
    # the coverage the run accumulated: retained programs ARE the
    # coverage carriers.
    replayed = CoverageGuidedFuzzer(seed=5, guided=True)
    covered = 0
    for program in fuzzer.corpus:
        events = replayed._execute(program)
        covered += replayed._new_partitions(events)
    assert covered >= 0.9 * fuzzer._covered_count()


def test_guided_beats_random_baseline():
    guided = CoverageGuidedFuzzer(seed=7, guided=True).run(iterations=300)
    baseline = CoverageGuidedFuzzer(seed=7, guided=False).run(iterations=300)
    assert guided.partitions_covered >= baseline.partitions_covered
    assert guided.executions == baseline.executions == 300


def test_all_events_feed_iocov():
    fuzzer = CoverageGuidedFuzzer(seed=9)
    fuzzer.run(iterations=50)
    # Unscoped analysis matches the fuzzer's own (unscoped) feedback
    # accounting exactly.
    unscoped = IOCov(suite_name="fuzzer").consume(fuzzer.all_events).report()
    analyzer_covered = sum(
        len(unscoped.input_coverage.arg(*pair).tested_partitions())
        for pair in unscoped.input_coverage.tracked_pairs()
    )
    assert analyzer_covered == fuzzer._covered_count()
    # Mount-scoped analysis sees less: probes on never-opened fds are
    # not attributable to the mount point and are correctly dropped.
    scoped = (
        IOCov(mount_point="/mnt/fuzz", suite_name="fuzzer")
        .consume(fuzzer.all_events)
        .report()
    )
    scoped_covered = sum(
        len(scoped.input_coverage.arg(*pair).tested_partitions())
        for pair in scoped.input_coverage.tracked_pairs()
    )
    assert 0 < scoped_covered <= analyzer_covered
    assert sum(scoped.input_frequencies("open", "flags").values()) > 0


def test_program_rendering_parses_as_syzkaller():
    program = FuzzProgram(
        ops=[
            FuzzOp(kind="open", flags=0x42, mode=0o644),
            FuzzOp(kind="write", size=4096),
            FuzzOp(kind="lseek", size=1024, whence=0),
            FuzzOp(kind="truncate", size=0),
            FuzzOp(kind="setxattr", size=64),
            FuzzOp(kind="close"),
        ]
    )
    events = SyzkallerParser().parse_text(program.render())
    assert [event.name for event in events] == [
        "openat", "write", "lseek", "truncate", "setxattr", "close",
    ]
    assert events[1].args["count"] == 4096


def test_export_corpus_round_trips():
    fuzzer = CoverageGuidedFuzzer(seed=11)
    fuzzer.run(iterations=40)
    assert fuzzer.corpus
    text = fuzzer.export_corpus()
    events = SyzkallerParser().parse_text(text)
    assert len(events) >= len(fuzzer.corpus)  # every program contributed lines


def test_fresh_fs_per_execution():
    """Programs are independent: no state leaks between executions."""
    fuzzer = CoverageGuidedFuzzer(seed=13)
    program = FuzzProgram(ops=[FuzzOp(kind="open", flags=0x42)])
    events_a = fuzzer._execute(program)
    events_b = fuzzer._execute(program)
    assert [e.retval for e in events_a] == [e.retval for e in events_b]


# -- a program runs on a clone of the template volume --------------------------

_ENVS = ("", "EROFS", "EBUSY", "ENOSPC", "EDQUOT", "EMFILE", "EACCES")

#: Sizes stay small enough that a read of a truncated file is cheap,
#: plus values past the scratch size cap and the negatives.
_SIZES = st.one_of(
    st.integers(-(1 << 31), 1 << 22),
    st.sampled_from((0, 1, 4096, (1 << 27) + 1, 1 << 40, 1 << 64)),
)

_OPS = st.builds(
    FuzzOp,
    kind=st.sampled_from(_OP_KINDS),
    path_index=st.integers(0, 2),
    flags=st.lists(
        st.sampled_from((*_FLAG_POOL, _UNKNOWN_OPEN_BIT)), max_size=3
    ).map(lambda bits: reduce(or_, bits, 0)),
    size=_SIZES,
    whence=st.sampled_from((0, 1, 2, 3, 4, 5, 99)),
    mode=st.integers(0, 0o17777),
)


def _programs(envs=_ENVS):
    return st.builds(
        FuzzProgram,
        ops=st.lists(_OPS, min_size=1, max_size=8),
        env=st.sampled_from(envs),
    )


def _reference_execute(fuzzer, program):
    """``_execute`` as it was when every program built its own volume."""
    fs = FileSystem(total_blocks=2048, max_file_size=fuzzer.scratch_max_file_size)
    sc = SyscallInterface(fs)
    recorder = TraceRecorder()
    recorder.attach(sc)
    current = ""
    for part in (p for p in fuzzer.mount_point.split("/") if p):
        current = f"{current}/{part}"
        sc.mkdir(current, 0o755)
    fuzzer._setup_environment(program, fs, sc)
    fd = -1
    for op in program.ops:
        path = f"{fuzzer.mount_point}/f{op.path_index}"
        if op.kind == "open":
            result = sc.open(path, op.flags | constants.O_CREAT, op.mode)
            if result.ok:
                if fd >= 0:
                    sc.close(fd)
                fd = result.retval
        elif op.kind == "read":
            sc.read(fd, op.size)
        elif op.kind == "write":
            sc.write(fd, count=op.size)
        elif op.kind == "lseek":
            sc.lseek(fd, op.size, op.whence)
        elif op.kind == "truncate":
            sc.truncate(path, op.size)
        elif op.kind == "mkdir":
            sc.mkdir(f"{path}_d", op.mode)
        elif op.kind == "chmod":
            sc.chmod(path, op.mode)
        elif op.kind == "setxattr":
            sc.setxattr(path, "user.fuzz", b"", size=op.size)
        elif op.kind == "getxattr":
            sc.getxattr(path, "user.fuzz", op.size)
        elif op.kind == "close":
            if fd >= 0:
                sc.close(fd)
                fd = -1
    return recorder.drain()


@given(
    programs=st.lists(_programs(), min_size=1, max_size=4),
    mount_point=st.sampled_from(("/mnt/fuzz", "/m", "/a/b/c/")),
)
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_execute_equals_a_fresh_volume_per_program(programs, mount_point):
    fuzzer = WeightedFuzzer(seed=0, mount_point=mount_point)
    template = _volume(fuzzer._template)
    for program in programs:
        events = fuzzer._execute(program)
        assert events == _reference_execute(fuzzer, program)  # all 7 fields
        again = fuzzer._execute(program)
        assert again == events
        # Each run owns its events' args, the fixture's included.
        assert not any(a.args is b.args for a, b in zip(events, again))
    assert _volume(fuzzer._template) == template


def test_program_volumes_are_freed_without_the_cyclic_gc(monkeypatch):
    created = []

    class Tracked(SyscallInterface):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(weakref.ref(self))

    monkeypatch.setattr(fuzzer_module, "SyscallInterface", Tracked)
    enabled = gc.isenabled()
    gc.disable()
    try:
        CoverageGuidedFuzzer(seed=3).run(iterations=40)
        alive = sum(ref() is not None for ref in created)
    finally:
        if enabled:
            gc.enable()
    assert len(created) >= 40
    assert alive == 0


@given(program=_programs(envs=("",)))
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_rendered_program_parses_to_what_ran(program):
    """Each op's rendered line carries the tracked args and the path
    it ran with.  ``close`` names its descriptor by a syzkaller
    resource, which parses as a placeholder fd, so it is skipped."""
    fuzzer = CoverageGuidedFuzzer(seed=0)
    ran = iter(fuzzer._execute(program)[len(fuzzer._fixture):])
    lines = SyzkallerParser().parse_text(program.render())
    assert len(lines) == len(program.ops)
    normalize = VariantHandler().normalize
    fd = -1
    for op, line in zip(program.ops, lines):
        if op.kind == "close":
            if fd >= 0:
                next(ran)
                fd = -1
            continue
        event = next(ran)
        if op.kind == "open" and event.ok:
            if fd >= 0:
                next(ran)  # the close of the descriptor it replaces
            fd = event.retval
        base, executed = normalize(event)
        parsed_base, parsed = normalize(line)
        assert parsed_base == base
        for arg in BASE_SYSCALLS[base].tracked_args:
            assert parsed.get(arg.name) == executed.get(arg.name), (op, arg.name)
        for key in ("pathname", "path"):
            if key in executed:
                assert executed[key].endswith(parsed[key].lstrip(".")), op
    assert next(ran, None) is None


# -- feedback credits base names through a plan --------------------------------

_NAMES = (
    *BASE_SYSCALLS, "creat", "openat", "openat2", "fchdir", "pwrite64", "lsetxattr",
    "unlink", "rename",
)
_ARGS = (
    "flags", "mode", "count", "offset", "whence", "length", "fd", "filename",
    "size", "dfd", "pos", "resolve", "pathname",
)
_VALUES = st.one_of(
    st.integers(-(1 << 70), 1 << 70),
    st.sampled_from((0, 1, 2, 3, 0o644, 0o4755, 0x241, -100)),
    st.text(max_size=4),
    st.none(),
    st.floats(),
    st.lists(st.integers(0, 9), max_size=3),
)
_EVENTS = st.builds(
    lambda name, args: SyscallEvent(name, args, 0),
    st.sampled_from(_NAMES),
    st.dictionaries(st.sampled_from(_ARGS), _VALUES, max_size=5),
)


def _reference_new_partitions(coverage, events):
    """The feedback loop as it was: normalize a copy of each event."""
    normalize = VariantHandler().normalize
    opened = 0
    for event in events:
        normalized = normalize(event)
        if normalized is not None:
            opened += coverage.record(*normalized)
    return opened


@given(batches=st.lists(st.lists(_EVENTS, max_size=12), max_size=4))
@example(batches=[[
    SyscallEvent("creat", {"pathname": "/f", "mode": 0o644}, 3),
    SyscallEvent("creat", {"mode": 0o600, "flags": 0}, 3),
    SyscallEvent("openat2", {"dfd": -100, "flags": 0o100, "mode": 7, "resolve": 8}, 3),
    SyscallEvent("fchdir", {"fd": 5}, 0),
    SyscallEvent("fchdir", {"fd": 5, "filename": "/d"}, 0),
    SyscallEvent("pwrite64", {"fd": 3, "count": 1 << 20, "pos": 7}, 0),
    SyscallEvent("lsetxattr", {"size": 12, "flags": 1}, 0),
    SyscallEvent("unlink", {"pathname": "/f"}, 0),
    SyscallEvent("open", {"flags": "O_RDWR", "mode": None}, -2, 2),
    SyscallEvent("lseek", {}, -9, 9),
]])
@settings(max_examples=100, deadline=None)
def test_feedback_plan_equals_normalize_then_record(batches):
    fuzzer = CoverageGuidedFuzzer(seed=0)
    reference = InputCoverage()
    for batch in batches:
        want = _reference_new_partitions(reference, batch)
        assert fuzzer._new_partitions(batch) == want
    for pair in reference.tracked_pairs():
        ours, theirs = fuzzer.coverage.arg(*pair), reference.arg(*pair)
        assert ours.counts == theirs.counts, pair
        assert ours.combinations == theirs.combinations, pair
        assert ours.unclassified == theirs.unclassified, pair
