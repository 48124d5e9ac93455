"""Calibration driver: residual targeting against live traces."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IOCov
from repro.core.argspec import OPEN_FLAGS_ARG, base_name
from repro.core.partition import BitmapPartitioner, NumericPartitioner
from repro.core.variants import VariantHandler
from repro.testsuites.base import SuiteRunner, TestSuite, Workload
from repro.testsuites.calibration import CalibrationDriver, _combo_flags
from repro.testsuites.profiles import SuiteProfile
from repro.trace.events import make_event
from repro.trace.recorder import TraceRecorder
from repro.vfs import constants as C
from repro.vfs.errors import errno_name

SMALL_PROFILE = SuiteProfile(
    name="small",
    open_combinations={
        ("O_RDONLY",): 50,
        ("O_WRONLY", "O_CREAT", "O_TRUNC"): 30,
        ("O_RDWR", "O_CREAT", "O_DIRECT", "O_SYNC"): 20,
        ("O_RDONLY", "O_DIRECTORY"): 10,
        # Must be >= the EEXIST error target below: each EEXIST probe
        # is itself an open with this combination.
        ("O_RDWR", "O_CREAT", "O_EXCL"): 8,
    },
    write_sizes={0: 5, 16: 10, 4096: 40, 65536: 8},
    open_errors={"ENOENT": 12, "EEXIST": 6, "EACCES": 4, "EMFILE": 2},
    aux_ops={"read": 60, "lseek": 25, "mkdir": 15, "setxattr": 10, "getxattr": 10,
             "truncate": 10, "chmod": 8, "chdir": 6, "fsync": 12, "sync": 3},
)


class CalibratedOnlySuite(TestSuite):
    name = "calibrated"
    mount_point = "/mnt/test"

    def __init__(self, profile=SMALL_PROFILE, mechanistic=None):
        self.profile = profile
        self._mechanistic = mechanistic or []

    def workloads(self):
        for i, body in enumerate(self._mechanistic):
            yield Workload(f"m{i}", "mech", body)

    def calibrate(self, ctx, recorder):
        CalibrationDriver(self.profile).run(ctx, recorder)


def _flag_combo_counts(events):
    decoder = BitmapPartitioner(OPEN_FLAGS_ARG)
    from collections import Counter

    from repro.core.variants import VariantHandler

    handler = VariantHandler()
    combos = Counter()
    for event in events:
        normalized = handler.normalize(event)
        if normalized and normalized[0] == "open":
            flags = normalized[1].get("flags")
            if isinstance(flags, int):
                combos[frozenset(decoder.decode(flags))] += 1
    return combos


@pytest.fixture(scope="module")
def calibrated_run():
    return SuiteRunner(CalibratedOnlySuite()).run()


def test_open_combinations_hit_targets_exactly(calibrated_run):
    combos = _flag_combo_counts(calibrated_run.events)
    for combo, target in SMALL_PROFILE.open_combinations.items():
        assert combos[frozenset(combo)] == target, combo


def test_write_buckets_hit_targets(calibrated_run):
    report = IOCov(mount_point="/mnt/test").consume(calibrated_run.events).report()
    counts = report.input_frequencies("write", "count")
    assert counts["equal_to_0"] == 5
    assert counts["2^4"] == 10
    assert counts["2^12"] == 40
    assert counts["2^16"] == 8


def test_open_errors_hit_targets(calibrated_run):
    report = IOCov(mount_point="/mnt/test").consume(calibrated_run.events).report()
    outputs = report.output_frequencies("open")
    assert outputs["ENOENT"] == 12
    assert outputs["EEXIST"] == 6
    assert outputs["EACCES"] == 4
    assert outputs["EMFILE"] == 2


def test_aux_ops_reach_targets(calibrated_run):
    from repro.core.variants import VariantHandler

    counts = VariantHandler().merge_counts(calibrated_run.events)
    for op in ("read", "lseek", "mkdir", "setxattr", "getxattr", "truncate", "chmod", "chdir"):
        assert counts.get(op, 0) >= SMALL_PROFILE.aux_ops[op], op


def test_residual_targeting_accounts_for_mechanistic_events():
    """A workload that already opens O_RDONLY 20 times leaves only 30
    residual opens for the driver to add."""

    def mech(ctx):
        ctx.ensure_file(ctx.path("seed"))
        for _ in range(20):
            result = ctx.sc.open(ctx.path("seed"), C.O_RDONLY)
            ctx.sc.close(result.retval)

    run = SuiteRunner(CalibratedOnlySuite(mechanistic=[mech])).run()
    combos = _flag_combo_counts(run.events)
    assert combos[frozenset(("O_RDONLY",))] == 50  # not 70


def test_combo_flags_builder():
    flags = _combo_flags(("O_RDWR", "O_CREAT", "O_SYNC"))
    assert flags & C.O_ACCMODE == C.O_RDWR
    assert flags & C.O_CREAT
    assert flags & C.O_SYNC == C.O_SYNC


# -- the shape tally counts what normalizing every event counted -----------------


def _reference_observed(events):
    """The per-event tally: normalize each event, then decode or bucket it."""
    decoder = BitmapPartitioner(OPEN_FLAGS_ARG)
    bucketer = NumericPartitioner(include_negative=False)
    variants = VariantHandler()
    combos, write_buckets, open_errors, base_counts = Counter(), Counter(), Counter(), Counter()
    for event in events:
        base = base_name(event.name)
        if base is None:
            base_counts[event.name] += 1
            continue
        base_counts[base] += 1
        _, args = variants.normalize(event)
        if base == "open":
            flags = args.get("flags")
            if isinstance(flags, int):
                combos[frozenset(decoder.decode(flags))] += 1
            if event.errno:
                open_errors[errno_name(event.errno)] += 1
        elif base == "write":
            count = args.get("count")
            if isinstance(count, int) and count >= 0:
                for key in bucketer.classify(count):
                    write_buckets[key] += 1
    return combos, write_buckets, open_errors, base_counts


_NUMBERS = st.one_of(
    st.integers(-5, 2**40),
    st.sampled_from([0, 1, C.O_CREAT | C.O_WRONLY | C.O_TRUNC, -1, True, 1.0, "577", None]),
)

_OBSERVED_EVENTS = st.lists(
    st.builds(
        make_event,
        name=st.sampled_from([
            "open", "openat", "openat2", "creat", "write", "pwrite64", "writev",
            "read", "lseek", "close", "unlink", "rename", "fsync",
        ]),
        # creat with and without flags; counts and flags of every kind.
        args=st.fixed_dictionaries(
            {"pathname": st.just("/mnt/test/f")},
            optional={"flags": _NUMBERS, "count": _NUMBERS, "dfd": st.just(-100),
                      "pos": st.integers(0, 9), "vlen": st.integers(0, 3)},
        ),
        retval=st.integers(-20, 20),
        errno=st.sampled_from([0, 0, 2, 13, 17, 24]),
    ),
    max_size=40,
)


@given(events=_OBSERVED_EVENTS)
@settings(max_examples=200, deadline=None)
def test_observed_tally_matches_per_event_normalize(events):
    recorder = TraceRecorder()
    recorder.extend(events)
    assert CalibrationDriver(SMALL_PROFILE)._observed(recorder) == _reference_observed(events)
