"""Unit tests for coverage-state merging and the one-pass partition status."""

import pytest

from repro.core import IOCov
from repro.core.argspec import BASE_SYSCALLS
from repro.core.input_coverage import InputCoverage
from repro.core.output_coverage import OutputCoverage
from repro.trace.events import make_event


def _events_a():
    return [
        make_event("open", {"pathname": "/a", "flags": 0x41, "mode": 0o644}, 3),
        make_event("write", {"fd": 3, "count": 4096}, 4096),
        make_event("close", {"fd": 3}, 0),
    ]


def _events_b():
    return [
        make_event("open", {"pathname": "/b", "flags": 0x2}, -1, 13),
        make_event("read", {"fd": 4, "count": 1}, 1),
        make_event("lseek", {"fd": 4, "offset": 0, "whence": 0}, 0),
        make_event("frobnicate", {"x": 1}, 0),
    ]


def test_iocov_merge_equals_sequential():
    combined = IOCov(suite_name="all").consume(_events_a() + _events_b())
    left = IOCov(suite_name="all").consume(_events_a())
    right = IOCov(suite_name="all").consume(_events_b())
    left.merge(right)
    assert left.report().to_dict() == combined.report().to_dict()
    assert left.events_processed == combined.events_processed
    assert left.events_admitted == combined.events_admitted
    assert left.untracked == combined.untracked


def test_merge_is_exact_for_combinations():
    a = IOCov().consume([make_event("open", {"pathname": "/x", "flags": 0x41}, 3)])
    b = IOCov().consume([make_event("open", {"pathname": "/x", "flags": 0x41}, 4)])
    a.merge(b)
    combos = a.input.arg("open", "flags").combinations
    assert sum(combos.values()) == 2
    assert len(combos) == 1  # the same combination, counted twice


def test_input_merge_rejects_different_registries():
    small = {"open": BASE_SYSCALLS["open"]}
    with pytest.raises(ValueError):
        InputCoverage().merge(InputCoverage(small))


def test_output_merge_rejects_different_registries():
    small = {"open": BASE_SYSCALLS["open"]}
    with pytest.raises(ValueError):
        OutputCoverage().merge(OutputCoverage(small))


def test_arg_merge_rejects_mismatched_args():
    cov = InputCoverage()
    with pytest.raises(ValueError):
        cov.arg("open", "flags").merge(cov.arg("open", "mode"))


def test_merge_empty_is_identity():
    loaded = IOCov().consume(_events_a())
    before = loaded.report().to_dict()
    loaded.merge(IOCov())
    assert loaded.report().to_dict() == before


def test_partition_status_single_pass_consistency():
    cov = IOCov().consume(_events_a()).input.arg("open", "flags")
    tested, untested = cov.partition_status()
    assert tested == cov.tested_partitions()
    assert untested == cov.untested_partitions()
    assert set(tested) | set(untested) == set(cov.domain())
    assert not set(tested) & set(untested)
    assert cov.coverage_ratio() == len(tested) / len(cov.domain())
