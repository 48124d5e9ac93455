"""Input-coverage accounting: counting, untested partitions, Table 1."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.argspec import ArgClass, ArgSpec
from repro.core.input_coverage import ArgCoverage, InputCoverage
from repro.core.partition import BitmapPartitioner
from repro.vfs import constants as C


@pytest.fixture
def cov() -> InputCoverage:
    return InputCoverage()


def test_tracks_exactly_14_argument_pairs(cov):
    assert len(cov.tracked_pairs()) == 14


def test_record_routes_to_tracked_args(cov):
    cov.record("open", {"flags": C.O_WRONLY | C.O_CREAT, "mode": 0o644})
    flags = cov.arg("open", "flags")
    assert flags.counts["O_WRONLY"] == 1
    assert flags.counts["O_CREAT"] == 1
    mode = cov.arg("open", "mode")
    assert mode.counts["S_IRUSR"] == 1


def test_record_untracked_syscall_ignored(cov):
    cov.record("rename", {"oldpath": "/a"})  # no tracked args; no crash


def test_record_missing_arg_skipped(cov):
    cov.record("open", {"flags": 0})  # no mode in event
    assert cov.arg("open", "mode").total_observations == 0


def test_frequencies_cover_domain_with_zeros(cov):
    cov.record("write", {"count": 1024})
    freqs = cov.arg("write", "count").frequencies()
    assert freqs["2^10"] == 1
    assert freqs["equal_to_0"] == 0
    assert set(freqs) == set(cov.arg("write", "count").domain())


def test_untested_and_tested_partitions(cov):
    cov.record("lseek", {"offset": 0, "whence": C.SEEK_SET})
    whence = cov.arg("lseek", "whence")
    assert "SEEK_SET" in whence.tested_partitions()
    assert "SEEK_HOLE" in whence.untested_partitions()
    ratio = whence.coverage_ratio()
    assert 0 < ratio < 1
    assert ratio == pytest.approx(1 / 6)


def test_unclassified_values_counted(cov):
    cov.record("write", {"count": "garbage"})
    assert cov.arg("write", "count").unclassified == 1
    assert cov.arg("write", "count").total_observations == 0


def test_combination_histogram_table1_semantics(cov):
    cov.record("open", {"flags": C.O_RDONLY})  # 1 flag
    cov.record("open", {"flags": C.O_WRONLY | C.O_CREAT})  # 2 flags
    cov.record("open", {"flags": C.O_WRONLY | C.O_CREAT})  # 2 flags
    cov.record("open", {"flags": C.O_RDWR | C.O_CREAT | C.O_DIRECT | C.O_SYNC})  # 4
    flags = cov.arg("open", "flags")
    histogram = flags.combination_size_histogram()
    assert histogram == {1: 1, 2: 2, 4: 1}
    percentages = flags.combination_size_percentages()
    assert percentages[2] == pytest.approx(50.0)
    # O_RDONLY-restricted row (paper Table 1's second view).
    restricted = flags.combination_size_percentages("O_RDONLY")
    assert restricted == {1: pytest.approx(100.0)}


def test_top_combinations(cov):
    for _ in range(3):
        cov.record("open", {"flags": C.O_WRONLY | C.O_CREAT})
    cov.record("open", {"flags": C.O_RDONLY})
    top = cov.arg("open", "flags").top_combinations(1)
    assert top == [(("O_CREAT", "O_WRONLY"), 3)]


def test_all_untested_maps_only_gaps(cov):
    cov.record("close", {"fd": 3})
    gaps = cov.all_untested()
    assert ("close", "fd") in gaps
    assert "fd_3_to_63" not in gaps[("close", "fd")]
    assert "fd_negative" in gaps[("close", "fd")]


def test_summary_ratios(cov):
    summary = cov.summary()
    assert set(summary) == set(cov.tracked_pairs())
    assert all(value == 0.0 for value in summary.values())
    cov.record("getxattr", {"size": 0})
    assert cov.summary()[("getxattr", "size")] > 0


# -- record() as coverage feedback ------------------------------------------------

_VALUES = st.one_of(
    st.none(),
    st.integers(),  # negatives, 0, small and large magnitudes
    st.integers(min_value=1 << 64, max_value=1 << 80),  # beyond 64 bits
    st.sampled_from(["", "/", ".", "..", "/" + "n" * C.NAME_MAX, "a/" * 2100]),
    st.text(alphabet="/.ab", max_size=12),
)


@settings(max_examples=80, deadline=None)
@given(values=st.lists(_VALUES, max_size=12))
def test_record_returns_domain_partitions_opened(values):
    """``record(v)`` returns exactly the tested-partition growth it caused,
    on every one of the 14 tracked arguments."""
    cov = InputCoverage()
    pairs = cov.tracked_pairs()
    assert len(pairs) == 14
    for pair in pairs:
        arg = cov.arg(*pair)
        for value in values:
            before = set(arg.tested_partitions())
            opened = arg.record(value)
            assert opened == len(set(arg.tested_partitions()) - before), (pair, value)


def test_input_coverage_record_sums_its_arguments(cov):
    event = {"flags": C.O_WRONLY | C.O_CREAT, "mode": 0o644}
    assert cov.record("open", event) == 2 + 4  # 2 flags, 4 mode bits
    assert cov.record("open", event) == 0
    assert cov.record("rename", {"oldpath": "/a"}) == 0


def test_record_counts_keys_outside_the_domain_but_opens_none():
    # No zero_name: the value 0 decodes to the off-domain key "0".
    spec = ArgSpec(name="bits", arg_class=ArgClass.BITMAP, bitmap={"A": 1})
    arg = ArgCoverage(syscall="x", spec=spec, partitioner=BitmapPartitioner(spec))
    assert arg.record(0) == 0
    assert arg.counts["0"] == 1
    assert arg.record(1) == 1
    assert arg.tested_partitions() == ["A"]
