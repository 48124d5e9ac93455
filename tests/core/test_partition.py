"""Partitioner unit tests for all four argument classes and outputs."""

import pytest

from repro.core.argspec import (
    BASE_SYSCALLS,
    LSEEK_WHENCE_ARG,
    OPEN_FLAGS_ARG,
    OPEN_MODE_ARG,
)
from repro.core.partition import (
    BitmapPartitioner,
    CategoricalPartitioner,
    IdentifierPartitioner,
    NumericPartitioner,
    OutputPartitioner,
    OK_KEY,
    ZERO_KEY,
    NEGATIVE_KEY,
    make_input_partitioner,
)
from repro.vfs import constants as C
from repro.vfs.errors import ENOENT


# -- numeric -----------------------------------------------------------------


def test_numeric_zero_partition():
    part = NumericPartitioner()
    assert part.classify(0) == [ZERO_KEY]


def test_numeric_powers_of_two_buckets():
    part = NumericPartitioner()
    assert part.classify(1) == ["2^0"]
    assert part.classify(2) == ["2^1"]
    assert part.classify(3) == ["2^1"]
    assert part.classify(4) == ["2^2"]
    # The paper's example: x=10 holds 1024..2047.
    assert part.classify(1024) == ["2^10"]
    assert part.classify(2047) == ["2^10"]
    assert part.classify(2048) == ["2^11"]


def test_numeric_258mib_lands_in_2_28():
    """Figure 3's annotation: 258 MiB rounds down to the 2^28 bucket."""
    part = NumericPartitioner()
    assert part.classify(258 * 1024 * 1024) == ["2^28"]


def test_numeric_negative_bucket():
    part = NumericPartitioner(include_negative=True)
    assert part.classify(-1) == [NEGATIVE_KEY]
    assert NEGATIVE_KEY in part.domain()


def test_numeric_overflow_bucket():
    part = NumericPartitioner(max_exponent=4)
    assert part.classify(16) == ["2^4"]
    assert part.classify(31) == ["2^4"]
    assert part.classify(32) == [">=2^5"]
    assert part.classify(10**9) == [">=2^5"]


def test_numeric_domain_order_and_size():
    part = NumericPartitioner(max_exponent=3, include_negative=True)
    assert part.domain() == [
        NEGATIVE_KEY, ZERO_KEY, "2^0", "2^1", "2^2", "2^3", ">=2^4",
    ]


def test_numeric_rejects_non_int():
    assert NumericPartitioner().classify("nope") == []
    assert NumericPartitioner().classify(None) == []


def test_bucket_exponent_inverse():
    assert NumericPartitioner.bucket_exponent("2^12") == 12
    assert NumericPartitioner.bucket_exponent(ZERO_KEY) is None


# -- bitmap -----------------------------------------------------------------


@pytest.fixture
def open_flags() -> BitmapPartitioner:
    return BitmapPartitioner(OPEN_FLAGS_ARG)


def test_bitmap_o_rdonly_is_zero_value(open_flags):
    assert open_flags.decode(0) == ["O_RDONLY"]
    assert open_flags.decode(C.O_RDONLY) == ["O_RDONLY"]


def test_bitmap_access_modes_decoded_by_value(open_flags):
    assert open_flags.decode(C.O_WRONLY) == ["O_WRONLY"]
    assert open_flags.decode(C.O_RDWR) == ["O_RDWR"]


def test_bitmap_modifier_flags(open_flags):
    decoded = open_flags.decode(C.O_WRONLY | C.O_CREAT | C.O_TRUNC)
    assert set(decoded) == {"O_WRONLY", "O_CREAT", "O_TRUNC"}


def test_bitmap_composite_o_sync_wins_over_dsync(open_flags):
    decoded = open_flags.decode(C.O_RDONLY | C.O_SYNC)
    assert "O_SYNC" in decoded and "O_DSYNC" not in decoded
    decoded = open_flags.decode(C.O_RDONLY | C.O_DSYNC)
    assert "O_DSYNC" in decoded and "O_SYNC" not in decoded


def test_bitmap_composite_o_tmpfile_wins_over_directory(open_flags):
    decoded = open_flags.decode(C.O_RDWR | C.O_TMPFILE)
    assert "O_TMPFILE" in decoded and "O_DIRECTORY" not in decoded


def test_bitmap_unknown_bits_partition(open_flags):
    decoded = open_flags.decode(C.O_RDONLY | (1 << 30))
    assert "unknown_bits" in decoded


def test_bitmap_combination_size(open_flags):
    assert open_flags.combination_size(C.O_RDONLY) == 1
    assert open_flags.combination_size(C.O_WRONLY | C.O_CREAT) == 2
    assert (
        open_flags.combination_size(
            C.O_RDWR | C.O_CREAT | C.O_DIRECT | C.O_SYNC
        )
        == 4
    )


def test_bitmap_domain_covers_all_flags(open_flags):
    domain = open_flags.domain()
    for flag in C.OPEN_FLAG_NAMES:
        assert flag in domain
    assert "unknown_bits" in domain
    assert len(domain) == len(set(domain))  # no duplicates


def test_bitmap_mode_arg_zero_partition():
    part = BitmapPartitioner(OPEN_MODE_ARG)
    assert part.decode(0) == ["0"]
    assert set(part.decode(0o644)) == {
        "S_IRUSR", "S_IWUSR", "S_IRGRP", "S_IROTH",
    }


# -- categorical --------------------------------------------------------------


def test_categorical_known_values():
    part = CategoricalPartitioner(LSEEK_WHENCE_ARG)
    assert part.classify(C.SEEK_SET) == ["SEEK_SET"]
    assert part.classify(C.SEEK_HOLE) == ["SEEK_HOLE"]


def test_categorical_invalid_value():
    part = CategoricalPartitioner(LSEEK_WHENCE_ARG)
    assert part.classify(99) == [CategoricalPartitioner.INVALID_KEY]


def test_categorical_domain():
    part = CategoricalPartitioner(LSEEK_WHENCE_ARG)
    assert part.domain() == [
        "SEEK_SET", "SEEK_CUR", "SEEK_END", "SEEK_DATA", "SEEK_HOLE", "invalid",
    ]


# -- identifier ---------------------------------------------------------------


def test_identifier_fd_ranges():
    part = IdentifierPartitioner()
    assert part.classify(0) == ["fd_stdin"]
    assert part.classify(1) == ["fd_stdout"]
    assert part.classify(2) == ["fd_stderr"]
    assert part.classify(3) == ["fd_3_to_63"]
    assert part.classify(63) == ["fd_3_to_63"]
    assert part.classify(64) == ["fd_64_to_1023"]
    assert part.classify(5000) == ["fd_ge_1024"]
    assert part.classify(-1) == ["fd_negative"]
    assert part.classify(C.AT_FDCWD) == ["fd_at_fdcwd"]


def test_identifier_path_shapes():
    part = IdentifierPartitioner()
    assert part.classify("/") == ["path_root"]
    assert part.classify("/a") == ["path_absolute_depth_1"]
    assert part.classify("/a/b") == ["path_absolute_deep"]
    assert part.classify("rel") == ["path_relative_depth_1"]
    assert part.classify("rel/deep") == ["path_relative_deep"]
    assert part.classify(".") == ["path_relative_dot"]
    assert part.classify("..") == ["path_relative_dotdot"]
    assert part.classify("") == ["path_empty"]
    assert part.classify("/" + "n" * C.NAME_MAX) == ["path_name_max_boundary"]
    assert part.classify("/a" * (C.PATH_MAX // 2 + 1)) == ["path_max_boundary"]


# -- output -----------------------------------------------------------------


def test_output_flag_kind_ok_and_errnos():
    part = OutputPartitioner(BASE_SYSCALLS["open"])
    assert part.classify(3) == [OK_KEY]
    assert part.classify(-2, 2) == ["ENOENT"]
    assert part.classify(-2) == ["ENOENT"]  # errno derived from retval
    assert OK_KEY in part.domain()
    assert "EDQUOT" in part.domain()


def test_output_size_kind_buckets_successes():
    part = OutputPartitioner(BASE_SYSCALLS["write"])
    assert part.classify(0) == [f"{OK_KEY}:{ZERO_KEY}"]
    assert part.classify(4096) == [f"{OK_KEY}:2^12"]
    assert part.classify(-28, 28) == ["ENOSPC"]


def test_output_undocumented_errno_still_counted():
    part = OutputPartitioner(BASE_SYSCALLS["close"])
    keys = part.classify(-ENOENT, ENOENT)  # not in close's manpage list
    assert keys == ["ENOENT"]
    assert "ENOENT" not in part.domain()


# -- domain caching -----------------------------------------------------------


def _every_partitioner():
    """One partitioner per tracked argument and per syscall output."""
    for name, spec in sorted(BASE_SYSCALLS.items()):
        for arg in spec.tracked_args:
            yield f"{name}.{arg.name}", make_input_partitioner(arg)
        yield f"{name}:output", OutputPartitioner(spec)


_PARTITIONERS = dict(_every_partitioner())


def test_every_partitioner_class_is_covered():
    assert {type(p) for p in _PARTITIONERS.values()} == {
        BitmapPartitioner,
        CategoricalPartitioner,
        IdentifierPartitioner,
        NumericPartitioner,
        OutputPartitioner,
    }


@pytest.mark.parametrize("name", sorted(_PARTITIONERS))
def test_domain_is_an_equal_fresh_list_on_every_call(name):
    partitioner = _PARTITIONERS[name]
    first = partitioner.domain()
    second = partitioner.domain()
    assert type(first) is list
    assert first == second and first is not second
    # A caller mutating its copy cannot corrupt the cached domain.
    first.clear()
    assert partitioner.domain() == second
