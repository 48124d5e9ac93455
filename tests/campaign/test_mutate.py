"""The weighted fuzzer: determinism, partition targeting, environments.

The campaign's reproducibility guarantee bottoms out here: same seed +
same weight vector ⇒ byte-identical generated workload.  The targeting
tests check that boosting a partition's weight actually makes the
fuzzer synthesize values inside it, and that errno environments leave
the VFS in the promised hostile state.
"""

from __future__ import annotations

import math
import random
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.mutate import (
    _INVALID_WHENCE,
    _UNKNOWN_MODE_BIT,
    _UNKNOWN_OPEN_BIT,
    WeightedFuzzer,
    _choice_table,
)
from repro.campaign.weights import WeightModel
from repro.testsuites.fuzzer import _OP_KINDS, FuzzProgram
from repro.vfs import constants
from repro.vfs.filesystem import FileSystem
from repro.vfs.syscalls import SyscallInterface


def _boosted_model(**input_targets):
    """A model boosting the given ``syscall__arg={partition: w}`` maps."""
    input_weights = {}
    for key, weights in input_targets.items():
        syscall, _, arg = key.partition("__")
        input_weights[(syscall, arg)] = weights
    return WeightModel(input_weights=input_weights)


# -- determinism ---------------------------------------------------------------


def test_same_seed_same_weights_byte_identical_workload():
    model = WeightModel.from_report(_fresh_report())
    runs = []
    for _ in range(2):
        fuzzer = WeightedFuzzer(weights=model, seed=11)
        fuzzer.run(iterations=60)
        runs.append(fuzzer.workload_text())
    assert runs[0] == runs[1]
    assert runs[0]  # non-empty workload


def _fresh_report():
    from repro.core import IOCov

    return IOCov(mount_point="/mnt/fuzz", suite_name="fresh").report()


def test_uniform_weighted_fuzzer_is_deterministic_too():
    a = WeightedFuzzer(seed=5)
    b = WeightedFuzzer(seed=5)
    a.run(iterations=50)
    b.run(iterations=50)
    assert a.workload_text() == b.workload_text()
    assert len(a.all_events) == len(b.all_events)


def test_different_weights_change_the_workload():
    uniform = WeightedFuzzer(seed=9)
    uniform.run(iterations=60)
    biased = WeightedFuzzer(
        weights=WeightModel.from_report(_fresh_report()), seed=9
    )
    biased.run(iterations=60)
    assert uniform.workload_text() != biased.workload_text()


def test_workload_text_records_every_program():
    fuzzer = WeightedFuzzer(seed=2)
    fuzzer.run(iterations=25)
    assert len(fuzzer.programs) == 25
    assert fuzzer.workload_text().count("# program") >= 0  # render is stable
    assert len(fuzzer.workload_text().split("\n\n")) == 25


# -- partition targeting -------------------------------------------------------


def test_numeric_in_partition_lands_inside_partition():
    fuzzer = WeightedFuzzer(seed=4)
    for _ in range(50):
        assert fuzzer._numeric_in_partition("negative") < 0
        assert fuzzer._numeric_in_partition("equal_to_0") == 0
        value = fuzzer._numeric_in_partition("2^10")
        assert (1 << 10) <= value < (1 << 11)
        assert fuzzer._numeric_in_partition(">=2^64") >= (1 << 64)
        assert fuzzer._numeric_in_partition("2^0") == 1


def test_boosted_size_partition_gets_hit():
    """Boosting read.count 2^40 makes the fuzzer actually test it."""
    model = _boosted_model(read__count={"2^40": 1000.0})
    fuzzer = WeightedFuzzer(weights=model, seed=6)
    fuzzer.run(iterations=80)
    freqs = fuzzer.coverage.arg("read", "count").frequencies()
    assert freqs["2^40"] > 0


def test_boosted_whence_hits_invalid_partition():
    model = _boosted_model(lseek__whence={"invalid": 1000.0})
    fuzzer = WeightedFuzzer(weights=model, seed=6)
    found = any(
        op.kind == "lseek" and op.whence == _INVALID_WHENCE
        for _ in range(200)
        for op in [fuzzer._random_op()]
    )
    assert found


def test_boosted_unknown_mode_bits():
    model = _boosted_model(chmod__mode={"unknown_bits": 1000.0})
    fuzzer = WeightedFuzzer(weights=model, seed=6)
    modes = [fuzzer._choose_mode("chmod") for _ in range(100)]
    assert any(mode & _UNKNOWN_MODE_BIT for mode in modes)


def test_boosted_unknown_open_flag_bits():
    model = _boosted_model(open__flags={"unknown_bits": 1000.0})
    fuzzer = WeightedFuzzer(weights=model, seed=6)
    flags = [fuzzer._choose_flags() for _ in range(100)]
    assert any(value & _UNKNOWN_OPEN_BIT for value in flags)
    # The unknown bit really is unknown to the flag tables.
    assert not any(
        _UNKNOWN_OPEN_BIT & known
        for known in constants.OPEN_FLAG_NAMES.values()
    )


def test_boosted_access_mode_dominates():
    """A huge O_RDWR boost should make it the dominant access mode."""
    model = _boosted_model(open__flags={"O_RDWR": 10000.0})
    fuzzer = WeightedFuzzer(weights=model, seed=8)
    picked = [fuzzer._choose_flags() & 0o3 for _ in range(200)]
    rdwr = sum(1 for value in picked if value == constants.O_RDWR)
    assert rdwr > 150


def test_syscall_mix_follows_syscall_weights():
    model = WeightModel(syscall_weights={"truncate": 500.0})
    fuzzer = WeightedFuzzer(weights=model, seed=3)
    kinds = [fuzzer._choose_kind() for _ in range(300)]
    assert kinds.count("truncate") > 100


# -- errno environments --------------------------------------------------------


def _env_fuzzer(*errnos, syscall="open"):
    model = WeightModel(errno_weights={syscall: {e: 50.0 for e in errnos}})
    return WeightedFuzzer(weights=model, seed=1)


def test_env_table_empty_without_errno_targets():
    fuzzer = WeightedFuzzer(seed=1)
    assert fuzzer._env_domain == [""]
    assert all(fuzzer._choose_env() == "" for _ in range(20))


def test_env_table_contains_targeted_provokable_errnos():
    fuzzer = _env_fuzzer("EROFS", "ENOSPC", "ENOENT")
    assert "EROFS" in fuzzer._env_domain
    assert "ENOSPC" in fuzzer._env_domain
    # ENOENT needs specific arguments, not hostile state: no env.
    assert "ENOENT" not in fuzzer._env_domain
    assert "" in fuzzer._env_domain


@pytest.mark.parametrize(
    "env,check",
    [
        ("EROFS", lambda fs, sc: fs.read_only),
        ("EBUSY", lambda fs, sc: fs.frozen),
        ("ENOSPC", lambda fs, sc: fs.device.free_blocks == 0),
        ("EMFILE", lambda fs, sc: sc.process.fd_table.max_fds == 1),
        ("EACCES", lambda fs, sc: sc.process.creds.uid == 1000),
        ("EDQUOT", lambda fs, sc: sc.process.creds.uid == 1000),
    ],
)
def test_environment_setup_applies(env, check):
    fuzzer = WeightedFuzzer(seed=1)
    fs = FileSystem()
    sc = SyscallInterface(fs)
    sc.mkdir("/mnt", 0o755)
    sc.mkdir("/mnt/fuzz", 0o755)
    fuzzer._setup_environment(FuzzProgram(ops=[], env=env), fs, sc)
    assert check(fs, sc)


def test_env_renders_into_program_text():
    program = FuzzProgram(ops=[], env="EROFS")
    assert "# env: EROFS" in program.render()
    assert "# env:" not in FuzzProgram(ops=[]).render()


def test_hostile_environments_produce_new_errno_coverage():
    """End to end: errno targeting yields failed-syscall events."""
    fuzzer = _env_fuzzer("EROFS", "ENOSPC", "EACCES")
    fuzzer.run(iterations=120)
    failing = {e.errno for e in fuzzer.all_events if e.errno}
    import errno as errno_mod

    assert errno_mod.EROFS in failing or errno_mod.EACCES in failing


# -- draws ---------------------------------------------------------------------

_WEIGHTS = st.lists(
    st.one_of(st.integers(0, 1000), st.floats(0.0, 1e6)), min_size=1, max_size=12
).filter(lambda weights: list(accumulate(weights))[-1] > 0)


@given(weights=_WEIGHTS, seed=st.integers(0, (1 << 32) - 1))
@settings(max_examples=100, deadline=None)
def test_draw_equals_random_choices(weights, seed):
    keys = [f"k{index}" for index in range(len(weights))]
    fuzzer = WeightedFuzzer(seed=seed)
    reference = random.Random()
    reference.setstate(fuzzer.rng.getstate())
    table = _choice_table(keys, weights)
    cum_weights = list(accumulate(weights))
    for _ in range(40):
        want = reference.choices(keys, cum_weights=cum_weights)[0]
        assert fuzzer._draw(table) == want


@pytest.mark.parametrize(
    "weights",
    [[0.0], [0, 0, 0], [1.0, -1.0], [math.inf], [1.0, math.inf], [math.nan]],
)
def test_choice_table_raises_what_choices_raises(weights):
    keys = [f"k{index}" for index in range(len(weights))]
    with pytest.raises(ValueError) as ours:
        _choice_table(keys, weights)
    with pytest.raises(ValueError) as theirs:
        random.Random(0).choices(keys, cum_weights=list(accumulate(weights)))
    assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize("weight", [0.0, math.inf])
def test_zero_or_infinite_syscall_mix_raises_when_built(weight):
    model = WeightModel(syscall_weights={kind: weight for kind in _OP_KINDS})
    with pytest.raises(ValueError):
        WeightedFuzzer(weights=model)
