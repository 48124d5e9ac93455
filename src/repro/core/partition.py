"""Input- and output-space partitioning.

Section 3 of the paper partitions each argument's space by class:

* **bitmap** — one partition per flag (plus combination-size analysis
  for Table 1);
* **numeric** — powers of two as boundary values, with a dedicated
  partition for the boundary value 0 ("Equal to 0" in Figure 3) and one
  for negative values;
* **categorical** — one partition per allowed value, plus an "invalid"
  partition for out-of-domain values;
* **identifier** — range partitions for file descriptors, depth/length
  partitions for paths.

Outputs partition into success (one partition, or powers-of-two buckets
for byte-count returns) and one partition per errno.

Every partitioner exposes the same protocol:

* ``domain()`` — the fixed, ordered list of partition keys (built once
  at construction; every call returns a fresh copy);
* ``classify(value)`` — the list of keys a concrete value falls into
  (bitmaps may credit several; everything else exactly one).

The *totality* invariant — every value lands in at least one partition,
and non-bitmap classes in exactly one — is property-tested in
``tests/core/test_partition_properties.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.argspec import ArgClass, ArgSpec, OutputKind, SyscallSpec
from repro.vfs import constants
from repro.vfs.errors import errno_name

# ---------------------------------------------------------------------------
# numeric partitions
# ---------------------------------------------------------------------------

#: Partition key for the value 0 (a boundary value easily neglected by
#: testing — POSIX allows write(fd, buf, 0)).
ZERO_KEY = "equal_to_0"
#: Partition key for negative values (invalid for sizes; meaningful for
#: lseek offsets).
NEGATIVE_KEY = "negative"


def power_of_two_key(exponent: int) -> str:
    """Key for the bucket [2**exponent, 2**(exponent+1) - 1]."""
    return f"2^{exponent}"


class NumericPartitioner:
    """Powers-of-two bucketing with explicit 0 and negative partitions.

    A value v > 0 falls in bucket ``2^k`` where ``k = floor(log2 v)`` —
    i.e. buckets are [1,1], [2,3], [4,7], …, matching Figure 3 where
    x = 10 holds all write sizes 1024–2047.

    Args:
        max_exponent: the largest bucket exponent; values at or above
            ``2**(max_exponent + 1)`` still land in the last bucket's
            overflow key ``>=2^(max+1)``.  64-bit sizes fit in 63.
        include_negative: whether the domain carries a negative bucket
            (sizes are unsigned, offsets are signed).
    """

    def __init__(self, max_exponent: int = 63, include_negative: bool = True) -> None:
        if max_exponent < 0:
            raise ValueError("max_exponent must be >= 0")
        self.max_exponent = max_exponent
        self.include_negative = include_negative
        self._overflow_key = f">=2^{max_exponent + 1}"
        keys = [NEGATIVE_KEY] if include_negative else []
        keys.append(ZERO_KEY)
        keys.extend(power_of_two_key(exp) for exp in range(max_exponent + 1))
        keys.append(self._overflow_key)
        self._domain = tuple(keys)

    def domain(self) -> list[str]:
        return list(self._domain)

    def classify(self, value: object) -> list[str]:
        if not isinstance(value, int):
            return []
        if value < 0:
            return [NEGATIVE_KEY if self.include_negative else ZERO_KEY]
        if value == 0:
            return [ZERO_KEY]
        exponent = value.bit_length() - 1
        if exponent > self.max_exponent:
            return [self._overflow_key]
        return [power_of_two_key(exponent)]

    @staticmethod
    def bucket_exponent(key: str) -> int | None:
        """Inverse helper: ``"2^10"`` -> 10; None for special keys."""
        if key.startswith("2^"):
            return int(key[2:])
        return None


# ---------------------------------------------------------------------------
# bitmap partitions
# ---------------------------------------------------------------------------


class BitmapPartitioner:
    """Per-flag partitions for bitmask arguments (open flags, modes).

    Composite flags (O_SYNC ⊃ O_DSYNC, O_TMPFILE ⊃ O_DIRECTORY) are
    matched longest-mask-first, and their constituent bits are masked
    out so one open(O_SYNC) credits O_SYNC but not O_DSYNC — the same
    decoding strace performs.

    Enumerated fields (open's access mode, where O_RDONLY/O_WRONLY/
    O_RDWR share a 2-bit field) are decoded by value, not by bit, via
    the spec's ``access_mask`` / ``access_names``.
    """

    def __init__(self, spec: ArgSpec) -> None:
        if spec.arg_class is not ArgClass.BITMAP or spec.bitmap is None:
            raise ValueError(f"not a bitmap arg: {spec.name}")
        self.spec = spec
        # Longest mask first so composites win over their constituents.
        self._flags_by_popcount = sorted(
            spec.bitmap.items(), key=lambda item: bin(item[1]).count("1"), reverse=True
        )
        keys: list[str] = []
        if spec.access_names:
            keys.extend(spec.access_names.values())
        elif spec.zero_name:
            keys.append(spec.zero_name)
        keys.extend(spec.bitmap)
        keys.append("unknown_bits")
        # Preserve order, drop duplicates (zero_name may also be a flag).
        self._domain = tuple(dict.fromkeys(keys))

    def domain(self) -> list[str]:
        return list(self._domain)

    def decode(self, value: int) -> list[str]:
        """Decode *value* into the list of flag names it contains."""
        names: list[str] = []
        remaining = value
        if self.spec.access_names is not None and self.spec.access_mask:
            mode = value & self.spec.access_mask
            remaining &= ~self.spec.access_mask
            names.append(self.spec.access_names.get(mode, "unknown_bits"))
        for name, mask in self._flags_by_popcount:
            if mask and remaining & mask == mask:
                names.append(name)
                remaining &= ~mask
        if remaining and "unknown_bits" not in names:
            names.append("unknown_bits")
        if not names:
            # No access field and no bits set: the zero partition.
            names.append(self.spec.zero_name or "0")
        return names

    def classify(self, value: object) -> list[str]:
        if not isinstance(value, int):
            return []
        return self.decode(value)

    def combination_size(self, value: int) -> int:
        """Number of distinct flags combined in *value* (Table 1).

        The access mode always counts as one flag (O_RDONLY alone is
        "1 flag"); unknown bits count as one.
        """
        names = self.decode(value) if isinstance(value, int) else []
        return len(names)


# ---------------------------------------------------------------------------
# categorical partitions
# ---------------------------------------------------------------------------


class CategoricalPartitioner:
    """One partition per allowed value, plus an invalid-value bucket."""

    INVALID_KEY = "invalid"

    def __init__(self, spec: ArgSpec) -> None:
        if spec.arg_class is not ArgClass.CATEGORICAL or spec.categories is None:
            raise ValueError(f"not a categorical arg: {spec.name}")
        self.spec = spec
        self._by_value = {value: name for name, value in spec.categories.items()}
        self._domain = (*spec.categories, self.INVALID_KEY)

    def domain(self) -> list[str]:
        return list(self._domain)

    def classify(self, value: object) -> list[str]:
        if not isinstance(value, int):
            return []
        return [self._by_value.get(value, self.INVALID_KEY)]


# ---------------------------------------------------------------------------
# identifier partitions
# ---------------------------------------------------------------------------


class IdentifierPartitioner:
    """Range partitions for identifier arguments (fds, paths).

    File descriptors partition by the standing of the descriptor
    number: the three standard descriptors, AT_FDCWD, small/medium/
    large ranges, and negatives (boundary / invalid values).  Paths
    partition by component depth (shallow vs nested) and whether the
    path is absolute, relative, or boundary-length.
    """

    FD_KEYS = (
        "fd_negative",
        "fd_at_fdcwd",
        "fd_stdin",
        "fd_stdout",
        "fd_stderr",
        "fd_3_to_63",
        "fd_64_to_1023",
        "fd_ge_1024",
    )
    PATH_KEYS = (
        "path_empty",
        "path_root",
        "path_absolute_depth_1",
        "path_absolute_deep",
        "path_relative_dot",
        "path_relative_dotdot",
        "path_relative_depth_1",
        "path_relative_deep",
        "path_name_max_boundary",
        "path_max_boundary",
    )
    _DOMAIN = (*FD_KEYS, *PATH_KEYS)

    def domain(self) -> list[str]:
        return list(self._DOMAIN)

    def classify(self, value: object) -> list[str]:
        if isinstance(value, int):
            return [self._classify_fd(value)]
        if isinstance(value, str):
            return [self._classify_path(value)]
        return []

    @staticmethod
    def _classify_fd(fd: int) -> str:
        if fd == constants.AT_FDCWD:
            return "fd_at_fdcwd"
        if fd < 0:
            return "fd_negative"
        if fd == 0:
            return "fd_stdin"
        if fd == 1:
            return "fd_stdout"
        if fd == 2:
            return "fd_stderr"
        if fd < 64:
            return "fd_3_to_63"
        if fd < 1024:
            return "fd_64_to_1023"
        return "fd_ge_1024"

    @staticmethod
    def _classify_path(path: str) -> str:
        if not path:
            return "path_empty"
        if len(path) >= constants.PATH_MAX:
            return "path_max_boundary"
        components = [part for part in path.split("/") if part]
        if any(len(part) >= constants.NAME_MAX for part in components):
            return "path_name_max_boundary"
        if path.startswith("/"):
            if not components:
                return "path_root"
            return (
                "path_absolute_depth_1"
                if len(components) == 1
                else "path_absolute_deep"
            )
        if path == ".":
            return "path_relative_dot"
        if path == "..":
            return "path_relative_dotdot"
        return "path_relative_depth_1" if len(components) == 1 else "path_relative_deep"


# ---------------------------------------------------------------------------
# output partitions
# ---------------------------------------------------------------------------

#: Key for the success partition of FLAG-output syscalls (Figure 4's
#: "OK (>= 0)").
OK_KEY = "OK"


class OutputPartitioner:
    """Partitions syscall return values: success vs per-errno.

    For FLAG-output syscalls there is one success partition (``OK``).
    For SIZE-output syscalls success is partitioned by powers of two of
    the returned byte count (with the 0 boundary separate), mirroring
    the input-size treatment.

    Errnos outside the manpage domain land in per-errno keys anyway —
    the paper notes the manpage list "may not be consistent with the
    actual implementation", and IOCov must count reality, not the
    documentation; :meth:`domain` returns the documented keys, and
    undocumented-but-observed errnos appear only in counts.
    """

    def __init__(self, spec: SyscallSpec, max_exponent: int = 63) -> None:
        self.spec = spec
        self._numeric = NumericPartitioner(max_exponent, include_negative=False)
        if spec.output_kind is OutputKind.SIZE:
            success = [f"{OK_KEY}:{key}" for key in self._numeric.domain()]
        else:
            success = [OK_KEY]
        self._domain = (*success, *spec.errnos)

    def domain(self) -> list[str]:
        return list(self._domain)

    def classify(self, retval: int, errno: int = 0) -> list[str]:
        """Classify one return: *errno* > 0 wins over *retval*."""
        if errno > 0 or retval < 0:
            err = errno if errno > 0 else -retval
            return [errno_name(err)]
        if self.spec.output_kind is OutputKind.SIZE:
            keys = self._numeric.classify(retval)
            return [f"{OK_KEY}:{key}" for key in keys]
        return [OK_KEY]


# ---------------------------------------------------------------------------
# factory
# ---------------------------------------------------------------------------


def make_input_partitioner(spec: ArgSpec):
    """Build the partitioner matching an argument's class."""
    if spec.arg_class is ArgClass.BITMAP:
        return BitmapPartitioner(spec)
    if spec.arg_class is ArgClass.NUMERIC:
        # Keep a negative partition even for nominally unsigned sizes:
        # a tester passing (size_t)-1 is exactly the kind of boundary
        # input the paper wants counted, and strace renders it signed.
        return NumericPartitioner(include_negative=True)
    if spec.arg_class is ArgClass.CATEGORICAL:
        return CategoricalPartitioner(spec)
    if spec.arg_class is ArgClass.IDENTIFIER:
        return IdentifierPartitioner()
    raise ValueError(f"unhandled arg class {spec.arg_class}")
