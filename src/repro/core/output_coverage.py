"""Output-coverage accounting: success/errno partition counts per syscall.

Output coverage measures the coverage of syscall return values and
error codes — an indirect check that inputs were executed on
meaningfully different file-system states, since many bugs live on exit
and failure paths.  Every one of the 27 traced syscalls (merged into
its base) gets an output space: success (one partition, or size buckets
for byte-count returns) plus one partition per manpage errno.

Observed errnos outside the manpage list are counted under their own
key too — the paper explicitly warns the manpage "may not be consistent
with the actual implementation" — and surfaced separately by
:meth:`SyscallOutputCoverage.undocumented_errnos`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.argspec import BASE_SYSCALLS, SyscallSpec
from repro.core.partition import OK_KEY, OutputPartitioner


#: Cap on the per-syscall (retval, errno) -> keys memo; retvals repeat
#: heavily (fd numbers, common byte counts), so most records hit.
_OUTPUT_CACHE_CAP = 65536


@dataclass
class SyscallOutputCoverage:
    """Output-coverage state for one base syscall."""

    syscall: str
    spec: SyscallSpec
    partitioner: OutputPartitioner
    counts: Counter = field(default_factory=Counter)

    def __post_init__(self) -> None:
        self._classify_cache: dict[tuple[int, int], tuple[str, ...]] = {}

    def __getstate__(self) -> dict:
        # Derived state: don't ship the memo across process boundaries.
        state = self.__dict__.copy()
        state["_classify_cache"] = {}
        return state

    def record(self, retval: int, errno: int = 0, n: int = 1) -> None:
        """Credit the partitions of ``(retval, errno)`` with *n* occurrences."""
        cache_key = (retval, errno)
        keys = self._classify_cache.get(cache_key)
        if keys is None:
            keys = tuple(self.partitioner.classify(retval, errno))
            if len(self._classify_cache) < _OUTPUT_CACHE_CAP:
                self._classify_cache[cache_key] = keys
        counts = self.counts
        for key in keys:
            counts[key] += n

    # -- merging ------------------------------------------------------------

    def merge(self, other: "SyscallOutputCoverage") -> "SyscallOutputCoverage":
        """Fold another analyzer's state into this one (exact: counts add)."""
        if self.syscall != other.syscall:
            raise ValueError(f"cannot merge {other.syscall} into {self.syscall}")
        self.counts.update(other.counts)
        return self

    # -- queries ------------------------------------------------------------

    def domain(self) -> list[str]:
        return self.partitioner.domain()

    def frequencies(self) -> dict[str, int]:
        """Domain-ordered counts, then any observed out-of-domain keys."""
        result = {key: self.counts.get(key, 0) for key in self.domain()}
        for key, count in sorted(self.counts.items()):
            result.setdefault(key, count)
        return result

    def success_count(self) -> int:
        return sum(
            count for key, count in self.counts.items() if key.startswith(OK_KEY)
        )

    def error_counts(self) -> dict[str, int]:
        """Observed count per errno name (documented and not)."""
        return {
            key: count
            for key, count in sorted(self.counts.items())
            if not key.startswith(OK_KEY)
        }

    def tested_errnos(self) -> list[str]:
        return [name for name, count in self.error_counts().items() if count > 0]

    def untested_errnos(self) -> list[str]:
        """Documented errnos this test suite never triggered."""
        return [name for name in self.spec.errnos if self.counts.get(name, 0) == 0]

    def undocumented_errnos(self) -> list[str]:
        """Observed errnos absent from the manpage domain."""
        documented = set(self.spec.errnos)
        return [
            name
            for name in self.tested_errnos()
            if name not in documented
        ]

    def coverage_ratio(self) -> float:
        """Fraction of documented output partitions exercised."""
        domain = self.domain()
        if not domain:
            return 1.0
        tested = sum(1 for key in domain if self.counts.get(key, 0) > 0)
        return tested / len(domain)

    @property
    def total_observations(self) -> int:
        return sum(self.counts.values())


class OutputCoverage:
    """Output-coverage state across all tracked syscalls."""

    def __init__(self, registry: Mapping[str, SyscallSpec] | None = None) -> None:
        self.registry = dict(registry) if registry is not None else dict(BASE_SYSCALLS)
        self._syscalls: dict[str, SyscallOutputCoverage] = {
            name: SyscallOutputCoverage(
                syscall=name, spec=spec, partitioner=OutputPartitioner(spec)
            )
            for name, spec in self.registry.items()
        }

    def record(self, base: str, retval: int, errno: int = 0) -> None:
        coverage = self._syscalls.get(base)
        if coverage is not None:
            coverage.record(retval, errno)

    # -- merging ------------------------------------------------------------

    def merge(self, other: "OutputCoverage") -> "OutputCoverage":
        """Fold another analyzer's output-coverage state into this one.

        Exact: per-partition counts add, so merges reproduce the
        single-pass state bit for bit.

        Raises:
            ValueError: the two states track different syscalls.
        """
        if set(self._syscalls) != set(other._syscalls):
            raise ValueError("cannot merge output coverage over different registries")
        for name, coverage in self._syscalls.items():
            coverage.merge(other._syscalls[name])
        return self

    # -- queries ------------------------------------------------------------

    def syscall(self, name: str) -> SyscallOutputCoverage:
        """Coverage for one base syscall.

        Raises:
            KeyError: the syscall is not tracked.
        """
        return self._syscalls[name]

    def tracked_syscalls(self) -> list[str]:
        return sorted(self._syscalls)

    def all_untested_errnos(self) -> dict[str, list[str]]:
        return {
            name: coverage.untested_errnos()
            for name, coverage in sorted(self._syscalls.items())
            if coverage.untested_errnos()
        }

    def summary(self) -> dict[str, float]:
        return {
            name: coverage.coverage_ratio()
            for name, coverage in sorted(self._syscalls.items())
        }
