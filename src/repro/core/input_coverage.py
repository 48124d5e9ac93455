"""Input-coverage accounting: partition counts per tracked argument.

Input coverage is defined as how much a tester exercises an argument's
input partitions.  For each of the 14 tracked arguments this module
counts how many traced calls fell into each partition, exposes the
untested partitions, and — for bitmap arguments — keeps the full
multiset of flag *combinations* so Table 1's combination-size analysis
(and the future-work bit-combination metric) can be computed exactly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.argspec import ArgClass, ArgSpec, BASE_SYSCALLS, SyscallSpec
from repro.core.partition import BitmapPartitioner, make_input_partitioner


#: Cap on per-argument classification caches.  Flag words and size
#: values repeat massively across a trace, so a memo on
#: ``value -> partition keys`` eliminates most classify work; the cap
#: bounds memory on adversarial traces (cache simply stops growing).
CLASSIFY_CACHE_CAP = 65536

#: Cache-miss sentinel (``None`` is a legitimate traced value).
_MISS = object()


@dataclass
class ArgCoverage:
    """Coverage state for one (base syscall, argument) pair."""

    syscall: str
    spec: ArgSpec
    partitioner: Any
    counts: Counter = field(default_factory=Counter)
    #: full decoded flag combinations (bitmap args only)
    combinations: Counter = field(default_factory=Counter)
    #: values that failed to classify (wrong type in a malformed trace)
    unclassified: int = 0

    def __post_init__(self) -> None:
        self._is_bitmap = isinstance(self.partitioner, BitmapPartitioner)
        self._domain_keys = frozenset(self.partitioner.domain())
        # value -> (keys, combo-or-None); keyed by (type, value) so that
        # e.g. a stray 1.0 never aliases the int 1 entry.
        self._classify_cache: dict = {}

    def __getstate__(self) -> dict:
        # The classify memo is derived state; pickling it would only
        # copy what the receiver rebuilds on demand.
        state = self.__dict__.copy()
        state["_classify_cache"] = {}
        return state

    def _classified(self, value: Any) -> tuple[tuple[str, ...], frozenset | None]:
        """Classify *value*, memoized on hashable values."""
        try:
            cache_key = (value.__class__, value)
            entry = self._classify_cache.get(cache_key, _MISS)
        except TypeError:  # unhashable (iovec length lists) — no memo
            keys = tuple(self.partitioner.classify(value))
            combo = frozenset(keys) if (keys and self._is_bitmap) else None
            return keys, combo
        if entry is _MISS:
            keys = tuple(self.partitioner.classify(value))
            combo = frozenset(keys) if (keys and self._is_bitmap) else None
            entry = (keys, combo)
            if len(self._classify_cache) < CLASSIFY_CACHE_CAP:
                self._classify_cache[cache_key] = entry
        return entry

    def record(self, value: Any, n: int = 1) -> int:
        """Credit *value*'s partitions with *n* occurrences.

        Leaves the state *n* calls of ``record(value)`` would leave and
        returns what the first of them returns: how many domain
        partitions this value opened (count zero -> nonzero), so
        coverage feedback costs O(1) per value.
        """
        keys, combo = self._classified(value)
        if not keys:
            self.unclassified += n
            return 0
        counts = self.counts
        opened = 0
        for key in keys:
            count = counts[key]
            counts[key] = count + n
            if not count and key in self._domain_keys:
                opened += 1
        if combo is not None:
            self.combinations[combo] += n
        return opened

    # -- merging ------------------------------------------------------------

    def merge(self, other: "ArgCoverage") -> "ArgCoverage":
        """Fold another analyzer's state into this one (exact: counts add).

        Raises:
            ValueError: the two states track different arguments.
        """
        if (self.syscall, self.spec.name) != (other.syscall, other.spec.name):
            raise ValueError(
                f"cannot merge {other.syscall}.{other.spec.name} "
                f"into {self.syscall}.{self.spec.name}"
            )
        self.counts.update(other.counts)
        self.combinations.update(other.combinations)
        self.unclassified += other.unclassified
        return self

    # -- queries ------------------------------------------------------------

    def domain(self) -> list[str]:
        return self.partitioner.domain()

    def frequencies(self) -> dict[str, int]:
        """Count per domain partition (0 for untested), domain order."""
        counts_get = self.counts.get
        return {key: counts_get(key, 0) for key in self.domain()}

    def partition_status(self) -> tuple[list[str], list[str]]:
        """``(tested, untested)`` partition keys from one frequency pass."""
        tested: list[str] = []
        untested: list[str] = []
        for key, count in self.frequencies().items():
            (tested if count > 0 else untested).append(key)
        return tested, untested

    def tested_partitions(self) -> list[str]:
        return self.partition_status()[0]

    def untested_partitions(self) -> list[str]:
        return self.partition_status()[1]

    def coverage_ratio(self) -> float:
        """Fraction of domain partitions exercised at least once."""
        tested, untested = self.partition_status()
        total = len(tested) + len(untested)
        if not total:
            return 1.0
        return len(tested) / total

    @property
    def total_observations(self) -> int:
        return sum(self.counts.values())

    # -- bitmap combination analysis (Table 1) --------------------------------

    def combination_size_histogram(
        self, required_flag: str | None = None
    ) -> Counter:
        """How many calls used 1, 2, 3… flags together.

        Args:
            required_flag: restrict to combinations including this flag
                (Table 1's "O_RDONLY" rows).
        """
        histogram: Counter = Counter()
        for combo, count in self.combinations.items():
            if required_flag is not None and required_flag not in combo:
                continue
            histogram[len(combo)] += count
        return histogram

    def combination_size_percentages(
        self, required_flag: str | None = None
    ) -> dict[int, float]:
        """Table 1's row: % of calls per combination size."""
        histogram = self.combination_size_histogram(required_flag)
        total = sum(histogram.values())
        if total == 0:
            return {}
        return {size: 100.0 * count / total for size, count in sorted(histogram.items())}

    def top_combinations(self, n: int = 10) -> list[tuple[tuple[str, ...], int]]:
        """The most common exact flag combinations."""
        ranked = self.combinations.most_common(n)
        return [(tuple(sorted(combo)), count) for combo, count in ranked]


class InputCoverage:
    """Input-coverage state across all tracked syscalls.

    Instantiates one :class:`ArgCoverage` per (base syscall, tracked
    argument) — 14 in total — and routes normalized events to them.
    """

    def __init__(self, registry: Mapping[str, SyscallSpec] | None = None) -> None:
        self.registry = dict(registry) if registry is not None else dict(BASE_SYSCALLS)
        self._args: dict[tuple[str, str], ArgCoverage] = {}
        for name, spec in self.registry.items():
            for arg_spec in spec.tracked_args:
                self._args[(name, arg_spec.name)] = ArgCoverage(
                    syscall=name,
                    spec=arg_spec,
                    partitioner=make_input_partitioner(arg_spec),
                )

    def record(self, base: str, args: Mapping[str, Any]) -> int:
        """Credit all tracked arguments present in one normalized event;
        returns the domain partitions opened (see :meth:`ArgCoverage.record`)."""
        spec = self.registry.get(base)
        if spec is None:
            return 0
        opened = 0
        for arg_spec in spec.tracked_args:
            if arg_spec.name in args:
                opened += self._args[(base, arg_spec.name)].record(args[arg_spec.name])
        return opened

    # -- merging ------------------------------------------------------------

    def merge(self, other: "InputCoverage") -> "InputCoverage":
        """Fold another analyzer's input-coverage state into this one.

        Exact by construction: per-partition counts, flag-combination
        multisets, and unclassified tallies all add, so merging the
        states of consecutive stream pieces reproduces the single-pass
        state bit for bit.

        Raises:
            ValueError: the two states track different (syscall, arg)
                pairs (built from different registries).
        """
        if set(self._args) != set(other._args):
            raise ValueError("cannot merge input coverage over different registries")
        for pair, coverage in self._args.items():
            coverage.merge(other._args[pair])
        return self

    # -- queries ------------------------------------------------------------

    def arg(self, syscall: str, arg_name: str) -> ArgCoverage:
        """Coverage for one tracked argument.

        Raises:
            KeyError: the pair is not tracked.
        """
        return self._args[(syscall, arg_name)]

    def tracked_pairs(self) -> list[tuple[str, str]]:
        return sorted(self._args)

    def all_untested(self) -> dict[tuple[str, str], list[str]]:
        """Untested input partitions for every tracked argument."""
        result: dict[tuple[str, str], list[str]] = {}
        for pair, coverage in sorted(self._args.items()):
            untested = coverage.partition_status()[1]
            if untested:
                result[pair] = untested
        return result

    def summary(self) -> dict[tuple[str, str], float]:
        """Coverage ratio per tracked argument."""
        return {
            pair: coverage.coverage_ratio()
            for pair, coverage in sorted(self._args.items())
        }
