"""Deterministic fault injection for hard-to-reach error paths.

The paper notes that some errnos (ENOMEM, EIO, EINTR, …) require
environmental pressure a test harness cannot easily create — e.g.
"triggering ENOMEM requires a system with limited memory".  This module
lets workloads and tests arm those faults deterministically so that
output-coverage partitions for such errors can actually be exercised.

A fault is a rule: (syscall-name pattern, errno, firing schedule).  The
schedule may fire once, every call, every Nth call, or for a bounded
number of calls.  Rules are consulted by the syscall layer before the
operation body runs, matching where the kernel would fail (allocation
at entry, interrupted before any work).
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field

from repro.vfs.errors import FsError, errno_name


@dataclass
class FaultRule:
    """One armed fault.

    Attributes:
        pattern: fnmatch-style syscall-name pattern (``"open*"``,
            ``"write"``, ``"*"``).
        errno: errno to inject.
        every: fire on every Nth matching call (1 = every call).
        remaining: how many more times this rule may fire; ``None``
            means unlimited.
    """

    pattern: str
    errno: int
    every: int = 1
    remaining: int | None = 1
    _seen: int = field(default=0, repr=False)

    def matches(self, syscall: str) -> bool:
        return fnmatch.fnmatch(syscall, self.pattern)

    def should_fire(self) -> bool:
        """Record one matching call; report whether the fault fires now."""
        if self.remaining is not None and self.remaining <= 0:
            return False
        self._seen += 1
        if self._seen % self.every != 0:
            return False
        if self.remaining is not None:
            self.remaining -= 1
        return True

    @property
    def exhausted(self) -> bool:
        return self.remaining is not None and self.remaining <= 0


class FaultInjector:
    """Registry of fault rules checked at syscall entry."""

    def __init__(self) -> None:
        self._rules: list[FaultRule] = []
        self.injected_count = 0

    def arm(
        self,
        pattern: str,
        errno: int,
        *,
        every: int = 1,
        count: int | None = 1,
    ) -> FaultRule:
        """Arm a fault: the next *count* calls matching *pattern* fail.

        Args:
            pattern: fnmatch pattern over syscall names.
            errno: errno to inject.
            every: fire only on every Nth matching call.
            count: number of firings before the rule exhausts
                (``None`` = forever).
        """
        if every < 1:
            raise ValueError("every must be >= 1")
        rule = FaultRule(pattern=pattern, errno=errno, every=every, remaining=count)
        self._rules.append(rule)
        return rule

    def disarm_all(self) -> None:
        self._rules.clear()

    def check(self, syscall: str) -> None:
        """Raise the armed fault for *syscall*, if any rule fires.

        Exhausted rules are pruned lazily.  With no rule armed (every
        syscall of an ordinary run) it returns at once.

        Raises:
            FsError: with the armed errno.
        """
        if not self._rules:
            return
        fired: FaultRule | None = None
        for rule in self._rules:
            if rule.matches(syscall) and rule.should_fire():
                fired = rule
                break
        self._rules = [rule for rule in self._rules if not rule.exhausted]
        if fired is not None:
            self.injected_count += 1
            raise FsError(
                fired.errno,
                f"injected {errno_name(fired.errno)} on {syscall}",
            )

    @property
    def armed_rules(self) -> list[FaultRule]:
        return list(self._rules)
