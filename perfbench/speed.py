"""Machine-speed calibration for timings taken on a shared VM.

On a shared 2-vCPU VM the same pure-Python work runs at two or more
speeds that switch every few seconds (measured: ~43 ms and ~75 ms for
one fixed loop, with slow phases lasting up to ~15 s), and CPU time
tracks wall time, so the slowdown is contention for the core rather
than stolen time.  A run-to-run spread that large hides any change
smaller than about 1.7x.

Every timed sample is therefore bracketed by a fixed calibration
kernel that belongs to the benchmark, not to the program: a regex scan
and dict tally over a constant text, ~15 ms, read on each CPU in turn.
A sample's time is scaled by ``REFERENCE_S / kernel_s``, with
``kernel_s`` the mean of the kernel readings just before and just after
it.  A sample taken while the machine runs at reference speed keeps its
raw value; a change to the program moves the scaled value exactly as it
moves the raw one, because the kernel does not run program code.  Raw
values are kept beside the scaled ones.
"""

from __future__ import annotations

import os
import re
import statistics
import time

#: Kernel seconds at the reference speed (the fast phase of a 2.1 GHz
#: shared VM).  It only fixes the scale of every scaled figure.
REFERENCE_S = 0.015

_TEXT = "\n".join(
    f"[{i:08d}] syscall_exit_op{i % 7}: {{ pid = {i % 13}, ret = {i % 101 - 3} }}"
    for i in range(6000)
)
_LINE = re.compile(r"\[(\d+)\] syscall_exit_(\w+): \{ pid = (\d+), ret = (-?\d+) \}")


def kernel() -> int:
    counts: dict[tuple, int] = {}
    rows = []
    for match in _LINE.finditer(_TEXT):
        key = (match.group(2), int(match.group(3)) % 5)
        counts[key] = counts.get(key, 0) + int(match.group(4))
        rows.append((match.group(2), {"pid": match.group(3)}, match.group(1)))
    return len(rows) + len(counts)


def kernel_seconds(repeats: int = 3) -> float:
    """Mean over the CPUs this process may use of the kernel's median
    wall time, *repeats* calls pinned to each CPU in turn.

    Neighbours slow the two vCPUs of a shared VM independently, and the
    measured work (worker pools, the daemon and its clients) runs on
    both, so both are read.
    """
    cpus = sorted(os.sched_getaffinity(0))
    per_cpu = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - start)
            per_cpu.append(statistics.median(times))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(per_cpu)


class Timed:
    """Times one sample between two kernel readings.

    ``with Timed() as t: work()`` leaves ``t.raw_s`` (wall seconds) and
    ``t.factor``; ``t.raw_s * t.factor`` is the sample's time at
    reference speed.
    """

    def __enter__(self) -> "Timed":
        self.before = kernel_seconds()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.raw_s = time.perf_counter() - self.start
        self.after = kernel_seconds()
        self.factor = REFERENCE_S / ((self.before + self.after) / 2)
