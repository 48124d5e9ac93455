"""Deprecated names the benchmark harness imports; nothing runs in parallel."""

import warnings

from repro.core.analyzer import IOCov
from repro.core.report import CoverageReport


def run_sharded(path: str, *, fmt: str = "lttng", jobs: int | None = None,
                mount_point: str | None = None, suite_name: str | None = None,
                stats: dict | None = None) -> CoverageReport:
    """Deprecated: the serial ``IOCov.consume_<fmt>_file`` pass; *jobs* is ignored.

    Fills *stats* with ``jobs_requested``, ``jobs_effective=1``, ``shards=1``
    and ``parse``.  Deleted by ROADMAP item 1's ``[benchmark]`` change.
    """
    warnings.warn("run_sharded runs the serial reader; use IOCov.consume_<fmt>_file",
                  DeprecationWarning, stacklevel=2)
    iocov = IOCov(mount_point=mount_point, suite_name=path if suite_name is None else suite_name)
    reader = getattr(iocov, f"consume_{fmt}_file", None)
    if reader is None:
        raise ValueError(f"unknown trace format: {fmt!r}")
    reader(path)
    if stats is not None:
        stats.update(jobs_requested=jobs, jobs_effective=1, shards=1, parse=iocov.parse_stats)
    return iocov.report()
