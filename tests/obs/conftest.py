"""Shared fixtures for the observability-service tests."""

from __future__ import annotations

import os

import pytest

from repro.core.analyzer import IOCov
from repro.core.report import CoverageReport

#: The small real LTTng fixture (120 events under /mnt/test).
MINI_TRACE = os.path.join(os.path.dirname(__file__), "..", "fixtures", "mini.lttng.txt")
MINI_MOUNT = "/mnt/test"


@pytest.fixture(scope="session")
def mini_trace() -> str:
    return os.path.abspath(MINI_TRACE)


@pytest.fixture(scope="session")
def mini_report(mini_trace) -> CoverageReport:
    """The one-shot analysis of the mini fixture (the parity baseline)."""
    return (
        IOCov(mount_point=MINI_MOUNT, suite_name="mini")
        .consume_lttng_file(mini_trace)
        .report()
    )
