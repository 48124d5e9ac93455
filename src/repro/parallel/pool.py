"""Deprecated: no worker pool exists any more."""

from types import SimpleNamespace


def get_pool(workers: int) -> SimpleNamespace:
    """Start nothing: ``workers=0``, ``cold_start_seconds=0.0``.

    Deleted by ROADMAP item 1's ``[benchmark]`` change.
    """
    return SimpleNamespace(workers=0, cold_start_seconds=0.0)
