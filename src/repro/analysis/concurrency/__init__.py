"""Static concurrency analysis: ``repro lint --concurrency``.

Builds an AST lock model over a set of python sources (by default the
concurrent subsystem, ``repro/obs/``) and runs four detector families —
lock-order cycles, leaked explicit acquires, LockDoc-style unguarded
field accesses, and blocking calls under a held lock — reporting
through the shared :class:`repro.analysis.findings.AnalysisReport`
machinery.

Findings can be silenced with ``# lint: allow(<rule>)`` comments at
the flagged line (see :mod:`repro.analysis.suppress`) or accepted
wholesale in a committed baseline file.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping

from repro.analysis.findings import AnalysisReport
from repro.analysis.suppress import apply_baseline, load_baseline
from repro.analysis.concurrency.model import Model, load_repo_sources
from repro.analysis.concurrency.detectors import (
    ACQUIRE_NO_RELEASE,
    BLOCKING_UNDER_LOCK,
    LOCK_ORDER_CYCLE,
    RULES,
    UNGUARDED_ACCESS,
    filter_suppressed,
    run_detectors,
)

__all__ = [
    "analyze_concurrency",
    "load_repo_sources",
    "Model",
    "RULES",
    "LOCK_ORDER_CYCLE",
    "ACQUIRE_NO_RELEASE",
    "UNGUARDED_ACCESS",
    "BLOCKING_UNDER_LOCK",
]

DEFAULT_BASELINE = ".concurrency-baseline.json"


def analyze_concurrency(
    sources: Mapping[str, str] | None = None,
    *,
    targets: Iterable[str] | None = None,
    baseline: str | Path | set[tuple[str, str]] | None = None,
    suppress: bool = True,
) -> AnalysisReport:
    """Run the concurrency pass and return an :class:`AnalysisReport`.

    ``sources`` maps display names to python text; when None the
    ``targets`` paths (relative to the installed ``repro`` package,
    default: the concurrent dogfood set) are loaded.  ``baseline`` is a
    baseline file path or a pre-loaded set of ``(defect, location)``
    pairs.  ``suppress=False`` disables pragma filtering so tests can
    see raw findings.
    """
    if sources is None:
        sources = load_repo_sources(targets)
    model = Model(sources)
    report = run_detectors(model)
    for error in model.parse_errors:
        report.stats.setdefault("parse_errors", []).append(error)
    if suppress:
        filter_suppressed(report, model.sources)
    else:
        report.stats.setdefault("suppressed", 0)
    if baseline is not None:
        accepted = (
            baseline
            if isinstance(baseline, set)
            else load_baseline(baseline)
        )
        apply_baseline(report, accepted)
    else:
        report.stats.setdefault("baselined", 0)
    return report
