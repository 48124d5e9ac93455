"""The concurrency pass dogfooded over the repo's own concurrent code.

This is the same gate CI enforces: zero unsuppressed findings over
``repro/obs/``, and a lock model rich enough to be meaningful (the obs
subsystem really does hold dozens of lock sites).
"""

import json
import subprocess
import sys

from repro.analysis.concurrency import analyze_concurrency, load_repo_sources


def test_dogfood_zero_unsuppressed_findings():
    report = analyze_concurrency()
    assert report.findings == [], [f.render() for f in report.findings]
    assert report.exit_code() == 0


def test_dogfood_model_is_substantial():
    report = analyze_concurrency()
    stats = report.stats
    assert stats["locks"] >= 8
    assert stats["lock_sites"] >= 40
    assert stats["fields_tracked"] >= 20
    # The LockDoc-style inference should rediscover the documented
    # guard relationships in the obs subsystem.
    guarded = stats["guarded_fields"]
    assert guarded["IngestSession.lines_received"] == "IngestSession._lock"
    assert guarded["IngestSession._feed_tail"] == "IngestSession.feed_lock"
    assert guarded["TenantManager._sessions"] == "TenantManager._lock"
    assert guarded["Counter._values"] == "MetricsRegistry._lock"


def test_dogfood_suppressions_are_justified_and_few():
    # By-design suppressions (the journal's group-commit and
    # compaction fsyncs) are expected but must stay rare: a creeping
    # count means real findings are being waved through.
    report = analyze_concurrency()
    assert report.stats["suppressed"] <= 2


def test_whole_package_analyzes_without_crashing():
    report = analyze_concurrency(targets=(".",))
    assert report.stats["modules"] > 30
    assert not report.stats.get("parse_errors")


def test_lock_coverage_schema():
    report = analyze_concurrency()
    coverage = report.stats["lock_coverage"]
    assert "obs/ingest.py" in coverage
    for module, entry in coverage.items():
        assert set(entry) == {
            "locks",
            "lock_sites",
            "functions",
            "guarded_fields",
            "unguarded_accesses",
            "blocking_calls",
        }, module
    assert coverage["obs/journal.py"]["lock_sites"] >= 7


def test_cli_concurrency_json_envelope():
    process = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--concurrency", "--json"],
        capture_output=True,
        text=True,
    )
    assert process.returncode == 0, process.stderr
    document = json.loads(process.stdout)
    assert document["command"] == "lint"
    assert document["status"] == "clean"
    assert document["errors"] == 0
    concurrency = document["reports"]["concurrency"]
    assert concurrency["tool"] == "concurrency"
    assert "lock_coverage" in concurrency["stats"]


def test_cli_concurrency_exit_code_on_findings(tmp_path):
    # --path with a module outside the analyzed package is an error.
    process = subprocess.run(
        [
            sys.executable, "-m", "repro", "lint", "--concurrency",
            "--path", "no/such/module.py",
        ],
        capture_output=True,
        text=True,
    )
    assert process.returncode == 2


def test_load_repo_sources_targets():
    sources = load_repo_sources(("obs/ingest.py",))
    assert list(sources) == ["obs/ingest.py"]
    everything = load_repo_sources((".",))
    assert "cli.py" in everything


def test_default_targets_cover_the_worker_pool():
    # The daemon's HTTP worker pool and its ingest threads are the
    # repo's concurrent code; the default lint path set is exactly the
    # obs package that holds them (no blind spot).
    default = load_repo_sources()
    assert {module.split("/")[0] for module in default} == {"obs"}
    assert "obs/server.py" in default
    assert "obs/ingest.py" in default
