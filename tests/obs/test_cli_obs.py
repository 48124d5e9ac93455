"""CLI surface of the observability service: analyze --store, suites
--seed, serve/push/history/diff-runs."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.obs.store import RunStore
from tests.obs.conftest import MINI_MOUNT


def _analyze_json(mini_trace, capsys, *extra):
    code = main(
        ["analyze", mini_trace, "--mount", MINI_MOUNT, "--json", *extra]
    )
    document = json.loads(capsys.readouterr().out)
    return code, document


def test_analyze_json_includes_suggestions(mini_trace, capsys):
    code, document = _analyze_json(mini_trace, capsys, "--suggest", "5")
    assert code == 0
    suggestions = document["suggestions"]
    assert 0 < len(suggestions) <= 5
    assert {"syscall", "partition", "priority", "recipe"} <= set(suggestions[0])


def test_analyze_json_without_suggest_has_no_suggestions(mini_trace, capsys):
    code, document = _analyze_json(mini_trace, capsys)
    assert code == 0
    assert "suggestions" not in document


def test_analyze_store_persists_run(tmp_path, mini_trace, capsys):
    db = str(tmp_path / "runs.sqlite")
    code, document = _analyze_json(
        mini_trace, capsys, "--store", db, "--jobs", "2"
    )
    assert code == 0
    run_id = document["run_id"]
    with RunStore(db) as store:
        record = store.get_run(run_id)
        assert record.trace_format == "lttng"
        assert record.jobs == 2
        assert record.wall_seconds is not None
        # The stored report round-trips to the printed payload.
        stored = store.load_report(run_id).to_dict()
    for key, value in stored.items():
        assert document[key] == value


def test_suites_seed_round_trips_to_store(tmp_path, capsys):
    db = str(tmp_path / "suites.sqlite")
    code = main(
        ["suites", "--suite", "crashmonkey", "--scale", "0.05",
         "--seed", "11", "--store", db, "--json"]
    )
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    run = document["runs"][0]
    assert run["seed"] == 11
    with RunStore(db) as store:
        assert store.get_run(run["run_id"]).seed == 11


def test_suites_fuzzer_seed_changes_coverage(capsys):
    def run(seed):
        assert main(
            ["suites", "--suite", "fuzzer", "--iterations", "40",
             "--seed", str(seed), "--json"]
        ) == 0
        return json.loads(capsys.readouterr().out)["runs"][0]["coverage"]

    assert run(1) == run(1)
    assert run(1) != run(2)


def test_history_and_diff_runs_cli(tmp_path, mini_trace, capsys):
    db = str(tmp_path / "runs.sqlite")
    assert main(
        ["analyze", mini_trace, "--mount", MINI_MOUNT, "--store", db]
    ) == 0
    assert main(
        ["analyze", mini_trace, "--mount", MINI_MOUNT, "--store", db]
    ) == 0
    capsys.readouterr()

    assert main(["history", "--store", db, "--json"]) == 0
    history = json.loads(capsys.readouterr().out)
    assert [run["run_id"] for run in history["runs"]] == [2, 1]

    code = main(["diff-runs", "latest~1", "latest", "--store", db, "--json"])
    document = json.loads(capsys.readouterr().out)
    assert code == 0
    assert document["status"] == "clean"
    assert document["lost_partitions"] == []


def test_diff_runs_gates_seeded_regression(tmp_path, mini_trace, capsys):
    """The acceptance scenario: a run that lost partitions exits 1 and
    names them."""
    import copy

    from repro.core.analyzer import IOCov
    from repro.core.report import CoverageReport

    baseline = (
        IOCov(mount_point=MINI_MOUNT, suite_name="mini")
        .consume_lttng_file(mini_trace)
        .report()
    )
    document = copy.deepcopy(baseline.to_dict())
    freqs = document["input_coverage"]["open"]["flags"]
    lost = next(name for name, count in freqs.items() if count)
    freqs[lost] = 0
    regressed = CoverageReport.from_dict(document)

    db = str(tmp_path / "runs.sqlite")
    with RunStore(db) as store:
        store.save_report(baseline)
        store.save_report(regressed)

    code = main(["diff-runs", "1", "2", "--store", db])
    out = capsys.readouterr().out
    assert code == 1
    assert "lost-input-partition" in out
    assert lost in out

    code = main(["diff-runs", "1", "2", "--store", db, "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["exit_code"] == 1
    assert f"open.flags:{lost}" in payload["lost_partitions"]


def test_history_missing_store_errors(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("IOCOV_STORE", str(tmp_path / "fresh.sqlite"))
    # A fresh (empty) store renders an empty history, exit 0.
    assert main(["history"]) == 0
    assert "no runs stored" in capsys.readouterr().out


@pytest.mark.slow
def test_serve_push_sigterm_drain_end_to_end(tmp_path, mini_trace):
    """The full daemon life cycle through the real CLI: serve, push
    with chunked upload, SIGTERM, drain snapshot, clean exit 0."""
    db = str(tmp_path / "serve.sqlite")
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--mount", MINI_MOUNT, "--store", db],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    try:
        line = proc.stdout.readline()
        assert "serving on" in line
        port = int(line.split(":")[-1].split(" ")[0].split("/")[0])
        push = subprocess.run(
            [sys.executable, "-m", "repro", "push", mini_trace,
             "--url", f"127.0.0.1:{port}", "--finalize", "--json"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert push.returncode == 0, push.stderr
        pushed = json.loads(push.stdout)
        assert pushed["run"]["run_id"] == 1
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    with RunStore(db) as store:
        runs = store.list_runs()
        # The push snapshot plus the drain snapshot.
        assert len(runs) == 2
        assert runs[0].meta.get("reason") == "drain"
        assert store.journal_size("live") == 0
