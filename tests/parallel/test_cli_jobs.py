"""CLI parity: `repro analyze --jobs N` output identical to the serial path."""

import json
import os

from repro.cli import main

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "mini.lttng.txt")


def _analyze(capsys, *extra):
    code = main(
        [
            "analyze",
            FIXTURE,
            "--mount",
            "/mnt/test",
            "--name",
            "mini",
            "--json",
            *extra,
        ]
    )
    assert code == 0
    return json.loads(capsys.readouterr().out)


def test_jobs_output_identical_to_serial(capsys):
    serial = _analyze(capsys)
    for jobs in ("1", "2", "3"):
        sharded = _analyze(capsys, "--jobs", jobs)
        # The topology envelope describes *how* the run executed and
        # legitimately differs; every coverage byte must not.
        envelope = sharded.pop("jobs")
        assert envelope["requested"] == int(jobs)
        assert sharded == serial


def test_jobs_zero_means_auto(capsys):
    serial = _analyze(capsys)
    sharded = _analyze(capsys, "--jobs", "0")
    sharded.pop("jobs")
    assert sharded == serial


def test_jobs_envelope_names_degradation(capsys, monkeypatch):
    # mini.lttng.txt is far below MIN_SHARD_EVENTS, so an explicit
    # --jobs 3 degrades — the envelope and stderr must both say so, and
    # name the step that set the final shard count: the CPU clamp on
    # one CPU, the pool skip once two workers survive the clamp.
    for cpus, reason, detail in (
        (1, "cpu_clamp", "only 1 CPU(s) available"),
        (2, "min_shard_events", "too few events to amortize the worker pool"),
    ):
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        code = main(["analyze", FIXTURE, "--mount", "/mnt/test", "--name", "mini",
                     "--json", "--jobs", "3"])
        assert code == 0
        captured = capsys.readouterr()
        envelope = json.loads(captured.out)["jobs"]
        assert envelope["requested"] == 3
        assert envelope["effective"] == cpus
        assert envelope["shards"] == 1
        assert envelope["degrade_reason"] == reason
        assert f"degraded to 1 shard(s): {detail}" in captured.err


def test_jobs_text_output_matches(capsys):
    code = main(["analyze", FIXTURE, "--mount", "/mnt/test", "--name", "mini"])
    assert code == 0
    serial_text = capsys.readouterr().out
    code = main(
        ["analyze", FIXTURE, "--mount", "/mnt/test", "--name", "mini", "--jobs", "2"]
    )
    assert code == 0
    assert capsys.readouterr().out == serial_text
