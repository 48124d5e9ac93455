"""CLI parity: `repro analyze --jobs N` output identical to the serial path."""

import json
import os

from repro.cli import main

FIXTURE = os.path.join(os.path.dirname(__file__), "..", "fixtures", "mini.lttng.txt")


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
        assert _analyze(capsys, "--jobs", jobs) == serial


def test_jobs_zero_means_auto(capsys):
    serial = _analyze(capsys)
    assert _analyze(capsys, "--jobs", "0") == serial


def test_jobs_envelope_names_degradation(capsys, monkeypatch):
    # --jobs runs the serial reader whatever the CPU count: the envelope
    # carries no topology block, and one stderr line says the flag did
    # nothing.
    for cpus in (1, 2):
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        code = main(["analyze", FIXTURE, "--mount", "/mnt/test", "--name", "mini",
                     "--json", "--jobs", "3"])
        assert code == 0
        captured = capsys.readouterr()
        assert "jobs" not in json.loads(captured.out)
        assert captured.err.splitlines() == ["repro analyze: --jobs has no effect"]


def test_jobs_text_output_matches(capsys):
    code = main(["analyze", FIXTURE, "--mount", "/mnt/test", "--name", "mini"])
    assert code == 0
    serial_text = capsys.readouterr().out
    code = main(
        ["analyze", FIXTURE, "--mount", "/mnt/test", "--name", "mini", "--jobs", "2"]
    )
    assert code == 0
    assert capsys.readouterr().out == serial_text
