"""CLI surface of the campaign engine: ``repro campaign`` and the
campaign-aware ``repro history``.

Pins the acceptance criteria the CI gate relies on: the ``--json``
envelope is byte-stable under a fixed ``--seed``, exit codes follow
the uniform 0/1/2 convention, and stored rounds group under
``repro history --campaign``.
"""

from __future__ import annotations

import json

from repro.cli import main

_FAST = ["--rounds", "2", "--iterations", "60"]


def _campaign_json(capsys, *extra):
    code = main(["campaign", "--seed", "5", *_FAST, "--json", *extra])
    return code, capsys.readouterr().out


def test_campaign_json_envelope(capsys):
    code, out = _campaign_json(capsys)
    assert code == 0
    document = json.loads(out)
    assert document["command"] == "campaign"
    assert document["status"] == "clean"
    assert document["exit_code"] == 0
    assert document["campaign"] == "camp-5"
    assert document["seed"] == 5
    assert document["improved"] is True
    assert document["stop_reason"] == "round_budget"
    assert len(document["rounds"]) == 3  # baseline + 2 weighted
    assert document["tcd_trajectory"] == [
        r["tcd"] for r in document["rounds"]
    ]
    assert document["final_tcd"] < document["baseline_tcd"]
    assert document["new_input_partitions"]
    assert document["new_output_partitions"]
    for entry in document["rounds"]:
        assert set(entry) >= {
            "round", "events", "corpus_size", "tcd", "tcd_delta",
            "new_input_partitions", "new_output_partitions",
            "weights_fingerprint",
        }


def test_campaign_json_is_byte_stable(capsys):
    _, first = _campaign_json(capsys)
    _, second = _campaign_json(capsys)
    assert first == second


def test_campaign_text_output(capsys):
    code = main(["campaign", "--seed", "5", *_FAST])
    out = capsys.readouterr().out
    assert code == 0
    assert "campaign camp-5: 3 rounds" in out
    assert "stopped: round_budget" in out
    assert "TCD" in out and "->" in out


def test_campaign_exit_findings_without_improvement(capsys):
    """A wall-clock budget so tight only round 0 runs: no improvement."""
    code = main(
        ["campaign", "--seed", "5", "--iterations", "40",
         "--max-seconds", "0.000001", "--json"]
    )
    document = json.loads(capsys.readouterr().out)
    assert code == 1
    assert document["status"] == "findings"
    assert document["improved"] is False
    assert document["stop_reason"] == "wall_clock"


def test_campaign_exit_error_on_failed_push(capsys):
    """An unreachable obs daemon is a hard campaign error (exit 2)."""
    code = main(
        ["campaign", "--seed", "5", "--rounds", "1", "--iterations", "30",
         "--serve-url", "127.0.0.1:1", "--json"]
    )
    document = json.loads(capsys.readouterr().out)
    assert code == 2
    assert document["status"] == "error"
    assert "push" in document["error"]


def test_campaign_store_and_history_grouping(tmp_path, capsys):
    db = str(tmp_path / "campaign.db")
    code = main(
        ["campaign", "--seed", "5", *_FAST, "--store", db, "--json"]
    )
    document = json.loads(capsys.readouterr().out)
    assert code == 0
    assert document["store"] == db
    assert [r["run_id"] for r in document["rounds"]] == [1, 2, 3]

    code = main(["history", "--store", db, "--campaign", "camp-5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "campaign" in out
    assert "camp-5@0" in out and "camp-5@2" in out

    # The filter is exact: an unknown campaign matches nothing.
    code = main(["history", "--store", db, "--campaign", "nope"])
    out = capsys.readouterr().out
    assert "no runs for campaign nope" in out


def test_campaign_custom_name_and_trace_dir(tmp_path, capsys):
    trace_dir = tmp_path / "traces"
    code = main(
        ["campaign", "--seed", "5", "--rounds", "1", "--iterations", "40",
         "--campaign", "nightly", "--trace-dir", str(trace_dir), "--json"]
    )
    document = json.loads(capsys.readouterr().out)
    assert code == 0
    assert document["campaign"] == "nightly"
    names = sorted(p.name for p in trace_dir.iterdir())
    assert names == ["nightly-round0.lttng.txt", "nightly-round1.lttng.txt"]


def test_campaign_jobs_flag_has_no_effect(capsys):
    _, plain = _campaign_json(capsys)
    code = main(["campaign", "--seed", "5", *_FAST, "--json", "--jobs", "2"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == plain
    assert captured.err.count("\n") == 1
    assert "--jobs has no effect" in captured.err


def test_history_without_campaign_flag_still_works(tmp_path, capsys):
    db = str(tmp_path / "plain.db")
    main(["campaign", "--seed", "5", "--rounds", "1", "--iterations", "40",
          "--store", db])
    capsys.readouterr()
    code = main(["history", "--store", db])
    out = capsys.readouterr().out
    assert code == 0
    assert "run history" in out
