"""CLI tests: every subcommand, both output modes."""

import json
import os

import pytest

from repro.cli import main
from repro.trace.lttng import LttngWriter
from repro.trace.recorder import TraceRecorder
from repro.vfs import constants as C
from repro.vfs.filesystem import FileSystem
from repro.vfs.syscalls import SyscallInterface


@pytest.fixture
def trace_file(tmp_path):
    fs = FileSystem()
    sc = SyscallInterface(fs)
    recorder = TraceRecorder()
    recorder.attach(sc)
    sc.mkdir("/mnt", 0o755)
    sc.mkdir("/mnt/test", 0o755)
    fd = sc.open("/mnt/test/f", C.O_CREAT | C.O_RDWR, 0o644).retval
    sc.write(fd, count=2048)
    sc.close(fd)
    sc.open("/mnt/test/missing", C.O_RDONLY)
    path = tmp_path / "trace.lttng.txt"
    path.write_text(LttngWriter().dumps(recorder.events))
    return str(path)


def test_analyze_text_output(trace_file, capsys):
    assert main(["analyze", trace_file, "--mount", "/mnt/test"]) == 0
    out = capsys.readouterr().out
    assert "IOCov report" in out
    assert "untested" in out


def test_analyze_json_output(trace_file, capsys):
    assert main(["analyze", trace_file, "--mount", "/mnt/test", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["input_coverage"]["write"]["count"]["2^11"] == 1
    assert data["output_coverage"]["open"]["ENOENT"] == 1


def test_analyze_specific_syscall_tables(trace_file, capsys):
    assert (
        main(
            [
                "analyze", trace_file,
                "--mount", "/mnt/test",
                "--syscall", "open",
                "--arg", "flags",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "input coverage: open.flags" in out
    assert "output coverage: open" in out


def test_analyze_with_suggestions(trace_file, capsys):
    assert main(["analyze", trace_file, "--mount", "/mnt/test", "--suggest"]) == 0
    out = capsys.readouterr().out
    assert "suggested new tests" in out
    assert "[" in out  # syscall-tagged suggestion lines


def test_analyze_strace_format(tmp_path, capsys):
    path = tmp_path / "cap.strace"
    path.write_text('open("/mnt/test/f", O_RDONLY) = 3\nclose(3) = 0\n')
    assert main(["analyze", str(path), "--format", "strace"]) == 0
    assert "IOCov report" in capsys.readouterr().out


def test_format_guessing(tmp_path):
    from repro.cli import _guess_format

    assert _guess_format("prog.syz") == "syzkaller"
    assert _guess_format("capture.strace.log") == "strace"
    assert _guess_format("trace.txt") == "lttng"


def test_compare(trace_file, capsys):
    assert main(["compare", trace_file, trace_file]) == 0
    out = capsys.readouterr().out
    assert "open.flags" in out
    assert "only" in out


def test_bugstudy(capsys):
    assert main(["bugstudy"]) == 0
    out = capsys.readouterr().out
    assert "input bugs" in out
    assert "all aggregates match the paper." in out


def test_difftest(capsys):
    assert main(["difftest", "--rounds", "4", "--ops", "40"]) == 0
    out = capsys.readouterr().out
    assert "divergences found" in out
    assert "injected bugs exposed" in out


def test_replay_faithful(trace_file, capsys):
    assert main(["replay", trace_file]) == 0
    out = capsys.readouterr().out
    assert "replayed" in out and "0 divergent" in out


def test_replay_divergent_on_tiny_device(trace_file, capsys):
    assert main(["replay", trace_file, "--blocks", "1"]) == 1
    assert "divergent" in capsys.readouterr().out


def test_suites_crashmonkey_small(capsys):
    assert main(["suites", "--suite", "crashmonkey", "--scale", "0.02"]) == 0
    out = capsys.readouterr().out
    assert "CrashMonkey" in out and "events" in out


# -- uniform exit codes and JSON envelope -------------------------------------


def envelope(capsys):
    data = json.loads(capsys.readouterr().out)
    assert {"command", "status", "exit_code"} <= set(data)
    return data


def test_usage_error_exits_2(capsys):
    assert main(["no-such-subcommand"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_internal_error_exits_2(capsys):
    assert main(["analyze", "/nonexistent/trace.txt"]) == 2
    err = capsys.readouterr().err
    assert "repro analyze: error:" in err


def test_analyze_json_envelope(trace_file, capsys):
    assert main(["analyze", trace_file, "--mount", "/mnt/test", "--json"]) == 0
    data = envelope(capsys)
    assert data["command"] == "analyze"
    assert data["status"] == "clean"
    assert data["exit_code"] == 0
    # Payload keys stay top-level (backward compatibility).
    assert "input_coverage" in data and "output_coverage" in data


def test_compare_json_envelope(trace_file, capsys):
    assert main(["compare", trace_file, trace_file, "--json"]) == 0
    data = envelope(capsys)
    assert data["command"] == "compare"
    assert data["only_a"] == [] and data["only_b"] == []


def test_bugstudy_json_envelope(capsys):
    assert main(["bugstudy", "--json"]) == 0
    data = envelope(capsys)
    assert data["command"] == "bugstudy"
    assert data["deviations"] == []
    assert all(
        {"name", "count", "total", "percent"} <= set(stat)
        for stat in data["statistics"]
    )


def test_difftest_json_envelope(capsys):
    code = main(["difftest", "--rounds", "4", "--ops", "40", "--json"])
    data = envelope(capsys)
    assert data["command"] == "difftest"
    assert code == (0 if data["found_bugs"] else 1)
    assert data["status"] == ("clean" if code == 0 else "findings")


def test_replay_json_envelope(trace_file, capsys):
    assert main(["replay", trace_file, "--json"]) == 0
    data = envelope(capsys)
    assert data["command"] == "replay"
    assert data["faithful"] is True
    assert data["replayed"] > 0


def test_suites_json_envelope(capsys):
    assert main(["suites", "--suite", "crashmonkey", "--scale", "0.02", "--json"]) == 0
    data = envelope(capsys)
    assert data["command"] == "suites"
    (run,) = data["runs"]
    assert run["suite"] == "CrashMonkey"
    assert run["events"] > 0
    assert "input_coverage" in run["coverage"]


# -- the static-analysis subcommands ------------------------------------------


def test_lint_clean_repo_exits_0(capsys):
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "speclint: 0 errors" in out
    assert "reachability: 0 errors" in out


def test_lint_json_envelope(capsys):
    assert main(["lint", "--json"]) == 0
    data = envelope(capsys)
    assert data["command"] == "lint"
    assert data["errors"] == 0
    assert data["warnings"] > 0  # manpage-only errno partitions
    assert set(data["reports"]) == {"speclint", "reachability"}
    assert data["reports"]["speclint"]["tool"] == "speclint"


def test_predict_text_output(capsys):
    assert main(["predict", "--suite", "crashmonkey"]) == 0
    out = capsys.readouterr().out
    assert "syscall sites" in out
    assert "open.flags" in out
    assert "unbounded" in out


def test_predict_json_envelope(capsys):
    assert main(["predict", "--suite", "xfstests", "--json"]) == 0
    data = envelope(capsys)
    assert data["command"] == "predict"
    (prediction,) = data["predictions"]
    assert prediction["suite"] == "xfstests"
    assert "open.flags" in prediction["partitions"]
    assert data["comparisons"] == []


def test_predict_compare_holds_on_live_suite(capsys):
    assert (
        main(
            [
                "predict", "--suite", "crashmonkey",
                "--compare", "--scale", "0.1", "--json",
            ]
        )
        == 0
    )
    data = envelope(capsys)
    (comparison,) = data["comparisons"]
    assert comparison["errors"] == 0
    assert comparison["stats"]["violations"] == 0


# -- convert and binary traces ------------------------------------------------


def test_convert_then_analyze_binary_matches_text(trace_file, tmp_path, capsys):
    rbt = str(tmp_path / "trace.rbt")
    assert main(["convert", trace_file, rbt]) == 0
    out = capsys.readouterr().out
    assert "events" in out and "frames" in out
    assert main(["analyze", trace_file, "--mount", "/mnt/test", "--json", "--name", "t"]) == 0
    text_doc = envelope(capsys)
    assert main(["analyze", rbt, "--mount", "/mnt/test", "--json", "--name", "t"]) == 0
    binary_doc = envelope(capsys)
    assert binary_doc == text_doc


def test_convert_json_envelope(trace_file, tmp_path, capsys):
    rbt = str(tmp_path / "trace.rbt")
    assert main(["convert", trace_file, rbt, "--json"]) == 0
    data = envelope(capsys)
    assert data["command"] == "convert"
    assert data["events"] > 0
    assert data["parse_stats"]["format"] == "lttng"
    assert data["output"] == rbt


def test_convert_writes_frames_of_the_default_size(tmp_path, monkeypatch, capsys):
    """Without ``--frame-events``, frames hold ``DEFAULT_FRAME_EVENTS``."""
    from repro.trace import binary

    monkeypatch.setattr(binary, "DEFAULT_FRAME_EVENTS", 50)
    rbt = str(tmp_path / "mini.rbt")
    mini = os.path.join(os.path.dirname(__file__), "fixtures", "mini.lttng.txt")
    assert main(["convert", mini, rbt, "--json"]) == 0
    assert envelope(capsys)["frames"] == 3
    assert [len(batch) for batch in binary.RbtReader(rbt)] == [50, 50, 20]


def test_convert_rejects_rbt_input(trace_file, tmp_path, capsys):
    rbt = str(tmp_path / "trace.rbt")
    assert main(["convert", trace_file, rbt]) == 0
    capsys.readouterr()
    assert main(["convert", rbt, str(tmp_path / "again.rbt")]) == 2


def test_analyze_json_carries_parse_stats(trace_file, capsys):
    assert main(["analyze", trace_file, "--mount", "/mnt/test", "--json"]) == 0
    data = envelope(capsys)
    assert data["parse"] == {
        "format": "lttng",
        "skipped_lines": 0,
        "malformed_lines": 0,
        "unpaired_entries": 0,
    }


def test_analyze_parse_stats_identical_serial_vs_jobs(trace_file, capsys):
    assert main(["analyze", trace_file, "--name", "t", "--json"]) == 0
    serial = envelope(capsys)
    assert main(["analyze", trace_file, "--name", "t", "--json", "--jobs", "2"]) == 0
    sharded = envelope(capsys)
    assert sharded["parse"] == serial["parse"]
    assert sharded["input_coverage"] == serial["input_coverage"]


def test_analyze_jobs_runs_the_serial_reader(trace_file, capsys):
    assert main(["analyze", trace_file, "--name", "t", "--json"]) == 0
    serial = capsys.readouterr()
    assert serial.err == ""
    for jobs in ("2", "0"):
        assert main(["analyze", trace_file, "--name", "t", "--json", "--jobs", jobs]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["repro analyze: --jobs has no effect"]
        assert captured.out == serial.out


def test_replay_accepts_rbt(trace_file, tmp_path, capsys):
    rbt = str(tmp_path / "trace.rbt")
    assert main(["convert", trace_file, rbt]) == 0
    capsys.readouterr()
    code = main(["replay", rbt, "--json"])
    data = envelope(capsys)
    assert code in (0, 1)
    assert data["replayed"] > 0
