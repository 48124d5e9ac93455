"""Command-line interface: IOCov as a tool, not just a library.

Subcommands:

* ``analyze`` — compute input/output coverage of a trace file
  (LTTng text, strace, or syzkaller format) and print or dump it.
* ``compare`` — side-by-side coverage of two trace files.
* ``suites`` — run the simulated CrashMonkey/xfstests and report
  coverage (the paper's evaluation in one command).
* ``bugstudy`` — print the Section 2 bug-study table.
* ``difftest`` — run the coverage-guided differential tester against
  the built-in faulty kernel model.
* ``replay`` — replay a trace against a fresh VFS.
* ``lint`` — static consistency checks over the syscall spec and the
  VFS implementation (no trace needed).
* ``predict`` — static upper bound on the input partitions each
  built-in suite can reach, optionally checked against a live run.
* ``serve`` — the long-running coverage observability daemon: HTTP
  trace ingest, live snapshots, Prometheus ``/metrics``, durable runs.
* ``convert`` — re-encode a text trace as a compact binary ``.rbt``
  file (parsed once at conversion; analyzed at decode speed forever).
* ``push`` — stream a trace file to a running daemon (text or binary,
  optionally gzipped on the wire).
* ``history`` — the stored-run timeline from a run store.
* ``diff-runs`` — cross-run regression gate (lost partitions, TCD
  drift, count collapses) between two stored runs.

Exit codes are uniform across subcommands: 0 = clean, 1 = findings
(coverage gaps, lint errors, divergences, unexposed bugs, coverage
regressions), 2 = usage or internal error.  Every subcommand accepts
``--json``; the output is a single object carrying ``command``,
``status``, and ``exit_code`` alongside the subcommand's payload.

Examples::

    python -m repro analyze --format strace capture.log --mount /mnt/test
    python -m repro analyze trace.lttng.txt --json > coverage.json
    python -m repro analyze trace.lttng.txt --store runs.sqlite
    python -m repro compare a.lttng.txt b.lttng.txt --syscall open --arg flags
    python -m repro suites --suite crashmonkey --scale 1.0 --seed 7
    python -m repro bugstudy
    python -m repro difftest --rounds 6
    python -m repro lint --json
    python -m repro predict --suite xfstests --compare --scale 0.002
    python -m repro serve --port 9177 --mount /mnt/test --store runs.sqlite
    python -m repro convert trace.lttng.txt trace.rbt
    python -m repro analyze trace.rbt --json
    python -m repro push trace.lttng.txt --url 127.0.0.1:9177 --finalize
    python -m repro push trace.rbt --format binary --gzip
    python -m repro history --store runs.sqlite
    python -m repro diff-runs latest~1 latest --store runs.sqlite
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Sequence

from repro.core import IOCov, SuiteComparison
from repro.core.report import CoverageReport

#: Uniform exit codes (see module docstring).
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2

#: Text trace formats (what the parsers and the daemon accept).
_TEXT_FORMATS = ("lttng", "strace", "syzkaller")

_FORMAT_READERS = {
    "lttng": "consume_lttng_file",
    "strace": "consume_strace_file",
    "syzkaller": "consume_syzkaller_file",
    "rbt": "consume_rbt_file",
}


def _guess_format(path: str) -> str:
    lowered = path.lower()
    if lowered.endswith(".rbt"):
        return "rbt"
    try:
        from repro.trace.binary import MAGIC

        with open(path, "rb") as handle:
            if handle.read(len(MAGIC)) == MAGIC:
                return "rbt"
    except OSError:
        pass
    if lowered.endswith((".syz", ".syzkaller")):
        return "syzkaller"
    if "strace" in lowered:
        return "strace"
    return "lttng"


def _load_report(
    path: str, fmt: str | None, mount: str | None, name: str
) -> tuple[CoverageReport, dict | None]:
    """Serial analysis of one trace; returns (report, parse stats)."""
    fmt = fmt or _guess_format(path)
    iocov = IOCov(mount_point=mount, suite_name=name)
    getattr(iocov, _FORMAT_READERS[fmt])(path)
    return iocov.report(), iocov.parse_stats


def _emit_json(command: str, exit_code: int, payload: dict) -> int:
    """Print the uniform JSON envelope: payload keys stay top-level."""
    status = {EXIT_CLEAN: "clean", EXIT_FINDINGS: "findings"}.get(exit_code, "error")
    document = dict(payload)
    document["command"] = command
    document["status"] = status
    document["exit_code"] = exit_code
    print(json.dumps(document, indent=2, default=str))
    return exit_code


# -- subcommand handlers --------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> int:
    name = args.name or args.trace
    fmt = args.format or _guess_format(args.trace)
    if args.jobs is not None:
        print("repro analyze: --jobs has no effect", file=sys.stderr)
    started = time.monotonic()
    report, parse_stats = _load_report(args.trace, fmt, args.mount, name)
    wall_seconds = time.monotonic() - started
    run_id = None
    if args.store:
        from repro.obs.store import open_store

        with open_store(args.store) as store:
            run_id = store.save_report(
                report,
                trace_path=args.trace,
                trace_format=fmt,
                jobs=args.jobs,
                wall_seconds=wall_seconds,
            )
    if args.json:
        payload = report.to_dict()
        if parse_stats is not None:
            payload["parse"] = parse_stats
        if args.suggest:
            from repro.core.suggestions import suggest_tests

            payload["suggestions"] = [
                {
                    "syscall": s.syscall,
                    "partition": s.partition,
                    "priority": s.priority,
                    "gain": round(s.gain, 6),
                    "recipe": s.recipe,
                }
                for s in suggest_tests(report, limit=args.suggest)
            ]
        if run_id is not None:
            payload["run_id"] = run_id
            payload["store"] = args.store
        return _emit_json("analyze", EXIT_CLEAN, payload)
    print(report.render_text())
    if args.syscall:
        print()
        if args.arg:
            print(report.render_frequency_table("input", args.syscall, args.arg))
        print()
        print(report.render_frequency_table("output", args.syscall))
    if args.suggest:
        from repro.core.suggestions import render_suggestions

        print()
        print(render_suggestions(report, limit=args.suggest))
    if run_id is not None:
        print(f"\nstored as run {run_id} in {args.store}")
    return EXIT_CLEAN


def cmd_compare(args: argparse.Namespace) -> int:
    report_a, _ = _load_report(args.trace_a, args.format, args.mount, args.trace_a)
    report_b, _ = _load_report(args.trace_b, args.format, args.mount, args.trace_b)
    comparison = SuiteComparison(report_a, report_b)
    syscall = args.syscall or "open"
    only_a, only_b = comparison.only_covered_by(syscall, args.arg or "flags")
    if args.json:
        return _emit_json(
            "compare",
            EXIT_CLEAN,
            {
                "suite_a": report_a.suite_name,
                "suite_b": report_b.suite_name,
                "syscall": syscall,
                "arg": args.arg or "flags",
                "only_a": only_a,
                "only_b": only_b,
            },
        )
    if args.arg:
        print(comparison.render_text(syscall, args.arg))
    print()
    print(comparison.render_text(syscall))
    print(f"\nonly {report_a.suite_name}: {only_a or 'none'}")
    print(f"only {report_b.suite_name}: {only_b or 'none'}")
    return EXIT_CLEAN


def cmd_suites(args: argparse.Namespace) -> int:
    from repro.testsuites import CrashMonkeySuite, SuiteRunner, XfstestsSuite

    reports = []  # (label, scale, event_count, report)
    if args.suite == "fuzzer":
        from repro.testsuites.fuzzer import CoverageGuidedFuzzer

        fuzzer = CoverageGuidedFuzzer(seed=args.seed or 0)
        fuzzer.run(iterations=args.iterations)
        report = (
            IOCov(mount_point=fuzzer.mount_point, suite_name="fuzzer")
            .consume(fuzzer.all_events)
            .report()
        )
        reports.append(("fuzzer", None, len(fuzzer.all_events), report))
    else:
        runs = []
        if args.suite in ("crashmonkey", "both"):
            runs.append(("CrashMonkey", CrashMonkeySuite, args.scale if args.scale is not None else 1.0))
        if args.suite in ("xfstests", "both"):
            runs.append(("xfstests", XfstestsSuite, args.scale if args.scale is not None else 0.01))
        for label, suite_cls, scale in runs:
            run = SuiteRunner(suite_cls(scale=scale, seed=args.seed)).run()
            report = (
                IOCov(mount_point=run.mount_point, suite_name=label)
                .consume(run.events)
                .report()
            )
            reports.append((label, scale, run.event_count(), report))
    stored = []
    if args.store:
        from repro.obs.store import open_store

        with open_store(args.store) as store:
            for label, scale, _events, report in reports:
                stored.append(
                    store.save_report(
                        report,
                        trace_format="simulated",
                        seed=args.seed,
                        meta={"scale": scale} if scale is not None else None,
                    )
                )
    payload_runs = []
    for index, (label, scale, events, report) in enumerate(reports):
        if args.json:
            entry = {
                "suite": label,
                "scale": scale,
                "seed": args.seed,
                "events": events,
                "coverage": report.to_dict(),
            }
            if stored:
                entry["run_id"] = stored[index]
            payload_runs.append(entry)
        else:
            scale_note = f", scale {scale}" if scale is not None else ""
            seed_note = f", seed {args.seed}" if args.seed is not None else ""
            print(f"{label}: {events:,} events{scale_note}{seed_note}")
            print(report.render_text())
            if stored:
                print(f"stored as run {stored[index]} in {args.store}")
            print()
    if args.json:
        return _emit_json("suites", EXIT_CLEAN, {"runs": payload_runs})
    return EXIT_CLEAN


def cmd_bugstudy(args: argparse.Namespace) -> int:
    from repro.bugstudy import BugStudy

    study = BugStudy()
    deviations = study.verify_paper_statistics()
    exit_code = EXIT_FINDINGS if deviations else EXIT_CLEAN
    if args.json:
        return _emit_json(
            "bugstudy",
            exit_code,
            {
                "statistics": [
                    {
                        "name": stat.name,
                        "count": stat.count,
                        "total": stat.total,
                        "percent": stat.percent,
                        "paper_percent": stat.paper_percent,
                    }
                    for stat in study.statistics()
                ],
                "deviations": deviations,
            },
        )
    print(study.render_text())
    if deviations:
        print(f"DEVIATIONS from the paper: {deviations}")
        return exit_code
    print("\nall aggregates match the paper.")
    return exit_code


def cmd_difftest(args: argparse.Namespace) -> int:
    from repro.difftest import DifferentialTester, make_faulty, make_reference
    from repro.vfs.filesystem import FileSystem

    reference = make_reference(FileSystem(total_blocks=4096))
    under_test = make_faulty(FileSystem(total_blocks=4096))
    tester = DifferentialTester(reference, under_test)
    report = tester.run(rounds=args.rounds, max_ops_per_round=args.ops)
    exposed = sorted({bug_id for bug_id, _ in under_test.corruptions_applied})
    exit_code = EXIT_CLEAN if report.found_bugs else EXIT_FINDINGS
    if args.json:
        return _emit_json(
            "difftest",
            exit_code,
            {
                "found_bugs": report.found_bugs,
                "divergences": [d.describe() for d in report.divergences],
                "exposed": exposed,
            },
        )
    print(report.render_text())
    print(f"\ninjected bugs exposed: {exposed}")
    return exit_code


def cmd_replay(args: argparse.Namespace) -> int:
    from repro.trace.lttng import LttngParser
    from repro.trace.replay import TraceReplayer
    from repro.trace.strace import StraceParser
    from repro.trace.syzkaller import SyzkallerParser
    from repro.vfs.filesystem import FileSystem
    from repro.vfs.syscalls import SyscallInterface

    fmt = args.format or _guess_format(args.trace)
    if fmt == "rbt":
        from repro.trace.binary import read_rbt_events

        events = read_rbt_events(args.trace)
    else:
        parser = {
            "lttng": LttngParser(),
            "strace": StraceParser(),
            "syzkaller": SyzkallerParser(),
        }[fmt]
        events = parser.parse_file(args.trace)
    target = SyscallInterface(FileSystem(total_blocks=args.blocks))
    report = TraceReplayer(target).replay(events)
    exit_code = EXIT_CLEAN if report.faithful else EXIT_FINDINGS
    if args.json:
        return _emit_json(
            "replay",
            exit_code,
            {
                "faithful": report.faithful,
                "replayed": report.replayed,
                "skipped": report.skipped,
                "divergences": [d.describe() for d in report.divergences],
            },
        )
    print(report.render_text())
    return exit_code


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import lint_registry
    from repro.analysis.reachability import analyze_repo

    if args.concurrency:
        return _cmd_lint_concurrency(args)
    speclint = lint_registry()
    reachability = analyze_repo()
    exit_code = max(speclint.exit_code(), reachability.exit_code())
    if args.json:
        return _emit_json(
            "lint",
            exit_code,
            {
                "errors": len(speclint.errors) + len(reachability.errors),
                "warnings": len(speclint.warnings) + len(reachability.warnings),
                "reports": {
                    "speclint": speclint.to_dict(),
                    "reachability": reachability.to_dict(),
                },
            },
        )
    print(speclint.render_text())
    print()
    print(reachability.render_text())
    return exit_code


def _cmd_lint_concurrency(args: argparse.Namespace) -> int:
    from repro.analysis.concurrency import DEFAULT_BASELINE, analyze_concurrency

    baseline = args.baseline
    if baseline is None and os.path.isfile(DEFAULT_BASELINE):
        baseline = DEFAULT_BASELINE
    try:
        report = analyze_concurrency(targets=args.path or None, baseline=baseline)
    except (FileNotFoundError, OSError, ValueError) as exc:
        if args.json:
            return _emit_json("lint", EXIT_ERROR, {"error": str(exc)})
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    exit_code = report.exit_code()
    if args.json:
        return _emit_json(
            "lint",
            exit_code,
            {
                "errors": len(report.errors),
                "warnings": len(report.warnings),
                "reports": {"concurrency": report.to_dict()},
            },
        )
    print(report.render_text())
    return exit_code


def cmd_predict(args: argparse.Namespace) -> int:
    from repro.analysis.predict import (
        StaticPredictor,
        compare_with_dynamic,
        report_from_predictions,
    )

    suites = (
        ("crashmonkey", "xfstests") if args.suite == "both" else (args.suite,)
    )
    predictor = StaticPredictor()
    preds = [predictor.predict(name) for name in suites]
    report = report_from_predictions(preds)
    comparisons = []
    if args.compare:
        from repro.testsuites import CrashMonkeySuite, SuiteRunner, XfstestsSuite

        suite_classes = {"crashmonkey": CrashMonkeySuite, "xfstests": XfstestsSuite}
        default_scales = {"crashmonkey": 1.0, "xfstests": 0.01}
        for prediction in preds:
            scale = args.scale if args.scale is not None else default_scales[prediction.suite]
            suite = suite_classes[prediction.suite](scale=scale)
            run = SuiteRunner(suite).run()
            coverage = IOCov(
                mount_point=run.mount_point, suite_name=prediction.suite
            ).consume(run.events)
            comparison = compare_with_dynamic(prediction, coverage.input)
            comparisons.append(comparison)
            report.findings.extend(comparison.findings)
    exit_code = report.exit_code()
    if args.json:
        return _emit_json(
            "predict",
            exit_code,
            {
                "predictions": [p.to_dict() for p in preds],
                "comparisons": [c.to_dict() for c in comparisons],
                "errors": len(report.errors),
                "warnings": len(report.warnings),
            },
        )
    print(report.render_text())
    for prediction in preds:
        print()
        print(f"{prediction.suite}: {prediction.call_sites} syscall sites")
        for (base, arg), keys in sorted(prediction.partitions.items()):
            bound = "unbounded" if (base, arg) in prediction.unbounded else "bounded"
            print(f"  {base}.{arg}: {len(keys)} partitions predicted ({bound})")
    for comparison in comparisons:
        print()
        print(comparison.render_text())
    return exit_code


def _default_store() -> str:
    return os.environ.get("IOCOV_STORE", "iocov-runs.sqlite")


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs.server import StoreLockError, make_server

    try:
        server, recovered = make_server(
            args.host,
            args.port,
            fmt=args.format,
            mount_point=args.mount,
            suite_name=args.name,
            store_path=args.store,
            error_budget=args.error_budget,
            backend=args.backend,
            workers=args.workers,
            tenant=args.tenant,
            project=args.project,
        )
    except StoreLockError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return EXIT_ERROR
    server.install_signal_handlers()
    host, port = server.server_address[:2]
    if recovered:
        print(f"recovered {recovered} journaled lines", file=sys.stderr)
    # Readiness line carries the *actual* bound port (supports --port 0).
    print(f"serving on http://{host}:{port} (format={args.format})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.drain_and_stop()
    finally:
        server.server_close()
    return EXIT_CLEAN


def cmd_convert(args: argparse.Namespace) -> int:
    from repro.trace.binary import convert_file

    fmt = args.format or _guess_format(args.trace)
    if fmt == "rbt":
        print(f"repro convert: {args.trace} is already a .rbt trace", file=sys.stderr)
        return EXIT_ERROR
    info = convert_file(
        args.trace, args.output, fmt, frame_events=args.frame_events
    )
    if args.json:
        payload = dict(info)
        payload["output"] = args.output
        return _emit_json("convert", EXIT_CLEAN, payload)
    src_bytes = os.path.getsize(args.trace)
    dst_bytes = os.path.getsize(args.output)
    ratio = src_bytes / dst_bytes if dst_bytes else 0.0
    stats = info.get("parse_stats") or {}
    print(
        f"converted {args.trace} ({fmt}) -> {args.output}: "
        f"{info['events']:,} events in {info['frames']} frames, "
        f"{src_bytes:,} -> {dst_bytes:,} bytes ({ratio:.1f}x smaller)"
    )
    dropped = stats.get("skipped_lines", 0)
    if dropped:
        print(f"note: {dropped} input lines were skipped (recorded in header)")
    return EXIT_CLEAN


def cmd_push(args: argparse.Namespace) -> int:
    from repro.obs.client import PushError, push_file

    try:
        result = push_file(
            args.url,
            args.trace,
            finalize=args.finalize,
            transport=args.transport,
            gzip_body=args.gzip,
            timeout=args.timeout,
            tenant=args.tenant,
            project=args.project,
            retries=args.retries,
        )
    except ValueError as exc:
        print(f"push: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"push failed: {exc}", file=sys.stderr)
        if args.json:
            return _emit_json("push", EXIT_ERROR, {"error": str(exc)})
        return EXIT_ERROR
    except PushError as exc:
        if args.json:
            return _emit_json(
                "push", EXIT_ERROR, {"error": str(exc), "http_status": exc.status}
            )
        print(f"push rejected: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.json:
        return _emit_json("push", EXIT_CLEAN, result)
    print(
        f"pushed {args.trace}: {result.get('accepted_bytes', '?')} bytes, "
        f"{result.get('events_counted', '?')} events counted, "
        f"{result.get('new_parse_errors', 0)} new parse errors"
    )
    run = result.get("run")
    if run:
        print(f"stored as run {run['run_id']}")
    return EXIT_CLEAN


def cmd_history(args: argparse.Namespace) -> int:
    from repro.obs.regress import render_history
    from repro.obs.store import open_store

    with open_store(args.store or _default_store()) as store:
        if args.json:
            runs = [
                record.to_dict()
                for record in store.list_runs(
                    limit=args.limit, tenant=args.tenant,
                    project=args.project, campaign=args.campaign,
                )
            ]
            return _emit_json("history", EXIT_CLEAN, {"runs": runs})
        print(
            render_history(
                store, limit=args.limit,
                tenant=args.tenant, project=args.project,
                campaign=args.campaign,
            )
        )
    return EXIT_CLEAN


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import (
        CampaignError,
        CampaignRunner,
        default_stop_conditions,
    )

    stop_conditions = default_stop_conditions(
        rounds=args.rounds,
        plateau_rounds=args.plateau_rounds,
        min_delta=args.min_delta,
        max_seconds=args.max_seconds,
    )
    if args.jobs is not None:
        print("repro campaign: --jobs has no effect", file=sys.stderr)
    store_cm = None
    if args.store:
        from repro.obs.store import open_store

        store_cm = open_store(args.store)
    try:
        runner = CampaignRunner(
            seed=args.seed,
            iterations=args.iterations,
            campaign=args.campaign,
            stop_conditions=stop_conditions,
            store=store_cm,
            tenant=args.tenant or "default",
            project=args.project or "default",
            serve_url=args.serve_url,
            boost=args.boost,
            mount_point=args.mount,
            trace_dir=args.trace_dir,
        )
        result = runner.run()
    except CampaignError as exc:
        if args.json:
            return _emit_json("campaign", EXIT_ERROR, {"error": str(exc)})
        print(f"campaign: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        if store_cm is not None:
            store_cm.close()
    exit_code = EXIT_CLEAN if result.improved() else EXIT_FINDINGS
    if args.json:
        payload = result.to_dict()
        if args.store:
            payload["store"] = args.store
        return _emit_json("campaign", exit_code, payload)
    print(
        f"campaign {result.campaign}: {len(result.rounds)} rounds "
        f"(seed {result.seed}, {result.iterations} iterations/round), "
        f"stopped: {result.stop_reason}"
    )
    print(f"{'round':>5} {'events':>8} {'corpus':>7} {'tcd':>10} "
          f"{'delta':>9} {'new in':>7} {'new out':>8}")
    for entry in result.rounds:
        print(
            f"{entry.index:>5} {entry.events:>8,} {entry.corpus_size:>7} "
            f"{entry.tcd:>10.4f} {entry.tcd_delta:>9.4f} "
            f"{len(entry.new_input_partitions):>7} "
            f"{len(entry.new_output_partitions):>8}"
        )
    new_in, new_out = result.new_partitions_after_baseline()
    print(
        f"TCD {result.baseline_tcd:.4f} -> {result.final_tcd:.4f}; "
        f"{len(new_in)} input / {len(new_out)} output partitions newly "
        f"covered beyond the round-0 baseline"
    )
    if args.store:
        ids = [e.run_id for e in result.rounds if e.run_id is not None]
        if ids:
            print(f"rounds stored as runs {ids[0]}..{ids[-1]} in {args.store}")
    if not result.improved():
        print("no improvement over the baseline (exit 1)")
    return exit_code


def cmd_diff_runs(args: argparse.Namespace) -> int:
    from repro.obs.regress import diff_stored_runs
    from repro.obs.store import open_store

    with open_store(args.store or _default_store()) as store:
        report, id_a, id_b = diff_stored_runs(
            store,
            args.run_a,
            args.run_b,
            tcd_threshold=args.tcd_threshold,
            collapse_factor=args.collapse_factor,
            tenant=args.tenant,
            project=args.project,
        )
    exit_code = report.exit_code()
    if args.json:
        payload = report.to_dict()
        payload["run_a"] = id_a
        payload["run_b"] = id_b
        return _emit_json("diff-runs", exit_code, payload)
    print(f"comparing run {id_a} -> run {id_b}")
    print(report.render_text())
    return exit_code


def cmd_migrate_store(args: argparse.Namespace) -> int:
    from repro.obs.sharded import migrate_single_to_sharded

    try:
        summary = migrate_single_to_sharded(args.source, args.dest)
    except FileExistsError as exc:
        print(f"migrate-store: {exc}", file=sys.stderr)
        return EXIT_ERROR
    total_runs = sum(summary["runs"].values())
    total_journal = sum(summary["journal_records"].values())
    if args.json:
        payload = dict(summary)
        payload["source"] = args.source
        payload["dest"] = args.dest
        return _emit_json("migrate-store", EXIT_CLEAN, payload)
    print(
        f"migrated {args.source} -> {args.dest}: {total_runs} runs, "
        f"{total_journal} journal records, "
        f"{len(summary['runs']) or 1} namespace(s)"
    )
    for namespace, count in sorted(summary["runs"].items()):
        print(f"  {namespace}: {count} runs")
    return EXIT_CLEAN


# -- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IOCov: input/output coverage for file-system testing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="coverage of one trace file")
    analyze.add_argument("trace", help="trace file path")
    analyze.add_argument("--format", choices=sorted(_FORMAT_READERS))
    analyze.add_argument("--mount", help="tester mount point (scoping filter)")
    analyze.add_argument("--name", help="suite label for the report")
    analyze.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="no effect; kept for compatibility (analysis is one serial "
        "pass)",
    )
    analyze.add_argument("--json", action="store_true", help="dump JSON")
    analyze.add_argument("--syscall", help="print one syscall's tables")
    analyze.add_argument("--arg", help="input argument for --syscall")
    analyze.add_argument(
        "--suggest",
        type=int,
        nargs="?",
        const=15,
        default=0,
        help="print up to N concrete test suggestions for the gaps "
        "(with --json, included as a 'suggestions' list)",
    )
    analyze.add_argument(
        "--store",
        metavar="DB",
        help="persist the run into this SQLite run store",
    )
    analyze.set_defaults(handler=cmd_analyze)

    compare = sub.add_parser("compare", help="coverage of two trace files")
    compare.add_argument("trace_a")
    compare.add_argument("trace_b")
    compare.add_argument("--format", choices=sorted(_FORMAT_READERS))
    compare.add_argument("--mount")
    compare.add_argument("--syscall", default="open")
    compare.add_argument("--arg", default="flags")
    compare.add_argument("--json", action="store_true", help="dump JSON")
    compare.set_defaults(handler=cmd_compare)

    suites = sub.add_parser("suites", help="run the simulated testers")
    suites.add_argument(
        "--suite",
        choices=("crashmonkey", "xfstests", "both", "fuzzer"),
        default="both",
    )
    suites.add_argument("--scale", type=float, default=None)
    suites.add_argument(
        "--seed",
        type=int,
        default=None,
        help="deterministic RNG seed for the suite generators / fuzzer",
    )
    suites.add_argument(
        "--iterations",
        type=int,
        default=200,
        help="fuzzer iterations (only with --suite fuzzer)",
    )
    suites.add_argument(
        "--store",
        metavar="DB",
        help="persist each suite run into this SQLite run store",
    )
    suites.add_argument("--json", action="store_true", help="dump JSON")
    suites.set_defaults(handler=cmd_suites)

    bugstudy = sub.add_parser("bugstudy", help="the Section 2 table")
    bugstudy.add_argument("--json", action="store_true", help="dump JSON")
    bugstudy.set_defaults(handler=cmd_bugstudy)

    difftest = sub.add_parser("difftest", help="coverage-guided differential run")
    difftest.add_argument("--rounds", type=int, default=8)
    difftest.add_argument("--ops", type=int, default=80)
    difftest.add_argument("--json", action="store_true", help="dump JSON")
    difftest.set_defaults(handler=cmd_difftest)

    replay = sub.add_parser("replay", help="replay a trace against a fresh VFS")
    replay.add_argument("trace")
    replay.add_argument("--format", choices=sorted(_FORMAT_READERS))
    replay.add_argument(
        "--blocks", type=int, default=262144, help="target device size in 4K blocks"
    )
    replay.add_argument("--json", action="store_true", help="dump JSON")
    replay.set_defaults(handler=cmd_replay)

    lint = sub.add_parser(
        "lint", help="static spec/implementation consistency checks"
    )
    lint.add_argument("--json", action="store_true", help="dump JSON")
    lint.add_argument(
        "--concurrency",
        action="store_true",
        help="run the static concurrency pass (lock-order, guarded "
        "fields, blocking-under-lock) instead of the spec linters",
    )
    lint.add_argument(
        "--path",
        action="append",
        metavar="TARGET",
        help="with --concurrency: analyze this path (relative to the "
        "repro package; a directory, a .py file, or '.' for the whole "
        "package); repeatable, default is the concurrent subsystems",
    )
    lint.add_argument(
        "--baseline",
        metavar="FILE",
        help="with --concurrency: baseline JSON of accepted findings "
        f"(default: {'.concurrency-baseline.json'} when present)",
    )
    lint.set_defaults(handler=cmd_lint)

    predict = sub.add_parser(
        "predict", help="static upper bound on per-suite input partitions"
    )
    predict.add_argument(
        "--suite", choices=("crashmonkey", "xfstests", "both"), default="both"
    )
    predict.add_argument(
        "--compare",
        action="store_true",
        help="also run the suite(s) and check the traced coverage is a "
        "subset of the prediction",
    )
    predict.add_argument(
        "--scale", type=float, default=None, help="suite scale for --compare"
    )
    predict.add_argument("--json", action="store_true", help="dump JSON")
    predict.set_defaults(handler=cmd_predict)

    serve = sub.add_parser(
        "serve", help="run the coverage observability daemon"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=9177,
        help="listen port (0 = pick a free port; printed on startup)",
    )
    serve.add_argument(
        "--format",
        choices=sorted(_TEXT_FORMATS),
        default="lttng",
        help="text trace format pushed to /ingest (binary .rbt bodies "
        "are self-describing and accepted regardless)",
    )
    serve.add_argument("--mount", help="tester mount point (scoping filter)")
    serve.add_argument("--name", default="live", help="suite label for /live")
    serve.add_argument(
        "--store",
        metavar="PATH",
        help="run store for POST /runs snapshots, the crash journal, "
        "and GET /runs: a .sqlite file (single backend) or a directory "
        "(sharded backend); omitted = in-memory only",
    )
    serve.add_argument(
        "--backend",
        choices=("auto", "single", "sharded"),
        default="auto",
        help="store backend (auto: directories are sharded, files are "
        "single-file SQLite)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=8,
        help="HTTP worker-pool size (concurrent request handlers)",
    )
    serve.add_argument(
        "--tenant",
        default="default",
        help="default namespace tenant for unprefixed routes",
    )
    serve.add_argument(
        "--project",
        default="default",
        help="default namespace project for unprefixed routes",
    )
    serve.add_argument(
        "--error-budget",
        type=float,
        default=None,
        help="max malformed-line fraction before the session degrades",
    )
    serve.set_defaults(handler=cmd_serve)

    convert = sub.add_parser(
        "convert", help="convert a text trace to the binary .rbt format"
    )
    convert.add_argument("trace", help="text trace file path")
    convert.add_argument("output", help="output .rbt path")
    convert.add_argument(
        "--format",
        choices=sorted(_TEXT_FORMATS),
        help="input trace format (default: guessed from the path)",
    )
    convert.add_argument(
        "--frame-events",
        type=int,
        default=8192,
        metavar="N",
        help="events per .rbt frame (streaming granularity)",
    )
    convert.add_argument("--json", action="store_true", help="dump JSON")
    convert.set_defaults(handler=cmd_convert)

    push = sub.add_parser("push", help="stream a trace file to a daemon")
    push.add_argument("trace", help="trace file path")
    push.add_argument(
        "--url",
        default="127.0.0.1:9177",
        help="daemon address (host:port or http://host:port)",
    )
    push.add_argument(
        "--finalize",
        action="store_true",
        help="snapshot the live coverage into the daemon's run store",
    )
    push.add_argument(
        "--format",
        dest="transport",
        choices=("auto", "text", "binary"),
        default="auto",
        help="wire format: binary requires a .rbt file (see `repro "
        "convert`); auto sniffs the file's magic",
    )
    push.add_argument(
        "--gzip",
        action="store_true",
        help="gzip the request body (Content-Encoding: gzip)",
    )
    push.add_argument(
        "--tenant", default=None, help="namespace tenant to push into"
    )
    push.add_argument(
        "--project", default=None, help="namespace project to push into"
    )
    push.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="per-request timeout in seconds",
    )
    push.add_argument(
        "--retries",
        type=int,
        default=3,
        help="transparent retries of connect failures and 503 answers "
        "(exponential backoff with jitter)",
    )
    push.add_argument("--json", action="store_true", help="dump JSON")
    push.set_defaults(handler=cmd_push)

    history = sub.add_parser("history", help="stored-run timeline")
    history.add_argument(
        "--store", default=None, help="run store path (default: $IOCOV_STORE)"
    )
    history.add_argument("--limit", type=int, default=20)
    history.add_argument(
        "--tenant", default=None, help="only runs from this tenant"
    )
    history.add_argument(
        "--project", default=None, help="only runs from this project"
    )
    history.add_argument(
        "--campaign",
        default=None,
        help="only rounds of this campaign (matches the campaign meta "
        "tag `repro campaign` writes)",
    )
    history.add_argument("--json", action="store_true", help="dump JSON")
    history.set_defaults(handler=cmd_history)

    campaign = sub.add_parser(
        "campaign",
        help="run a coverage-guided feedback campaign "
        "(generate → count → re-weight until TCD plateaus)",
    )
    campaign.add_argument(
        "--seed",
        type=int,
        default=0,
        help="master seed; the whole campaign (rounds, weights, JSON "
        "envelope) is deterministic under it",
    )
    campaign.add_argument(
        "--rounds",
        type=int,
        default=3,
        help="weighted-round budget (round 0, the unbiased baseline, "
        "is free)",
    )
    campaign.add_argument(
        "--iterations",
        type=int,
        default=200,
        help="fuzzer executions per round",
    )
    campaign.add_argument(
        "--plateau-rounds",
        type=int,
        default=2,
        metavar="K",
        help="stop after K consecutive rounds below --min-delta",
    )
    campaign.add_argument(
        "--min-delta",
        type=float,
        default=1e-3,
        help="TCD improvement under this counts toward the plateau",
    )
    campaign.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="wall-clock budget for the whole campaign",
    )
    campaign.add_argument(
        "--boost",
        type=float,
        default=8.0,
        help="mutation-weight boost on targeted untested partitions",
    )
    campaign.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="no effect; kept for compatibility (rounds are counted in "
        "memory)",
    )
    campaign.add_argument(
        "--campaign",
        default=None,
        metavar="NAME",
        help="campaign id for store/history grouping (default: "
        "derived from the seed)",
    )
    campaign.add_argument(
        "--store",
        metavar="DB",
        help="persist each round into this run store (file or sharded "
        "directory)",
    )
    campaign.add_argument(
        "--serve-url",
        default=None,
        help="also push each round's trace to this obs daemon "
        "(host:port; runs the campaign as a long-lived obs job)",
    )
    campaign.add_argument(
        "--tenant", default=None, help="store/daemon namespace tenant"
    )
    campaign.add_argument(
        "--project", default=None, help="store/daemon namespace project"
    )
    campaign.add_argument(
        "--mount",
        default="/mnt/fuzz",
        help="mount point the generated programs run under",
    )
    campaign.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="keep per-round trace files here (default: write none)",
    )
    campaign.add_argument("--json", action="store_true", help="dump JSON")
    campaign.set_defaults(handler=cmd_campaign)

    diff_runs = sub.add_parser(
        "diff-runs", help="cross-run coverage regression gate"
    )
    diff_runs.add_argument(
        "run_a", help="baseline run: an id, 'latest', or 'latest~N'"
    )
    diff_runs.add_argument("run_b", help="candidate run (same forms)")
    diff_runs.add_argument(
        "--store", default=None, help="run store path (default: $IOCOV_STORE)"
    )
    diff_runs.add_argument(
        "--tcd-threshold",
        type=float,
        default=0.5,
        help="TCD drift beyond this is a regression",
    )
    diff_runs.add_argument(
        "--collapse-factor",
        type=float,
        default=100.0,
        help="normalized count drop by this factor is a collapse warning",
    )
    diff_runs.add_argument(
        "--tenant", default=None, help="resolve refs inside this tenant"
    )
    diff_runs.add_argument(
        "--project", default=None, help="resolve refs inside this project"
    )
    diff_runs.add_argument("--json", action="store_true", help="dump JSON")
    diff_runs.set_defaults(handler=cmd_diff_runs)

    migrate = sub.add_parser(
        "migrate-store",
        help="copy a single-file run store into a sharded directory",
    )
    migrate.add_argument("source", help="existing .sqlite store file")
    migrate.add_argument("dest", help="destination sharded store directory")
    migrate.add_argument("--json", action="store_true", help="dump JSON")
    migrate.set_defaults(handler=cmd_migrate_store)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; keep the
        # convention but always *return* so callers get an int.
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    try:
        return args.handler(args)
    except BrokenPipeError:
        raise
    except Exception as exc:  # internal error -> 2, message on stderr
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
