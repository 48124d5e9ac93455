"""The repository benchmark: ``analyze`` and ``campaign``.

Run from the repository root::

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 12 --trace 0

Set-up builds the workload's inputs from ``--seed`` (several times, to
time set-up and to check that the same seed gives the same bytes) and
computes the reference outputs in memory.  A fresh interpreter
(``perfbench/measure.py``) then times the workload for ``--seconds``
and checks every output against the reference.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from speed import Timed  # noqa: E402

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Calibrated xfstests scale of the ``analyze`` trace (~93k events,
#: ~26 MB of LTTng text).
ANALYZE_SCALE = 0.005

#: The ``push`` variant of traced ``analyze`` runs: push segments per
#: tenant, and tenants (= closed-loop push clients).
SEGMENTS = 100
TENANTS = 2

#: ``campaign``: fuzzer executions per round, weighted rounds, and the
#: campaign seeds each set-up repeat prepares.
ITERATIONS = 250
ROUNDS = 3
CAMPAIGNS_PER_SETUP = 2

MOUNT = "/mnt/test"

#: Traced runs: the named layers' self times (``other_s`` left out) must
#: cover all but at most this share of the traced wall time.
SELF_TIME_TOLERANCE = 0.05

#: The measuring process gets this long beyond ``--seconds``.
CHILD_GRACE_S = 90


def _digest(*paths: str) -> str:
    sha = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                sha.update(block)
    return sha.hexdigest()


def _suite_events(scale: float, seed: int, timings: dict) -> list:
    """A calibrated xfstests run with its tests in a seeded order.

    The simulated suite's trace does not depend on its ``seed``
    argument, so the seed picks the test order instead, as xfstests'
    ``check -r`` does; the calibration pass then tops the trace up to
    the paper's profile as usual.
    """
    from repro.testsuites import SuiteRunner, XfstestsSuite

    class ShuffledXfstests(XfstestsSuite):
        def workloads(self):
            tests = list(super().workloads())
            random.Random(seed).shuffle(tests)
            return tests

    start = time.perf_counter()
    events = SuiteRunner(ShuffledXfstests(scale=scale, seed=seed)).run().events
    timings["suite_run_s"] = time.perf_counter() - start
    return events


def _push_segments(directory: str, events: list) -> tuple[dict, str]:
    """Split *events* into ``TENANTS`` shares of ``SEGMENTS`` LTTng files.

    Returns the push plan (segments, the cumulative ``events_counted``
    each push must answer, each tenant's reference ``/live`` body) and a
    digest of everything written.
    """
    from repro.core import IOCov
    from repro.trace.lttng import LttngWriter

    writer = LttngWriter()
    share = len(events) // TENANTS
    tenants, paths, total_bytes = [], [], 0
    for k in range(TENANTS):
        part = events[k * share:(k + 1) * share if k < TENANTS - 1 else len(events)]
        segments, expected = [], []
        bounds = [len(part) * i // SEGMENTS for i in range(SEGMENTS + 1)]
        for i in range(SEGMENTS):
            path = os.path.join(directory, f"tenant{k}-{i:03d}.lttng.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(writer.dumps(part[bounds[i]:bounds[i + 1]]))
            total_bytes += os.path.getsize(path)
            segments.append(path)
            expected.append(bounds[i + 1])
        report = IOCov(mount_point=MOUNT, suite_name="live").consume(part).report()
        reference = os.path.join(directory, f"tenant{k}-reference.json")
        with open(reference, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
        tenants.append({"segments": segments, "expected": expected,
                        "reference": reference, "events": len(part)})
        paths += segments + [reference]
    return {"tenants": tenants, "push_bytes": total_bytes}, _digest(*paths)


def setup_analyze(directory: str, seed: int, rep: int, push: bool) -> dict:
    """The xfstests trace as LTTng text and ``.rbt``, and its report.

    With *push* (traced runs), also the push segments of the ``push``
    variant, which measures the ``obs`` layer.
    """
    from repro.campaign.runner import aggregate_tcd
    from repro.core import IOCov
    from repro.trace.binary import convert_file
    from repro.trace.lttng import LttngWriter

    timings: dict = {}
    events = _suite_events(ANALYZE_SCALE, seed, timings)
    text = os.path.join(directory, "trace.lttng.txt")
    rbt = os.path.join(directory, "trace.rbt")
    reference = os.path.join(directory, "reference.json")
    with open(text, "w", encoding="utf-8") as handle:
        LttngWriter().write(events, handle)
    convert_file(text, rbt, "lttng")
    report = IOCov(mount_point=MOUNT, suite_name="xfstests").consume(events).report()
    with open(reference, "w", encoding="utf-8") as handle:
        handle.write(report.to_json())
    plan = {"text": text, "rbt": rbt, "reference": reference,
            "mount": MOUNT, "suite": "xfstests"}
    digest = _digest(text, reference)
    if push:
        pushes, push_digest = _push_segments(directory, events)
        plan.update(pushes)
        digest += push_digest
    return {
        "plan": plan,
        "digest": digest,
        "final_tcd": aggregate_tcd(report),
        "inputs": {"events": len(events), "text_bytes": os.path.getsize(text),
                   "rbt_bytes": os.path.getsize(rbt)},
        "timings": timings,
    }


def setup_campaign(directory: str, seed: int, rep: int, push: bool) -> dict:
    """Reference runs of ``CAMPAIGNS_PER_SETUP`` campaign seeds.

    Each set-up repeat prepares its own campaign seeds, so a run covers
    several campaigns: peak memory and throughput of one seed's
    programs vary by ~20% from seed to seed.
    """
    from repro.campaign import CampaignRunner, RoundBudget

    campaigns, tcds, events = [], [], 0
    for k in range(CAMPAIGNS_PER_SETUP):
        campaign_seed = (seed * SETUP_REPEATS + rep) * CAMPAIGNS_PER_SETUP + k
        result = CampaignRunner(
            seed=campaign_seed, iterations=ITERATIONS,
            stop_conditions=[RoundBudget(ROUNDS)],
        ).run()
        reference = os.path.join(directory, f"reference{k}.json")
        with open(reference, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(result.to_dict(), sort_keys=True))
        campaigns.append({"reference": reference, "seed": campaign_seed})
        tcds.append(result.final_tcd)
        events += sum(r.events for r in result.rounds)
    return {
        "plan": {"campaigns": campaigns, "iterations": ITERATIONS, "rounds": ROUNDS},
        "digest": None,
        "final_tcd": statistics.mean(tcds),
        "inputs": {"events": events, "iterations": ITERATIONS, "rounds": ROUNDS + 1},
        "timings": {},
    }


SETUPS = {"analyze": setup_analyze, "campaign": setup_campaign}

#: Passes a run makes even past ``--seconds`` (one more when traced):
#: a ``campaign`` run covers each of its campaign seeds once.
MIN_PASSES = {"analyze": 1, "campaign": SETUP_REPEATS * CAMPAIGNS_PER_SETUP}

#: The variant each end-to-end throughput metric reads.
MAIN_VARIANT = {"analyze": "text", "campaign": "serial"}


def set_up(workload: str, seed: int, work: str, push: bool) -> dict:
    """Run set-up ``SETUP_REPEATS`` times.

    Repeats that rebuild the same inputs must produce identical bytes;
    the first copy's files are kept.  ``campaign`` repeats prepare one
    campaign seed each, and all of them are kept.
    """
    runs = []
    for rep in range(SETUP_REPEATS):
        directory = os.path.join(work, f"setup{rep}")
        os.makedirs(directory)
        with Timed() as timed:
            info = SETUPS[workload](directory, seed, rep, push)
        info["raw_s"], info["scaled_s"] = timed.raw_s, timed.raw_s * timed.factor
        runs.append(info)
        if rep and info["digest"] is not None:
            shutil.rmtree(directory)
    first = dict(runs[0])
    if first["digest"] is None:
        first["plan"] = dict(first["plan"], campaigns=[
            campaign for info in runs for campaign in info["plan"]["campaigns"]
        ])
        first["final_tcd"] = statistics.mean(info["final_tcd"] for info in runs)
        first["inputs"] = dict(first["inputs"], campaigns=len(runs), events=sum(
            info["inputs"]["events"] for info in runs))
    first["setup_scaled_s"] = [info["scaled_s"] for info in runs]
    first["setup_raw_s"] = [info["raw_s"] for info in runs]
    first["repeat_mismatches"] = sum(
        info["digest"] != first["digest"] for info in runs[1:]
    )
    first["suite_run_s"] = [
        info["timings"].get("suite_run_s", 0.0) for info in runs
    ]
    return first


def measure(plan: dict, work: str) -> dict:
    """Run ``measure.py`` in a fresh interpreter and read its samples."""
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle)
    child = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "measure.py"), plan_path],
        stdout=sys.stderr, start_new_session=True,
    )
    try:
        code = child.wait(timeout=plan["seconds"] + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise RuntimeError("measurement process timed out")
    finally:
        # Reap anything the child left behind (daemons, pool workers).
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if code != 0:
        raise RuntimeError(f"measurement process exited {code}")
    with open(plan["result"], encoding="utf-8") as handle:
        return json.load(handle)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _rate(samples: list[dict]) -> float:
    """Events per reference-speed second over *samples*.

    The median sample's rate.  ``campaign`` samples run different
    campaign seeds, so there each seed's median time counts once:
    total events over the summed median times.
    """
    ok = [s for s in samples if s["ok"]]
    if ok and "campaign" in ok[0]:
        events = times = 0.0
        for which in sorted({s["campaign"] for s in ok}):
            runs = [s for s in ok if s["campaign"] == which]
            events += runs[0]["events"]
            times += _median([s["raw_s"] * s["factor"] for s in runs])
        return events / times
    return _median([
        s["events"] / (s.get("window_s", s["raw_s"]) * s["factor"]) for s in ok
    ])


def _peak_rss_mb(samples: list[dict]) -> float:
    """The largest, over variants, of a variant's median per-sample peak.

    ``campaign`` passes cycle through the run's campaign seeds, so the
    median is a middle seed's peak rather than the outlier's.
    """
    variants = {s["variant"] for s in samples}
    return max((_median([s["peak_rss_mb"] for s in samples if s["variant"] == v])
                for v in variants), default=0.0)


def end_to_end(workload: str, setup: dict, result: dict) -> dict:
    samples = [s for s in result["samples"] if not s["traced"]]
    main = [s for s in samples if s["variant"] == MAIN_VARIANT[workload]]
    jobs = [s for s in samples if s["variant"] == "jobs"]
    prepare = sum(result["prepare"].values())
    return {
        "setup_s": (_median(setup["setup_scaled_s"]) + prepare, "s"),
        "events_per_s": (_rate(main), "1/s"),
        "jobs_events_per_s": (_rate(jobs), "1/s"),
        "peak_rss_mb": (_peak_rss_mb(samples), "MB"),
        "final_tcd": (setup["final_tcd"], "tcd"),
    }


#: Per-layer metrics: name -> unit.  Every traced run prints all of
#: them; a layer the workload bypasses reads 0.
PER_LAYER = {
    "trace.text_parse_s": "s",
    "trace.text_parse_events_per_s": "1/s",
    "trace.rbt_decode_s": "s",
    "trace.rbt_events_per_s": "1/s",
    "trace.lttng_write_s": "s",
    "trace.malformed_lines": "count",
    "trace.unpaired_entries": "count",
    "core.count_s": "s",
    "core.admitted_share": "share",
    "core.report_s": "s",
    "core.tcd_s": "s",
    "parallel.run_sharded_s": "s",
    "parallel.shards": "count",
    "parallel.jobs_effective": "count",
    "parallel.sequential_fallbacks": "count",
    "parallel.pool_skipped_share": "share",
    "parallel.pool_cold_start_s": "s",
    "campaign.runner_s": "s",
    "campaign.fuzz_s": "s",
    "campaign.weights_s": "s",
    "campaign.round_s": "s",
    "campaign.new_partitions_per_kevent": "count",
    "vfs.syscalls": "count",
    "vfs.syscall_s": "s",
    "testsuites.feedback_s": "s",
    "testsuites.suite_run_s": "s",
    "obs.push_events_per_s": "1/s",
    "obs.push_s": "s",
    "obs.push_p50_ms": "ms",
    "obs.push_p90_ms": "ms",
    "obs.finalize_ms": "ms",
    "obs.live_ms": "ms",
    "obs.retries": "count",
    "obs.parse_errors": "count",
    "obs.ingest_batch_s": "s",
    "obs.journal_bytes_per_input_byte": "B/B",
    "obs.daemon_start_s": "s",
    "obs.daemon_peak_rss_mb": "MB",
    "other_s": "s",
    "bench.traced_wall_s": "s",
    "bench.self_time_coverage": "share",
    "bench.tracing_overhead_share": "share",
    "bench.failed_share": "share",
}


def per_layer(workload: str, setup: dict, result: dict, failed_share: float) -> dict:
    samples = result["samples"]
    traced = [s for s in samples if s["traced"]]
    untraced = [s for s in samples if not s["traced"]]
    passes: dict[int, dict[str, float]] = {}
    for s in traced:
        row = passes.setdefault(s["pass"], {})
        for name, layer in s["layers"].items():
            for key, value in layer.items():
                scale = s["factor"] if key.endswith("_s") else 1.0
                row[f"{name}:{key}"] = row.get(f"{name}:{key}", 0.0) + value * scale
        row["wall"] = row.get("wall", 0.0) + s.get("busy_s", s["raw_s"]) * s["factor"]

    def layer(name: str, key: str = "self_s") -> float:
        return _median([row.get(f"{name}:{key}", 0.0) for row in passes.values()])

    parsed = [s for s in traced if s["layers"].get("trace.text_parse")]
    parse_s = sum(s["layers"]["trace.text_parse"]["self_s"] * s["factor"] for s in parsed)
    rbt = [s for s in untraced if s["variant"] == "rbt"]
    push = [s for s in untraced if s["variant"] == "push"]
    latencies = [t * s["factor"] * 1e3 for s in push for t in s["push_s"]]
    jobs = [s for s in samples if s["variant"] == "jobs" and "shards" in s]
    rounds = [t * s["factor"] for s in untraced for t in s.get("round_s", [])]
    camp = [s for s in samples if "new_partitions" in s]
    admitted = [s["admitted"] / s["events"] for s in samples
                if s.get("admitted") and s["events"]]
    pushed = [s for s in samples if s["variant"] == "push"]
    calls = sum(s["sharded_calls"] for s in jobs)
    walls = [row["wall"] for row in passes.values()]
    # Named layers only: ``other`` is what they leave uncovered.
    selfs = [sum(v for k, v in row.items()
                 if k.endswith(":self_s") and not k.startswith("other:"))
             for row in passes.values()]
    overheads = []
    for variant in {s["variant"] for s in traced}:
        on = [s["raw_s"] * s["factor"] for s in traced if s["variant"] == variant]
        off = [s["raw_s"] * s["factor"] for s in untraced if s["variant"] == variant]
        if on and off:
            overheads.append(_median(on) / _median(off) - 1)
    values = {
        "trace.text_parse_s": layer("trace.text_parse"),
        "trace.text_parse_events_per_s": (
            sum(s["events"] for s in parsed) / parse_s if parse_s else 0.0),
        "trace.rbt_decode_s": layer("trace.rbt_decode"),
        "trace.rbt_events_per_s": _rate(rbt),
        "trace.lttng_write_s": layer("trace.lttng_write"),
        "trace.malformed_lines": sum(s.get("malformed_lines", 0) for s in samples),
        "trace.unpaired_entries": sum(s.get("unpaired_entries", 0) for s in samples),
        "core.count_s": layer("core.count"),
        "core.admitted_share": _median(admitted),
        "core.report_s": layer("core.report"),
        "core.tcd_s": layer("core.tcd"),
        "parallel.run_sharded_s": layer("parallel.run_sharded", "inclusive_s"),
        "parallel.shards": _median([s["shards"] for s in jobs]),
        "parallel.jobs_effective": _median([s["jobs_effective"] for s in jobs]),
        "parallel.sequential_fallbacks": sum(s["sequential_fallback"] for s in jobs),
        "parallel.pool_skipped_share": (
            sum(s["pool_skipped"] for s in jobs) / calls if calls else 0.0),
        "parallel.pool_cold_start_s":
            result["prepare"].get("parallel.pool_cold_start_s", 0.0),
        "campaign.runner_s": layer("campaign.run"),
        "campaign.fuzz_s": layer("campaign.fuzz", "inclusive_s"),
        "campaign.weights_s": layer("campaign.weights", "inclusive_s"),
        "campaign.round_s": _median(rounds),
        "campaign.new_partitions_per_kevent": _median(
            [s["new_partitions"] / (s["events"] / 1e3) for s in camp if s["events"]]),
        "vfs.syscalls": layer("vfs.syscall", "calls"),
        "vfs.syscall_s": layer("vfs.syscall", "inclusive_s"),
        "testsuites.feedback_s": layer("campaign.fuzz"),
        "testsuites.suite_run_s": _median(setup["suite_run_s"]),
        "obs.push_events_per_s": _rate(push),
        "obs.push_s": layer("obs.push", "inclusive_s"),
        "obs.push_p50_ms": _median(latencies),
        "obs.push_p90_ms": _quantile(latencies, 0.9),
        "obs.finalize_ms": _median([s["finalize_s"] * s["factor"] * 1e3 for s in push]),
        "obs.live_ms": _median([s["live_s"] * s["factor"] * 1e3 for s in push]),
        "obs.retries": sum(s["retries"] for s in pushed),
        "obs.parse_errors": sum(s["parse_errors"] for s in pushed),
        "obs.ingest_batch_s": _median([s["ingest_batch_s"] * s["factor"] for s in push]),
        "obs.journal_bytes_per_input_byte": (
            _median([s["journal_bytes"] for s in pushed]) / setup["plan"]["push_bytes"]
            if pushed else 0.0),
        "obs.daemon_start_s": result["prepare"].get("obs.daemon_start_s", 0.0),
        "obs.daemon_peak_rss_mb": result["close"].get("daemon_peak_rss_mb", 0.0),
        "other_s": layer("other"),
        "bench.traced_wall_s": _median(walls),
        "bench.self_time_coverage": (
            _median([a / b for a, b in zip(selfs, walls) if b]) if walls else 0.0),
        "bench.tracing_overhead_share": statistics.mean(overheads) if overheads else 0.0,
        "bench.failed_share": failed_share,
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}


def tally(setup: dict, result: dict) -> tuple[int, int, list[str]]:
    """``(attempted, failed, problems)`` over every checked operation."""
    attempted = SETUP_REPEATS - 1
    failed = setup["repeat_mismatches"]
    problems = ["set-up is not deterministic"] if failed else []
    for s in result["samples"]:
        ops = 1 + s.get("pushes", 0)
        attempted += ops
        if not s["ok"]:
            failed += max(1, min(ops, s.get("problem_count", 1)))
            problems.append(f"{s['variant']} pass {s['pass']}: "
                            f"{s['error'] or s.get('problems') or 'output differs'}")
    for name, code in result["close"].get("daemon_exit_codes", {}).items():
        attempted += 1
        if code != 0:
            failed += 1
            problems.append(f"daemon {name} exited {code}")
    return attempted, failed, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program at {src}/repro; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    out = os.path.join(root, ".perfbench")
    work = os.path.join(out, "work", run_id)
    # Temporary files (campaign round traces) stay inside the checkout.
    tempfile.tempdir = os.environ["TMPDIR"] = os.path.join(work, "tmp")
    os.makedirs(tempfile.tempdir)
    try:
        setup = set_up(args.workload, args.seed, work, bool(args.trace))
        plan = dict(setup["plan"], workload=args.workload, seed=args.seed,
                    seconds=args.seconds, trace=bool(args.trace), src=src,
                    work=work, nproc=os.cpu_count() or 1, run_id=run_id,
                    min_passes=MIN_PASSES[args.workload] + args.trace,
                    result=os.path.join(work, "result.json"),
                    spans=os.path.join(out, f"spans-{run_id}.json"))
        result = measure(plan, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, problems = tally(setup, result)
    if args.trace:
        metrics = per_layer(args.workload, setup, result, failed / attempted)
        coverage = metrics["bench.self_time_coverage"][0]
        attempted += 1
        if coverage < 1 - SELF_TIME_TOLERANCE:
            failed += 1
            problems.append(f"layer self times cover {coverage:.3f} of traced wall time")
    else:
        metrics = end_to_end(args.workload, setup, result)
    environment = {
        "run_id": run_id, "started": started, "nproc": os.cpu_count(),
        "python": platform.python_version(), "platform": platform.platform(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": setup["inputs"],
        "setup_raw_s": setup["setup_raw_s"],
        "prepare": result["prepare"], "ready_s": result["ready_s"],
        "samples": [{k: v for k, v in s.items() if k not in ("layers", "push_s")}
                    for s in result["samples"]],
    }
    with open(os.path.join(out, f"result-{run_id}.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"environment": environment, "problems": problems,
                   "metrics": metrics}, handle, indent=1)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} nproc={os.cpu_count()} "
          f"python={platform.python_version()} events={setup['inputs']['events']} "
          f"started={started}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
