"""The measuring process: one workload's timed passes, fresh interpreter.

``python3 perfbench/measure.py PLAN.json`` reads the plan that set-up
wrote, runs passes until the plan's seconds are spent, and writes its
samples to ``plan["result"]``.  It holds no set-up objects: every input
comes from disk, so the garbage collector scans only what the measured
code allocates.  (Holding the ~186k set-up events alive measured serial
analysis 10-20% slower.)

A pass times each *variant* of the workload once, in an order that
rotates from pass to pass.  With tracing on, untraced and traced passes
alternate; only traced passes carry spans.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

from spans import Tracer, breakdown, instrument, restore
from speed import Timed


def _sample(variant: str, work, tracer: Tracer | None, *, own_root: bool = True) -> dict:
    """Time ``work()`` -> ``(ok, events, extra)`` between kernel readings.

    With *own_root*, one ``other`` span covers the whole sample on this
    thread; without, ``work`` opens its own root spans per thread and
    reports their summed wall time as ``busy_s``.
    """
    first_span = len(tracer.spans) if tracer else 0
    ok, events, extra, error = False, 0, {}, None
    _reset_peak_rss()
    with Timed() as timed:
        root = tracer.start("other") if tracer and own_root else None
        try:
            ok, events, extra = work()
        except Exception as exc:  # a crash is a failed operation, not a lost run
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if root:
                tracer.finish(root)
    sample = {
        "variant": variant, "ok": ok, "events": events, "error": error,
        "raw_s": timed.raw_s, "factor": timed.factor,
        "kernel_s": [timed.before, timed.after],
        "peak_rss_mb": _peak_rss_mb(), "traced": tracer is not None, **extra,
    }
    if tracer:
        sample["layers"] = breakdown(tracer.spans[first_span:])
    return sample


def _peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a process: its peak resident set since the last reset."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


def _reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current resident set."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def _warm_pool(jobs: int) -> float:
    """Start the process-wide worker pool before timing; its cold start."""
    if jobs < 2:
        return 0.0  # run_sharded runs serially and never starts a pool
    from repro.parallel.pool import get_pool

    return get_pool(jobs).cold_start_seconds


def _sharding(calls: list[dict]) -> dict:
    """Sample fields from the ``stats`` of each ``run_sharded`` call."""
    return {
        "sharded_calls": len(calls),
        "shards": max((c.get("shards", 0) for c in calls), default=0),
        "jobs_effective": max((c.get("jobs_effective", 0) for c in calls), default=0),
        "sequential_fallback": sum(bool(c.get("sequential_fallback")) for c in calls),
        "pool_skipped": sum(bool(c.get("pool_skipped")) for c in calls),
    }


def _rotated(items: list, index: int) -> list:
    shift = index % len(items)
    return items[shift:] + items[:shift]


class Analyze:
    """Serial text, ``.rbt`` and ``run_sharded`` on one on-disk trace.

    Traced runs add the ``push`` variant (:class:`Pushes`).
    """

    def __init__(self, plan: dict) -> None:
        self.plan = plan
        self.jobs = plan["nproc"]
        with open(plan["reference"], encoding="utf-8") as handle:
            self.reference = handle.read()
        self.pushes = Pushes(plan) if "tenants" in plan else None
        self.variants = ["text", "rbt", "jobs"] + (["push"] if self.pushes else [])

    def prepare(self) -> dict:
        prepared = {"parallel.pool_cold_start_s": _warm_pool(self.jobs)}
        if self.pushes:
            prepared["obs.daemon_start_s"] = self.pushes.start()
        return prepared

    def run_pass(self, index: int, tracer: Tracer | None) -> list[dict]:
        return [
            _sample("push", lambda: self.pushes.run(index, tracer), tracer,
                    own_root=False)
            if variant == "push" else
            _sample(variant, lambda v=variant: self._analyze(v), tracer)
            for variant in _rotated(self.variants, index)
        ]

    def _analyze(self, variant: str):
        from repro import parallel
        from repro.core import IOCov

        plan = self.plan
        extra: dict = {}
        if variant == "jobs":
            stats: dict = {}
            report = parallel.run_sharded(
                plan["text"], fmt="lttng", jobs=self.jobs,
                mount_point=plan["mount"], suite_name=plan["suite"], stats=stats,
            )
            extra = _sharding([stats])
            parse = stats.get("parse") or {}
        else:
            iocov = IOCov(mount_point=plan["mount"], suite_name=plan["suite"])
            if variant == "text":
                iocov.consume_lttng_file(plan["text"])
            else:
                iocov.consume_rbt_file(plan["rbt"])
            report = iocov.report()
            parse = iocov.parse_stats or {}
            extra["admitted"] = iocov.events_admitted
        extra["malformed_lines"] = parse.get("malformed_lines", 0)
        extra["unpaired_entries"] = parse.get("unpaired_entries", 0)
        ok = report.to_json() == self.reference
        return ok, report.events_processed, extra

    def close(self) -> dict:
        return self.pushes.stop() if self.pushes else {}


class Campaign:
    """Seeded ``CampaignRunner`` runs, serial and with ``jobs=nproc``."""

    variants = ["serial", "jobs"]

    def __init__(self, plan: dict) -> None:
        self.plan = plan
        self.references = []
        for campaign in plan["campaigns"]:
            with open(campaign["reference"], encoding="utf-8") as handle:
                self.references.append(handle.read())

    def prepare(self) -> dict:
        return {"parallel.pool_cold_start_s": _warm_pool(self.plan["nproc"])}

    def run_pass(self, index: int, tracer: Tracer | None) -> list[dict]:
        return [
            _sample(variant, lambda v=variant: self._campaign(v, index), tracer)
            for variant in _rotated(self.variants, index)
        ]

    def _campaign(self, variant: str, index: int):
        from repro import parallel
        from repro.campaign import CampaignRunner, RoundBudget, StopCondition

        class RoundClock(StopCondition):
            """Never stops; notes the campaign's elapsed time per round."""

            name = "round_clock"

            def __init__(self) -> None:
                self.marks: list[float] = []

            def should_stop(self, result, elapsed: float) -> bool:
                self.marks.append(elapsed)
                return False

        # The runner looks ``run_sharded`` up at each round; this wrapper
        # keeps each call's stats, so a sample shows whether the pool ran.
        calls: list[dict] = []
        sharded = parallel.run_sharded

        def run_sharded(*args, stats=None, **kwargs):
            calls.append({} if stats is None else stats)
            return sharded(*args, stats=calls[-1], **kwargs)

        plan = self.plan
        which = index % len(self.references)
        clock = RoundClock()
        parallel.run_sharded = run_sharded
        try:
            result = CampaignRunner(
                seed=plan["campaigns"][which]["seed"], iterations=plan["iterations"],
                stop_conditions=[clock, RoundBudget(plan["rounds"])],
                jobs=plan["nproc"] if variant == "jobs" else None,
            ).run()
        finally:
            parallel.run_sharded = sharded
        document = json.dumps(result.to_dict(), sort_keys=True)
        rounds = [b - a for a, b in zip([0.0] + clock.marks, clock.marks)]
        new = sum(
            len(r.new_input_partitions) + len(r.new_output_partitions)
            for r in result.rounds
        )
        events = sum(r.events for r in result.rounds)
        extra = {"campaign": which, "round_s": rounds, "new_partitions": new}
        if variant == "jobs":
            extra.update(_sharding(calls))
        return document == self.references[which], events, extra

    def close(self) -> dict:
        return {}


class _Daemon:
    """One ``repro serve`` process on a sharded store."""

    def __init__(self, plan: dict) -> None:
        self.store = os.path.join(plan["work"], "store") + os.sep
        command = [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--mount", plan["mount"], "--name", "live", "--store", self.store,
            "--backend", "sharded",
        ]
        env = dict(os.environ, PYTHONPATH=plan["src"])
        self.process = subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        line = self.process.stdout.readline()
        match = re.search(r"serving on http://([\d.]+):(\d+)", line)
        if not match:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        self.url = f"{self.host}:{self.port}"

    def request(self, method: str, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            conn.request(method, path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stop(self) -> int | None:
        """SIGTERM (the daemon drains), wait; returns the exit code."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        return self.process.returncode


class Pushes:
    """The ``push`` variant: the trace pushed to ``repro serve``.

    A closed loop of one client thread per tenant: each sends its next
    segment (``repro.obs.client.push_file``) only after the previous
    answer.  Then each tenant finalizes (``POST /runs``) and reads
    ``GET /live``.  Every pass uses fresh tenant names.
    """

    def __init__(self, plan: dict) -> None:
        self.plan = plan
        self.tenants = plan["tenants"]
        self.references = []
        for tenant in self.tenants:
            with open(tenant["reference"], "rb") as handle:
                self.references.append(handle.read())
        self.daemon: _Daemon | None = None
        self.peak_rss_mb = 0.0

    def start(self) -> float:
        start = time.perf_counter()
        self.daemon = _Daemon(self.plan)
        return time.perf_counter() - start

    def run(self, index: int, tracer: Tracer | None):
        from repro.obs import client

        daemon = self.daemon
        names = [f"pass{index}t{k}" for k in range(len(self.tenants))]
        latencies: list[list[float]] = [[] for _ in self.tenants]
        acks: list[list[float]] = [[] for _ in self.tenants]
        busy: list[float] = []
        problems: list[str] = []
        retries: list[str] = []

        def push_all(k: int) -> None:
            started = time.perf_counter()
            root = tracer.start("other") if tracer else None
            try:
                tenant = self.tenants[k]
                for path, expected in zip(tenant["segments"], tenant["expected"]):
                    start = time.perf_counter()
                    # retries=0: a push that would need a retry fails here.
                    answer = client.push_file(
                        daemon.url, path, tenant=names[k], retries=0, timeout=60
                    )
                    end = time.perf_counter()
                    latencies[k].append(end - start)
                    acks[k].append(end)
                    if answer.get("events_counted") != expected:
                        problems.append(f"{names[k]}: counted "
                                        f"{answer.get('events_counted')} != {expected}")
            except Exception as exc:  # recorded as a failed operation
                problems.append(f"{names[k]}: {type(exc).__name__}: {exc}")
                # What push_file would have retried: connect failures, 503.
                if isinstance(exc, OSError) or getattr(exc, "status", 0) == 503:
                    retries.append(names[k])
            finally:
                if tracer:
                    tracer.finish(root)
                busy.append(time.perf_counter() - started)

        first = time.perf_counter()
        threads = [threading.Thread(target=push_all, args=(k,))
                   for k in range(len(self.tenants))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        window = max((a[-1] for a in acks if a), default=first) - first

        journal_bytes = finalize_s = live_s = 0.0
        parse_errors = 0
        post = time.perf_counter()
        root = tracer.start("other") if tracer else None
        for k, name in enumerate(names):
            journal_bytes += _journal_bytes(daemon.store, name)
            span = tracer.start("obs.finalize") if tracer else None
            start = time.perf_counter()
            status, _ = daemon.request("POST", f"/t/{name}/runs")
            finalize_s += time.perf_counter() - start
            if tracer:
                tracer.finish(span)
            if status != 201:
                problems.append(f"{name}: finalize answered {status}")
            span = tracer.start("obs.live") if tracer else None
            start = time.perf_counter()
            status, body = daemon.request("GET", f"/t/{name}/live")
            live_s += time.perf_counter() - start
            if tracer:
                tracer.finish(span)
            if status != 200 or body != self.references[k]:
                problems.append(f"{name}: /live differs from the reference")
            status, body = daemon.request("GET", f"/t/{name}/session")
            parse_errors += json.loads(body).get("parse_errors", 0) if status == 200 else 1
        status, body = daemon.request("GET", "/metrics")
        batch_s = sum(
            float(value) for name_, value in re.findall(
                r'^iocov_ingest_batch_seconds_sum\{[^}]*tenant="([^"]+)"[^}]*\} (\S+)',
                body.decode("utf-8", "replace"), re.M,
            ) if name_ in names
        )
        if tracer:
            tracer.finish(root)
        busy.append(time.perf_counter() - post)
        if index == 0:
            # Peak after a fixed amount of work: later passes add tenants.
            self.peak_rss_mb = _peak_rss_mb(daemon.process.pid)
        extra = {
            "busy_s": sum(busy),
            "window_s": window,
            "push_s": [t for per in latencies for t in per],
            "pushes": sum(len(t["segments"]) for t in self.tenants),
            "finalize_s": finalize_s / len(names),
            "live_s": live_s / len(names),
            "journal_bytes": journal_bytes,
            "parse_errors": parse_errors,
            "retries": len(retries),
            "ingest_batch_s": batch_s,
            "problems": problems[:5],
            "problem_count": len(problems),
        }
        events = sum(t["events"] for t in self.tenants)
        return not problems, events, extra

    def stop(self) -> dict:
        if self.daemon is None:
            return {}
        return {"daemon_peak_rss_mb": self.peak_rss_mb,
                "daemon_exit_codes": {"serve": self.daemon.stop()}}


def _journal_bytes(store: str, tenant: str) -> int:
    directory = os.path.join(store, tenant)
    total = 0
    for project in os.listdir(directory) if os.path.isdir(directory) else ():
        path = os.path.join(directory, project, "journal.rjl")
        if os.path.exists(path):
            total += os.path.getsize(path)
    return total


WORKLOADS = {"analyze": Analyze, "campaign": Campaign}


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as handle:
        plan = json.load(handle)
    started = time.perf_counter()
    sys.path.insert(0, plan["src"])
    workload = WORKLOADS[plan["workload"]](plan)
    result: dict = {"samples": []}
    tracer = Tracer(plan["run_id"]) if plan["trace"] else None
    try:
        result["prepare"] = workload.prepare()
        result["ready_s"] = time.perf_counter() - started
        deadline = time.perf_counter() + plan["seconds"]
        index = 0
        while index < plan["min_passes"] or time.perf_counter() < deadline:
            traced = tracer is not None and index % 2 == 1
            undo = instrument(tracer) if traced else None
            try:
                for sample in workload.run_pass(index, tracer if traced else None):
                    sample["pass"] = index
                    result["samples"].append(sample)
            finally:
                if undo is not None:
                    restore(undo)
            index += 1
    finally:
        result["close"] = workload.close()
    if tracer:
        tracer.dump(plan["spans"])
    with open(plan["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
