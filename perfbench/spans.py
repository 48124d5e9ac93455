"""In-memory spans around layer boundaries, recorded from outside.

A span is ``[id, parent, name, start_ns, end_ns, thread, run_id]``.
Spans stay in a list while a run measures and are written out once at
the end (:meth:`Tracer.dump`).  The wrappers in :func:`instrument`
replace public functions and methods of the ``repro`` modules for the
duration of one traced pass and put every original back afterwards;
nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

#: Span field positions.
ID, PARENT, NAME, START, END, THREAD, RUN = range(7)


class Tracer:
    """Collects spans; each thread keeps its own stack of open spans."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str) -> list:
        stack = self._stack()
        span = [next(self._ids), stack[-1][ID] if stack else 0, name,
                time.perf_counter_ns(), 0, threading.get_ident(), self.run_id]
        stack.append(span)
        return span

    def finish(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, func, name: str):
        """*func* with one span per call."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self.start(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.finish(span)

        return traced

    def wrap_iter(self, func, name: str):
        """*func* returning an iterator; one span per ``next()``."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            iterator = iter(func(*args, **kwargs))
            while True:
                span = self.start(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self.finish(span)
                yield item

        return traced

    def dump(self, path: str) -> None:
        fields = ("id", "parent", "name", "start_ns", "end_ns", "thread", "run")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(fields, span)) for span in self.spans], handle)


def instrument(tracer: Tracer) -> list:
    """Install the layer wrappers; returns the undo list for :func:`restore`.

    Each wrapped name is a public entry point of one layer (see the
    metric table in ``perfbench/README.md``).  ``IOCov.consume_*_file``
    spans contain the parser/decoder spans, so their *self* time is the
    counting loop.
    """
    from repro import parallel
    from repro.campaign import runner, weights
    from repro.core import analyzer, report
    from repro.obs import client
    from repro.testsuites import fuzzer
    from repro.trace import batch, binary, lttng
    from repro.vfs import syscalls

    undo: list = []

    def patch(owner, attr: str, name: str, *, iterator: bool = False) -> None:
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(tracer.wrap(original.__func__, name))
        elif iterator:
            wrapped = tracer.wrap_iter(original, name)
        else:
            wrapped = tracer.wrap(original, name)
        setattr(owner, attr, wrapped)
        undo.append((owner, attr, original))

    patch(batch.LttngBatchParser, "iter_file_batches", "trace.text_parse",
          iterator=True)
    patch(binary.RbtReader, "__iter__", "trace.rbt_decode", iterator=True)
    patch(lttng.LttngWriter, "write", "trace.lttng_write")
    patch(analyzer.IOCov, "consume_lttng_file", "core.count")
    patch(analyzer.IOCov, "consume_rbt_file", "core.count")
    patch(analyzer.IOCov, "report", "core.report")
    patch(report.CoverageReport, "to_json", "core.report")
    patch(runner, "aggregate_tcd", "core.tcd")
    patch(parallel, "run_sharded", "parallel.run_sharded")
    patch(fuzzer.CoverageGuidedFuzzer, "run", "campaign.fuzz")
    patch(weights.WeightModel, "from_report", "campaign.weights")
    patch(runner.CampaignRunner, "run", "campaign.run")
    patch(client, "push_file", "obs.push")
    for attr, value in list(vars(syscalls.SyscallInterface).items()):
        if (callable(value) and not attr.startswith("_")
                and attr not in ("subscribe", "unsubscribe")):
            patch(syscalls.SyscallInterface, attr, "vfs.syscall")
    return undo


def restore(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def breakdown(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: self seconds, inclusive seconds and call count.

    *Self* time is a span's duration minus its direct children's.
    *Inclusive* time and *calls* count only the outermost span of a
    name (``open`` calling ``openat`` is one syscall, not two).  Root
    spans (``other``) are the benchmark's own samples; their self time
    is the time no layer span covers.
    """
    by_id = {span[ID]: span for span in spans}
    children = defaultdict(int)
    for span in spans:
        if span[PARENT]:
            children[span[PARENT]] += span[END] - span[START]
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "inclusive_s": 0.0, "calls": 0}
    )
    for span in spans:
        duration = span[END] - span[START]
        row = table[span[NAME]]
        row["self_s"] += (duration - children[span[ID]]) / 1e9
        parent = by_id.get(span[PARENT])
        if parent is None or parent[NAME] != span[NAME]:
            row["inclusive_s"] += duration / 1e9
            row["calls"] += 1
    return dict(table)
