"""The IOCov analyzer: the framework's public entry point.

Wires the three components the paper names — the **trace filter**, the
**syscall variant handler**, and the **input/output partitioner** —
into one pipeline:

    events -> filter (mount-point scope) -> variant merge -> partition
    counting -> coverage report

Typical use::

    from repro.core import IOCov

    iocov = IOCov(mount_point="/mnt/test", suite_name="xfstests")
    iocov.consume(recorder.events)          # or .consume_lttng_file(path)
    report = iocov.report()
    print(report.render_text())

The only per-tester setting is the mount-point regex, exactly as the
paper claims for the prototype.

Counting takes one of two loops, chosen by the form of what it gets.
Row streams go through the row loop (:meth:`IOCov._ingest_rows`) over
tuples ``(name, args, retval, errno, pid, comm, timestamp)``:
:meth:`IOCov.consume`'s events (a :class:`SyscallEvent` is such a row),
``.rbt`` frames, strace and syzkaller text, and the LTTng chunks the
full grammar or the per-line parser reads.  The loop filters every event
but credits *shapes*: admitted events that agree on everything counting
reads are tallied and credited once per call with their multiplicity
(in parts past ``_TALLY_CAP`` distinct shapes), in first-appearance
order, which leaves the same counts in the same order as crediting
event by event.  Test suites repeat the same calls, so a batch of tens
of thousands of events reduces to hundreds of shapes.

The LTTng parser's line memo hands each chunk out as templates (see
:class:`~repro.trace.batch.EventBatch`), and those batches take the
template pass (:meth:`IOCov._ingest_templates`): the filter decides each
template once and each event runs only its fd-table step, and each
template is shaped once.  It leaves every Counter as the row loop does.
Rows do not take the template pass: counting the 93,987 in-memory
events of a seed-1 xfstests run as one-event templates took 1.37x the
row loop's time (median of 10 on a 2-vCPU VM).

Two properties matter for scale:

* **streaming** — :meth:`IOCov.consume` pulls from any iterable (a
  parser generator such as ``LttngParser().iter_parse_file(path)``
  works), and the ``consume_*_file`` readers parse chunk by chunk, so
  a multi-GB trace never materializes in memory.  One serial pass is
  the only reader: a trace analyzed more than once is converted to
  ``.rbt`` (``repro convert``), which decodes faster than text parses;
* **mergeability** — :meth:`IOCov.merge` folds the state of another
  analyzer in exactly (all underlying tallies are sums); a campaign
  folds each round's counts into its cumulative coverage this way.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Iterable, Mapping

from repro.core.argspec import BASE_SYSCALLS, SyscallSpec, TRACKED_SYSCALLS, base_name
from repro.core.filter import AcceptAllFilter, TraceFilter
from repro.core.input_coverage import InputCoverage
from repro.core.output_coverage import OutputCoverage
from repro.core.report import CoverageReport
from repro.core.variants import CREAT_IMPLIED_FLAGS, VariantHandler
from repro.trace.batch import EventBatch, make_batch_parser
from repro.trace.events import SyscallEvent

_MISSING = object()

#: Most distinct shapes one tally holds before it is credited.  Bounds
#: memory on a long stream whose shapes never repeat; crediting early
#: keeps the order, since it credits every shape seen so far.
_TALLY_CAP = 4096


def _prep_creat(args: Mapping[str, Any]) -> Mapping[str, Any]:
    if "flags" in args:
        return args
    prepped = dict(args)
    prepped["flags"] = CREAT_IMPLIED_FLAGS
    return prepped


def _prep_fchdir(args: Mapping[str, Any]) -> Mapping[str, Any]:
    # The fd stands in for the path identifier.
    if "fd" not in args or "filename" in args:
        return args
    prepped = dict(args)
    prepped["filename"] = prepped.pop("fd")
    return prepped


#: Variant-specific argument fixups (everything else passes through;
#: variant plumbing names never collide with tracked argument names,
#: so dropping them is unnecessary for counting).
_ARG_PREP: dict[str, Callable[[Mapping[str, Any]], Mapping[str, Any]]] = {
    "creat": _prep_creat,
    "fchdir": _prep_fchdir,
}


class IOCov:
    """Measures input and output coverage of a file-system test suite.

    Args:
        mount_point: the tester's mount point (e.g. ``/mnt/test``);
            builds the standard scoping filter.  Mutually exclusive
            with *trace_filter*.
        trace_filter: a pre-built filter; defaults to accept-all when
            neither argument is given (trace already scoped).
        suite_name: label carried into reports.
        registry: syscall registry override (defaults to the paper's
            27-syscall selection).
    """

    def __init__(
        self,
        mount_point: str | None = None,
        trace_filter: TraceFilter | AcceptAllFilter | None = None,
        suite_name: str = "unnamed-suite",
        registry: Mapping[str, SyscallSpec] | None = None,
    ) -> None:
        if mount_point is not None and trace_filter is not None:
            raise ValueError("pass mount_point or trace_filter, not both")
        if mount_point is not None:
            self.filter: TraceFilter | AcceptAllFilter = TraceFilter.for_mount_point(
                mount_point
            )
        else:
            self.filter = trace_filter or AcceptAllFilter()
        self.suite_name = suite_name
        self.variants = VariantHandler()
        self.input = InputCoverage(registry or BASE_SYSCALLS)
        self.output = OutputCoverage(registry or BASE_SYSCALLS)
        #: syscalls seen in scope but outside the 27-call registry
        self.untracked: Counter = Counter()
        self.events_processed = 0
        self.events_admitted = 0
        #: drop counters of the last file-level ingest (set by the
        #: ``consume_*_file`` readers; None for in-memory ingestion).
        self.parse_stats: dict[str, Any] | None = None
        self._build_dispatch()

    def _build_dispatch(self) -> None:
        """Precompute the per-syscall counting plan.

        One dict lookup per event replaces the per-event variant
        normalization (dict copy + plumbing pops) and the per-record
        registry lookups of the naive path.  Dispatch covers exactly
        the 27 traced names; a name missing from the table is counted
        ``untracked``, mirroring :class:`VariantHandler` returning None.
        """
        self._dispatch: dict[str, tuple] = {}
        input_registry = self.input.registry
        for name in TRACKED_SYSCALLS:
            base = base_name(name)
            spec = input_registry.get(base)
            if spec is not None:
                arg_names = tuple(arg.name for arg in spec.tracked_args)
                arg_records = tuple(self.input.arg(base, a).record for a in arg_names)
                out_record = self.output.syscall(base).record
            else:
                # Variant of a base outside a custom registry: admitted
                # and normalized but contributes no counts (and is not
                # "untracked" — it is one of the 27 tracked names).
                arg_names = arg_records = ()
                out_record = None
            # The registry tracks one or two arguments per call; those
            # arities get their shape built inline, any other arity
            # (custom registries) through the generic loop.
            first = second = None
            if len(arg_names) == 1:
                first = arg_names[0]
            elif len(arg_names) == 2:
                first, second = arg_names
            self._dispatch[name] = (
                _ARG_PREP.get(name), first, second, arg_names, arg_records, out_record
            )

    # -- ingestion ------------------------------------------------------------

    def _ingest_rows(self, rows: Iterable[tuple]) -> None:
        """The row loop: filter each event, then tally it (:meth:`_tally`).

        Every row stream ends here (templated batches take
        :meth:`_ingest_templates`).  Events arrive as ``(name, args,
        retval, errno, pid, comm, timestamp)`` tuples: parser rows, or
        :class:`SyscallEvent` rows from :meth:`consume`.
        """
        decide = self.filter.decide
        apply = self.filter.apply
        add, flush = self._tally()
        processed = 0
        admitted = 0
        for name, args, retval, errno, pid, _comm, _ts in rows:
            processed += 1
            # TraceFilter.admit_record, one call shorter.
            verdict = decide(name, args, retval)
            if verdict.__class__ is tuple:
                verdict = apply(verdict, pid)
            if verdict:
                admitted += 1
                add(name, args, retval, errno, 1)
        flush()
        self.events_processed += processed
        self.events_admitted += admitted

    def _ingest_templates(self, templates: list[tuple], ids: list[int]) -> None:
        """The template pass: what :meth:`_ingest_rows` does, per template.

        The events of a templated batch (see
        :class:`~repro.trace.batch.EventBatch`) agree with their
        template on everything but the timestamp.  So the filter decides
        each template once (:meth:`~repro.core.filter.TraceFilter.decide`)
        and each event runs only the fd-table step, if any.  Admitted
        events are counted per template id, in first-admission order, and
        each template is tallied once with its count: shapes then appear
        in the order the row loop meets them, so every Counter ends as
        the row loop leaves it.
        """
        decide = self.filter.decide
        apply = self.filter.apply
        verdicts = []
        for name, args, retval, _errno, pid, _comm in templates:
            step = decide(name, args, retval)
            verdicts.append((step, pid) if step.__class__ is tuple else bool(step))
        admitted: dict[int, int] = {}
        admitted_get = admitted.get
        for tid in ids:
            verdict = verdicts[tid]
            if verdict is False:
                continue
            if verdict is not True and not apply(*verdict):
                continue
            admitted[tid] = admitted_get(tid, 0) + 1
        add, flush = self._tally()
        for tid, n in admitted.items():
            name, args, retval, errno = templates[tid][:4]
            add(name, args, retval, errno, n)
        flush()
        self.events_processed += len(ids)
        self.events_admitted += sum(admitted.values())

    def _tally(self) -> tuple[Callable[[str, Mapping, int, int, int], None], Callable[[], None]]:
        """A tally of admitted events by shape: ``add(name, args, retval,
        errno, n)`` and ``flush()``.

        A *shape* is the name, retval, errno and the class and value of
        each tracked argument — everything counting reads.  The class
        keeps ``1``, ``True`` and ``1.0`` apart, as the classify memo
        does.  Shapes are credited with their counts in first-appearance
        order, which gives every Counter the insertion order per-event
        crediting gives: a tally of ``_TALLY_CAP`` shapes is credited
        before it takes a new one, an unhashable value (iovec length
        lists) flushes the tally and is credited on its own, and
        ``flush`` credits the rest.  A name outside the 27 traced calls is
        counted ``untracked``.
        """
        dispatch_get = self._dispatch.get
        untracked = self.untracked
        credit = self._credit
        tally: dict[tuple, int] = {}
        tally_get = tally.get

        def add(name: str, args: Mapping, retval: int, errno: int, n: int) -> None:
            entry = dispatch_get(name)
            if entry is None:
                untracked[name] += n
                return
            prep, first, second, arg_names, _records, _out = entry
            if prep is not None:
                args = prep(args)
            if second is not None:
                v0 = args.get(first, _MISSING)
                v1 = args.get(second, _MISSING)
                shape = (name, retval, errno, v0, v0.__class__, v1, v1.__class__)
            elif first is not None:
                v0 = args.get(first, _MISSING)
                shape = (name, retval, errno, v0, v0.__class__)
            else:
                shape = (name, retval, errno)
                for arg_name in arg_names:
                    v0 = args.get(arg_name, _MISSING)
                    shape += (v0, v0.__class__)
            try:
                count = tally_get(shape)
            except TypeError:
                flush()
                credit(((shape, n),))
                return
            if count is not None:
                tally[shape] = count + n
                return
            if len(tally) >= _TALLY_CAP:
                flush()
            tally[shape] = n

        def flush() -> None:
            credit(tally.items())
            tally.clear()

        return add, flush

    def _credit(self, shapes: Iterable[tuple[tuple, int]]) -> None:
        """Credit each ``(shape, n)`` to the coverage it counts in."""
        dispatch = self._dispatch
        for shape, n in shapes:
            arg_records, out_record = dispatch[shape[0]][4:]
            # shape = (name, retval, errno, value, class, value, class, ...)
            for record, value in zip(arg_records, shape[3::2]):
                if value is not _MISSING:
                    record(value, n)
            if out_record is not None:
                out_record(shape[1], shape[2], n)

    def consume_batch(self, batch: EventBatch) -> "IOCov":
        """Feed one :class:`EventBatch` *without* resetting filter state.

        The entry point for long-running live ingestion (the ``repro
        serve`` daemon): batches arrive over time and the scoping
        filter's fd table must persist across them.  A templated batch
        takes the template pass, which reads no timestamp (so none is
        converted), any other the row loop.
        """
        counted = batch.template_ids
        if counted is not None:
            self._ingest_templates(*counted)
        else:
            self._ingest_rows(batch.iter_rows())
        return self

    def consume(self, events: Iterable[SyscallEvent]) -> "IOCov":
        """Feed many events; returns self for chaining.

        *events* may be any iterable, including a lazy parser
        generator — it is consumed strictly one event at a time.
        """
        self.filter.reset()
        self._ingest_rows(events)
        return self

    def _consume_text_file(self, path: str, fmt: str) -> "IOCov":
        """Batch-parse a text trace and ingest it chunk by chunk.

        Equal by construction to the per-line readers: the strace and
        syzkaller batch parsers run them line by line, and the LTTng
        one falls back to its per-line parser for any chunk its strict
        grammar declines.  The parser's drop counters land in
        :attr:`parse_stats`.
        """
        parser = make_batch_parser(fmt)
        self.filter.reset()
        for batch in parser.iter_file_batches(path):
            self.consume_batch(batch)
        self.parse_stats = parser.stats()
        return self

    def consume_lttng_file(self, path: str) -> "IOCov":
        """Ingest a babeltrace-style text trace from disk (streaming)."""
        return self._consume_text_file(path, "lttng")

    def consume_strace_file(self, path: str) -> "IOCov":
        """Ingest an strace text capture from disk (streaming)."""
        return self._consume_text_file(path, "strace")

    def consume_syzkaller_file(self, path: str) -> "IOCov":
        """Ingest a syzkaller program log (input coverage only)."""
        return self._consume_text_file(path, "syzkaller")

    def consume_rbt_file(self, path: str) -> "IOCov":
        """Ingest a binary ``.rbt`` trace (see :mod:`repro.trace.binary`).

        :attr:`parse_stats` is restored from the container header when
        the converter stored it there (drop counts survive conversion).
        """
        from repro.trace.binary import RbtReader

        reader = RbtReader(path)
        self.filter.reset()
        for batch in reader:
            self.consume_batch(batch)
            # Free this frame's rows before the reader decodes the next.
            del batch
        self.parse_stats = reader.header.get("parse_stats")
        return self

    # -- merging ------------------------------------------------------------

    def merge(self, other: "IOCov") -> "IOCov":
        """Fold another analyzer's coverage state into this one.

        Exact: every underlying tally is a sum (partition counts, flag
        combinations, unclassified, untracked, event counters), so
        merging analyzers that consumed consecutive pieces of a stream
        is bit-identical to one pass over the whole stream — *provided*
        each piece was filtered as that pass would have filtered it
        (the mount-point filter tracks per-pid fds).  Filter state
        itself is not merged.

        Raises:
            ValueError: the analyzers use different registries.
        """
        self.input.merge(other.input)
        self.output.merge(other.output)
        self.untracked.update(other.untracked)
        self.events_processed += other.events_processed
        self.events_admitted += other.events_admitted
        return self

    # -- results ------------------------------------------------------------

    def report(self) -> CoverageReport:
        """Freeze the current state into a report object."""
        return CoverageReport(
            suite_name=self.suite_name,
            input_coverage=self.input,
            output_coverage=self.output,
            events_processed=self.events_processed,
            events_admitted=self.events_admitted,
            untracked=dict(self.untracked),
        )


def analyze_events(
    events: Iterable[SyscallEvent],
    mount_point: str | None = None,
    suite_name: str = "unnamed-suite",
) -> CoverageReport:
    """One-shot convenience: events in, report out."""
    iocov = IOCov(mount_point=mount_point, suite_name=suite_name)
    return iocov.consume(events).report()
