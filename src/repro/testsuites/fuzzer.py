"""A syscall fuzzer with input-coverage feedback (paper future work).

The paper plans to "evaluate fuzzing systems" with IOCov, and argues
that path coverage — the usual fuzzer feedback — shares code coverage's
blind spots.  This module closes the loop: a Syzkaller-style syscall
fuzzer whose *feedback signal is IOCov's input coverage*.  A mutated
program joins the corpus iff executing it exercised an input partition
nothing in the corpus had reached.

Components:

* :class:`FuzzProgram` — a short sequence of syscall ops with concrete
  arguments (paths, flags, sizes), mutable and serializable to a
  syzkaller-like program text (which :mod:`repro.trace.syzkaller` can
  parse back);
* :class:`CoverageGuidedFuzzer` — generate/mutate/execute/feedback
  loop; also runnable with feedback disabled (pure random) so the
  benefit of coverage guidance is measurable.

The fuzzer runs real programs, each on a clone of a template volume
that already holds the mount point, so every partition it claims is
genuinely exercised and no program sees another's state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.core.input_coverage import InputCoverage
from repro.core.variants import VariantHandler
from repro.trace.events import event_from_row
from repro.vfs import constants
from repro.vfs.filesystem import FileSystem
from repro.vfs.syscalls import SyscallInterface

#: Syscalls the fuzzer emits, with their argument slots.
_OP_KINDS = (
    "open", "read", "write", "lseek", "truncate",
    "mkdir", "chmod", "setxattr", "getxattr", "close",
)

#: Flag values mutation picks from (single flags; combination happens
#: by OR-ing during mutation).
_FLAG_POOL = tuple(constants.OPEN_FLAG_NAMES.values())

#: Mundane initial sizes — the kind a naive generator starts from.
#: Boundary regions (zero, huge powers of two, the maxima) are only
#: reachable by *compounding mutations*, which is where coverage
#: feedback earns its keep: retained stepping-stone programs let the
#: size walk reach far decades.
_SIZE_POOL = (16, 100, 512, 1000, 4096, 8000)


@dataclass(frozen=True)
class FuzzOp:
    """One fuzzer-chosen syscall with concrete arguments."""

    kind: str
    path_index: int = 0
    flags: int = 0
    size: int = 0
    whence: int = 0
    mode: int = 0o644

    def render(self) -> str:
        """Syzkaller-like line of the call the fuzzer executes for this op
        (parsable by SyzkallerParser)."""
        path = f"./f{self.path_index}"
        if self.kind == "open":
            return (
                f"r0 = openat(0xffffffffffffff9c, &(0x7f0000000040)='{path}\\x00', "
                f"{hex(self.flags | constants.O_CREAT)}, {hex(self.mode)})"
            )
        if self.kind in ("read", "write"):
            return f"{self.kind}(r0, &(0x7f0000000080), {hex(self.size)})"
        if self.kind == "lseek":
            return f"lseek(r0, {hex(self.size)}, {hex(self.whence)})"
        if self.kind == "truncate":
            return f"truncate(&(0x7f0000000040)='{path}\\x00', {hex(self.size)})"
        if self.kind == "mkdir":
            return f"mkdir(&(0x7f0000000040)='{path}_d\\x00', {hex(self.mode)})"
        if self.kind == "chmod":
            return f"chmod(&(0x7f0000000040)='{path}\\x00', {hex(self.mode)})"
        if self.kind == "setxattr":
            return (
                f"setxattr(&(0x7f0000000040)='{path}\\x00', "
                f"&(0x7f0000000080)='user.fuzz\\x00', "
                f"&(0x7f00000000c0), {hex(self.size)}, 0x0)"
            )
        if self.kind == "getxattr":
            return (
                f"getxattr(&(0x7f0000000040)='{path}\\x00', "
                f"&(0x7f0000000080)='user.fuzz\\x00', "
                f"&(0x7f00000000c0), {hex(self.size)})"
            )
        return f"close(r0)"


@dataclass
class FuzzProgram:
    """A short op sequence; the fuzzer's unit of mutation.

    ``env`` names an execution environment (an errno-provoking state
    setup applied before the ops run — read-only volume, full device,
    exhausted quota…).  The base fuzzer never sets one; the weighted
    campaign layer uses it to steer *output* coverage the way argument
    choice steers input coverage.
    """

    ops: list[FuzzOp] = field(default_factory=list)
    env: str = ""

    def render(self) -> str:
        lines = [op.render() for op in self.ops]
        if self.env:
            # Comment line: ignored (counted as skipped) by the
            # syzkaller parser, but keeps the workload text a complete,
            # byte-stable record of what executed.
            lines.insert(0, f"# env: {self.env}")
        return "\n".join(lines)


class CoverageGuidedFuzzer:
    """Generate/mutate/execute with input-coverage feedback.

    Args:
        seed: RNG seed (runs are deterministic).
        guided: keep programs only when they open new input partitions;
            False gives the random-fuzzing baseline.
        mount_point: where programs run (each on a clone of a template
            volume that holds it).
    """

    def __init__(
        self, seed: int = 0, guided: bool = True, mount_point: str = "/mnt/fuzz"
    ) -> None:
        self.rng = random.Random(seed)
        self.guided = guided
        self.mount_point = mount_point.rstrip("/")
        self.corpus: list[FuzzProgram] = []
        self.coverage = InputCoverage()
        self._variants = VariantHandler()
        #: base name -> its tracked args' ``(name, ArgCoverage.record)``
        #: pairs, so feedback credits a base-name event as it is
        self._feedback_plan = {
            name: tuple(
                (arg.name, self.coverage.arg(name, arg.name).record)
                for arg in spec.tracked_args
            )
            for name, spec in self.coverage.registry.items()
        }
        self.executions = 0
        #: trace of every executed program (for IOCov evaluation)
        self.all_events = []
        self._template, self._fixture = self._build_template()

    # -- program synthesis -----------------------------------------------------
    #
    # Every argument decision routes through a _choose_* hook so a
    # subclass (the campaign subsystem's WeightedFuzzer) can bias any
    # choice point without re-implementing the generate/mutate loop.

    def _choose_kind(self) -> str:
        return self.rng.choice(_OP_KINDS)

    def _choose_flags(self) -> int:
        flags = 0
        for _ in range(self.rng.randint(0, 3)):
            flags |= self.rng.choice(_FLAG_POOL)
        return flags

    def _choose_path_index(self) -> int:
        return self.rng.randint(0, 2)

    def _choose_size(self, kind: str) -> int:
        return self.rng.choice(_SIZE_POOL)

    def _choose_whence(self) -> int:
        return self.rng.randint(0, 5)

    def _choose_mode(self, kind: str) -> int:
        return self.rng.choice((0, 0o600, 0o644, 0o755, 0o777, 0o4755))

    def _choose_env(self) -> str:
        """Execution environment for a fresh program ("" = pristine)."""
        return ""

    def _random_op(self) -> FuzzOp:
        kind = self._choose_kind()
        flags = self._choose_flags()
        return FuzzOp(
            kind=kind,
            path_index=self._choose_path_index(),
            flags=flags,
            size=self._choose_size(kind),
            whence=self._choose_whence(),
            mode=self._choose_mode(kind),
        )

    def _generate(self) -> FuzzProgram:
        return FuzzProgram(
            ops=[self._random_op() for _ in range(self.rng.randint(2, 6))],
            env=self._choose_env(),
        )

    def _mutate(self, program: FuzzProgram) -> FuzzProgram:
        ops = list(program.ops)
        choice = self.rng.random()
        index = self.rng.randrange(len(ops))
        if choice < 0.2:
            ops[index] = self._random_op()
        elif choice < 0.55:
            # Multiplicative/additive size walk: boundary decades are
            # reached by chains of retained mutations.
            op = ops[index]
            step = self.rng.choice((0.5, 2.0, 2.0, 1.0))
            delta = self.rng.choice((-1, 0, 1))
            new_size = max(0, int(op.size * step) + delta)
            ops[index] = replace(op, size=min(new_size, constants.MAX_RW_COUNT))
        elif choice < 0.8:
            ops[index] = replace(
                ops[index], flags=ops[index].flags ^ self.rng.choice(_FLAG_POOL)
            )
        elif choice < 0.9 and len(ops) > 1:
            del ops[index]
        else:
            ops.insert(index, self._random_op())
        return FuzzProgram(ops=ops, env=program.env)

    # -- execution ------------------------------------------------------------

    #: Per-file size cap for the scratch VFS.  It decides which writes
    #: and truncates fail with EFBIG, and with them the campaign's
    #: outputs and ``final_tcd``, so it stays although zero-filled
    #: writes no longer hold memory.  It also bounds hole reads, which
    #: still return real zero bytes: uncapped, a weighted truncate to
    #: 2^40 followed by a large read would allocate gigabytes.
    scratch_max_file_size = 1 << 27

    def _build_template(self) -> tuple[FileSystem, list]:
        """The volume programs run on clones of, after the traced
        ``mkdir`` of each mount-point component, and those events."""
        fs = FileSystem(  # 8 MiB device keeps big writes cheap
            total_blocks=2048, max_file_size=self.scratch_max_file_size
        )
        sc = SyscallInterface(fs)
        events: list = []
        sc.subscribe(events.append)
        current = ""
        for part in (p for p in self.mount_point.split("/") if p):
            current = f"{current}/{part}"
            sc.mkdir(current, 0o755)
        return fs, events

    def _execute(self, program: FuzzProgram) -> list:
        """Run one program on a clone of the template volume; return its
        trace events, starting with the mount-point fixture's."""
        fs = self._template.clone()
        sc = SyscallInterface(fs)
        # A plain list's append as the listener keeps the interface out
        # of reference cycles, so the volume is freed when this returns.
        events = [event_from_row(event) for event in self._fixture]
        sc.subscribe(events.append)
        self._setup_environment(program, fs, sc)
        fd = -1
        for op in program.ops:
            path = f"{self.mount_point}/f{op.path_index}"
            if op.kind == "open":
                result = sc.open(path, op.flags | constants.O_CREAT, op.mode)
                if result.ok:
                    if fd >= 0:
                        sc.close(fd)
                    fd = result.retval
            elif op.kind == "read":
                sc.read(fd, op.size)
            elif op.kind == "write":
                sc.write(fd, count=op.size)
            elif op.kind == "lseek":
                sc.lseek(fd, op.size, op.whence)
            elif op.kind == "truncate":
                sc.truncate(path, op.size)
            elif op.kind == "mkdir":
                sc.mkdir(f"{path}_d", op.mode)
            elif op.kind == "chmod":
                sc.chmod(path, op.mode)
            elif op.kind == "setxattr":
                sc.setxattr(path, "user.fuzz", b"", size=op.size)
            elif op.kind == "getxattr":
                sc.getxattr(path, "user.fuzz", op.size)
            elif op.kind == "close":
                if fd >= 0:
                    sc.close(fd)
                    fd = -1
        self.executions += 1
        return events

    def _setup_environment(
        self, program: FuzzProgram, fs: FileSystem, sc: SyscallInterface
    ) -> None:
        """Apply ``program.env`` before the ops run (hook; no-op here).

        Called after the mount point exists but before the first op, so
        an environment can make the volume hostile (read-only, full,
        frozen…) without breaking the fixture setup itself.
        """

    def _new_partitions(self, events) -> int:
        """Count partitions these events open beyond current coverage.

        A base-name event is credited through its feedback plan; a
        variant is normalized to its base first.
        """
        plans = self._feedback_plan
        normalize = self._variants.normalize
        record = self.coverage.record
        opened = 0
        for event in events:
            plan = plans.get(event.name)
            if plan is None:
                normalized = normalize(event)
                if normalized is not None:
                    opened += record(*normalized)
                continue
            args = event.args
            for name, credit in plan:
                if name in args:
                    opened += credit(args[name])
        return opened

    # -- the loop ------------------------------------------------------------

    def run(self, iterations: int = 200) -> "FuzzReport":
        """Fuzz for *iterations* executions; returns the summary."""
        for _ in range(iterations):
            if self.corpus and self.rng.random() < 0.7:
                program = self._mutate(self.rng.choice(self.corpus))
            else:
                program = self._generate()
            events = self._execute(program)
            self.all_events.extend(events)
            gained = self._new_partitions(events)
            if not self.guided:
                # Baseline: corpus grows blindly (bounded).
                if len(self.corpus) < 64:
                    self.corpus.append(program)
            elif gained:
                self.corpus.append(program)
        return FuzzReport(
            executions=self.executions,
            corpus_size=len(self.corpus),
            partitions_covered=self._covered_count(),
        )

    def _covered_count(self) -> int:
        return sum(
            len(self.coverage.arg(*pair).tested_partitions())
            for pair in self.coverage.tracked_pairs()
        )

    def export_corpus(self) -> str:
        """The corpus in syzkaller-like program text (one blank-line-
        separated program per corpus entry)."""
        return "\n\n".join(program.render() for program in self.corpus)


@dataclass(frozen=True)
class FuzzReport:
    """Summary of one fuzzing run."""

    executions: int
    corpus_size: int
    partitions_covered: int
