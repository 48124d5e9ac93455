"""The campaign control loop: generate → count in memory → re-weight.

Each round the runner:

1. **generates** a workload with the :class:`WeightedFuzzer` under the
   round's weight model (round 0 runs uniform — the baseline);
2. **counts** the round's events in memory with
   ``IOCov(mount_point=...).consume`` (the mount-point filter and
   counting loop every trace reader ends in) into cumulative coverage;
3. **persists** the round (cumulative report + campaign meta tags) to
   a :class:`~repro.obs.store.BaseRunStore`;
4. **re-weights** from the cumulative report and repeats until a stop
   condition fires.

A round's LTTng-text trace is written only when a file is needed:
``trace_dir`` (``--trace-dir``) keeps it as an ordinary trace, whose
path the store then records; ``serve_url`` (``--serve-url``) pushes it
to a live obs daemon.

Stop conditions are pluggable objects; the built-ins cover the round
budget, TCD plateau over K rounds, and a wall-clock budget.  TCD here
is the mean :func:`~repro.core.tcd.tcd_uniform` over every tracked
input argument and output vector at the store's default target — lower
is better, and it falls as accumulated partition counts climb toward
the target.
"""

from __future__ import annotations

import os
import tempfile
import time
import warnings
from typing import Iterable, Sequence

from repro.campaign.history import CampaignResult, RoundResult
from repro.campaign.mutate import WeightedFuzzer
from repro.campaign.weights import DEFAULT_BOOST, WeightModel
from repro.core import IOCov
from repro.core.input_coverage import InputCoverage
from repro.core.output_coverage import OutputCoverage
from repro.core.report import CoverageReport
from repro.obs.store import DEFAULT_TCD_TARGET, BaseRunStore
from repro.trace.lttng import LttngWriter


class CampaignError(RuntimeError):
    """A round failed in a way the loop cannot recover from."""


# -- stop conditions ----------------------------------------------------------


class StopCondition:
    """Decides after each round whether the campaign is done."""

    name = "stop"

    def should_stop(self, result: CampaignResult, elapsed: float) -> bool:
        raise NotImplementedError


class RoundBudget(StopCondition):
    """Stop after *rounds* weighted rounds (round 0 is free)."""

    name = "round_budget"

    def __init__(self, rounds: int = 3) -> None:
        if rounds < 1:
            raise ValueError("round budget must be >= 1")
        self.rounds = rounds

    def should_stop(self, result: CampaignResult, elapsed: float) -> bool:
        return len(result.rounds) >= self.rounds + 1


class TcdPlateau(StopCondition):
    """Stop when TCD improved less than *min_delta* for *rounds*
    consecutive weighted rounds."""

    name = "tcd_plateau"

    def __init__(self, rounds: int = 2, min_delta: float = 1e-3) -> None:
        if rounds < 1:
            raise ValueError("plateau window must be >= 1")
        self.rounds = rounds
        self.min_delta = min_delta

    def should_stop(self, result: CampaignResult, elapsed: float) -> bool:
        weighted = result.rounds[1:]
        if len(weighted) < self.rounds:
            return False
        return all(
            entry.tcd_delta < self.min_delta for entry in weighted[-self.rounds:]
        )


class WallClock(StopCondition):
    """Stop once the campaign has run for *max_seconds*."""

    name = "wall_clock"

    def __init__(self, max_seconds: float) -> None:
        if max_seconds <= 0:
            raise ValueError("wall-clock budget must be > 0")
        self.max_seconds = max_seconds

    def should_stop(self, result: CampaignResult, elapsed: float) -> bool:
        return elapsed >= self.max_seconds


def default_stop_conditions(
    rounds: int = 3,
    plateau_rounds: int = 2,
    min_delta: float = 1e-3,
    max_seconds: float | None = None,
) -> list[StopCondition]:
    conditions: list[StopCondition] = [
        RoundBudget(rounds),
        TcdPlateau(plateau_rounds, min_delta),
    ]
    if max_seconds is not None:
        conditions.append(WallClock(max_seconds))
    return conditions


# -- scoring ------------------------------------------------------------------


def aggregate_tcd(
    report: CoverageReport, target: float = DEFAULT_TCD_TARGET
) -> float:
    """Mean TCD over every tracked input argument and output vector."""
    scores = [
        report.input_tcd(syscall, arg, target)
        for syscall, arg in sorted(report.input_coverage.tracked_pairs())
    ]
    scores.extend(
        report.output_tcd(syscall, target)
        for syscall in sorted(report.output_coverage.tracked_syscalls())
    )
    return sum(scores) / len(scores) if scores else 0.0


def _tested_inputs(coverage: InputCoverage) -> set[str]:
    return {
        f"{syscall}.{arg}:{partition}"
        for syscall, arg in coverage.tracked_pairs()
        for partition in coverage.arg(syscall, arg).tested_partitions()
    }


def _tested_outputs(coverage: OutputCoverage) -> set[str]:
    return {
        f"{syscall}:{key}"
        for syscall in coverage.tracked_syscalls()
        for key, count in coverage.syscall(syscall).frequencies().items()
        if count
    }


# -- the runner ---------------------------------------------------------------


class CampaignRunner:
    """Drives a whole campaign; see the module docstring for the loop.

    Args:
        seed: master seed; each round derives its own fuzzer seed.
        iterations: fuzzer executions per round.
        campaign: campaign id (default derives from the seed, so the
            id — like everything else — is deterministic).
        stop_conditions: checked in order after every weighted round.
        store: run store for per-round persistence (optional).
        serve_url: push each round's trace to this obs daemon.
        jobs: accepted for compatibility and ignored (with a
            ``DeprecationWarning``): rounds are counted in memory.
        boost: weight boost for targeted partitions.
        trace_dir: keep round traces here (default: write none).
    """

    def __init__(
        self,
        seed: int = 0,
        iterations: int = 200,
        campaign: str | None = None,
        stop_conditions: Sequence[StopCondition] | None = None,
        store: BaseRunStore | None = None,
        tenant: str = "default",
        project: str = "default",
        serve_url: str | None = None,
        jobs: int | None = None,
        boost: float = DEFAULT_BOOST,
        mount_point: str = "/mnt/fuzz",
        trace_dir: str | None = None,
    ) -> None:
        self.seed = seed
        self.iterations = iterations
        self.campaign = campaign or f"camp-{seed}"
        self.stop_conditions = list(
            stop_conditions if stop_conditions is not None
            else default_stop_conditions()
        )
        if not self.stop_conditions:
            raise ValueError("a campaign needs at least one stop condition")
        self.store = store
        self.tenant = tenant
        self.project = project
        self.serve_url = serve_url
        if jobs is not None:
            warnings.warn(
                "CampaignRunner(jobs=...) has no effect: rounds are counted "
                "in memory", DeprecationWarning, stacklevel=2,
            )
        self.boost = boost
        self.mount_point = mount_point
        self.trace_dir = trace_dir

    # -- round plumbing -------------------------------------------------------

    def _round_seed(self, index: int) -> int:
        # Knuth multiplicative spread: distinct, reproducible per round.
        return (self.seed * 2654435761 + index * 40503) % (1 << 32)

    def _write_trace(self, events: Iterable, directory: str, index: int) -> str:
        path = os.path.join(
            directory, f"{self.campaign}-round{index}.lttng.txt"
        )
        with open(path, "w", encoding="utf-8") as handle:
            LttngWriter().write(events, handle)
        return path

    def _count(self, events: list, index: int) -> IOCov:
        """Count one round's events in memory, mount-point filter included."""
        iocov = IOCov(
            mount_point=self.mount_point, suite_name=f"{self.campaign}@r{index}"
        )
        return iocov.consume(events)

    def _push(self, path: str | None) -> bool:
        if not self.serve_url:
            return False
        from repro.obs.client import PushError, push_file

        try:
            push_file(
                self.serve_url,
                path,
                finalize=True,
                tenant=None if self.tenant == "default" else self.tenant,
                project=None if self.project == "default" else self.project,
            )
        except (OSError, PushError, ValueError) as exc:
            raise CampaignError(f"push to {self.serve_url} failed: {exc}") from exc
        return True

    # -- the loop -------------------------------------------------------------

    def run(self) -> CampaignResult:
        result = CampaignResult(
            campaign=self.campaign, seed=self.seed, iterations=self.iterations
        )
        started = time.monotonic()
        cumulative = IOCov(suite_name=f"campaign:{self.campaign}")
        weights = WeightModel.uniform()
        corpus: list = []
        previous_tcd: float | None = None
        tested_in: set[str] = set()
        tested_out: set[str] = set()

        with tempfile.TemporaryDirectory(prefix="repro-campaign-") as tmp:
            directory = self.trace_dir or (tmp if self.serve_url else None)
            if self.trace_dir:
                os.makedirs(self.trace_dir, exist_ok=True)
            index = 0
            while True:
                fuzzer = WeightedFuzzer(
                    weights=weights,
                    seed=self._round_seed(index),
                    mount_point=self.mount_point,
                )
                fuzzer.corpus = list(corpus)  # stepping stones carry over
                fuzz_report = fuzzer.run(iterations=self.iterations)
                corpus = list(fuzzer.corpus)

                round_wall = time.monotonic()
                counted = self._count(fuzzer.all_events, index)
                round_wall = time.monotonic() - round_wall
                trace_path = (
                    self._write_trace(fuzzer.all_events, directory, index)
                    if directory
                    else None
                )

                snapshot = cumulative.merge(counted).report()
                tcd = aggregate_tcd(snapshot)
                now_in = _tested_inputs(cumulative.input)
                now_out = _tested_outputs(cumulative.output)
                entry = RoundResult(
                    index=index,
                    events=counted.events_processed,
                    corpus_size=fuzz_report.corpus_size,
                    tcd=tcd,
                    tcd_delta=(
                        0.0 if previous_tcd is None else previous_tcd - tcd
                    ),
                    new_input_partitions=sorted(now_in - tested_in),
                    new_output_partitions=sorted(now_out - tested_out),
                    tested_inputs=len(now_in),
                    tested_outputs=len(now_out),
                    weights_fingerprint=weights.fingerprint(),
                )
                previous_tcd = tcd
                tested_in, tested_out = now_in, now_out

                if self.store is not None:
                    # Only a --trace-dir file outlives the run.
                    kept = trace_path if self.trace_dir else None
                    entry.run_id = self.store.save_report(
                        snapshot,
                        trace_path=kept,
                        trace_format="lttng" if kept else None,
                        seed=self.seed,
                        wall_seconds=round_wall,
                        meta=entry.meta(self.campaign, self.seed),
                        tenant=self.tenant,
                        project=self.project,
                    )
                entry.pushed = self._push(trace_path)
                result.rounds.append(entry)

                if not snapshot.untested_inputs() and not snapshot.untested_outputs():
                    result.stop_reason = "saturated"
                    break
                stopped = next(
                    (
                        condition
                        for condition in self.stop_conditions
                        if condition.should_stop(
                            result, time.monotonic() - started
                        )
                    ),
                    None,
                )
                if stopped is not None:
                    result.stop_reason = stopped.name
                    break

                weights = WeightModel.from_report(snapshot, boost=self.boost)
                index += 1
        return result
