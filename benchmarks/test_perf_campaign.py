"""Campaign engine benchmark: rounds-to-plateau and per-round cost.

Runs the seeded reference campaign (the same configuration the CI
``campaign`` job smoke-tests) and records its trajectory into
``BENCH_campaign.json`` at the repo root:

* ``tcd_trajectory`` — aggregate TCD after each round (falling);
* ``rounds_to_plateau`` — weighted rounds until TCD improvement drops
  below the plateau threshold (the loop's convergence speed);
* ``events_per_sec`` — per-round and overall generation+analysis
  throughput.

The improvement property (final TCD beats the unweighted round-0
baseline, and weighted rounds cover new input *and* output partitions)
is always asserted.  With ``IOCOV_BENCH_GATE=1`` the committed
BENCH_campaign.json value additionally gates quality: the freshly
measured final TCD must not regress past the committed one by more
than ``GATE_TOLERANCE``.
"""

from __future__ import annotations

import os
import time

from repro.campaign import CampaignRunner, RoundBudget, StopCondition, TcdPlateau

from benchmarks.bench_record import bench_path, load_bench, record_bench

#: Where the campaign measurements land (repo root, CI-archived).
BENCH_FILE = bench_path("campaign")

#: The reference configuration (matches the CI campaign smoke job).
SEED = 7
ROUNDS = 3
ITERATIONS = 200

#: Plateau definition used for the rounds-to-plateau metric.
PLATEAU_MIN_DELTA = 1e-3

#: Allowed final-TCD regression vs the committed value under the gate.
GATE_TOLERANCE = 0.05


def _committed_final_tcd() -> float | None:
    """The committed BENCH_campaign.json value, read before overwrite."""
    return load_bench(BENCH_FILE).get("reference_campaign", {}).get("final_tcd")


class _RoundTimer(StopCondition):
    """Never stops; records wall-clock at the end of every round."""

    name = "round_timer"

    def __init__(self) -> None:
        self.marks: list[float] = []

    def should_stop(self, result, elapsed: float) -> bool:
        self.marks.append(elapsed)
        return False


def _rounds_to_plateau(trajectory: list[float]) -> int:
    """Weighted rounds until per-round improvement < the threshold."""
    for index in range(1, len(trajectory)):
        if trajectory[index - 1] - trajectory[index] < PLATEAU_MIN_DELTA:
            return index
    return len(trajectory)


def test_campaign_convergence_benchmark():
    committed = _committed_final_tcd()
    timer = _RoundTimer()
    runner = CampaignRunner(
        seed=SEED,
        iterations=ITERATIONS,
        stop_conditions=[timer, RoundBudget(ROUNDS), TcdPlateau(2, 1e-6)],
    )
    start = time.perf_counter()
    result = runner.run()
    wall = time.perf_counter() - start

    # The tentpole acceptance bar, asserted unconditionally.
    assert result.final_tcd < result.baseline_tcd, (
        f"campaign did not improve: {result.tcd_trajectory()}"
    )
    new_inputs, new_outputs = result.new_partitions_after_baseline()
    assert new_inputs, "no previously-untested input partition covered"
    assert new_outputs, "no previously-untested output partition covered"

    per_round = []
    previous_mark = 0.0
    for entry, mark in zip(result.rounds, timer.marks):
        round_wall = max(mark - previous_mark, 1e-9)
        previous_mark = mark
        per_round.append(
            {
                "round": entry.index,
                "events": entry.events,
                "seconds": round(round_wall, 3),
                "events_per_sec": round(entry.events / round_wall),
                "tcd": round(entry.tcd, 6),
                "new_input_partitions": len(entry.new_input_partitions),
                "new_output_partitions": len(entry.new_output_partitions),
            }
        )
    events_total = sum(entry.events for entry in result.rounds)
    trajectory = result.tcd_trajectory()
    record_bench(
        BENCH_FILE,
        "reference_campaign",
        {
            "seed": SEED,
            "iterations": ITERATIONS,
            "rounds": len(result.rounds),
            "stop_reason": result.stop_reason,
            "tcd_trajectory": trajectory,
            "baseline_tcd": round(result.baseline_tcd, 6),
            "final_tcd": round(result.final_tcd, 6),
            "tcd_gain": round(result.baseline_tcd - result.final_tcd, 6),
            "rounds_to_plateau": _rounds_to_plateau(trajectory),
            "new_input_partitions": len(new_inputs),
            "new_output_partitions": len(new_outputs),
            "events_total": events_total,
            "seconds": round(wall, 3),
            "events_per_sec": round(events_total / wall),
            "per_round": per_round,
        },
    )

    if os.environ.get("IOCOV_BENCH_GATE") and committed is not None:
        assert result.final_tcd <= committed + GATE_TOLERANCE, (
            f"final TCD {result.final_tcd:.4f} regressed past committed "
            f"{committed:.4f} (+{GATE_TOLERANCE} tolerance)"
        )
