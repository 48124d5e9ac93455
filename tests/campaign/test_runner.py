"""The campaign loop: improvement, stop conditions, store round-trip.

The acceptance criteria of the campaign subsystem live here: a seeded
3-round campaign measurably improves aggregate TCD over its round-0
baseline, covers previously-untested input *and* output partitions,
is byte-stable under a fixed seed, and its full round history is
reproducible from the run store alone.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.campaign import (
    CampaignRunner,
    RoundBudget,
    TcdPlateau,
    WallClock,
    aggregate_tcd,
    default_stop_conditions,
    rounds_from_store,
)
from repro.core import IOCov
from repro.obs.store import RunStore


@pytest.fixture(scope="module")
def small_campaign():
    """One shared 3-round seeded campaign (module-scoped: ~1 s)."""
    runner = CampaignRunner(
        seed=7, iterations=100, stop_conditions=[RoundBudget(3)]
    )
    return runner.run()


# -- improvement (the tentpole acceptance criteria) ----------------------------


def test_campaign_improves_tcd_over_baseline(small_campaign):
    result = small_campaign
    assert len(result.rounds) == 4  # baseline + 3 weighted rounds
    assert result.final_tcd < result.baseline_tcd
    assert result.improved()
    # TCD falls monotonically as counts accumulate toward the target.
    trajectory = result.tcd_trajectory()
    assert trajectory == sorted(trajectory, reverse=True)


def test_campaign_covers_new_input_and_output_partitions(small_campaign):
    inputs, outputs = small_campaign.new_partitions_after_baseline()
    assert inputs, "weighted rounds must cover untested input partitions"
    assert outputs, "weighted rounds must cover untested output partitions"
    # Environment-provoked errnos show up as output coverage.
    assert any(":" in entry for entry in outputs)


def test_campaign_stop_reason_and_weights(small_campaign):
    assert small_campaign.stop_reason == "round_budget"
    fingerprints = [r.weights_fingerprint for r in small_campaign.rounds]
    # Round 0 is uniform; weighted rounds carry re-derived weights.
    assert len(set(fingerprints)) > 1


def test_campaign_is_deterministic():
    results = [
        CampaignRunner(
            seed=21, iterations=60, stop_conditions=[RoundBudget(2)]
        ).run()
        for _ in range(2)
    ]
    a, b = (json.dumps(r.to_dict(), sort_keys=True) for r in results)
    assert a == b


def test_different_seeds_differ():
    def run(seed):
        return CampaignRunner(
            seed=seed, iterations=60, stop_conditions=[RoundBudget(1)]
        ).run()

    assert run(1).to_dict() != run(2).to_dict()


# -- stop conditions -----------------------------------------------------------


def test_round_budget_counts_weighted_rounds():
    result = CampaignRunner(
        seed=3, iterations=40, stop_conditions=[RoundBudget(1)]
    ).run()
    assert len(result.rounds) == 2
    assert result.stop_reason == "round_budget"


def test_tcd_plateau_stops_early():
    # An impossible min_delta means every round counts as a plateau.
    result = CampaignRunner(
        seed=3,
        iterations=40,
        stop_conditions=[RoundBudget(10), TcdPlateau(rounds=2, min_delta=1e9)],
    ).run()
    assert result.stop_reason == "tcd_plateau"
    assert len(result.rounds) == 3  # baseline + 2 plateaued rounds


def test_wall_clock_budget_stops_immediately():
    result = CampaignRunner(
        seed=3, iterations=40, stop_conditions=[WallClock(1e-9)]
    ).run()
    assert result.stop_reason == "wall_clock"
    assert len(result.rounds) == 1
    assert not result.improved()  # a single round can't beat itself


def test_stop_condition_validation():
    with pytest.raises(ValueError):
        RoundBudget(0)
    with pytest.raises(ValueError):
        TcdPlateau(rounds=0)
    with pytest.raises(ValueError):
        WallClock(0)
    with pytest.raises(ValueError):
        CampaignRunner(stop_conditions=[])


def test_default_stop_conditions_shape():
    conditions = default_stop_conditions(rounds=5, max_seconds=60)
    names = [c.name for c in conditions]
    assert names == ["round_budget", "tcd_plateau", "wall_clock"]
    assert default_stop_conditions()[0].rounds == 3


# -- scoring -------------------------------------------------------------------


def test_aggregate_tcd_of_empty_report_is_three():
    """All-empty coverage: every axis sits at sqrt(log10(1000)^2)=3."""
    report = IOCov(mount_point="/mnt/fuzz", suite_name="empty").report()
    assert aggregate_tcd(report) == pytest.approx(3.0)


def test_aggregate_tcd_falls_with_coverage(small_campaign):
    assert small_campaign.baseline_tcd < 3.0  # round 0 covered something
    assert small_campaign.final_tcd < small_campaign.baseline_tcd


# -- store round-trip ----------------------------------------------------------


def test_round_history_reproducible_from_store(tmp_path):
    store = RunStore(tmp_path / "campaign.db")
    try:
        result = CampaignRunner(
            seed=13,
            iterations=60,
            stop_conditions=[RoundBudget(2)],
            store=store,
        ).run()
        assert all(r.run_id is not None for r in result.rounds)

        rebuilt = rounds_from_store(store, result.campaign)
        assert len(rebuilt) == len(result.rounds)
        for original, restored in zip(result.rounds, rebuilt):
            assert restored.index == original.index
            assert restored.run_id == original.run_id
            assert restored.tcd == pytest.approx(original.tcd, abs=1e-6)
            assert restored.tcd_delta == pytest.approx(
                original.tcd_delta, abs=1e-6
            )
            assert restored.new_input_partitions == original.new_input_partitions
            assert restored.new_output_partitions == original.new_output_partitions
            assert restored.weights_fingerprint == original.weights_fingerprint
            assert restored.corpus_size == original.corpus_size
        # Stored rounds carry the *cumulative* snapshot's event count
        # (each stored report is the campaign-so-far), so the rebuilt
        # trajectory is non-decreasing rather than per-round.
        events = [r.events for r in rebuilt]
        assert events == sorted(events)
        assert events[-1] == sum(r.events for r in result.rounds)
    finally:
        store.close()


def test_stored_trace_paths_exist_or_are_none(tmp_path):
    """Only a kept (``trace_dir``) round file is recorded in the store."""
    store = RunStore(tmp_path / "paths.db")
    try:
        for seed, trace_dir in ((1, None), (2, str(tmp_path / "traces"))):
            CampaignRunner(
                seed=seed,
                iterations=30,
                stop_conditions=[RoundBudget(1)],
                store=store,
                trace_dir=trace_dir,
            ).run()
        records = store.list_runs()
        assert len(records) == 4
        for record in records:
            assert record.trace_path is None or os.path.exists(record.trace_path)
            assert record.jobs is None
        kept = {r.meta["campaign"]: r for r in records if r.trace_path}
        assert set(kept) == {"camp-2"}
        assert kept["camp-2"].trace_format == "lttng"
    finally:
        store.close()


def test_store_campaign_filter_isolates_campaigns(tmp_path):
    store = RunStore(tmp_path / "multi.db")
    try:
        for seed in (1, 2):
            CampaignRunner(
                seed=seed,
                iterations=40,
                stop_conditions=[RoundBudget(1)],
                store=store,
            ).run()
        assert len(store.list_runs(campaign="camp-1")) == 2
        assert len(store.list_runs(campaign="camp-2")) == 2
        assert len(store.list_runs(campaign="camp-3")) == 0
        assert len(store.list_runs()) == 4
    finally:
        store.close()


def test_campaign_with_jobs_pipeline_matches_serial():
    """``jobs`` is accepted but ignored (with a DeprecationWarning):
    rounds are counted in memory, so the result equals the serial one."""
    serial = CampaignRunner(
        seed=5, iterations=50, stop_conditions=[RoundBudget(1)]
    ).run()
    with pytest.warns(DeprecationWarning, match="no effect"):
        sharded = CampaignRunner(
            seed=5, iterations=50, stop_conditions=[RoundBudget(1)], jobs=2
        ).run()
    assert serial.tcd_trajectory() == sharded.tcd_trajectory()
    assert [r.events for r in serial.rounds] == [
        r.events for r in sharded.rounds
    ]


def test_trace_dir_keeps_round_artifacts(tmp_path):
    trace_dir = tmp_path / "traces"
    CampaignRunner(
        seed=4,
        iterations=40,
        stop_conditions=[RoundBudget(1)],
        trace_dir=str(trace_dir),
    ).run()
    names = sorted(p.name for p in trace_dir.iterdir())
    assert names == ["camp-4-round0.lttng.txt", "camp-4-round1.lttng.txt"]
    # Round traces are ordinary LTTng text any subcommand can consume.
    iocov = IOCov(mount_point="/mnt/fuzz", suite_name="reparse")
    iocov.consume_lttng_file(str(trace_dir / "camp-4-round0.lttng.txt"))
    assert iocov.report().events_admitted > 0
