"""A campaign round counted in memory equals its LTTng-text round trip.

The runner counts each round with ``IOCov(mount_point=...).consume`` on
the fuzzer's events instead of writing them as LTTng text and parsing
the file back.  These tests pin the two paths to the same report, the
mount-point filter included, and show that keeping round files
(``trace_dir``) changes nothing in the result.
"""

from __future__ import annotations

import pytest

from repro.campaign import CampaignRunner, RoundBudget
from repro.core import IOCov
from repro.trace.lttng import LttngWriter

SEEDS = (0, 7, 19)


def _runner(seed: int, **kwargs) -> CampaignRunner:
    return CampaignRunner(
        seed=seed, iterations=80, stop_conditions=[RoundBudget(2)], **kwargs
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_round_report_matches_lttng_text_path(seed, tmp_path, monkeypatch):
    rounds = []
    count = CampaignRunner._count

    def spy(self, events, index):
        counted = count(self, events, index)
        rounds.append((list(events), counted.report().to_json()))
        return counted

    monkeypatch.setattr(CampaignRunner, "_count", spy)
    _runner(seed).run()
    assert len(rounds) == 3
    for index, (events, in_memory) in enumerate(rounds):
        path = tmp_path / f"round{index}.lttng.txt"
        with open(path, "w", encoding="utf-8") as handle:
            LttngWriter().write(events, handle)
        iocov = IOCov(mount_point="/mnt/fuzz", suite_name=f"camp-{seed}@r{index}")
        reparsed = iocov.consume_lttng_file(str(path)).report()
        assert reparsed.to_json() == in_memory
        # The mount-point filter had work to do: the fixture mkdirs of
        # /mnt and /mnt/fuzz lie outside the scope.
        assert 0 < reparsed.events_admitted < reparsed.events_processed


@pytest.mark.parametrize("seed", SEEDS)
def test_trace_dir_does_not_change_the_result(seed, tmp_path):
    plain = _runner(seed).run().to_dict()
    kept = _runner(seed, trace_dir=str(tmp_path / "traces")).run().to_dict()
    assert kept == plain
    assert len(list((tmp_path / "traces").iterdir())) == 3
