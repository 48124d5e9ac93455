"""Campaign round history: the persistent record of the feedback loop.

One :class:`RoundResult` per generate → count → re-weight round, one
:class:`CampaignResult` per campaign.  Both serialize to plain dicts
that are byte-stable under a fixed seed (no wall-clock values — timing
lives in the run store's ``wall_seconds`` column and the benchmark
file, never in the ``repro campaign --json`` envelope).

The same record round-trips through :class:`~repro.obs.store.RunStore`
meta tags (``campaign``/``round``/``tcd``/…), so a campaign's history
is reproducible from the store alone: :func:`rounds_from_store` is the
inverse the tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:
    from repro.obs.store import BaseRunStore


@dataclass
class RoundResult:
    """One campaign round's outcome (cumulative coverage snapshot)."""

    index: int
    events: int
    corpus_size: int
    tcd: float
    tcd_delta: float  # improvement vs the previous round (+ = better)
    new_input_partitions: list[str] = field(default_factory=list)
    new_output_partitions: list[str] = field(default_factory=list)
    tested_inputs: int = 0
    tested_outputs: int = 0
    weights_fingerprint: str = ""
    run_id: int | None = None
    pushed: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "round": self.index,
            "events": self.events,
            "corpus_size": self.corpus_size,
            "tcd": round(self.tcd, 6),
            "tcd_delta": round(self.tcd_delta, 6),
            "new_input_partitions": list(self.new_input_partitions),
            "new_output_partitions": list(self.new_output_partitions),
            "tested_inputs": self.tested_inputs,
            "tested_outputs": self.tested_outputs,
            "weights_fingerprint": self.weights_fingerprint,
            "run_id": self.run_id,
            "pushed": self.pushed,
        }

    def meta(self, campaign: str, seed: int) -> dict[str, Any]:
        """The run-store meta tag for this round (satellite: campaign
        metadata rides in ``meta_json`` — no schema migration)."""
        return {
            "campaign": campaign,
            "round": self.index,
            "campaign_seed": seed,
            "tcd": round(self.tcd, 6),
            "tcd_delta": round(self.tcd_delta, 6),
            "new_input_partitions": list(self.new_input_partitions),
            "new_output_partitions": list(self.new_output_partitions),
            "weights_fingerprint": self.weights_fingerprint,
            "corpus_size": self.corpus_size,
        }

    @classmethod
    def from_meta(cls, record_meta: Mapping[str, Any], *, events: int,
                  run_id: int | None) -> "RoundResult":
        return cls(
            index=int(record_meta.get("round", 0)),
            events=events,
            corpus_size=int(record_meta.get("corpus_size", 0)),
            tcd=float(record_meta.get("tcd", 0.0)),
            tcd_delta=float(record_meta.get("tcd_delta", 0.0)),
            new_input_partitions=list(record_meta.get("new_input_partitions", [])),
            new_output_partitions=list(record_meta.get("new_output_partitions", [])),
            weights_fingerprint=str(record_meta.get("weights_fingerprint", "")),
            run_id=run_id,
        )


@dataclass
class CampaignResult:
    """The full trajectory of one campaign."""

    campaign: str
    seed: int
    iterations: int
    rounds: list[RoundResult] = field(default_factory=list)
    stop_reason: str = ""

    @property
    def baseline_tcd(self) -> float:
        return self.rounds[0].tcd if self.rounds else 0.0

    @property
    def final_tcd(self) -> float:
        return self.rounds[-1].tcd if self.rounds else 0.0

    def tcd_trajectory(self) -> list[float]:
        return [round(r.tcd, 6) for r in self.rounds]

    def new_partitions_after_baseline(self) -> tuple[list[str], list[str]]:
        """Partitions first covered by a *weighted* round (> round 0)."""
        inputs: list[str] = []
        outputs: list[str] = []
        for entry in self.rounds[1:]:
            inputs.extend(entry.new_input_partitions)
            outputs.extend(entry.new_output_partitions)
        return inputs, outputs

    def improved(self) -> bool:
        """Did the loop beat its round-0 baseline?"""
        if len(self.rounds) < 2:
            return False
        inputs, outputs = self.new_partitions_after_baseline()
        return self.final_tcd < self.baseline_tcd or bool(inputs or outputs)

    def to_dict(self) -> dict[str, Any]:
        inputs, outputs = self.new_partitions_after_baseline()
        return {
            "campaign": self.campaign,
            "seed": self.seed,
            "iterations": self.iterations,
            "rounds": [r.to_dict() for r in self.rounds],
            "tcd_trajectory": self.tcd_trajectory(),
            "baseline_tcd": round(self.baseline_tcd, 6),
            "final_tcd": round(self.final_tcd, 6),
            "improved": self.improved(),
            "new_input_partitions": inputs,
            "new_output_partitions": outputs,
            "stop_reason": self.stop_reason,
        }


def rounds_from_store(
    store: "BaseRunStore",
    campaign: str,
    *,
    tenant: str = "default",
    project: str = "default",
) -> list[RoundResult]:
    """Rebuild a campaign's round history from its stored runs."""
    records = store.list_runs(campaign=campaign, tenant=tenant, project=project)
    rounds = [
        RoundResult.from_meta(
            record.meta, events=record.events_processed, run_id=record.run_id
        )
        for record in records
    ]
    rounds.sort(key=lambda r: r.index)
    return rounds
