"""Coverage-guided campaign engine: the closed feedback loop.

The paper measures input/output coverage; this package *acts* on it —
the LockDoc-style feedback-driven direction from PAPERS.md applied to
IOCov's TCD metric.  A campaign iterates generate → count →
re-weight rounds until TCD stops improving:

* :mod:`repro.campaign.weights` — coverage gaps (via the same ranked
  ``suggest_tests`` list humans read) become mutation weights;
* :mod:`repro.campaign.mutate` — a weighted layer over the testsuites
  fuzzer biasing syscall mix, argument partitions, and errno-provoking
  environments toward untested partitions;
* :mod:`repro.campaign.runner` — the round loop with pluggable stop
  conditions, run-store persistence, and obs-service push;
* :mod:`repro.campaign.history` — byte-stable round records that
  round-trip through ``RunStore`` meta tags.

CLI: ``repro campaign`` (see USAGE.md §17).
"""

from repro.campaign.history import CampaignResult, RoundResult, rounds_from_store
from repro.campaign.mutate import WeightedFuzzer
from repro.campaign.runner import (
    CampaignError,
    CampaignRunner,
    RoundBudget,
    StopCondition,
    TcdPlateau,
    WallClock,
    aggregate_tcd,
    default_stop_conditions,
)
from repro.campaign.weights import DEFAULT_BOOST, WeightModel, boosted_distribution

__all__ = [
    "CampaignError",
    "CampaignResult",
    "CampaignRunner",
    "DEFAULT_BOOST",
    "RoundBudget",
    "RoundResult",
    "StopCondition",
    "TcdPlateau",
    "WallClock",
    "WeightModel",
    "WeightedFuzzer",
    "aggregate_tcd",
    "boosted_distribution",
    "default_stop_conditions",
    "rounds_from_store",
]
