"""The network as a distributed system: the Corollary-2 boosting
scheme and the whole-network replication baseline.
"""

from .boosting import (
    BoostingResult,
    LatencyModel,
    boosting_report,
    simulate_boosted_run,
)
from .replication import (
    ReplicaState,
    ReplicatedEnsemble,
    smr_neuron_cost,
    smr_tolerance,
)

__all__ = [
    "LatencyModel",
    "BoostingResult",
    "simulate_boosted_run",
    "boosting_report",
    "ReplicatedEnsemble",
    "ReplicaState",
    "smr_tolerance",
    "smr_neuron_cost",
]
