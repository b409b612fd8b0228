"""Temporal chaos campaigns: the deployment-lifecycle subsystem.

Where :mod:`repro.faults` evaluates *static snapshots* (sample S
i.i.d. scenarios, evaluate, aggregate), this package simulates a
*deployed* fleet of network replicas serving request traffic over
discrete epochs while a fault schedule evolves — faults arrive,
accumulate, get detected, and get repaired, the Section-V deployment
story made executable:

* :mod:`~repro.chaos.processes` — stochastic fault arrival/lifetime
  processes (Poisson arrivals, exponential/Weibull lifetimes,
  transient bursts, correlated layer blasts);
* :mod:`~repro.chaos.deployment` — the fleet state and its lowering
  of a whole epochs × replicas window onto one
  :class:`~repro.faults.masks.MaskCampaignEngine` evaluation;
* :mod:`~repro.chaos.traffic` — request streams (constant, diurnal,
  bursty Pareto) weighting the SLO statistics;
* :mod:`~repro.chaos.detectors` — error-drift detectors (threshold,
  CUSUM, the Fep-certified preventive alarm);
* :mod:`~repro.chaos.policies` — repair/mitigation policies (none,
  boosted rejuvenation, detector-triggered repair, spare activation);
* :mod:`~repro.chaos.campaign` — the orchestrator behind
  ``repro.run(ChaosSpec)``, producing a :class:`ChaosReport` SLO
  summary with fork-once parallelism across replica blocks;
* :mod:`~repro.chaos.telemetry` — the typed columnar
  :class:`TelemetryTrace` the epoch loop emits, and
  :func:`report_from_trace`, the pure derivation every report now
  goes through;
* :mod:`~repro.chaos.replay` — deterministic incident replay of a
  stored trace against any detector, no re-simulation;
* :mod:`~repro.chaos.aiops` — detection / localization / RCA
  benchmark tasks scored over telemetry alone.

See DESIGN.md's fifth-subsystem section for the campaign data flow
and the seventh-subsystem section for the telemetry stream.
"""

from .aiops import (
    Incident,
    detection_scores,
    incidents,
    localization_truth,
    rca_truth,
    score_localization,
    score_rca,
    scorecard,
)
from .campaign import REPLICA_BLOCK, ChaosReport
from .replay import replay_detectors, replay_report
from .telemetry import (
    ACTION_REPAIR,
    ACTION_RESET,
    TRACE_SCHEMA_VERSION,
    TelemetryRecorder,
    TelemetryTrace,
    concat_traces,
    episode_runs,
    load_trace,
    report_from_trace,
    save_trace,
)
from .deployment import DeployedNetwork, EpochWindow, FleetState
from .detectors import (
    CertifiedAlarmDetector,
    CUSUMDetector,
    DriftDetector,
    ThresholdDetector,
)
from .policies import (
    DetectorRepairPolicy,
    NoRepairPolicy,
    PeriodicRejuvenationPolicy,
    RepairPolicy,
    SpareActivationPolicy,
    recommended_spares,
)
from .processes import (
    ComponentLifetimeProcess,
    CorrelatedBlastProcess,
    FaultProcess,
    PoissonArrivalProcess,
    TransientBurstProcess,
)
from .traffic import (
    ConstantTraffic,
    DiurnalTraffic,
    ParetoBurstyTraffic,
    TrafficModel,
)

__all__ = [
    "REPLICA_BLOCK",
    "ChaosReport",
    "DeployedNetwork",
    "EpochWindow",
    "FleetState",
    "DriftDetector",
    "ThresholdDetector",
    "CUSUMDetector",
    "CertifiedAlarmDetector",
    "RepairPolicy",
    "NoRepairPolicy",
    "PeriodicRejuvenationPolicy",
    "DetectorRepairPolicy",
    "SpareActivationPolicy",
    "recommended_spares",
    "FaultProcess",
    "PoissonArrivalProcess",
    "ComponentLifetimeProcess",
    "TransientBurstProcess",
    "CorrelatedBlastProcess",
    "TrafficModel",
    "ConstantTraffic",
    "DiurnalTraffic",
    "ParetoBurstyTraffic",
    "TRACE_SCHEMA_VERSION",
    "ACTION_REPAIR",
    "ACTION_RESET",
    "TelemetryTrace",
    "TelemetryRecorder",
    "concat_traces",
    "report_from_trace",
    "episode_runs",
    "save_trace",
    "load_trace",
    "replay_detectors",
    "replay_report",
    "Incident",
    "incidents",
    "detection_scores",
    "localization_truth",
    "score_localization",
    "rca_truth",
    "score_rca",
    "scorecard",
]
