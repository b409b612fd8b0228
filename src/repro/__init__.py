"""repro — a reproduction of *When Neurons Fail* (El Mhamdi &
Guerraoui, IPDPS 2017).

The paper views a feed-forward neural network as a distributed system
whose neurons and synapses fail independently, and derives tight
bounds — via the *Forward Error Propagation* quantity ``Fep`` — on the
failure distributions a network tolerates without any recovery
learning.

Quickstart
----------
>>> import numpy as np
>>> from repro import build_mlp, certify, CampaignSpec, FaultSpec, NetworkRef, SamplerSpec, run
>>> net = build_mlp(2, [16, 8], activation={"name": "sigmoid", "k": 0.5}, seed=0)
>>> cert = certify(net, epsilon=0.3, epsilon_prime=0.1, mode="crash")
>>> spec = CampaignSpec(
...     network=NetworkRef(builder="mlp", params={"input_dim": 2, "hidden": [16, 8], "seed": 0}),
...     sampler=SamplerSpec(kind="fixed", distribution=(2, 1)),
...     fault=FaultSpec(kind="crash"), n_scenarios=1000)
>>> result = run(spec)                                     # doctest: +SKIP

Every campaign, survival and chaos study is a *spec* — a frozen,
JSON-round-trippable, content-hashable dataclass — executed by the
single dispatcher :func:`repro.run` (see :mod:`repro.specs` and
docs/api.md).

Subpackages
-----------
- :mod:`repro.core` — Fep and Theorems 1-5 (the contribution);
- :mod:`repro.network` — the from-scratch network substrate;
- :mod:`repro.training` — backprop trainer (incl. Fep regulariser);
- :mod:`repro.faults` — fault models, injection, campaigns;
- :mod:`repro.distributed` — process-per-neuron simulator, boosting;
- :mod:`repro.chaos` — temporal chaos campaigns over deployed fleets;
- :mod:`repro.specs` — the declarative run-spec layer + ``repro.run``;
- :mod:`repro.quantization` — Theorem-5 precision reduction;
- :mod:`repro.analysis` — Lipschitz/topology/statistics utilities;
- :mod:`repro.experiments` — one module per paper figure/claim.
"""

from .chaos import ChaosReport
from .core import (
    BoundCheck,
    RobustnessCertificate,
    certify,
    check_theorem1,
    check_theorem3,
    check_theorem4,
    check_theorem5,
    empirical_audit,
    forward_error_propagation,
    network_fep,
    precision_error_bound,
    synapse_fep,
    theorem1_max_crashes,
)
from .faults import (
    ByzantineFault,
    CrashFault,
    FailureScenario,
    FaultInjector,
    random_failure_scenario,
    worst_case_crash_scenario,
)
from .network import (
    FeedForwardNetwork,
    Sigmoid,
    build_conv_net,
    build_figure3_network,
    build_mlp,
    load_network,
    save_network,
)
from .specs import (
    SPEC_VERSION,
    CampaignSpec,
    ChaosSpec,
    ServiceSpec,
    DetectorSpec,
    EngineSpec,
    FaultSpec,
    NetworkRef,
    ObsSpec,
    PolicySpec,
    ProcessSpec,
    SamplerSpec,
    StoppingSpec,
    SpecError,
    SurvivalSpec,
    TelemetrySpec,
    TrafficSpec,
    load_spec,
    run,
    save_spec,
    spec_from_dict,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "forward_error_propagation",
    "network_fep",
    "synapse_fep",
    "precision_error_bound",
    "theorem1_max_crashes",
    "check_theorem1",
    "check_theorem3",
    "check_theorem4",
    "check_theorem5",
    "BoundCheck",
    "RobustnessCertificate",
    "certify",
    "empirical_audit",
    # network
    "FeedForwardNetwork",
    "Sigmoid",
    "build_mlp",
    "build_conv_net",
    "build_figure3_network",
    "save_network",
    "load_network",
    # faults
    "FaultInjector",
    "FailureScenario",
    "CrashFault",
    "ByzantineFault",
    "random_failure_scenario",
    "worst_case_crash_scenario",
    # chaos (the deployment-lifecycle subsystem)
    "ChaosReport",
    # the declarative run-spec layer (the stable public API)
    "run",
    "SPEC_VERSION",
    "SpecError",
    "NetworkRef",
    "FaultSpec",
    "SamplerSpec",
    "StoppingSpec",
    "EngineSpec",
    "ObsSpec",
    "CampaignSpec",
    "SurvivalSpec",
    "ProcessSpec",
    "DetectorSpec",
    "PolicySpec",
    "TrafficSpec",
    "TelemetrySpec",
    "ChaosSpec",
    "ServiceSpec",
    "spec_from_dict",
    "load_spec",
    "save_spec",
]
