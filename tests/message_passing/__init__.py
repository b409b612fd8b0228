"""The paper's Section II-A model made literal: a process-per-neuron,
channel-per-synapse synchronous message-passing simulator.

A test oracle, not part of the package: the mask engine behind
:meth:`repro.faults.FaultInjector.run` must agree with it on every
scenario it can express (``tests/test_simulator.py``,
``tests/test_properties.py``).
"""

from .channels import SynapseChannel
from .events import ComponentState, Reset, RoundTrace, Signal
from .neuron import NeuronProcess
from .simulator import DistributedNetwork

__all__ = [
    "Signal",
    "Reset",
    "RoundTrace",
    "ComponentState",
    "SynapseChannel",
    "NeuronProcess",
    "DistributedNetwork",
]
