"""Topology export and structural statistics (networkx-backed).

The paper's message is that robustness is computable "only ... looking
at the topology of the network"; this module makes the topology a
first-class object: a directed weighted graph with input clients,
neuron processes and the output client, plus the summary statistics
the bounds consume.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..network.model import FeedForwardNetwork

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["to_graph", "topology_stats", "figure1_network_stats"]


def to_graph(network: FeedForwardNetwork) -> "nx.DiGraph":
    """Directed graph of the network.

    Nodes are labelled ``("in", i)``, ``(l, i)`` for neurons (1-based
    layer), and ``("out", j)``; node attribute ``role`` distinguishes
    clients from neurons (inputs and output are clients — dotted in
    the paper's Figure 1 — and cannot fail).  Edge attribute
    ``weight`` carries the synaptic weight.
    """
    import networkx as nx

    g = nx.DiGraph()
    for i in range(network.input_dim):
        g.add_node(("in", i), role="client", layer=0)
    for l, width in enumerate(network.layer_sizes, start=1):
        for i in range(width):
            g.add_node((l, i), role="neuron", layer=l)
    for j in range(network.n_outputs):
        g.add_node(("out", j), role="client", layer=network.depth + 1)

    for l0, layer in enumerate(network.layers):
        dense = layer.dense_weights()
        mask = layer.synapse_mask()
        src_label = (
            (lambda i: ("in", i)) if l0 == 0 else (lambda i, _l=l0: (_l, i))
        )
        for j in range(layer.n_out):
            for i in range(layer.n_in):
                if mask[j, i]:
                    g.add_edge(src_label(i), (l0 + 1, j), weight=float(dense[j, i]))
    for j in range(network.n_outputs):
        for i in range(network.layer_sizes[-1]):
            g.add_edge(
                (network.depth, i),
                ("out", j),
                weight=float(network.output_weights[j, i]),
            )
    return g


def topology_stats(network: FeedForwardNetwork) -> dict:
    """Structural summary: everything the bounds read off the topology."""
    import networkx as nx

    g = to_graph(network)
    neuron_nodes = [n for n, d in g.nodes(data=True) if d["role"] == "neuron"]
    weights = np.array([abs(d["weight"]) for _, _, d in g.edges(data=True)])
    return {
        "depth": network.depth,
        "input_dim": network.input_dim,
        "layer_sizes": network.layer_sizes,
        "n_neurons": len(neuron_nodes),
        "n_synapses": g.number_of_edges(),
        "weight_maxes": network.weight_maxes(),
        "global_weight_max": float(weights.max()) if weights.size else 0.0,
        "mean_abs_weight": float(weights.mean()) if weights.size else 0.0,
        "lipschitz": network.lipschitz_constant,
        "is_dag": nx.is_directed_acyclic_graph(g),
        # weight=None: count hops, not synaptic-weight sums.
        "longest_path_len": int(nx.dag_longest_path_length(g, weight=None)),
    }


def figure1_network_stats(network: FeedForwardNetwork) -> dict:
    """The Figure-1 checkables: d, L, per-layer widths, client roles.

    The paper's example has ``d=3, L=3, N=(4,3,4)``; the Fig-1 bench
    builds exactly that shape and asserts these invariants.
    """
    g = to_graph(network)
    clients = [n for n, d in g.nodes(data=True) if d["role"] == "client"]
    stats = topology_stats(network)
    stats.update(
        {
            "n_clients": len(clients),
            "clients_have_no_failure_semantics": all(
                isinstance(n[0], str) for n in clients
            ),
            # Every neuron of layer l-1 is "on the left of" layer l: full
            # bipartite wiring for dense stages.
            "path_length_input_to_output": stats["longest_path_len"],
        }
    )
    return stats
