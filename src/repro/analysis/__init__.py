"""Analysis utilities: Lipschitz estimation (Figure 2), topology export,
pruning, error statistics / shape checks and Markdown reports.
"""

from .lipschitz import (
    estimate_lipschitz,
    estimate_network_lipschitz,
    sigmoid_profile,
    slope_at_origin,
)
from .stats import (
    Summary,
    bootstrap_ci,
    dominance_ratio,
    is_monotone,
    loglog_slope,
    summarize,
)
from .pruning import certified_prune, lowest_influence_neurons, prune_neurons
from .reporting import result_to_markdown, results_to_markdown, write_markdown_report
from .topology import figure1_network_stats, to_graph, topology_stats

__all__ = [
    "estimate_lipschitz",
    "slope_at_origin",
    "sigmoid_profile",
    "estimate_network_lipschitz",
    "to_graph",
    "topology_stats",
    "figure1_network_stats",
    "Summary",
    "summarize",
    "bootstrap_ci",
    "loglog_slope",
    "is_monotone",
    "dominance_ratio",
    "prune_neurons",
    "lowest_influence_neurons",
    "certified_prune",
    "result_to_markdown",
    "results_to_markdown",
    "write_markdown_report",
]
