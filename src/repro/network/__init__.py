"""Network analysis: dataflow graphs and minimal communication networks."""

from .dataflow import (
    dataflow_edges,
    find_dataflow_cycle,
    format_dataflow,
    zero_communication_positions,
)
from .derivation import ScenarioConstraints, build_scenarios, derive_network
from .linear import LinearSystem, build_linear_system, solve_linear_network
from .netgraph import NetworkGraph
from .topology import (
    complete_topology,
    embeds_identity,
    find_embedding,
    hypercube_topology,
    mesh_topology,
    ring_topology,
    star_topology,
)

__all__ = [
    "LinearSystem",
    "NetworkGraph",
    "ScenarioConstraints",
    "build_linear_system",
    "build_scenarios",
    "complete_topology",
    "dataflow_edges",
    "derive_network",
    "embeds_identity",
    "find_dataflow_cycle",
    "find_embedding",
    "format_dataflow",
    "hypercube_topology",
    "mesh_topology",
    "ring_topology",
    "solve_linear_network",
    "star_topology",
    "zero_communication_positions",
]
