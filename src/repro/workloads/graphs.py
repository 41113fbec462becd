"""Deterministic graph generators for recursive-query workloads.

All generators are seeded and return sorted edge lists, so every
benchmark and test run sees identical data.  The shapes matter for the
paper's claims:

* *chains* and *trees* — every derived tuple has a unique derivation,
  so even redundant schemes fire minimally (Wolfson's scheme looks free);
* *diamond-rich DAGs* — many alternative derivations per tuple, which
  is where redundancy (Section 6's trade-off) actually costs work;
* *cyclic graphs* — exercise termination on inputs whose transitive
  closure saturates.
"""

from __future__ import annotations

import random
from typing import List, Tuple

__all__ = [
    "chain_edges",
    "cycle_edges",
    "binary_tree_edges",
    "random_tree_edges",
    "random_dag_edges",
    "layered_dag_edges",
    "powerlaw_dag_edges",
    "random_graph_edges",
    "grid_edges",
]

Edge = Tuple[int, int]


def chain_edges(length: int) -> List[Edge]:
    """A path ``1 -> 2 -> ... -> length+1``."""
    return [(node, node + 1) for node in range(1, length + 1)]


def cycle_edges(length: int) -> List[Edge]:
    """A directed cycle over ``length`` nodes."""
    if length < 1:
        return []
    edges = [(node, node + 1) for node in range(1, length)]
    edges.append((length, 1))
    return edges


def binary_tree_edges(depth: int) -> List[Edge]:
    """A complete binary tree of the given depth (root = 1)."""
    edges: List[Edge] = []
    last = 2 ** depth - 1
    for node in range(1, last + 1):
        for child in (2 * node, 2 * node + 1):
            if child <= 2 ** (depth + 1) - 1:
                edges.append((node, child))
    return edges


def random_tree_edges(nodes: int, seed: int = 0) -> List[Edge]:
    """A random tree: each node links to one earlier node."""
    rng = random.Random(seed)
    edges = [(rng.randrange(1, node), node) for node in range(2, nodes + 1)]
    return sorted(set(edges))


def random_dag_edges(nodes: int, parents: int = 2, seed: int = 0) -> List[Edge]:
    """A random DAG: each node links to up to ``parents`` earlier nodes.

    With ``parents >= 2`` the graph is diamond-rich: most reachability
    facts have several derivations, which makes redundant schemes pay.
    """
    rng = random.Random(seed)
    edges = set()
    for node in range(2, nodes + 1):
        count = min(parents, node - 1)
        for predecessor in rng.sample(range(1, node), count):
            edges.add((predecessor, node))
    return sorted(edges)


def powerlaw_dag_edges(nodes: int, parents: int = 2, exponent: float = 1.2,
                       seed: int = 0) -> List[Edge]:
    """A skewed DAG: predecessors drawn by preferential attachment.

    Each node links to up to ``parents`` earlier nodes chosen with
    probability proportional to ``(out_degree + 1) ** exponent``, so a
    handful of early hub nodes accumulate most of the out-edges.  Under
    a hash partition of the recursive attribute this concentrates the
    derived tuples (and hence the firings) on the processors owning the
    hubs — the skewed load-balancing workload the paper's future-work
    section asks about (``EXPERIMENTS.md`` T8 and T11).
    """
    rng = random.Random(seed)
    edges = set()
    out_degree = [0] * (nodes + 1)
    for node in range(2, nodes + 1):
        weights = [(out_degree[earlier] + 1) ** exponent
                   for earlier in range(1, node)]
        total = sum(weights)
        chosen = set()
        for _attempt in range(min(parents, node - 1)):
            point = rng.random() * total
            cumulative = 0.0
            predecessor = node - 1
            for earlier in range(1, node):
                cumulative += weights[earlier - 1]
                if point < cumulative:
                    predecessor = earlier
                    break
            chosen.add(predecessor)
        for predecessor in chosen:
            edges.add((predecessor, node))
            out_degree[predecessor] += 1
    return sorted(edges)


def layered_dag_edges(layers: int, width: int, fanout: int = 2,
                      seed: int = 0) -> List[Edge]:
    """A layered DAG: ``layers`` ranks of ``width`` nodes each.

    Node ids are ``layer * width + column + 1``; each node feeds
    ``fanout`` random nodes of the next layer.  Long and wide — good for
    speedup studies.
    """
    rng = random.Random(seed)
    edges = set()
    for layer in range(layers - 1):
        for column in range(width):
            source = layer * width + column + 1
            for target_column in rng.sample(range(width), min(fanout, width)):
                target = (layer + 1) * width + target_column + 1
                edges.add((source, target))
    return sorted(edges)


def random_graph_edges(nodes: int, probability: float,
                       seed: int = 0) -> List[Edge]:
    """A directed Erdős–Rényi graph (may contain cycles)."""
    rng = random.Random(seed)
    edges = []
    for source in range(1, nodes + 1):
        for target in range(1, nodes + 1):
            if source != target and rng.random() < probability:
                edges.append((source, target))
    return sorted(edges)


def grid_edges(rows: int, columns: int) -> List[Edge]:
    """A directed grid: right and down edges over ``rows x columns``."""
    edges = []
    for row in range(rows):
        for column in range(columns):
            node = row * columns + column + 1
            if column + 1 < columns:
                edges.append((node, node + 1))
            if row + 1 < rows:
                edges.append((node, node + columns))
    return sorted(edges)
