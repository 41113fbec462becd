"""Seeded inputs, program texts and the answer oracle of the e2e benchmark.

The benchmark owns its generators and its oracle so that a change to
``repro.workloads`` or ``repro.engine`` cannot silently change the load
or the verdict.  Nothing in this module imports :mod:`repro`.

Graph families are chosen so that the *amount of work* barely depends
on the seed (the benchmark contract compares runs of different seeds):

* ``layered`` — ``layers`` layers of ``width`` nodes; consecutive
  layers are joined by the union of ``degree`` random perfect
  matchings, so every node has out- and in-degree ``degree`` and the
  closure size varies by about 1 % across seeds (a uniform random DAG
  of the same size varies by 10 %);
* ``chain`` — one path; the seed only draws the node labels, i.e. which
  processor the hash partition gives each node to.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Tuple

Edge = Tuple[int, int]

ANCESTOR = """\
anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
"""

# The paper's Example 8: the non-linear form of the same query.
NONLINEAR_ANCESTOR = """\
anc(X, Y) :- par(X, Y).
anc(X, Y) :- anc(X, Z), anc(Z, Y).
"""

BASE_PREDICATE = "par"
ANSWER_PREDICATE = "anc"


def layered_dag(rng: random.Random, width: int, layers: int,
                degree: int) -> List[Edge]:
    """A degree-regular layered DAG; node ``layer * width + slot``."""
    edges = set()
    for layer in range(layers - 1):
        for _ in range(degree):
            slots = list(range(width))
            rng.shuffle(slots)
            for slot, target in enumerate(slots):
                edges.add((layer * width + slot,
                           (layer + 1) * width + target))
    return sorted(edges)


def chain(rng: random.Random, edges: int) -> List[Edge]:
    """A path of ``edges`` edges over randomly drawn distinct labels."""
    labels = rng.sample(range(10 * (edges + 1)), edges + 1)
    return [(labels[i], labels[i + 1]) for i in range(edges)]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a program, a scheme and a graph family.

    ``params`` are the generator's keyword arguments; ``quick_params``
    the roughly ten times smaller ones ``--quick`` uses.  ``kill`` makes
    the mp run a checkpoint-recovery run with one injected worker kill.
    """

    name: str
    why: str
    program: str
    scheme: str          # "example3" or "general"
    graph: Callable[..., List[Edge]]     # layered_dag or chain
    params: Mapping[str, int]
    quick_params: Mapping[str, int]
    kill: bool = False

    def edges(self, seed: int, quick: bool = False) -> List[Edge]:
        """The EDB of this workload at ``seed``."""
        params = self.quick_params if quick else self.params
        return self.graph(random.Random(seed), **params)


_DAG = {"width": 40, "layers": 16, "degree": 2}
_DAG_QUICK = {"width": 20, "layers": 9, "degree": 2}

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="dag-p2p",
        why=("Headline: few fat rounds, so join, dedup and bulk "
             "pack/pickle/queue do the work and per-round latency almost "
             "none; about half of the received tuples are duplicates."),
        program=ANCESTOR, scheme="example3", graph=layered_dag,
        params=_DAG, quick_params=_DAG_QUICK),
    Workload(
        name="chain-rounds",
        why=("Same program and scheme, opposite shape: hundreds of tiny "
             "rounds, so per-iteration, per-message, idle-poll and "
             "probe-wave costs dominate and bulk throughput does not."),
        program=ANCESTOR, scheme="example3", graph=chain,
        params={"edges": 400}, quick_params={"edges": 120}),
    Workload(
        name="nonlinear-general",
        why=("Example 8 under the Section 7 rewrite: multi-step joins, "
             "many firings per kept fact and few messages, so a comms "
             "change should predict no change and a kernel change most."),
        program=NONLINEAR_ANCESTOR, scheme="general", graph=layered_dag,
        params={"width": 40, "layers": 9, "degree": 2},
        quick_params={"width": 16, "layers": 6, "degree": 2}),
    Workload(
        name="tiny-fixed",
        why=("Crossover end: compute is ~10 ms, so the mp wall is spawn, "
             "ship, probe waves and pooling and set-up is import; "
             "fixed costs show here and nowhere else."),
        program=ANCESTOR, scheme="example3", graph=layered_dag,
        params={"width": 16, "layers": 6, "degree": 2},
        quick_params={"width": 8, "layers": 4, "degree": 2}),
    Workload(
        name="dag-kill",
        why=("dag-p2p inputs, mp run with checkpoint recovery and one "
             "worker killed half-way: the fault path beside the happy "
             "path, so trimming logs or checkpoints cannot break it."),
        program=ANCESTOR, scheme="example3", graph=layered_dag,
        params=_DAG, quick_params=_DAG_QUICK, kill=True),
)}


class Oracle:
    """Reachability by bitset sweeps; never touches ``repro.engine``.

    ``reach[i]`` is a Python int whose bit ``j`` says node ``j`` is
    reachable from node ``i`` by a path of one or more edges.  Nodes
    are numbered by first appearance in the edge list and swept in
    reverse until nothing changes, so any edge list gives the right
    answer; for a chain the first sweep already does.  A few kilobytes
    of bitsets stand in for the answer set, keeping the benchmark's own
    memory out of ``peak_rss_mb``.
    """

    def __init__(self, edges: Iterable[Edge]) -> None:
        self.index: Dict[int, int] = {}
        successors: List[List[int]] = []
        for source, target in edges:
            for node in (source, target):
                if node not in self.index:
                    self.index[node] = len(successors)
                    successors.append([])
            successors[self.index[source]].append(self.index[target])
        reach = [0] * len(successors)
        changed = True
        while changed:
            changed = False
            for node in range(len(successors) - 1, -1, -1):
                bits = reach[node]
                for successor in successors[node]:
                    bits |= (1 << successor) | reach[successor]
                if bits != reach[node]:
                    reach[node] = bits
                    changed = True
        self.reach = reach
        self.size = sum(bin(bits).count("1") for bits in reach)

    def accepts(self, facts: Iterable[Tuple[int, int]], count: int) -> bool:
        """True iff ``facts`` (``count`` distinct pairs) is the answer."""
        if count != self.size:
            return False
        index, reach = self.index, self.reach
        try:
            return all(reach[index[x]] >> index[y] & 1 for x, y in facts)
        except (KeyError, ValueError):
            return False

    def facts(self) -> Iterator[Tuple[int, int]]:
        """The answer as pairs, grouped by source (used only by the
        fact-store layer measurements, which need real tuples)."""
        labels = list(self.index)
        for source, bits in enumerate(self.reach):
            position = 0
            while bits:
                if bits & 1:
                    yield (labels[source], labels[position])
                bits >>= 1
                position += 1
