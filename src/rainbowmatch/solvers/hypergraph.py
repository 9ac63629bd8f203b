"""Auxiliary 3-uniform hypergraph and randomized nibble matching.

Elements live in two namespaces: graph vertices and colors.  A hyperedge is
the id of a graph edge (x, y, c) whose endpoints both survive outside the
sample; it covers the elements x, y and c.  When the color classes are
2-factors and no vertex pair carries more than two edges (alspach_solve checks
both once per instance), any two elements lie in at most two hyperedges.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from ..graph import ColoredMultigraph
from ..seeding import shuffle

ROUND_FRACTION = 0.1  # share of the surviving hyperedges each nibble round samples


@dataclass
class AuxHypergraph:
    graph: ColoredMultigraph
    hyperedges: list[int]  # graph edge ids, ascending
    color_degree: Counter  # color -> number of hyperedges of that color


def build_aux_hypergraph(graph: ColoredMultigraph,
                         rest: Iterable[int]) -> AuxHypergraph:
    """One hyperedge per graph edge with both endpoints in rest, in id order."""
    keep = set(rest)
    edges = graph.edges
    hyperedges = [eid for eid, (u, v, _) in enumerate(edges) if u in keep and v in keep]
    return AuxHypergraph(graph, hyperedges, Counter([edges[eid][2] for eid in hyperedges]))


def nibble_match(h: AuxHypergraph, seed: int = 0) -> list[int]:
    """Semi-random nibble: repeatedly bite a small random share of surviving
    hyperedges, keep those still disjoint from the matching in priority order,
    remove covered elements, and finish with a greedy sweep.  Returns the
    matched hyperedges' graph edge ids, pairwise disjoint in vertices and colors.

    Runs ceil(ln(#elements covered)) rounds, counting distinct vertices and
    colors over the hyperedges.
    """
    rng = random.Random(seed)
    ids = h.hyperedges
    if not ids:
        return []
    edges = h.graph.edges
    triples = [edges[eid] for eid in ids]
    n_elements = (len({x for x, _, _ in triples} | {y for _, y, _ in triples})
                  + len(h.color_degree))
    rounds = max(1, math.ceil(math.log(max(2, n_elements))))
    # priority and alive share one set of index ints
    alive = list(range(len(triples)))
    priority = alive.copy()
    shuffle(rng, priority)

    matched: list[int] = []
    used_v: set[int] = set()
    used_c: set[int] = set()

    def survives(idx: int) -> bool:
        x, y, c = triples[idx]
        return x not in used_v and y not in used_v and c not in used_c

    def take_survivors(candidates: list[int]) -> None:
        for idx in sorted(candidates, key=priority.__getitem__):
            if survives(idx):
                x, y, c = triples[idx]
                matched.append(idx)
                used_v.update((x, y))
                used_c.add(c)

    for _ in range(rounds):
        if not alive:
            break
        take_survivors([i for i in alive if rng.random() < ROUND_FRACTION])
        alive = [i for i in alive if survives(i)]
    take_survivors(alive)  # final greedy sweep
    return [ids[i] for i in matched]
