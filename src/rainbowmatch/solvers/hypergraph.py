"""Auxiliary 3-uniform hypergraph and randomized nibble matching.

Elements live in two namespaces: graph vertices and colors.  A hyperedge is
the id of a graph edge (x, y, c) whose endpoints both survive outside the
sample; it covers the elements x, y and c.  When the color classes are
2-factors and no vertex pair carries more than two edges (alspach_solve checks
both once per instance), any two elements lie in at most two hyperedges.

The nibble's rounds bite each surviving hyperedge independently with
probability ROUND_FRACTION.  A round draws the geometric skips between its
bites rather than one coin per hyperedge, and takes its bites in a shuffled
order.  After the first round, whose bites already cover most vertices, the
survivors are found from the edge lists of the free vertices, so the work
past one C-level pass over the hyperedge ids scales with the bites and the
free vertices, not with the number of hyperedges.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from ..graph import ColoredMultigraph
from ..seeding import shuffle

ROUND_FRACTION = 0.1  # share of the surviving hyperedges each nibble round samples
_LOG_SPARE = math.log(1.0 - ROUND_FRACTION)


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


def _bite(rng: random.Random, pool: list[int]) -> list[int]:
    """Each element of pool independently with probability ROUND_FRACTION,
    in pool order.

    The skip from one bite to the next is geometric, floor(ln U / ln(1 - q))
    for U uniform on (0, 1], so one draw is made per bite, not per element.
    """
    log, draw, n = math.log, rng.random, len(pool)
    bitten = []
    i = -1
    while True:
        i += 1 + int(log(1.0 - draw()) / _LOG_SPARE)
        if i >= n:
            return bitten
        bitten.append(pool[i])


def _survivors(h: AuxHypergraph, free: set[int], used_c: set[int]) -> list[int]:
    """Hyperedges of h with both ends in free and a color not in used_c,
    ascending.

    An edge with both ends free lies on the edge lists of two free vertices,
    so intersecting those lists finds it and the cost scales with the free
    vertices, not with h.  Membership in h is tested by bisecting
    h.hyperedges, so a hand-built h holding only some of the edges among its
    vertices stays exact.
    """
    ids = h.hyperedges
    edges = h.graph.edges
    incident = h.graph.incident
    seen: set[int] = set()
    both: set[int] = set()
    for x in free:
        both.update(seen.intersection(incident[x]))
        seen.update(incident[x])
    alive = []
    for e in sorted(both):
        i = bisect_left(ids, e)
        if edges[e][2] not in used_c and i < len(ids) and ids[i] == e:
            alive.append(e)
    return alive


def nibble_match(h: AuxHypergraph, seed: int = 0) -> list[int]:
    """Semi-random nibble: repeatedly bite a small random share of surviving
    hyperedges, keep those still disjoint from the matching in a random order,
    remove covered elements, and finish with a greedy sweep.  Returns the
    matched hyperedges' graph edge ids, pairwise disjoint in vertices and colors.

    Runs ceil(ln(#elements covered)) rounds, counting distinct vertices and
    colors over the hyperedges.  Each round bites every survivor with
    probability ROUND_FRACTION by geometric skips (_bite) and takes its bites
    in a shuffled order; the final sweep takes what is still alive in a
    shuffled order.  Round 0 bites all of h, and its survivors are found from
    the free vertices (_survivors); later rounds filter their short survivor
    list.
    """
    rng = random.Random(seed)
    ids = h.hyperedges
    if not ids:
        return []
    edges = h.graph.edges
    # the vertices with an edge in h, each found by one C-level set test
    members = set(ids)
    vertices = {x for x, inc in enumerate(h.graph.incident)
                if not members.isdisjoint(inc)}
    rounds = max(1, math.ceil(math.log(max(2, len(vertices) + len(h.color_degree)))))

    matched: list[int] = []
    used_v: set[int] = set()
    used_c: set[int] = set()

    def take(candidates: list[int]) -> None:
        shuffle(rng, candidates)
        for eid in candidates:
            x, y, c = edges[eid]
            if x not in used_v and y not in used_v and c not in used_c:
                matched.append(eid)
                used_v.update((x, y))
                used_c.add(c)

    take(_bite(rng, ids))
    alive = _survivors(h, vertices - used_v, used_c)
    for _ in range(rounds - 1):
        if not alive:
            break
        take(_bite(rng, alive))
        alive = [eid for eid, (x, y, c) in zip(alive, map(edges.__getitem__, alive))
                 if x not in used_v and y not in used_v and c not in used_c]
    take(alive)  # final greedy sweep
    return matched
