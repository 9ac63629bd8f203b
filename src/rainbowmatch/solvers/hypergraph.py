"""Auxiliary 3-uniform hypergraph and randomized nibble matching.

Elements live in two namespaces: graph vertices and colors.  A hyperedge
(x, y, c) stands for a color-c edge xy whose endpoints both survive outside
the sample.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable

from ..errors import NotTwoFactorized
from ..graph import ColoredMultigraph


@dataclass
class AuxHypergraph:
    hyperedges: list[tuple[int, int, int]]  # (x, y, color)
    vertex_degree: dict[int, int] = field(default_factory=dict)
    color_degree: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.vertex_degree and not self.color_degree:
            for x, y, c in self.hyperedges:
                self.vertex_degree[x] = self.vertex_degree.get(x, 0) + 1
                self.vertex_degree[y] = self.vertex_degree.get(y, 0) + 1
                self.color_degree[c] = self.color_degree.get(c, 0) + 1


def build_aux_hypergraph(graph: ColoredMultigraph,
                         rest: Iterable[int]) -> AuxHypergraph:
    """One hyperedge per colored edge with both endpoints in rest.

    For 2-factor color classes any two elements lie in at most two common
    hyperedges; NotTwoFactorized is raised when that co-degree bound fails.
    """
    keep = set(rest)
    hyperedges = [(u, v, c) for (u, v, c) in graph.edges if u in keep and v in keep]
    co: dict[tuple, int] = {}
    for x, y, c in hyperedges:
        lo, hi = (x, y) if x < y else (y, x)
        for pair in (("vv", lo, hi), ("vc", x, c), ("vc", y, c)):
            co[pair] = co.get(pair, 0) + 1
    if any(k > 2 for k in co.values()):
        raise NotTwoFactorized("co-degree exceeds 2; not 2-factorized?")
    return AuxHypergraph(hyperedges=hyperedges)


def _conflict_free(candidates: list[int], hyperedges: list[tuple[int, int, int]],
                   priority: list[int]) -> list[int]:
    """Keep a conflict-free subset of the sampled hyperedges by priority order."""
    kept = []
    used_v: set[int] = set()
    used_c: set[int] = set()
    for idx in sorted(candidates, key=lambda i: priority[i]):
        x, y, c = hyperedges[idx]
        if x in used_v or y in used_v or c in used_c:
            continue
        kept.append(idx)
        used_v.update((x, y))
        used_c.add(c)
    return kept


def nibble_match(h: AuxHypergraph, rounds: int = 0, round_fraction: float = 0.1,
                 seed: int = 0) -> list[tuple[int, int, int]]:
    """Semi-random nibble: repeatedly bite a small random share of surviving
    hyperedges, keep a conflict-free subset, remove covered elements, and
    finish with a greedy sweep.  Output triples are pairwise disjoint.
    """
    if not (0 < round_fraction < 1):
        raise ValueError("round_fraction must lie in (0, 1)")
    rng = random.Random(seed)
    edges = h.hyperedges
    if not edges:
        return []
    if rounds <= 0:
        n_elements = len(h.vertex_degree) + len(h.color_degree)
        rounds = max(1, math.ceil(math.log(max(2, n_elements))))
    priority = list(range(len(edges)))
    rng.shuffle(priority)

    alive = list(range(len(edges)))
    matched: list[int] = []
    used_v: set[int] = set()
    used_c: set[int] = set()

    def survives(idx: int) -> bool:
        x, y, c = edges[idx]
        return x not in used_v and y not in used_v and c not in used_c

    for _ in range(rounds):
        if not alive:
            break
        bite = [i for i in alive if rng.random() < round_fraction]
        for idx in _conflict_free(bite, edges, priority):
            if survives(idx):
                x, y, c = edges[idx]
                matched.append(idx)
                used_v.update((x, y))
                used_c.add(c)
        alive = [i for i in alive if survives(i)]

    # final greedy sweep over survivors in priority order
    for idx in sorted(alive, key=lambda i: priority[i]):
        if survives(idx):
            x, y, c = edges[idx]
            matched.append(idx)
            used_v.update((x, y))
            used_c.add(c)
    return [edges[i] for i in matched]
