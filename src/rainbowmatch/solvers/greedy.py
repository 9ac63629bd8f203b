"""Greedy construction of maximal rainbow matchings."""

from __future__ import annotations

import random
from typing import Iterable, Optional

from ..graph import ColoredMultigraph, RainbowMatching
from ..seeding import shuffle


def _greedy_pass(graph: ColoredMultigraph, order: list[int],
                 used_vertices: set[int], used_colors: set[int],
                 pairs: list[tuple[int, int]]) -> None:
    for eid in order:
        u, v, c = graph.edges[eid]
        if c in used_colors or u in used_vertices or v in used_vertices:
            continue
        pairs.append((eid, c))
        used_vertices.update((u, v))
        used_colors.add(c)


def _scarcest_first(graph: ColoredMultigraph, colors: Iterable[int],
                    strict: bool) -> tuple[list[tuple[int, int]], Optional[int]]:
    """Place colors scarcest first, each on its lowest-id live edge.

    A live edge has both endpoints uncovered.  Per-color live-edge counts are
    kept incrementally: covering a vertex kills its incident edges once, so
    the upkeep is linear in the edge count.  A color with no live edge left
    is skipped, or, when strict, returned as the stuck color.
    """
    remaining = sorted(set(colors))
    edges = graph.edges
    dead = bytearray(graph.n_edges)
    count = [len(lst) for lst in graph.color_edges]  # live edges per color
    cursor = [0] * graph.n_colors
    pairs: list[tuple[int, int]] = []
    while remaining:
        best = min(remaining, key=lambda c: (count[c], c))
        if count[best] == 0:
            if strict:
                return pairs, best
            remaining = [c for c in remaining if count[c] > 0]
            continue
        lst = graph.color_edges[best]
        i = cursor[best]
        while dead[lst[i]]:
            i += 1
        cursor[best] = i
        eid = lst[i]
        pairs.append((eid, best))
        remaining.remove(best)
        u, v, _ = edges[eid]
        # both endpoints are uncovered, or the edge would be dead
        for x in (u, v):
            for e in graph.incident[x]:
                if not dead[e]:
                    dead[e] = 1
                    count[edges[e][2]] -= 1
    return pairs, None


def greedy_maximal(graph: ColoredMultigraph, order: str = "rare_color_first",
                   seed: int = 0) -> RainbowMatching:
    """Maximal rainbow matching: no leftover edge has free endpoints and a free color.

    order: "rare_color_first" places colors by ascending remaining-edge
    count; "random" scans edges in a shuffle seeded with seed, the only
    order that reads it.
    """
    if order == "rare_color_first":
        pairs, _ = _scarcest_first(graph, range(graph.n_colors), strict=False)
        return RainbowMatching(pairs=pairs)
    if order != "random":
        raise ValueError(f"unknown order {order!r}")
    ids = list(range(graph.n_edges))
    shuffle(random.Random(seed), ids)
    pairs = []
    _greedy_pass(graph, ids, set(), set(), pairs)
    return RainbowMatching(pairs=pairs)


def try_complete(sample_graph: ColoredMultigraph,
                 missing: Iterable[int]) -> tuple[RainbowMatching, Optional[int]]:
    """Place the missing colors inside the sample, scarcest color first.

    Returns (partial matching, first color with no disjoint edge left, or None).
    """
    pairs, stuck = _scarcest_first(sample_graph, missing, strict=True)
    return RainbowMatching(pairs=pairs), stuck
