"""Greedy construction of maximal rainbow matchings."""

from __future__ import annotations

import random
from array import array
from itertools import islice
from operator import itemgetter
from typing import Iterable, Optional

from ..graph import ColoredMultigraph, RainbowMatching
from ..seeding import shuffle

# edges per list when _scarcest_first copies colors: a 32 KB list; larger
# lists fill the array no faster and hold more memory
_COLOR_CHUNK = 4096


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

    Each call copies the edge colors into `col`, a flat array of 2-byte ints
    (wider only past 0xFFFF colors), and marks a killed edge by writing
    `dead`, a value no color takes.  The kill loop thus reads one compact
    array rather than one edge tuple per incident edge, and on a large
    instance those tuples lie scattered through memory.  A list of colors
    would run faster still, but it costs 8 bytes per edge.
    """
    remaining = sorted(set(colors))
    col = array("H" if graph.n_colors <= 0xFFFF else "L")
    edge_colors = map(itemgetter(2), graph.edges)
    # fromlist grows the array once per list; built from the iterator, the
    # array would grow item by item
    while chunk := list(islice(edge_colors, _COLOR_CHUNK)):
        col.fromlist(chunk)
    dead = (1 << 8 * col.itemsize) - 1
    count = [len(lst) for lst in graph.color_edges]  # live edges per color
    incident = graph.incident
    pairs: list[tuple[int, int]] = []
    while remaining:
        # remaining is ascending and min keeps the first of equal keys
        best = min(remaining, key=count.__getitem__)
        if count[best] == 0:
            if strict:
                return pairs, best
            remaining = [c for c in remaining if count[c] > 0]
            continue
        # each color is placed once, so its edge list is scanned once
        eid = next(e for e in graph.color_edges[best] if col[e] != dead)
        pairs.append((eid, best))
        remaining.remove(best)
        u, v, _ = graph.edges[eid]
        # both endpoints are uncovered, or the edge would be dead
        for x in (u, v):
            for e in incident[x]:
                c = col[e]
                if c != dead:
                    col[e] = dead
                    count[c] -= 1
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
