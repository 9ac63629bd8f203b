"""Greedy construction of maximal rainbow matchings."""

from __future__ import annotations

import random
from typing import Iterable, Optional

from ..graph import ColoredMultigraph, RainbowMatching


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


class _ScarcestPicker:
    """Incremental bookkeeping for scarcest-color-first greedy placement.

    Keeps per-color live-edge counts; covering a vertex kills its incident
    edges exactly once, so the total maintenance cost is linear in the edge
    count.
    """

    def __init__(self, graph: ColoredMultigraph, colors: Iterable[int]):
        self.graph = graph
        self.colors = sorted(set(colors))
        self.dead = bytearray(graph.n_edges)
        self.covered = bytearray(graph.n_vertices)
        self.count = [0] * graph.n_colors
        self.tracked = bytearray(graph.n_colors)
        for c in self.colors:
            self.count[c] = len(graph.color_edges[c])
            self.tracked[c] = 1
        self.cursor = {c: 0 for c in self.colors}

    def cover(self, vertex: int) -> None:
        if self.covered[vertex]:
            return
        self.covered[vertex] = 1
        dead = self.dead
        edges = self.graph.edges
        count = self.count
        tracked = self.tracked
        for eid in self.graph.incident[vertex]:
            if not dead[eid]:
                dead[eid] = 1
                c = edges[eid][2]
                if tracked[c]:
                    count[c] -= 1

    def take_edge(self, color: int) -> int:
        """Lowest-id live edge of the color; caller guarantees count > 0."""
        lst = self.graph.color_edges[color]
        i = self.cursor[color]
        while self.dead[lst[i]]:
            i += 1
        self.cursor[color] = i
        return lst[i]

    def run(self, used_vertices: set[int], used_colors: set[int],
            pairs: list[tuple[int, int]], strict: bool = False) -> Optional[int]:
        for v in used_vertices:
            self.cover(v)
        remaining = [c for c in self.colors if c not in used_colors]
        while remaining:
            best_c = min(remaining, key=lambda c: (self.count[c], c))
            if self.count[best_c] == 0:
                if strict:
                    return best_c
                remaining = [c for c in remaining if self.count[c] > 0]
                continue
            eid = self.take_edge(best_c)
            u, v, c = self.graph.edges[eid]
            pairs.append((eid, c))
            used_vertices.update((u, v))
            used_colors.add(c)
            self.cover(u)
            self.cover(v)
            remaining.remove(best_c)
        return None


def greedy_maximal(graph: ColoredMultigraph, order: str = "input",
                   seed: int = 0) -> RainbowMatching:
    """Maximal rainbow matching: no leftover edge has free endpoints and a free color.

    order: "input" scans edges by id, "random" by a seeded shuffle,
    "rare_color_first" places colors by ascending remaining-edge count.
    """
    used_vertices: set[int] = set()
    used_colors: set[int] = set()
    pairs: list[tuple[int, int]] = []
    if order in ("input", "random"):
        ids = list(range(graph.n_edges))
        if order == "random":
            random.Random(seed).shuffle(ids)
        _greedy_pass(graph, ids, used_vertices, used_colors, pairs)
    elif order == "rare_color_first":
        picker = _ScarcestPicker(graph, range(graph.n_colors))
        picker.run(used_vertices, used_colors, pairs)
    else:
        raise ValueError(f"unknown order {order!r}")
    return RainbowMatching(pairs=pairs)


def try_complete(sample_graph: ColoredMultigraph,
                 missing: Iterable[int]) -> tuple[RainbowMatching, Optional[int]]:
    """Place the missing colors inside the sample, scarcest color first.

    Returns (partial matching, first color with no disjoint edge left, or None).
    """
    used_vertices: set[int] = set()
    used_colors: set[int] = set()
    pairs: list[tuple[int, int]] = []
    picker = _ScarcestPicker(sample_graph, missing)
    stuck = picker.run(used_vertices, used_colors, pairs, strict=True)
    return RainbowMatching(pairs=pairs), stuck
