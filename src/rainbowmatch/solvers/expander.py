"""Matching expander for clique-union instances.

Guarantees a (not necessarily rainbow) matching of size n_colors whenever
every color class spans at least 2n+2m vertices and pair multiplicities are
at most m.  A maximal matching that is still short admits a reconfiguration:
vertices reachable from the free set through high-multiplicity attachment
points can be released by a backtrack-free pointer chase, which frees both
endpoints of some edge and lets the matching grow.
"""

from __future__ import annotations

import math
from typing import Optional

from ..errors import AugmentationStalled, HypothesisViolated
from ..graph import ColoredMultigraph, ColorClassKind, validate


class _Expander:
    def __init__(self, graph: ColoredMultigraph):
        self.graph = graph
        self.mate: dict[int, int] = {}       # vertex -> partner
        self.match_edge: dict[int, int] = {}  # min(u,v) of a matched pair -> edge id

    def _add(self, u: int, v: int, eid: int) -> None:
        self.mate[u] = v
        self.mate[v] = u
        self.match_edge[min(u, v)] = eid

    def _remove(self, u: int, v: int) -> None:
        del self.mate[u]
        del self.mate[v]
        del self.match_edge[min(u, v)]

    @property
    def size(self) -> int:
        return len(self.match_edge)

    def edge_ids(self) -> list[int]:
        return sorted(self.match_edge.values())

    def extend_greedy(self) -> None:
        for eid, (u, v, _) in enumerate(self.graph.edges):
            if u not in self.mate and v not in self.mate:
                self._add(u, v, eid)

    # -- reconfiguration ---------------------------------------------------

    def _build_levels(self, m: int
                      ) -> tuple[dict[int, int], Optional[tuple[int, int, int]]]:
        """Level map over free vertices (0) and released partners (1, 2, ...).

        A matching edge's partner is levelled once the other endpoint has at
        least m + 1 edges into levelled vertices, m being the graph's realized
        maximum pair multiplicity (at least 1).  Returns the levels and, if
        present, an edge (u, v, eid) with both endpoints levelled: the
        augmentation opportunity.
        """
        g = self.graph
        level: dict[int, int] = {v: 0 for v in range(g.n_vertices)
                                 if v not in self.mate}
        unassigned = set(self.match_edge.values())
        lvl = 0
        while unassigned:
            lvl += 1
            new_edges = []
            for eid in unassigned:
                u, v, _ = g.edges[eid]
                for x, partner in ((u, v), (v, u)):
                    count = sum(1 for ie in g.incident[x]
                                if self._other(ie, x) in level)
                    if count >= m + 1:
                        new_edges.append((eid, partner))
                        break
            if not new_edges:
                break
            for eid, partner in new_edges:
                level[partner] = lvl
                unassigned.discard(eid)
            hit = self._find_internal_edge(level)
            if hit is not None:
                return level, hit
        return level, self._find_internal_edge(level)

    def _other(self, eid: int, x: int) -> int:
        u, v, _ = self.graph.edges[eid]
        return v if u == x else u

    def _find_internal_edge(self, level: dict[int, int]
                            ) -> Optional[tuple[int, int, int]]:
        for eid, (u, v, _) in enumerate(self.graph.edges):
            if u in level and v in level:
                return (u, v, eid)
        return None

    def _pick(self, x: int, below: int, level: dict[int, int],
              forbid: set[int]) -> tuple[int, int]:
        """Witness edge from x to a levelled vertex strictly below `below`."""
        for eid in self.graph.incident[x]:
            t = self._other(eid, x)
            if t in forbid:
                continue
            if level.get(t, below) < below:
                return t, eid
        raise AugmentationStalled(f"no witness edge below level {below} at vertex {x}")

    def _release(self, u: int, v: int, level: dict[int, int]) -> None:
        """Rewire the matching so that both u and v end up uncovered.

        Strictly descends through levels; all witness picks happen before any
        rewiring, so the chase never backtracks.  Each step of the descent
        trades matched pairs (x, u) for (x, u2); the trades are applied
        innermost first once the descent reaches level 0.
        """
        trades: list[tuple[tuple[int, int, int, int], ...]] = []
        while True:
            lu, lv = level[u], level[v]
            if lu < lv:
                u, v = v, u
                lu, lv = lv, lu
            if lu == 0:
                break  # both already free
            x = self.mate[u]
            if lv < lu:
                u2, eid2 = self._pick(x, lu, level, forbid={v})
                trades.append(((x, u, u2, eid2),))
                u = u2
            else:
                y = self.mate[v]
                u2, eid2 = self._pick(x, lu, level, forbid=set())
                v2, eid3 = self._pick(y, lu, level, forbid={u2})
                trades.append(((x, u, u2, eid2), (y, v, v2, eid3)))
                u, v = u2, v2
        for step in reversed(trades):
            for x, old, _, _ in step:
                self._remove(x, old)
            for x, _, new, eid in step:
                self._add(x, new, eid)


def expander_matching(graph: ColoredMultigraph) -> list[int]:
    """Matching of size >= n_colors in a qualifying clique-union instance.

    m is the realized maximum pair multiplicity, at least 1.  Raises
    HypothesisViolated when a color class spans fewer than 2n+2m vertices (or
    is not a clique union), AugmentationStalled past the n^2*m iteration cap.
    """
    report = validate(graph, ColorClassKind.CLIQUE_UNION)
    if not report.valid:
        raise HypothesisViolated(f"not a clique union: {report.witnesses[:5]}")
    m = max(1, graph.max_multiplicity())
    n = graph.n_colors
    short = [c for c, deco in report.decompositions.items()
             if deco.spanned_vertices < 2 * n + 2 * m]
    if short:
        raise HypothesisViolated(
            f"colors {short[:5]} span fewer than 2n+2m = {2 * n + 2 * m} vertices")

    exp = _Expander(graph)
    cap = max(1, n * n * m)
    iterations = 0
    exp.extend_greedy()
    while exp.size < n:
        iterations += 1
        if iterations > cap:
            raise AugmentationStalled(f"iteration cap {cap} reached at size {exp.size}")
        level, hit = exp._build_levels(m)
        if hit is None:
            raise AugmentationStalled(
                f"no augmentation found at size {exp.size} (expected by hypothesis)")
        u, v, eid = hit
        exp._release(u, v, level)
        exp._add(u, v, eid)
        exp.extend_greedy()
    return exp.edge_ids()


class _CliqueState:
    """Alive-edge bookkeeping with triangle substitution on deletion."""

    def __init__(self, graph: ColoredMultigraph):
        self.graph = graph
        self.alive: set[int] = set()
        self.triangle_of: dict[int, tuple[int, ...]] = {}  # edge id -> triangle edge ids
        report = validate(graph, ColorClassKind.CLIQUE_UNION)
        if not report.valid:
            raise HypothesisViolated(f"not a clique union: {report.witnesses[:5]}")
        for c in range(graph.n_colors):
            deco = report.decompositions[c]
            index: dict[tuple[int, int], list[int]] = {}
            for eid in graph.color_edges[c]:
                u, v, _ = graph.edges[eid]
                index.setdefault((min(u, v), max(u, v)), []).append(eid)
            for a, b in deco.pair_edges:
                eid = index[(min(a, b), max(a, b))].pop(0)
                self.alive.add(eid)
            for a, b, d in deco.triangles:
                tri = tuple(index[(min(x, y), max(x, y))].pop(0)
                            for x, y in ((a, b), (a, d), (b, d)))
                self.alive.update(tri)
                for eid in tri:
                    self.triangle_of[eid] = tri

    def delete(self, eid: int) -> None:
        if eid not in self.alive:
            return
        self.alive.discard(eid)
        tri = self.triangle_of.get(eid)
        if tri is not None:
            survivors = [e for e in tri if e in self.alive]
            # keep one edge of the broken triangle so the class stays a clique union
            for e in survivors[1:]:
                self.alive.discard(e)
            for e in tri:
                self.triangle_of.pop(e, None)

    def build(self, colors: set[int]) -> tuple[ColoredMultigraph, list[int]]:
        ids = sorted(eid for eid in self.alive
                     if self.graph.edges[eid][2] in colors)
        # colors are re-indexed densely for the working instance
        order = sorted(colors)
        remap = {c: i for i, c in enumerate(order)}
        edges = [(self.graph.edges[eid][0], self.graph.edges[eid][1],
                  remap[self.graph.edges[eid][2]]) for eid in ids]
        sub = ColoredMultigraph(self.graph.n_vertices, len(order), edges)
        return sub, ids


def edge_disjoint_matchings(graph: ColoredMultigraph,
                            count_target: int) -> list[list[int]]:
    """Repeatedly extract full-size matchings, deleting each one's edges and
    dropping colors it used more than sqrt(n) times.

    Returns count_target matchings, as lists of source-graph edge ids with
    empty pairwise intersections.  Raises HypothesisViolated, naming how many
    it found, when it stops short: when the spanning hypothesis degrades
    below 2n+2m (the working instance is always K2/K3 cliques, so that is the
    only hypothesis expander_matching can find violated), or when every
    color has been dropped.
    """
    n0 = graph.n_colors
    active = set(range(n0))
    state = _CliqueState(graph)
    heavy_cut = math.sqrt(n0)
    results: list[list[int]] = []
    while len(results) < count_target:
        short = f"found {len(results)} of {count_target} edge-disjoint matchings"
        if not active:
            raise HypothesisViolated(f"{short}: every color was used more than "
                                     f"sqrt(n) times")
        sub, ids = state.build(active)
        try:
            local = expander_matching(sub)
        except HypothesisViolated as exc:
            raise HypothesisViolated(short) from exc
        orig = [ids[eid] for eid in local]
        results.append(sorted(orig))
        used_per_color: dict[int, int] = {}
        for eid in orig:
            c = graph.edges[eid][2]
            used_per_color[c] = used_per_color.get(c, 0) + 1
            state.delete(eid)
        active -= {c for c, k in used_per_color.items() if k > heavy_cut}
    return results
