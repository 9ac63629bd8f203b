"""Bounded-depth rainbow alternating-path augmentation.

Improvements are alternating paths between two uncovered vertices whose
non-matching edges take distinct colors from the free colors plus the colors
released by the matching edges removed along the path.  Vertex pairs repeated
in many colors are traversed as wildcards; their concrete colors are assigned
only when a path is applied.

The node budget counts search-tree expansions: one per entry into the
depth-first search, whatever work that node then does.  The per-vertex
neighbour cache (_Augmenter._neighbours) only makes a node cheaper; it leaves
the expanded nodes and their order unchanged, so a given budget explores the
same tree and returns the same matching as a search that regroups x's edges
at every node.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from ..graph import ColoredMultigraph, RainbowMatching
from .greedy import _greedy_pass


@dataclass
class AugmentConfig:
    max_depth: int = 9           # max alternating-path length, odd
    heavy_threshold: int = 8     # color options per pair before deferring choice
    node_budget: int = 50_000    # search-tree expansions per augment call
    seed: int = 0


class _Budget:
    def __init__(self, limit: int):
        self.left = limit
        self.exhausted = False

    def spend(self) -> bool:
        self.left -= 1
        if self.left <= 0:
            self.exhausted = True
            return False
        return True


@dataclass
class _Gain:
    """One non-matching step of a candidate path."""
    x: int
    y: int
    options: list[tuple[int, int]]  # (color, edge id) usable at step time
    wildcard: bool

    def chosen(self) -> tuple[int, int]:
        return self.options[0]


def _assign_colors(gains: list[_Gain], freed: set[int], c0: set[int]) -> Optional[list[tuple[int, int]]]:
    """Pick distinct colors for all gain steps, scarcest candidate set first.

    Concrete steps are fixed; wildcard steps are matched to leftover colors by
    Kuhn-style augmentation over their option lists.
    """
    allowed = c0 | freed
    taken: set[int] = set()
    for g in gains:
        if not g.wildcard:
            c, _ = g.chosen()
            if c in taken or c not in allowed:
                return None
            taken.add(c)
    wilds = [g for g in gains if g.wildcard]
    # color -> wildcard index currently holding it
    holder: dict[int, int] = {}

    def options(i: int) -> list[tuple[int, int]]:
        return [(c, e) for (c, e) in wilds[i].options
                if c in allowed and c not in taken]

    def try_place(i: int, seen: set[int]) -> bool:
        for c, _ in options(i):
            if c in seen:
                continue
            seen.add(c)
            if c not in holder or try_place(holder[c], seen):
                holder[c] = i
                return True
        return False

    for i in sorted(range(len(wilds)), key=lambda i: len(options(i))):
        if not try_place(i, set()):
            return None
    pick: dict[int, tuple[int, int]] = {}
    for c, i in holder.items():
        eid = next(e for (cc, e) in wilds[i].options if cc == c)
        pick[i] = (c, eid)
    out = []
    wi = 0
    for g in gains:
        if g.wildcard:
            out.append(pick[wi])
            wi += 1
        else:
            out.append(g.chosen())
    return out


class _Augmenter:
    def __init__(self, graph: ColoredMultigraph, matching: RainbowMatching,
                 cfg: AugmentConfig):
        self.graph = graph
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self.match_at: dict[int, int] = {}   # vertex -> matching edge id
        self.edge_color: dict[int, int] = {}  # matching edge id -> color
        for eid, c in matching.pairs:
            u, v, _ = graph.edges[eid]
            self.match_at[u] = eid
            self.match_at[v] = eid
            self.edge_color[eid] = c
        # per-vertex neighbour split, see _neighbours
        self._split: dict[int, tuple[list, list]] = {}

    # -- matching view -----------------------------------------------------

    def used_colors(self) -> set[int]:
        return set(self.edge_color.values())

    def free_colors(self) -> set[int]:
        return set(range(self.graph.n_colors)) - self.used_colors()

    def matching(self) -> RainbowMatching:
        pairs = sorted(self.edge_color.items())
        return RainbowMatching(pairs=pairs)

    def extend_greedy(self) -> None:
        used_vertices = set(self.match_at)
        used_colors = self.used_colors()
        pairs: list[tuple[int, int]] = []
        _greedy_pass(self.graph, list(range(self.graph.n_edges)),
                     used_vertices, used_colors, pairs)
        for eid, c in pairs:
            u, v, _ = self.graph.edges[eid]
            self.match_at[u] = eid
            self.match_at[v] = eid
            self.edge_color[eid] = c

    # -- path search -------------------------------------------------------

    def _neighbours(self, x: int) -> tuple[list, list]:
        """x's neighbours as (free, matched), each ordered by vertex id.

        Entries are (y, options) and (y, options, matching edge id, partner z,
        matching color); options are x's (color, edge id) pairs to y sorted
        by color, ties in incident order.  The split depends only on the
        matching, so improve_once drops the cache before it searches.
        """
        split = self._split.get(x)
        if split is not None:
            return split
        edges = self.graph.edges
        by_y: dict[int, list[tuple[int, int]]] = {}
        for eid in self.graph.incident[x]:
            u, v, c = edges[eid]
            by_y.setdefault(v if u == x else u, []).append((c, eid))
        free: list = []
        matched: list = []
        for y in sorted(by_y):
            opts = sorted(by_y[y], key=itemgetter(0))
            meid = self.match_at.get(y)
            if meid is None:
                free.append((y, opts))
            else:
                mu, mv, _ = edges[meid]
                matched.append((y, opts, meid, mv if mu == y else mu,
                                self.edge_color[meid]))
        split = self._split[x] = (free, matched)
        return split

    def _search_from(self, v0: int, depth: int, budget: _Budget, c0: set[int]
                     ) -> Optional[tuple[list[_Gain], list[int]]]:
        heavy = self.cfg.heavy_threshold
        gains: list[_Gain] = []
        removed: list[int] = []  # matching edge ids along the path
        freed: set[int] = set()
        on_path: set[int] = {v0}
        committed: set[int] = set()

        def dfs(x: int, length: int) -> bool:
            if not budget.spend():
                return False
            free, matched = self._neighbours(x)
            allowed = None
            # terminal steps first: free neighbours close the path
            for y, opts in free:
                if y in on_path:
                    continue
                if allowed is None:
                    allowed = (c0 | freed) - committed
                opts = [ce for ce in opts if ce[0] in allowed]
                if not opts:
                    continue
                gains.append(_Gain(x, y, opts, len(opts) >= heavy))
                if _assign_colors(gains, freed, c0) is not None:
                    return True
                gains.pop()
            if length + 2 > depth:
                return False
            if allowed is None:
                allowed = (c0 | freed) - committed
            for y, opts, meid, z, mcolor in matched:
                if y in on_path or z in on_path:
                    continue
                opts = [ce for ce in opts if ce[0] in allowed]
                if not opts:
                    continue
                wildcard = len(opts) >= heavy
                for c, eid in (opts if not wildcard else [opts[0]]):
                    gains.append(_Gain(x, y, opts if wildcard else [(c, eid)], wildcard))
                    if not wildcard:
                        committed.add(c)
                    removed.append(meid)
                    freed.add(mcolor)
                    on_path.update((y, z))
                    if dfs(z, length + 2):
                        return True
                    on_path.discard(y)
                    on_path.discard(z)
                    freed.discard(mcolor)
                    removed.pop()
                    if not wildcard:
                        committed.discard(c)
                    gains.pop()
                    if budget.exhausted:
                        return False
            return False

        if dfs(v0, 1):
            return gains, removed
        return None

    def _apply(self, gains: list[_Gain], removed: list[int], c0: set[int]) -> None:
        freed = {self.edge_color[meid] for meid in removed}
        assignment = _assign_colors(gains, freed, c0)
        if assignment is None:
            raise RuntimeError("path was validated before application")
        for meid in removed:
            u, v, _ = self.graph.edges[meid]
            del self.match_at[u]
            del self.match_at[v]
            del self.edge_color[meid]
        for g, (c, eid) in zip(gains, assignment):
            # the stored edge id may carry a different color; pick the parallel
            # copy of the assigned color
            u, v, ec = self.graph.edges[eid]
            if ec != c:
                eid = next(e for e in self.graph.incident[g.x]
                           if self.graph.edges[e][2] == c
                           and {self.graph.edges[e][0], self.graph.edges[e][1]}
                           == {g.x, g.y})
            self.match_at[g.x] = eid
            self.match_at[g.y] = eid
            self.edge_color[eid] = c

    def improve_once(self, budget: _Budget) -> bool:
        # the matching changed since the last search, and stays fixed during this one
        self._split.clear()
        c0 = self.free_colors()
        free_vertices = [v for v in range(self.graph.n_vertices)
                         if v not in self.match_at]
        self.rng.shuffle(free_vertices)
        for depth in range(3, self.cfg.max_depth + 1, 2):
            for v0 in free_vertices:
                found = self._search_from(v0, depth, budget, c0)
                if found is not None:
                    self._apply(*found, c0)
                    return True
                if budget.exhausted:
                    return False
        return False

    def run(self) -> tuple[RainbowMatching, bool]:
        budget = _Budget(self.cfg.node_budget)
        self.extend_greedy()
        while self.free_colors():
            if not self.improve_once(budget):
                break
            self.extend_greedy()
        return self.matching(), budget.exhausted


def augment(graph: ColoredMultigraph, matching: RainbowMatching,
            cfg: Optional[AugmentConfig] = None) -> RainbowMatching:
    """Grow a rainbow matching by bounded-depth alternating paths.

    Monotone: the result is never smaller than the input.  Budget exhaustion
    returns the current matching.
    """
    result, _ = augment_flagged(graph, matching, cfg)
    return result


def augment_flagged(graph: ColoredMultigraph, matching: RainbowMatching,
                    cfg: Optional[AugmentConfig] = None
                    ) -> tuple[RainbowMatching, bool]:
    """augment variant also reporting whether the node budget ran out."""
    if cfg is None:
        cfg = AugmentConfig()
    if cfg.max_depth < 1:
        raise ValueError("max_depth >= 1 required")
    aug = _Augmenter(graph, matching, cfg)
    return aug.run()
