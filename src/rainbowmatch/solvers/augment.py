"""Bounded-depth rainbow alternating-path augmentation.

Improvements are alternating paths between two uncovered vertices whose
non-matching edges take distinct colors from the free colors plus the colors
released by the matching edges removed along the path.  A path has at most
MAX_DEPTH (9) edges, or 5 in sampling's weak solve.  A step to a neighbour
joined by at least HEAVY_THRESHOLD usable colors is traversed as a wildcard;
its concrete color is assigned when the path reaches a free vertex, and the
path is applied with that assignment.

NODE_BUDGET counts search-tree expansions: one per entry into the depth-first
search, whatever work that node then does.  The per-vertex neighbour cache
(_Augmenter._neighbours) only makes a node cheaper; it leaves the expanded
nodes and their order unchanged, so a given budget explores the same tree and
returns the same matching as a search that regroups x's edges at every node.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from ..graph import ColoredMultigraph, RainbowMatching
from ..seeding import shuffle
from .greedy import _greedy_pass


# color options per vertex pair from which a step defers its color choice
HEAVY_THRESHOLD = 8
# max alternating-path length, odd
MAX_DEPTH = 9
# search-tree expansions per augment call
NODE_BUDGET = 50_000


@dataclass
class _Gain:
    """One non-matching step of a candidate path."""
    options: list[tuple[int, int]]  # (color, edge id) usable at step time
    wildcard: bool  # else options holds the one chosen pair


def _assign_colors(gains: list[_Gain], freed: set[int], c0: set[int]) -> Optional[list[tuple[int, int]]]:
    """Pick distinct colors for all gain steps, scarcest candidate set first.

    Concrete steps are fixed; wildcard steps are matched to leftover colors by
    Kuhn-style augmentation over their option lists.
    """
    allowed = c0 | freed
    taken: set[int] = set()
    for g in gains:
        if not g.wildcard:
            c, _ = g.options[0]
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

    placed = all(try_place(i, set())
                 for i in sorted(range(len(wilds)), key=lambda i: len(options(i))))
    # try_place reaches itself through its closure; unlinking it lets
    # reference counting free it now rather than the cyclic GC later
    del try_place
    if not placed:
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
            out.append(g.options[0])
    return out


class _Augmenter:
    def __init__(self, graph: ColoredMultigraph, matching: RainbowMatching,
                 seed: int, max_depth: int):
        self.graph = graph
        self.max_depth = max_depth
        self.rng = random.Random(seed)
        # each dfs entry spends a node first, then stops once none is left
        self.nodes_left = NODE_BUDGET
        self.exhausted = False
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

    def _search_from(self, v0: int, depth: int, c0: set[int]
                     ) -> Optional[tuple[list[int], list[tuple[int, int]]]]:
        """(matching edge ids to remove, (color, edge id) per gain step) of
        the first improving path from v0 within depth, or None."""
        gains: list[_Gain] = []
        removed: list[int] = []  # matching edge ids along the path
        freed: set[int] = set()
        on_path: set[int] = {v0}
        committed: set[int] = set()
        found: list[tuple[int, int]] = []  # the validated color assignment

        def dfs(x: int, length: int) -> bool:
            self.nodes_left -= 1
            if self.nodes_left <= 0:
                self.exhausted = True
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
                gains.append(_Gain(opts, len(opts) >= HEAVY_THRESHOLD))
                assignment = _assign_colors(gains, freed, c0)
                if assignment is not None:
                    found.extend(assignment)
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
                wildcard = len(opts) >= HEAVY_THRESHOLD
                for c, eid in (opts if not wildcard else [opts[0]]):
                    gains.append(_Gain(opts if wildcard else [(c, eid)], wildcard))
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
                    if self.exhausted:
                        return False
            return False

        found_path = dfs(v0, 1)
        del dfs  # a self-referencing closure, unlinked as in _assign_colors
        return (removed, found) if found_path else None

    def _apply(self, removed: list[int], assignment: list[tuple[int, int]]) -> None:
        for meid in removed:
            u, v, _ = self.graph.edges[meid]
            del self.match_at[u]
            del self.match_at[v]
            del self.edge_color[meid]
        for c, eid in assignment:
            u, v, _ = self.graph.edges[eid]
            self.match_at[u] = eid
            self.match_at[v] = eid
            self.edge_color[eid] = c

    def improve_once(self) -> bool:
        # the matching changed since the last search, and stays fixed during this one
        self._split.clear()
        c0 = self.free_colors()
        free_vertices = [v for v in range(self.graph.n_vertices)
                         if v not in self.match_at]
        shuffle(self.rng, free_vertices)
        for depth in range(3, self.max_depth + 1, 2):
            for v0 in free_vertices:
                found = self._search_from(v0, depth, c0)
                if found is not None:
                    self._apply(*found)
                    return True
                if self.exhausted:
                    return False
        return False

    def run(self) -> tuple[RainbowMatching, bool]:
        self.extend_greedy()
        while self.free_colors():
            if not self.improve_once():
                break
            self.extend_greedy()
        return self.matching(), self.exhausted


def augment_flagged(graph: ColoredMultigraph, matching: RainbowMatching,
                    seed: int = 0, max_depth: int = MAX_DEPTH
                    ) -> tuple[RainbowMatching, bool]:
    """Grow a rainbow matching by alternating paths of at most max_depth
    edges; returns it and whether NODE_BUDGET ran out.

    Sampling's weak solve passes sampling.WEAK_MAX_DEPTH (5); every other
    caller keeps MAX_DEPTH (9).

    Monotone: the result is never smaller than the input.  Budget exhaustion
    returns the current matching.
    """
    return _Augmenter(graph, matching, seed, max_depth).run()
