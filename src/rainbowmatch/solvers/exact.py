"""Exact maximum rainbow matching by branch and bound.

Ground-truth oracle for tests and lower-bound certification.  Branches on the
scarcest live color, the lowest id among ties: take each of its live edges in
`color_edges` order, then skip the color.  Prunes with the smaller of two
bounds: the number of live colors, and a vertex packing bound, the sum of
floor(|C|/2) over the connected components C of the live edges.

Each node is cheap.  Per-color live-edge counts are kept incrementally, so
covering or freeing a vertex touches only its incident edges.  The packing
bound is computed only when the live-color bound does not prune, by a BFS over
vertex bitmasks: each vertex keeps a mask of the vertices it shares a pair with
that still carries an unbanned color.  The search runs on an explicit stack of
frames, so its depth is not capped by the recursion limit.  The search stops
on a node budget alone, so "certified" is a pure function of the instance and
the budget, never of the clock.
"""

from __future__ import annotations

from typing import Optional

from ..graph import ColoredMultigraph, RainbowMatching
from .augment import augment
from .greedy import greedy_maximal


def _packing_bound(free: int, nbr: list[int]) -> int:
    """Sum of floor(|C|/2) over the components C that nbr induces on free."""
    total = 0
    rest = free
    while rest:
        frontier = rest & -rest
        rest ^= frontier
        size = 1
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = nbr[low.bit_length() - 1] & rest
            if new:
                rest ^= new
                frontier |= new
                size += new.bit_count()
        total += size >> 1
    return total


def exact_max_rainbow(graph: ColoredMultigraph,
                      node_budget: Optional[int] = None
                      ) -> tuple[int, RainbowMatching, bool]:
    """(optimum size, witness matching, certified flag).

    certified is True iff the search ran to completion within node_budget
    nodes (None means no limit).  The incumbent is seeded with greedy +
    augmentation, so the result never trails the heuristics.
    """
    seed_matching = augment(graph, greedy_maximal(graph, "rare_color_first"))
    best_pairs = list(seed_matching.pairs)
    best_size = len(best_pairs)

    edges = graph.edges
    n_colors = graph.n_colors

    # live edges: both ends free; count[c] ignores bans, which the scan applies
    free = bytearray(b"\x01" * graph.n_vertices)
    free_mask = (1 << graph.n_vertices) - 1
    count = [len(ids) for ids in graph.color_edges]
    banned = bytearray(n_colors)
    around: list[list[tuple[int, int]]] = [[] for _ in range(graph.n_vertices)]
    # nbr[v] has w's bit iff the pair {v, w} carries an unbanned edge
    nbr = [0] * graph.n_vertices
    pair_ids: dict[tuple[int, int], int] = {}
    unbanned_on_pair: list[int] = []
    color_pairs: list[list[tuple[int, int, int, int, int]]] = [[] for _ in range(n_colors)]
    for u, v, c in edges:
        around[u].append((v, c))
        around[v].append((u, c))
        p = pair_ids.setdefault((u, v) if u < v else (v, u), len(pair_ids))
        if p == len(unbanned_on_pair):
            unbanned_on_pair.append(0)
        unbanned_on_pair[p] += 1
        color_pairs[c].append((p, u, v, 1 << u, 1 << v))
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u

    def cover(x: int) -> None:
        free[x] = 0
        for w, d in around[x]:
            if free[w]:
                count[d] -= 1

    def uncover(x: int) -> None:
        for w, d in around[x]:
            if free[w]:
                count[d] += 1
        free[x] = 1

    def ban(c: int) -> None:
        banned[c] = 1
        for p, u, v, bu, bv in color_pairs[c]:
            unbanned_on_pair[p] -= 1
            if not unbanned_on_pair[p]:
                nbr[u] ^= bv
                nbr[v] ^= bu

    def unban(c: int) -> None:
        banned[c] = 0
        for p, u, v, bu, bv in color_pairs[c]:
            if not unbanned_on_pair[p]:
                nbr[u] ^= bv
                nbr[v] ^= bu
            unbanned_on_pair[p] += 1

    stack: list[tuple[int, int]] = []
    # one frame per open branching: [color, its live edge ids, next branch];
    # branch i < len(ids) takes ids[i], branch len(ids) skips the color
    frames: list[list] = []
    out_of_budget = False
    nodes = 0
    while True:
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            out_of_budget = True
            break
        size = len(stack)
        if size > best_size:
            best_size = size
            best_pairs = list(stack)
        n_live = 0
        scarcest = -1
        fewest = len(edges) + 1
        for c in range(n_colors):
            k = count[c]
            if k and not banned[c]:
                n_live += 1
                if k < fewest:
                    scarcest, fewest = c, k
        if (size + n_live > best_size
                and size + _packing_bound(free_mask, nbr) > best_size):
            ban(scarcest)
            frames.append([scarcest, [eid for eid in graph.color_edges[scarcest]
                                      if free[edges[eid][0]] and free[edges[eid][1]]], 0])
        # advance to the next unexplored branch, closing finished frames
        while frames:
            frame = frames[-1]
            c, ids, i = frame
            if 0 < i <= len(ids):
                u, v, _ = edges[ids[i - 1]]
                stack.pop()
                uncover(v)
                uncover(u)
                free_mask |= (1 << u) | (1 << v)
            if i <= len(ids):
                frame[2] = i + 1
                if i < len(ids):
                    eid = ids[i]
                    u, v, _ = edges[eid]
                    stack.append((eid, c))
                    cover(u)
                    cover(v)
                    free_mask ^= (1 << u) | (1 << v)
                break
            unban(c)
            frames.pop()
        else:
            break
    return best_size, RainbowMatching(pairs=sorted(best_pairs)), not out_of_budget
