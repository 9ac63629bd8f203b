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

At the root, a Latin square branches on fewer edges (orbital branching,
Ostrowski, Linderoth, Rossi & Smriglio, Math. Program. 2011).  The instance
must have 2n vertices, `sides` with n per side, n colors and exactly one edge
per row-column pair, each color meeting every vertex once.  The root then
drops each edge of its branching color c onto which an autotopism fixing c (a
permutation of the rows, of the columns and of the colors that maps the square
onto itself) maps its first edge.  The maps are found by propagation and
backtracking on an explicit stack, and each is checked on all n^2 cells before
it is used.  A dropped subtree is isomorphic to the first one, which the search
finished before, so it could never beat the incumbent: a search that runs to
the end returns the same optimum and witness in fewer nodes.  Deeper nodes, and
every instance that is not a Latin square, branch on every live edge.
"""

from __future__ import annotations

from typing import Optional

from ..graph import ColoredMultigraph, RainbowMatching
from .augment import augment_flagged
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


def _latin_square(graph: ColoredMultigraph
                  ) -> Optional[tuple[list[tuple[int, int]], list[list[int]]]]:
    """(the cell (i, j) of each edge, L) when graph is a Latin square, else
    None.  L[i][j] is the color of the one edge between row i and column j,
    the rows being the side-0 vertices and the columns the side-1 vertices,
    each in id order."""
    n = graph.n_vertices // 2
    sides = graph.sides
    if (sides is None or graph.n_vertices != 2 * n or graph.n_colors != n
            or graph.n_edges != n * n or sides.count(0) != n):
        return None
    pos = [0] * graph.n_vertices
    seen = [0, 0]
    for v, s in enumerate(sides):
        pos[v] = seen[s]
        seen[s] += 1
    cells = []
    square = [[-1] * n for _ in range(n)]
    row_has = [bytearray(n) for _ in range(n)]
    col_has = [bytearray(n) for _ in range(n)]
    for u, v, c in graph.edges:
        if sides[u] == sides[v]:
            return None
        i, j = (pos[u], pos[v]) if sides[u] == 0 else (pos[v], pos[u])
        if square[i][j] >= 0 or row_has[i][c] or col_has[j][c]:
            return None
        cells.append((i, j))
        square[i][j] = c
        row_has[i][c] = col_has[j][c] = 1
    return cells, square


def _conjugates(square: list[list[int]]) -> list[list]:
    """t[d][e][x][y]: the third coordinate of the cell whose coordinates d and
    e (0 row, 1 column, 2 color) are x and y; t[d][d] is None."""
    n = len(square)
    by_color_in_row = [[0] * n for _ in range(n)]
    by_color_in_col = [[0] * n for _ in range(n)]
    for i, row in enumerate(square):
        for j, c in enumerate(row):
            by_color_in_row[i][c] = j
            by_color_in_col[j][c] = i

    def transpose(t: list[list[int]]) -> list[list[int]]:
        return [list(col) for col in zip(*t)]

    return [[None, square, by_color_in_row],
            [transpose(square), None, by_color_in_col],
            [transpose(by_color_in_row), transpose(by_color_in_col), None]]


def _extend(t: list[list], maps: list[list[int]],
            todo: list[tuple[int, int, int]]) -> bool:
    """Apply each (coordinate, x, image) in todo to maps, with all it forces;
    False on a contradiction.

    maps[d] maps coordinate d's values (-1 while unknown) and maps[d + 3] is
    its inverse.  Once x -> y holds in coordinate d, each known z -> w of
    another coordinate e forces the third coordinate of cell (x, z) to map to
    that of cell (y, w).
    """
    while todo:
        d, x, y = todo.pop()
        image, inverse = maps[d], maps[d + 3]
        if image[x] >= 0:
            if image[x] != y:
                return False
            continue
        if inverse[y] >= 0:
            return False
        image[x] = y
        inverse[y] = x
        for e in range(3):
            if e != d:
                f = 3 - d - e
                tx, ty = t[d][e][x], t[d][e][y]
                todo += [(f, tx[z], ty[w]) for z, w in enumerate(maps[e]) if w >= 0]
    return True


def _is_autotopism(square: list[list[int]], alpha: list[int], beta: list[int],
                   gamma: list[int]) -> bool:
    """alpha, beta and gamma permute the rows, columns and colors, and
    square[alpha[i]][beta[j]] == gamma[square[i][j]] on all n^2 cells."""
    order = list(range(len(square)))
    return (all(sorted(m) == order for m in (alpha, beta, gamma))
            and all(square[alpha[i]][beta[j]] == gamma[c]
                    for i, row in enumerate(square) for j, c in enumerate(row)))


def _autotopism(t: list[list], cell: tuple[int, int], image: tuple[int, int],
                c: int) -> Optional[tuple[list[int], list[int], list[int]]]:
    """(alpha, beta, gamma), an autotopism of the square t[0][1] that takes
    cell to image and fixes color c, or None when there is none.

    Depth first over the image of the lowest unmapped row, on an explicit
    stack; propagation fixes everything else.  The map found is checked on all
    n^2 cells.
    """
    n = len(t[0][1])
    start = [[-1] * n for _ in range(6)]
    if not _extend(t, start, [(0, cell[0], image[0]), (1, cell[1], image[1]),
                              (2, c, c)]):
        return None
    stack: list[tuple[list, Optional[tuple]]] = [(start, None)]
    while stack:
        maps, guess = stack.pop()
        if guess is not None:
            maps = [m[:] for m in maps]
            if not _extend(t, maps, [guess]):
                continue
        alpha, rows_taken = maps[0], maps[3]
        if -1 not in alpha:
            found = (alpha, maps[1], maps[2])
            return found if _is_autotopism(t[0][1], *found) else None
        r = alpha.index(-1)
        stack += [(maps, (0, r, y)) for y in range(n - 1, -1, -1) if rows_taken[y] < 0]
    return None


def _root_branches(graph: ColoredMultigraph, c: int, ids: list[int]) -> list[int]:
    """ids without each edge onto which an autotopism fixing color c maps
    ids[0]; all of ids when graph is not a Latin square."""
    latin = _latin_square(graph)
    if latin is None:
        return ids
    cells, square = latin
    t = _conjugates(square)
    return [ids[0]] + [eid for eid in ids[1:]
                       if _autotopism(t, cells[ids[0]], cells[eid], c) is None]


def exact_max_rainbow(graph: ColoredMultigraph,
                      node_budget: Optional[int] = None
                      ) -> tuple[int, RainbowMatching, bool]:
    """(optimum size, witness matching, certified flag).

    certified is True iff the search ran to completion within node_budget
    nodes (None means no limit).  The incumbent is seeded with greedy +
    augmentation, so the result never trails the heuristics.
    """
    seed_matching, _ = augment_flagged(graph, greedy_maximal(graph))
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
            ids = [eid for eid in graph.color_edges[scarcest]
                   if free[edges[eid][0]] and free[edges[eid][1]]]
            if not frames:  # the root
                ids = _root_branches(graph, scarcest, ids)
            frames.append([scarcest, ids, 0])
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
