"""Seeded instance generators for every family used by the verification harness.

All generators are pure functions of their parameters and seed; the same
inputs always produce an identical edge list.
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable, Optional

from .errors import GenerationStuck, ParameterViolation
from .graph import ColorClassKind, ColoredMultigraph, _pair
from .seeding import shuffle


def _latin_cayley(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _latin_shuffle(square: list[list[int]], n: int, rng: random.Random,
                   moves: int) -> None:
    """Randomize a Latin square in place by Jacobson-Matthews moves.

    View the square as a 0/1 cube over (row, column, symbol).  A move adds 1
    at (r, c, s), (r, c2, s2), (r2, c, s2), (r2, c2, s) and subtracts 1 at the
    other four corners of that box.  From a proper square (r, c, s) is a
    uniform 0-cell and s2, c2, r2 are the 1s on its lines; a move may leave
    one -1 cell, and the next starts there, taking one of the two 1s on each
    of its lines.  The chain reaches every Latin square (Jacobson & Matthews
    1996); it stops at the first proper square after `moves` proper moves.
    Per-row and per-column inverse tables make a move O(1); at the -1 cell
    they hold one of each line's two 1s and es, ec, er the other.
    """
    if n < 2:
        return  # a single cell has no 0-cell to start a move from
    col_of = [[0] * n for _ in range(n)]
    row_of = [[0] * n for _ in range(n)]
    for r, row in enumerate(square):
        for c, s in enumerate(row):
            col_of[r][s] = c
            row_of[c][s] = r
    # each draw takes the fewest bits that cover its range and rejects values
    # past it, so the squares depend only on the Mersenne Twister bit stream,
    # not on how a Python release implements randrange
    getrandbits = rng.getrandbits
    k_cell, k_sym = (n * n - 1).bit_length(), (n - 2).bit_length()
    improper = False
    while moves or improper:
        if improper:
            bits = getrandbits(3)  # which +1 to take on each line
        else:
            moves -= 1
            cell = getrandbits(k_cell)
            while cell >= n * n:
                cell = getrandbits(k_cell)
            s = getrandbits(k_sym)
            while s >= n - 1:
                s = getrandbits(k_sym)
            r, c = divmod(cell, n)
            if s >= square[r][c]:
                s += 1
            es, ec, er, bits = s, c, r, 0  # take the tables' 1s; (r, c, s) replaces them
        s2, c2, r2 = square[r][c], col_of[r][s], row_of[c][s]
        if bits & 1:
            s2, es = es, s2
        if bits & 2:
            c2, ec = ec, c2
        if bits & 4:
            r2, er = er, r2
        square[r][c], col_of[r][s], row_of[c][s] = es, ec, er
        square[r][c2] = square[r2][c] = s2
        col_of[r][s2] = col_of[r2][s] = c2
        row_of[c][s2] = row_of[c2][s] = r2
        improper = square[r2][c2] != s2
        if improper:
            r, c, s, es, ec, er = r2, c2, s2, s, c, r
        else:
            square[r2][c2] = s
            col_of[r2][s2] = c
            row_of[c2][s2] = r


def gen_latin(n: int, mode: str = "cayley", seed: int = 0) -> ColoredMultigraph:
    """Properly n-edge-coloured K_{n,n} from a Latin square of order n.

    Vertices 0..n-1 are rows, n..2n-1 are columns; the edge (i, n+j) gets the
    symbol in cell (i, j).  Cayley mode uses the addition table of Z_n; random
    mode starts there and runs 4n^2 seeded Jacobson-Matthews moves.
    """
    if n < 1:
        raise ParameterViolation("n >= 1 required")
    square = _latin_cayley(n)
    if mode == "random":
        _latin_shuffle(square, n, random.Random(seed), 4 * n * n)
    elif mode != "cayley":
        raise ParameterViolation(f"unknown latin mode {mode!r}")
    edges = [(i, n + j, square[i][j]) for i in range(n) for j in range(n)]
    sides = [0] * n + [1] * n
    return ColoredMultigraph(2 * n, n, edges, sides=sides)


def gen_ab(n: int, extra: int, bipartite: bool, seed: int) -> ColoredMultigraph:
    """n colors, each a uniformly placed matching of exactly n+extra edges.

    The vertex pool has 2(n+extra) + ceil(n/2) vertices: large enough for the
    per-color matchings (either bipartite side holds at least n+extra), small
    enough that colors interact.
    """
    if n < 1 or extra < 0:
        raise ParameterViolation("n >= 1 and extra >= 0 required")
    size = n + extra
    pool = 2 * size + math.ceil(n / 2)
    rng = random.Random(seed)
    edges: list[tuple[int, int, int]] = []
    sides: Optional[list[int]] = None
    if bipartite:
        left = pool // 2 + pool % 2
        right = pool - left
        sides = [0] * left + [1] * right
        left_ids = list(range(left))
        right_ids = list(range(left, pool))
        for c in range(n):
            shuffle(rng, left_ids)
            shuffle(rng, right_ids)
            for k in range(size):
                edges.append((left_ids[k], right_ids[k], c))
    else:
        ids = list(range(pool))
        for c in range(n):
            shuffle(rng, ids)
            for k in range(size):
                edges.append((ids[2 * k], ids[2 * k + 1], c))
    return ColoredMultigraph(pool, n, edges, sides=sides)


def gen_grinblat(n: int, v: int, m: int, seed: int) -> ColoredMultigraph:
    """Each color class a random disjoint union of K2/K3 cliques spanning >= v vertices.

    The pair multiplicity cap m is enforced globally by rejecting clique
    placements that would exceed it; after 1000*n rejections the (n, v, m)
    combination is declared infeasible.  A colour's cliques take one shuffle
    of the pool in order.  It never runs out: v - spanned + ceil(n/2) ids are
    left, enough for a K3 when v - spanned >= 3 and for a K2 when it is >= 1.
    """
    if n < 1 or v < 2 or m < 1:
        raise ParameterViolation("need n >= 1, v >= 2, m >= 1")
    pool = v + math.ceil(n / 2)
    rng = random.Random(seed)
    mult: dict[tuple[int, int], int] = {}
    edges: list[tuple[int, int, int]] = []
    budget = 1000 * n
    # disjoint cliques give each pair at most one edge per color, so a cap of
    # n or more can never bind and the rejection bookkeeping is skipped
    unchecked = m >= n

    def place(verts: list[int], c: int) -> bool:
        pairs = ([_pair(verts[0], verts[1])] if len(verts) == 2 else
                 [_pair(verts[0], verts[1]), _pair(verts[0], verts[2]),
                  _pair(verts[1], verts[2])])
        if any(mult.get(p, 0) >= m for p in pairs):
            return False
        for p in pairs:
            mult[p] = mult.get(p, 0) + 1
        for p in pairs:
            edges.append((p[0], p[1], c))
        return True

    append = edges.append
    random_ = rng.random
    # every color shuffles a copy of one id list, so each vertex id is one
    # int object across all edges rather than one per color
    ids = list(range(pool))
    for c in range(n):
        ratio = random_()  # triangle share of this color's clique budget
        available = ids.copy()
        shuffle(rng, available)
        spanned = 0  # also the index of the next unused id in available
        if unchecked:
            while spanned < v:
                a = available[spanned]
                b = available[spanned + 1]
                append((a, b, c) if a < b else (b, a, c))
                if random_() < ratio and v - spanned >= 3:
                    d = available[spanned + 2]
                    append((a, d, c) if a < d else (d, a, c))
                    append((b, d, c) if b < d else (d, b, c))
                    spanned += 3
                else:
                    spanned += 2
            continue
        while spanned < v:
            k = 3 if random_() < ratio and v - spanned >= 3 else 2
            if place(available[spanned:spanned + k], c):
                spanned += k
            else:
                budget -= 1
                if budget <= 0:
                    raise GenerationStuck(f"(n={n}, v={v}, m={m}) looks infeasible")
                tail = available[spanned:]
                shuffle(rng, tail)
                available[spanned:] = tail
    return ColoredMultigraph(pool, n, edges)


def gen_triangle_lb(n: int) -> ColoredMultigraph:
    """n-1 disjoint triangles, each repeated in every one of the n colors."""
    if n < 2:
        raise ParameterViolation("n >= 2 required")
    edges = []
    for c in range(n):
        for t in range(n - 1):
            a, b, d = 3 * t, 3 * t + 1, 3 * t + 2
            edges.extend([(a, b, c), (a, d, c), (b, d, c)])
    return ColoredMultigraph(3 * (n - 1), n, edges)


def gen_two_k4() -> ColoredMultigraph:
    """Proper 3-edge-colouring of two disjoint K4s; max rainbow matching is 2."""
    edges = []
    for base in (0, 4):
        a, b, c, d = base, base + 1, base + 2, base + 3
        edges.extend([(a, b, 0), (c, d, 0),
                      (a, c, 1), (b, d, 1),
                      (a, d, 2), (b, c, 2)])
    return ColoredMultigraph(8, 3, edges)


def gen_multiplicity_lb(n: int, d: int, seed: int) -> ColoredMultigraph:
    """(n-1)/d disjoint (2d+1)-vertex blocks; per color and block a random
    spanning subgraph of d-1 disjoint edges plus one triangle.

    No matching of size n exists since each block hosts at most d edges.
    The asymptotic size bound n > 10*d^3*log(d) is not enforced: desk-scale
    instances deliberately waive it.
    """
    if d < 2:
        raise ParameterViolation("d >= 2 required")
    if (n - 1) % d != 0 or n <= d:
        raise ParameterViolation("d must divide n-1 and n > d")
    blocks = (n - 1) // d
    block_size = 2 * d + 1
    rng = random.Random(seed)
    edges = []
    for c in range(n):
        for b in range(blocks):
            verts = list(range(b * block_size, (b + 1) * block_size))
            shuffle(rng, verts)
            x, y, z = verts[:3]
            edges.extend([(x, y, c), (x, z, c), (y, z, c)])
            rest = verts[3:]
            for k in range(0, len(rest), 2):
                edges.append((rest[k], rest[k + 1], c))
    return ColoredMultigraph(blocks * block_size, n, edges)


def _round_robin_square(n: int) -> list[list[int]]:
    """Symmetric order-n Latin-style table with constant diagonal, n even.

    Off-diagonal entries encode a 1-factorization of K_n with n-1 symbols
    1..n-1 (circle method); the diagonal carries symbol 0.
    """
    s = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        for j in range(n - 1):
            if i != j:
                s[i][j] = (i + j) % (n - 1) + 1
        s[i][n - 1] = s[n - 1][i] = (2 * i) % (n - 1) + 1
    return s


def gen_two_factorized(d: int, mode: str, extra_vertices: int = 0,
                       seed: int = 0) -> ColoredMultigraph:
    """2d-regular graph whose d color classes are all 2-factors.

    circulant: color i is the offset-(i+1) circulant 2-factor on Z_N with
    N = 2d+1+extra_vertices.  symmetric_latin: doubled-vertex construction
    from a symmetric order-(d+1) square with constant diagonal (d odd, no
    extra vertices).
    """
    if d < 1:
        raise ParameterViolation("d >= 1 required")
    if mode == "circulant":
        n_vertices = 2 * d + 1 + extra_vertices
        if n_vertices < 2 * d + 1:
            raise ParameterViolation("need at least 2d+1 vertices")
        # n_vertices > 2 * off, so no offset is degenerate and each offset's
        # walk meets every one of its edges exactly once
        edges = []
        for c in range(d):
            off = c + 1
            for vtx in range(n_vertices):
                a, b = _pair(vtx, (vtx + off) % n_vertices)
                edges.append((a, b, c))
        return ColoredMultigraph(n_vertices, d, edges)
    if mode == "symmetric_latin":
        if d % 2 == 0:
            raise ParameterViolation(f"symmetric_latin: d must be odd, got {d}")
        if extra_vertices:
            raise ParameterViolation(
                f"symmetric_latin takes no extra vertices, got {extra_vertices}")
        n = d + 1
        square = _round_robin_square(n)
        # vertices i (minus copy) and n+i (plus copy)
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                c = square[i][j] - 1
                for a in (i, n + i):
                    for b in (j, n + j):
                        edges.append((a, b, c))
        return ColoredMultigraph(2 * n, d, edges)
    raise ParameterViolation(f"unknown two-factor mode {mode!r}")


_MATCHING, _CLIQUES, _TWO_FACTORS = (ColorClassKind.MATCHING, ColorClassKind.CLIQUE_UNION,
                                     ColorClassKind.TWO_FACTOR)

# family id -> (instance-file kind, generator, the `generate` options it reads).
# A generator takes the command's options and the seed.  The lambdas look gen_*
# up at call time, so a wrapper installed on this module sees every call.
FAMILIES: dict[str, tuple[ColorClassKind, Callable[[Any, int], ColoredMultigraph],
                          tuple[str, ...]]] = {
    "latin_cayley": (_MATCHING, lambda o, seed: gen_latin(o.n, "cayley", seed), ("n",)),
    "latin_random": (_MATCHING, lambda o, seed: gen_latin(o.n, "random", seed), ("n",)),
    "ab_bipartite": (_MATCHING, lambda o, seed: gen_ab(o.n, o.extra, True, seed),
                     ("n", "extra")),
    "ab_general": (_MATCHING, lambda o, seed: gen_ab(o.n, o.extra, False, seed),
                   ("n", "extra")),
    "grinblat": (_CLIQUES, lambda o, seed: gen_grinblat(o.n, o.v, o.m, seed),
                 ("n", "v", "m")),
    "triangle_lb": (_CLIQUES, lambda o, seed: gen_triangle_lb(o.n), ("n",)),
    "two_k4": (_MATCHING, lambda o, seed: gen_two_k4(), ()),
    "multiplicity_lb": (_CLIQUES, lambda o, seed: gen_multiplicity_lb(o.n, o.d, seed),
                        ("n", "d")),
    "circulant_two_factor": (
        _TWO_FACTORS, lambda o, seed: gen_two_factorized(o.d, "circulant", o.extra, seed),
        ("d", "extra")),
    "symmetric_latin_two_factor": (
        _TWO_FACTORS,
        lambda o, seed: gen_two_factorized(o.d, "symmetric_latin", o.extra, seed),
        ("d", "extra")),
}
