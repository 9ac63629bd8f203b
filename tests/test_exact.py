"""Oracle checks: frozen known optima plus brute-force cross-validation."""

import hashlib
import itertools
import random

import pytest

from rainbowmatch.generators import (gen_ab, gen_grinblat, gen_latin,
                                     gen_triangle_lb, gen_two_k4)
from rainbowmatch.graph import ColoredMultigraph, RainbowMatching, is_rainbow_matching
from rainbowmatch.solvers import (augment_flagged, exact_max_rainbow, greedy_maximal,
                                  sampling_solve)
from rainbowmatch.solvers.exact import (_autotopism, _conjugates, _is_autotopism,
                                        _latin_square, _root_branches)


def brute_force_max(graph):
    """Largest rainbow subset over all edge subsets; only for tiny graphs."""
    def rainbow(subset):
        ends = [x for eid in subset for x in graph.edges[eid][:2]]
        colors = {graph.edges[eid][2] for eid in subset}
        return len(set(ends)) == len(ends) and len(colors) == len(subset)
    return max(r for r in range(graph.n_edges + 1)
               if any(map(rainbow, itertools.combinations(range(graph.n_edges), r))))


def random_tiny_instance(rng):
    n_vertices = rng.randint(2, 6)
    n_colors = rng.randint(1, 4)
    n_edges = rng.randint(1, 8)
    edges = []
    for _ in range(n_edges):
        u = rng.randrange(n_vertices)
        v = rng.randrange(n_vertices)
        while v == u:
            v = rng.randrange(n_vertices)
        edges.append((u, v, rng.randrange(n_colors)))
    return ColoredMultigraph(n_vertices, n_colors, edges)


def test_matches_brute_force_on_tiny_instances():
    rng = random.Random(20240817)
    for _ in range(200):
        g = random_tiny_instance(rng)
        size, matching, certified = exact_max_rainbow(g)
        assert certified
        assert size == brute_force_max(g)
        ok, why = is_rainbow_matching(g, matching)
        assert ok, why
        assert len(matching) == size


def test_known_optima():
    assert exact_max_rainbow(gen_two_k4())[0] == 2
    assert exact_max_rainbow(gen_triangle_lb(4))[0] == 3
    assert exact_max_rainbow(gen_latin(5))[0] == 5
    assert exact_max_rainbow(gen_latin(6))[0] == 5  # even order: no transversal
    assert exact_max_rainbow(gen_latin(7))[0] == 7


def test_certified_flags_set():
    size, _, certified = exact_max_rainbow(gen_two_k4())
    assert certified and size == 2


def test_oracle_dominates_heuristics():
    g = gen_latin(6, "random", 5)
    exact_size = exact_max_rainbow(g)[0]
    assert exact_size >= len(greedy_maximal(g, "rare_color_first"))
    assert exact_size >= len(augment_flagged(g, RainbowMatching(), seed=2)[0])
    assert exact_size >= len(sampling_solve(g, 0.5, seed=3).matching)


def _isotope(n, seed):
    """Row, column and symbol relabelling of Z_n's table, edges shuffled."""
    cyclic = gen_latin(n, "cayley")
    rng = random.Random(seed)
    rows, cols, syms = (rng.sample(range(n), n) for _ in range(3))
    edges = [(rows[u], n + cols[v - n], syms[c]) for u, v, c in cyclic.edges]
    rng.shuffle(edges)
    return ColoredMultigraph(2 * n, n, edges, sides=cyclic.sides)


def _random_instance(seed, n_vertices, n_colors, n_edges):
    rng = random.Random(seed)
    return ColoredMultigraph(n_vertices, n_colors,
                             [(*rng.sample(range(n_vertices), 2), rng.randrange(n_colors))
                              for _ in range(n_edges)])


# instance -> (SHA-256 of (optimum, sorted witness pairs), nodes explored).
# Each digest was measured on the search that branches on every live edge,
# root included: symmetry may shrink a Latin square's tree, never change its
# result.  The node counts pin the tree itself.
TREE_PINS = {
    "cayley_6": (lambda: gen_latin(6, "cayley"),
                 "656ae222b2cf859635028e20341517fca189de20f610961ed256d5055092abd8", 32),
    "cayley_8": (lambda: gen_latin(8, "cayley"),
                 "1874b7b8e8547e968205d94ec2b87fd68a01482b2ace62d3ad476cdfb70d4cfc", 256),
    "cayley_10": (lambda: gen_latin(10, "cayley"),
                  "c8d1fb9b0f4253b72e26d40e51b345df1321ba320128a3d86adb69d9121fc3d3", 4226),
    # no transversal; 1,021,754 nodes without the root's symmetry
    "cayley_12": (lambda: gen_latin(12, "cayley"),
                  "4cbcbcde552afcb009b87fa058d3dc016e1951014cace147d38f909422eb445b", 85148),
    "isotope_10_seed1": (lambda: _isotope(10, 1),
                         "3465ab6eeeaa463481adc18ff5451bde662dfadcfd38ab26d98194f3b18142f6", 4432),
    "isotope_10_seed2": (lambda: _isotope(10, 2),
                         "98e8557c023cdc74f70c519a5b5c5394f8899a91cba79ff78bd6af42ec9fa83f", 4434),
    # no symmetry maps the root's first cell anywhere else: the full tree
    "latin_random_8_seed0": (lambda: gen_latin(8, "random", 0),
                             "f1e4ad3363a2eddc27841a98e6cb28b0f66a320ff0121d7401ae0d1119e340c2", 77),
    "triangle_lb_6": (lambda: gen_triangle_lb(6),
                      "8b3edf091e89a6e7d37130e1e7b6fe8a168295123097664bdfa37c7420a33c37", 1),
    # the incumbent is neither optimal nor one short of the live colors, so the
    # skip branches do work and the order of the branches shows
    "random_16v_12c_30e_seed9": (lambda: _random_instance(9, 16, 12, 30),
                                 "24b2d0d847d87a4454c00e1ea7d6f765b2806f376a415b46c72b784a4f6f8fa2",
                                 135),
    "random_16v_10c_40e_seed7": (lambda: _random_instance(7, 16, 10, 40),
                                 "6222a7c7cd4b8b263744abc86c71ebe39a3de914989eb930759403876ac06ac2",
                                 78),
}


@pytest.mark.parametrize("name", sorted(TREE_PINS))
def test_search_tree_pinned(name):
    make, digest, nodes = TREE_PINS[name]
    g = make()
    size, matching, certified = exact_max_rainbow(g, node_budget=nodes)
    assert certified
    assert hashlib.sha256(repr((size, sorted(matching.pairs))).encode()).hexdigest() == digest
    assert not exact_max_rainbow(g, node_budget=nodes - 1)[2]


def test_spent_budget_returns_the_incumbent_uncertified():
    g = gen_latin(6, "cayley")
    size, matching, certified = exact_max_rainbow(g, node_budget=0)
    assert not certified
    assert is_rainbow_matching(g, matching)[0] and len(matching) == size


def test_latin_corpus_matches_the_full_search():
    # the digest is the search's without the root's symmetry, on the same list
    results = []
    for n in range(1, 11):
        graphs = [gen_latin(n)]
        for seed in range(3):
            graphs.append(_isotope(n, seed))
            if n <= 8:
                graphs.append(gen_latin(n, "random", seed))
        for g in graphs:
            size, matching, certified = exact_max_rainbow(g)
            results.append((size, sorted(matching.pairs), certified))
    assert len(results) == 64
    assert (hashlib.sha256(repr(results).encode()).hexdigest()
            == "d614beda1526a90b771146b2333ba899419b0200b31934ad1da32497fbab3cb5")


def _relabelled(g, seed):
    """g with its vertex ids permuted and some edges written column first."""
    rng = random.Random(seed)
    perm = rng.sample(range(g.n_vertices), g.n_vertices)
    sides = [0] * g.n_vertices
    for v, s in enumerate(g.sides):
        sides[perm[v]] = s
    edges = [(perm[v], perm[u], c) if rng.random() < 0.5 else (perm[u], perm[v], c)
             for u, v, c in g.edges]
    return ColoredMultigraph(g.n_vertices, g.n_colors, edges, sides=sides)


def _first_cell_orbit(g, c):
    """The cells of colour c onto which the detector maps its first one; each
    map is re-checked here against the square read off the edges."""
    n = g.n_colors
    row_of = {v: i for i, v in enumerate(v for v in range(g.n_vertices) if g.sides[v] == 0)}
    col_of = {v: j for j, v in enumerate(v for v in range(g.n_vertices) if g.sides[v] == 1)}

    def cell(eid):
        u, v, _ = g.edges[eid]
        return (row_of[u], col_of[v]) if u in row_of else (row_of[v], col_of[u])

    square = [[None] * n for _ in range(n)]
    for eid, (_, _, d) in enumerate(g.edges):
        i, j = cell(eid)
        square[i][j] = d
    cells = [cell(eid) for eid in g.color_edges[c]]
    t = _conjugates(_latin_square(g)[1])
    orbit = [cells[0]]
    for target in cells[1:]:
        maps = _autotopism(t, cells[0], target, c)
        if maps is None:
            continue
        alpha, beta, gamma = maps
        assert sorted(alpha) == sorted(beta) == sorted(gamma) == list(range(n))
        assert all(square[alpha[i]][beta[j]] == gamma[square[i][j]]
                   for i in range(n) for j in range(n))
        assert gamma[c] == c
        assert (alpha[cells[0][0]], beta[cells[0][1]]) == target
        orbit.append(target)
    return orbit, cells


@pytest.mark.parametrize("n", range(2, 13))
def test_cyclic_squares_and_isotopes_are_one_orbit_per_colour(n):
    for g in (gen_latin(n), _isotope(n, 0), _isotope(n, 1), _relabelled(_isotope(n, 2), n)):
        for c in sorted({0, n - 1}):
            orbit, cells = _first_cell_orbit(g, c)
            assert orbit == cells
            ids = g.color_edges[c]
            assert _root_branches(g, c, ids) == ids[:1]


def test_detector_maps_on_random_squares_are_autotopisms():
    # these squares have few or no symmetries, so most searches fail: each
    # has a colour whose first cell no symmetry moves
    for n, seed in ((6, 2), (7, 1), (8, 0), (9, 2)):
        g = gen_latin(n, "random", seed)
        orbit_sizes = []
        for c in range(n):
            orbit, cells = _first_cell_orbit(g, c)
            kept = _root_branches(g, c, g.color_edges[c])
            assert len(kept) == n - len(orbit) + 1
            orbit_sizes.append(len(orbit))
        assert min(orbit_sizes) == 1, (n, seed, orbit_sizes)


def _no_sides(g):
    return ColoredMultigraph(g.n_vertices, g.n_colors, g.edges)


def _one_edge_short(g):
    return ColoredMultigraph(g.n_vertices, g.n_colors, g.edges[1:], sides=g.sides)


@pytest.mark.parametrize("make", [
    lambda: gen_ab(6, 0, True, 1), lambda: gen_ab(6, 1, False, 2),
    lambda: gen_grinblat(6, 18, 6, 3), lambda: gen_triangle_lb(5), gen_two_k4,
    lambda: _one_edge_short(gen_latin(6)), lambda: _no_sides(gen_latin(6)),
], ids=["ab_bipartite", "ab_general", "grinblat", "triangle_lb", "two_k4",
        "latin_one_edge_short", "latin_without_sides"])
def test_one_branch_per_edge_unless_a_latin_square(make):
    g = make()
    assert _latin_square(g) is None
    for c in range(g.n_colors):
        ids = g.color_edges[c]
        if ids:
            assert _root_branches(g, c, ids) == ids


def test_a_map_off_by_one_column_transposition_is_refused():
    g = _isotope(6, 3)
    square = _latin_square(g)[1]
    alpha, beta, gamma = _autotopism(_conjugates(square), (0, 0), (2, 3), square[0][0])
    assert _is_autotopism(square, alpha, beta, gamma)
    for j1, j2 in itertools.combinations(range(6), 2):
        swapped = list(beta)
        swapped[j1], swapped[j2] = swapped[j2], swapped[j1]
        assert not _is_autotopism(square, alpha, swapped, gamma)
    assert not _is_autotopism(square, alpha, [beta[0]] * 6, gamma)
