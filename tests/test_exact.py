"""Oracle checks: frozen known optima plus brute-force cross-validation."""

import hashlib
import itertools
import random

import pytest

from rainbowmatch.generators import (gen_latin, gen_triangle_lb, gen_two_k4)
from rainbowmatch.graph import ColoredMultigraph, is_rainbow_matching
from rainbowmatch.solvers import (augment, exact_max_rainbow, greedy_maximal,
                                  sampling_solve)


def brute_force_max(graph):
    """Largest rainbow subset over all edge subsets; only for tiny graphs."""
    best = 0
    ids = range(graph.n_edges)
    for r in range(1, graph.n_edges + 1):
        found = False
        for subset in itertools.combinations(ids, r):
            vs: set = set()
            cs: set = set()
            ok = True
            for eid in subset:
                u, v, c = graph.edges[eid]
                if u in vs or v in vs or c in cs:
                    ok = False
                    break
                vs.update((u, v))
                cs.add(c)
            if ok:
                found = True
                break
        if found:
            best = r
        else:
            break
    return best


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
    assert exact_size >= len(greedy_maximal(g, "rare_color_first", 1))
    assert exact_size >= len(augment(g, greedy_maximal(g, "input", 0), seed=2))
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


# instance -> (SHA-256 of (optimum, sorted witness pairs), nodes explored),
# measured on the recursive search this one replaced: the tree must stay the
# same node for node
TREE_PINS = {
    "cayley_6": (lambda: gen_latin(6, "cayley"),
                 "656ae222b2cf859635028e20341517fca189de20f610961ed256d5055092abd8", 182),
    "cayley_8": (lambda: gen_latin(8, "cayley"),
                 "1874b7b8e8547e968205d94ec2b87fd68a01482b2ace62d3ad476cdfb70d4cfc", 2034),
    "cayley_10": (lambda: gen_latin(10, "cayley"),
                  "c8d1fb9b0f4253b72e26d40e51b345df1321ba320128a3d86adb69d9121fc3d3", 42242),
    "isotope_10_seed1": (lambda: _isotope(10, 1),
                         "3465ab6eeeaa463481adc18ff5451bde662dfadcfd38ab26d98194f3b18142f6", 44302),
    "isotope_10_seed2": (lambda: _isotope(10, 2),
                         "98e8557c023cdc74f70c519a5b5c5394f8899a91cba79ff78bd6af42ec9fa83f", 44322),
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
